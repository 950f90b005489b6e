"""Stability classification of correspondences under simultaneous conjugation.

A correspondence of bidegree (d, e) is stable exactly when no point of its
curve lying on the diagonal of P^1 x P^1 has multiplicity >= (d+e)/2, and
semistable when none has multiplicity > (d+e)/2; strictly semistable values
can therefore only occur when d + e is even.  The thresholds are implemented
as the integer comparisons 2m vs d + e.

Multiplicity is decided algebraically.  A point P lies with multiplicity
>= m on the curve f = 0 exactly when every mixed partial of total order m-1
vanishes at P: in characteristic zero the bihomogeneous Euler identities

    x0*d_{x0}h + x1*d_{x1}h = p*h      y0*d_{y0}h + y1*d_{y1}h = q*h

(for h of bidegree (p, q)) express each order-k partial at P as a combination
of order-(k+1) partials at P, so vanishing propagates downward as long as
p + q >= 1; requesting m <= d + e keeps every intermediate bidegree positive,
hence checking the single top order suffices.  Restricting the order-(m-1)
partials to the diagonal turns the existence of such a point into a common
projective root of finitely many binary forms, which the homogeneous GCD
decides exactly: the GCD is nonconstant iff a common root exists over the
algebraic closure, and the all-zero GCD means every diagonal point qualifies
(the partials vanish along the whole diagonal).  The GCD is returned as a
witness; its roots are the offending diagonal points.

The restrictions are computed on integers.  The coefficients of f are
cleared once to integer numerators over their common denominator D, and the
diagonal restriction of each partial is accumulated straight from them, with
no intermediate form.  Every restriction is then D times the true one, and
one common positive scale does not move the witness: a GCD is unique up to a
scalar, and the witness is normalized to be integer-primitive with positive
first nonzero coefficient.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .correspondence import Correspondence
from .forms import BinaryForm, _gcd_int_forms, _int_scale, _partial_weights


class Verdict(enum.Enum):
    STABLE = "Stable"
    STRICTLY_SEMISTABLE = "StrictlySemistable"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: Verdict
    max_multiplicity: int
    witness: BinaryForm


def diagonal_multiplicity_at_least(f: Correspondence, m: int) -> tuple[bool, BinaryForm]:
    """Whether some diagonal point has multiplicity >= m, with a GCD witness.

    The witness is the homogeneous GCD of all order-(m-1) mixed partials
    restricted to the diagonal; it is nonconstant or zero exactly when the
    answer is true, and its roots are the offending points.
    """
    d, e = f.deg_x, f.deg_y
    n = d + e
    if not 1 <= m <= n:
        raise ValueError(f"multiplicity order must lie in 1..{n}")
    flat, _ = _int_scale(f.form.flat())
    a = [flat[r : r + e + 1] for r in range(0, len(flat), e + 1)]
    order = m - 1
    restrictions = []
    # The partial d_{x0}^i d_{x1}^j d_{y0}^k d_{y1}^l has coefficients
    # wx[ii] * wy[jj] * a[ii+j][jj+l]; its restriction sums them over ii + jj.
    # Partials whose orders overflow a degree are zero and are skipped.
    for i in range(order + 1):
        for j in range(order - i + 1):
            if i + j > d or order - i - j > e:
                continue
            wx = _partial_weights(d, i, j)
            for k in range(order - i - j + 1):
                l = order - i - j - k
                wy = _partial_weights(e, k, l)
                r = [0] * (len(wx) + len(wy) - 1)
                for ii, u in enumerate(wx):
                    row = a[ii + j]
                    for jj, v in enumerate(wy):
                        r[ii + jj] += u * v * row[jj + l]
                restrictions.append((n - order, r))
    witness = _gcd_int_forms(restrictions)
    return witness.is_zero() or witness.degree >= 1, witness


def max_diagonal_multiplicity(f: Correspondence) -> tuple[int, BinaryForm]:
    """Largest multiplicity attained on the diagonal, with the witness at that order."""
    n = f.deg_x + f.deg_y
    if n == 0:
        return 0, BinaryForm(0, [1])
    best, best_witness = 0, BinaryForm(0, [1])
    for m in range(1, n + 1):
        hit, witness = diagonal_multiplicity_at_least(f, m)
        if not hit:
            break
        best, best_witness = m, witness
    return best, best_witness


def classify_stability(f: Correspondence) -> StabilityVerdict:
    """Stability verdict from the diagonal multiplicity threshold."""
    n = f.deg_x + f.deg_y
    if n < 1:
        raise ValueError("stability needs total degree at least 1")
    mult, witness = max_diagonal_multiplicity(f)
    if 2 * mult < n:
        verdict = Verdict.STABLE
    elif 2 * mult == n:
        verdict = Verdict.STRICTLY_SEMISTABLE
    else:
        verdict = Verdict.UNSTABLE
    return StabilityVerdict(verdict, mult, witness)
