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

``classify_stability`` finds the largest multiplicity by bisection over the
orders 0..d+e rather than by trying m = 1, 2, ... in turn, so at most
ceil(log2(d+e+1)) orders are tested, and returns it with its witness in the
verdict.  This is exact: the test at each order stands alone (the
Euler argument above), and "some diagonal point has multiplicity >= m" is
monotone in m, which the ``multiplicity-monotonicity`` identity of
``corrdyn verify`` checks.  The last order that holds is therefore the m a
linear scan finds, with the same GCD witness.  The restrictions of one order
are produced lazily and the GCD stops reading them once it is 1, so an order
that misses usually costs only its first few partials.

The restrictions are computed on integers.  The coefficients of f are
cleared once to integer rows over their common denominator D, and the
restriction of each partial is summed straight from them by the anti-diagonal
kernel of ``forms``, with no intermediate form.  Every restriction is D times
the true one, which does not move the witness: a GCD is unique up to a
scalar, and the witness is normalized to be integer-primitive with positive
first nonzero coefficient.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .correspondence import Correspondence
from .forms import BinaryForm, _diagonal_sum, _gcd_int_forms, _int_rows, _partial_weights


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
    a, _ = _int_rows(f.form)
    order = m - 1

    def restrictions():
        # One restriction per partial d_{x0}^i d_{x1}^j d_{y0}^k d_{y1}^l of
        # total order m-1, grouped by sx = i + j so that the y weights are made
        # once per (k, l); the range of sx leaves out the partials that
        # overflow a degree.  Lazily, so the GCD can stop reading at 1.
        for sx in range(max(order - e, 0), min(order, d) + 1):
            wys = [_partial_weights(e, order - sx - l, l) for l in range(order - sx + 1)]
            for j in range(sx + 1):
                wx = _partial_weights(d, sx - j, j)
                for l, wy in enumerate(wys):
                    yield n - order, _diagonal_sum(a, wx, wy, j, l)

    witness = _gcd_int_forms(restrictions())
    return witness.is_zero() or witness.degree >= 1, witness


def classify_stability(f: Correspondence) -> StabilityVerdict:
    """Stability verdict from the largest multiplicity attained on the diagonal.

    The verdict carries that multiplicity and the GCD witness at its order.
    """
    n = f.deg_x + f.deg_y
    if n < 1:
        raise ValueError("stability needs total degree at least 1")
    # Bisection over 0..n: the test is monotone in m and each order stands alone.
    mult, hi = 0, n
    witness = BinaryForm(0, [1])
    while mult < hi:
        m = (mult + hi + 1) // 2
        hit, witness_m = diagonal_multiplicity_at_least(f, m)
        if hit:
            mult, witness = m, witness_m
        else:
            hi = m - 1
    if 2 * mult < n:
        verdict = Verdict.STABLE
    elif 2 * mult == n:
        verdict = Verdict.STRICTLY_SEMISTABLE
    else:
        verdict = Verdict.UNSTABLE
    return StabilityVerdict(verdict, mult, witness)
