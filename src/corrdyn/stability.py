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
projective root of finitely many binary forms, which their homogeneous GCD W
decides exactly: W is nonconstant iff a common root exists over the
algebraic closure, and W = 0 means every diagonal point qualifies (the
partials vanish along the whole diagonal).  W is returned as a witness; its
roots are the offending diagonal points.

W is computed from about m^2/2 restrictions instead of the ~m^3/6 partials
of order m-1.  On the diagonal the x identity reads

    z0*(d_{x0}h)|D + z1*(d_{x1}h)|D = p*h|D,

and the y identity likewise.  Solved for (d_{x0}h)|D, it trades an
x0-derivative for an x1-derivative and a restriction of lower order, divided
by z0.  So at a diagonal point P = [p0:p1] with p0 != 0 every order-(m-1)
partial vanishes at least to the least order among the chart partials
d_{x1}^j d_{y1}^l f with j + l <= m-1; and read forward, the identities make
each chart partial a combination of order-(m-1) partials, so the two least
orders are equal.  A binary GCD is fixed up to a scalar by its order at each
point, so the GCD of the restricted chart partials agrees with W at every
point but [0:1] and, normalized as ``binary_gcd`` normalizes, is W once that
point is settled.  The chart sees [0:1] only through a_de (every chart
partial vanishes there when a_de = 0), and the mirrored partials
d_{x0}^i d_{y0}^k f settle it the same way, so they are read only while the
GCD is nonzero and still vanishes at [0:1], and only for their order there.
Adding an order-(m-1) partial to the set leaves the GCD alone, W being its
divisor.  The first two of them, in y0 and y1 after the x0-derivatives that
degree e forces, lead the stream: on a form without the point their GCD is
usually already 1, so an order that misses stops as early as with every
order-(m-1) partial, while the chart, read from order m-1 down to 0, makes an
order that holds cheap.

``classify_stability`` finds the largest multiplicity by bisection over the
orders 0..d+e rather than by trying m = 1, 2, ... in turn, so at most
ceil(log2(d+e+1)) orders are tested, and returns it with its witness in the
verdict.  This is exact: the test at each order stands alone (the
Euler argument above), and "some diagonal point has multiplicity >= m" is
monotone in m, which the ``multiplicity-monotonicity`` identity of
``corrdyn verify`` checks.  The last order that holds is therefore the m a
linear scan finds, with the same GCD witness.  The restrictions of one order
are produced lazily and the GCD stops reading them once it is 1.

The orders of one call share their per-form work.  The integer rows of f
(below), the mirrored rows and the chart weight tables are built once, and
every order tried after a hit at mult lies above it, so the GCD G that the hit
read is carried there: order m reads its two leading restrictions, the chart
partials of orders m-1 down to mult only, and G last.  The GCD is the same.
The chart restrictions do not depend on m and a GCD may be taken in any
grouping, so G stands in for the chart partials below mult; the one thing G
adds is the two leading restrictions of order mult-1.  Those are
combinations of order-(m-1) partials by the Euler identities, so the W of
order m divides them: the GCD keeps W's order at every point but [0:1], and
there the mirrored partials set it exactly, as before.
``diagonal_multiplicity_at_least`` runs the same per-order routine with
nothing carried.

The restrictions are computed on integers.  The coefficients of f are
cleared once per call to integer rows over their common denominator D, and the
restriction of each partial is summed straight from them by the anti-diagonal
kernel of ``forms``, with no intermediate form.  Every restriction is D times
the true one, which does not move the witness: a GCD is unique up to a
scalar, and the witness is normalized to be integer-primitive with positive
first nonzero coefficient.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain

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


class _Partials:
    """What every order test of f reads, built once per form.

    f's integer rows, the mirrored rows (x0 <-> x1, y0 <-> y1) and the weight
    tables of the chart partials d_{x1}^j and d_{y1}^l.
    """

    __slots__ = ("d", "e", "rows", "mirrored", "wxs", "wys")

    def __init__(self, f: Correspondence):
        self.d, self.e = d, e = f.deg_x, f.deg_y
        self.rows = _int_rows(f.form)[0]
        self.mirrored = [row[::-1] for row in reversed(self.rows)]
        self.wxs = [_partial_weights(d, 0, j) for j in range(d + 1)]
        self.wys = [_partial_weights(e, 0, l) for l in range(e + 1)]


def diagonal_multiplicity_at_least(f: Correspondence, m: int) -> tuple[bool, BinaryForm]:
    """Whether some diagonal point has multiplicity >= m, with a GCD witness.

    The witness is the homogeneous GCD of all order-(m-1) mixed partials
    restricted to the diagonal; it is nonconstant or zero exactly when the
    answer is true, and its roots are the offending points.  It is computed
    from the chart partials of orders < m, which give the same GCD.
    """
    n = f.deg_x + f.deg_y
    if not 1 <= m <= n:
        raise ValueError(f"multiplicity order must lie in 1..{n}")
    return _multiplicity_at_least(_Partials(f), m)[:2]


def _multiplicity_at_least(p: _Partials, m: int, carried=(0, ())):
    """diagonal_multiplicity_at_least on prepared partials, and what a higher order may carry.

    carried is (lowest, gcd): gcd, as (degree, coefficients) pairs, stands in
    for the chart partials of orders below lowest and is read last.  The
    returned carry is this order's GCD before the [0:1] correction.
    """
    d, e = p.d, p.e
    n = d + e
    lowest, gcd = carried
    order = m - 1

    def leads():
        # d_{x0}^sx d_{y0}^(m-1-sx-l) d_{y1}^l for l = 0, 1 with sx as small as
        # degree e allows: on an order that misses their GCD is usually 1.
        sx = max(order - e, 0)
        wx = _partial_weights(d, sx, 0)
        for l in range(min(order - sx, 1) + 1):
            if l < order:  # else it is d_{y1}^l, a chart partial
                wy = _partial_weights(e, order - sx - l, l)
                yield n - order, _diagonal_sum(p.rows, wx, wy, 0, l)

    def chart(rows, lowest):
        # Restrictions of d_{x1}^j d_{y1}^l for the form with these rows, for
        # lowest <= j + l <= m-1, highest order (fewest terms) first.
        for k in range(order, lowest - 1, -1):
            for j in range(max(k - e, 0), min(k, d) + 1):
                yield n - k, _diagonal_sum(rows, p.wxs[j], p.wys[k - j], j, k - j)

    witness = _gcd_int_forms(chain(leads(), chart(p.rows, lowest), gcd))
    carry = order + 1, [(witness.degree, [c.numerator for c in witness.coeffs])]
    if witness.is_zero() or witness.coeffs[-1] != 0:
        return witness.is_zero() or witness.degree >= 1, witness, carry
    # The witness vanishes at [0:1], where the chart z0 != 0 sees only a_de.
    # The mirrored form turns the partials in x0/y0 into chart partials and
    # [0:1] into [1:0]: the least order of vanishing at [0:1] is the least
    # number of leading zeros among them.
    v0 = next(k for k, c in enumerate(reversed(witness.coeffs)) if c)
    low = v0
    for _, r in chart(p.mirrored, 1):
        low = min(low, next((k for k, c in enumerate(r) if c), low))
        if not low:
            break
    cs = witness.coeffs[: len(witness.coeffs) - v0 + low]
    witness = BinaryForm(len(cs) - 1, cs)
    return witness.degree >= 1, witness, carry


def classify_stability(f: Correspondence) -> StabilityVerdict:
    """Stability verdict from the largest multiplicity attained on the diagonal.

    The verdict carries that multiplicity and the GCD witness at its order.
    """
    n = f.deg_x + f.deg_y
    if n < 1:
        raise ValueError("stability needs total degree at least 1")
    # Bisection over 0..n: the test is monotone in m.  Every order tried after
    # a hit lies above it and reads the hit's GCD in place of the chart below.
    p = _Partials(f)
    mult, hi = 0, n
    witness, carried = BinaryForm(0, [1]), (0, ())
    while mult < hi:
        m = (mult + hi + 1) // 2
        hit, witness_m, carry = _multiplicity_at_least(p, m, carried)
        if hit:
            mult, witness, carried = m, witness_m, carry
        else:
            hi = m - 1
    if 2 * mult < n:
        verdict = Verdict.STABLE
    elif 2 * mult == n:
        verdict = Verdict.STRICTLY_SEMISTABLE
    else:
        verdict = Verdict.UNSTABLE
    return StabilityVerdict(verdict, mult, witness)
