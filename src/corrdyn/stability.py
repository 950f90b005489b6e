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

W is computed from at most min(m, e+1) restrictions instead of the ~m^3/6
partials of order m-1.  On the diagonal the x identity reads

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

Restriction to the diagonal D turns d_{x1} + d_{y1} into d_{z1}: by the
chain rule, ((d_{x1} + d_{y1})h)|D = d_{z1}(h|D).  So for l <= min(k, e) the
form d_{z1}^(k-l) (d_{y1}^l f)|D is (d_{x1}^(k-l) d_{y1}^l f)|D plus multiples
of the restrictions of the order-k chart partials of higher y-order (the first
term is 0 when k-l > d).  Ordered by l, these forms are a unitriangular change
of basis of the order-k chart restrictions, together with forms in their
span: the same span, the same GCD and the same least order at each point.
Order k is read as that family: the z1-derivatives of order k-1's, O(n)
integer operations each, and for k <= e one new restriction, of d_{y1}^k f.
The mirrored partials are read the same way.

The chart partials of orders <= k are the chart partials of order k and
those below, so one upward scan finds the largest multiplicity.  Order k
takes the GCD of the GCD carried from order k-1 and the restrictions of order
k; corrected at [0:1], that is the witness W of m = k+1.  The scan stops at
the first order whose witness is constant: "some diagonal point has
multiplicity >= m" is monotone in m, so no order above it can hold.  (The
``multiplicity-monotonicity`` identity of ``corrdyn verify`` checks the stop
against the definition: the GCD of every order-(m-1) partial, restricted, at
the last hit and at the order above it.)  Each y-order is therefore restricted
at most once per chart and call, the GCD stops reading an order's family once
it is 1, and the mirrored family read for one [0:1] correction serves every
order above it; the mirrored chart is first read when that correction first
needs an order above 0.  On a form without a double point the scan usually
ends at order 1, after two restrictions.  ``classify_stability`` scans up to
m = d+e and returns the last hit with its witness in the verdict.

The restrictions are computed on integers.  The coefficients of f are
cleared once per call to integer rows over their common denominator D, and the
restriction of each d_{y1}^l f is summed straight from them by the
anti-diagonal kernel of ``forms``, with no intermediate form.  Every
restriction, and so every z1-derivative of one, is D times the true one,
which does not move the witness: a GCD is unique up to a scalar, and the
witness is normalized to be integer-primitive with positive first nonzero
coefficient.  The GCDs and the [0:1] correction stay on
integers too; only the witness of the last hit becomes a form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, islice

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


def _scan(f: Correspondence, top: int) -> tuple[int, BinaryForm]:
    """The largest m <= top with a diagonal point of multiplicity >= m, and its witness.

    m = 0, with the witness 1, when no order holds.
    """
    d, e = f.deg_x, f.deg_y
    n = d + e
    rows = _int_rows(f.form)[0]

    def orders(rows):
        # Order k: d_{z1}^(k-l) (d_{y1}^l f)|D for l <= min(k, e), f the form with these rows.
        rs = []
        for k in range(n):
            rs = [[i * c for i, c in enumerate(r)][1:] for r in rs]
            if k <= e:
                rs.append(_diagonal_sum(rows, [1] * (d + 1), _partial_weights(e, 0, k), 0, k))
            yield rs

    mirrored = islice(orders([row[::-1] for row in reversed(rows)]), 1, None)
    mult, witness, carried = 0, [1], ()
    low, seen = n, 0  # the least order at [0:1] among the mirrored partials of orders 1..seen
    for k, rs in zip(range(top), orders(rows)):
        w = _gcd_int_forms(chain(carried, ((n - k, r) for r in rs)))
        carried = [(len(w) - 1, w)]
        if w[-1] == 0 and any(w):
            # The witness vanishes at [0:1], where the chart z0 != 0 sees only
            # a_de.  The mirrored form turns the partials in x0/y0 into chart
            # partials and [0:1] into [1:0]: the least order of vanishing at
            # [0:1] is the least number of leading zeros among them.
            v0 = next(i for i, c in enumerate(reversed(w)) if c)
            if low:
                for r in chain.from_iterable(islice(mirrored, k - seen)):
                    low = min(low, next((i for i, c in enumerate(r) if c), low))
                    if not low:
                        break
                seen = k
            w = w[: len(w) - v0 + min(v0, low)]
        if len(w) == 1 and w[0]:
            break  # a nonzero constant: no diagonal point of multiplicity k + 1
        mult, witness = k + 1, w
    return mult, BinaryForm(len(witness) - 1, witness)


def classify_stability(f: Correspondence) -> StabilityVerdict:
    """Stability verdict from the largest multiplicity attained on the diagonal.

    The verdict carries that multiplicity and the GCD witness at its order.
    """
    n = f.deg_x + f.deg_y
    if n < 1:
        raise ValueError("stability needs total degree at least 1")
    mult, witness = _scan(f, n)
    if 2 * mult < n:
        verdict = Verdict.STABLE
    elif 2 * mult == n:
        verdict = Verdict.STRICTLY_SEMISTABLE
    else:
        verdict = Verdict.UNSTABLE
    return StabilityVerdict(verdict, mult, witness)
