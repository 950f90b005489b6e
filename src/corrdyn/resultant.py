"""Sylvester resultants over exact coefficient domains.

Layout convention (normative for the whole package): for f of declared degree
d and g of declared degree e, the Sylvester matrix is (d+e) x (d+e) with the
coefficients in *ascending* order; row r < e carries f[x^0..x^d] in columns
r..r+d and row e+s carries g[x^0..x^e] in columns s..s+e.  This differs from
the descending-order classical layout by the sign (-1)^(d*e); all downstream
consumers either compare projectively or are validated against independent
oracles, so the sign is absorbed here once.

The covariant resultant res(f, p*dx + q*dy), for f of degree n and a pencil
of degree N >= n, is a form of degree n in (dx, dy); it takes the pencil at
n + 1 integer points dx = t, dy = 1 and interpolates.  At each point a
fraction-free subresultant polynomial remainder sequence (Collins, J. ACM 14
(1967); Cohen, A Course in Computational Algebraic Number Theory, Algorithm
3.3.7) gives the integer resultant in O(N*n) operations instead of the
O((n+N)^3) of an elimination.  Being multiplicative in f, it lets a caller
that knows a factorization of f take one small resultant per factor (the
multiplier form of an iterate does).  That sequence needs exact degrees, so
the declared degrees are reduced first: a degree-0 argument gives a power of
its constant, two vanishing leading coefficients give 0, a vanishing leading
coefficient of f alone swaps the arguments with the sign (-1)^(d*e), and g
of actual degree k < e contributes lc(f)^(e-k).

Every other determinant is evaluated by fraction-free Bareiss elimination on
plain Python integers: homogeneous_resultant, the resultant of two binary
forms, kept as the independent route the covariant resultant is checked
against; composition, whose f-rows are polynomials in x1 and whose g-rows are
polynomials in y1; and the Woods Hole resultant, a pencil too, but one that
only feeds a verification identity, which is better served by a route the
multiplier form does not take.  Rows are scaled to integer entries first and
the known scale factor is divided back out at the end, and every division the
recurrence performs is exact.  The last two are two-block matrices: the rows
above a split are polynomials in u, the rest polynomials in v.  Their
determinant goes through the same integer kernel: its degree in u is at most
D_u, the sum of the u-rows' largest degrees, and likewise in v.  One variable
is evaluated at 0..D (evaluation/interpolation, as in Collins' resultant
method, J. ACM 18 (1971)) and the other is packed by Kronecker substitution
(von zur Gathen and Gerhard, Modern Computer Algebra, 8.4): its entries are
taken at 2^B, so each evaluation point is one integer matrix, the evaluated
rows followed by the packed ones.  Evaluation at 2^B is a ring homomorphism,
so every Bareiss division stays exact and the integer determinant is the
determinant polynomial at 2^B.  B is the bit length of the product of the
rows' l1 norms (the evaluated rows' at this point, the packed rows' summed
over their coefficients), plus 2; that product caps every coefficient, so the
polynomial is read back exactly as signed base-2^B digits and then
interpolated along the evaluated variable.  The variable of larger degree
bound is packed, which takes fewer determinants; on a tie the block with
fewer rows is packed, then v.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .forms import BinaryForm, _horner, _int_scale, _prem


def _interpolate_line(vals: list[int]) -> list[int]:
    """Ascending coefficients of the integer polynomial with vals[x] at x = 0, 1, ...

    Newton divided differences at consecutive integer nodes; for an
    integer-coefficient polynomial every one of them is an integer.
    """
    c = list(vals)
    m = len(c)
    for j in range(1, m):
        for k in range(m - 1, j - 1, -1):
            q, r = divmod(c[k] - c[k - 1], j)
            if r:
                raise ArithmeticError("inexact divided difference in determinant interpolation")
            c[k] = q
    # Horner in the Newton basis: out <- out * (x - k) + c[k].
    out = [0] * m
    for k in range(m - 1, -1, -1):
        for i in range(m - 1, 0, -1):
            out[i] = out[i - 1] - k * out[i]
        out[0] = c[k] - k * out[0]
    return out


def _signed_digits(value: int, width: int, count: int) -> list[int]:
    """The count base-2^width digits of value, lowest first, each in [-2^(width-1), 2^(width-1)).

    This reads back the coefficients of an integer polynomial from its value
    at 2^width when each coefficient is that small.
    """
    mask, half = (1 << width) - 1, 1 << (width - 1)
    digits = []
    for _ in range(count):
        digit = value & mask
        if digit >= half:
            digit -= mask + 1
        digits.append(digit)
        value = (value - digit) >> width
    if value:
        raise ArithmeticError("determinant exceeds its packing bound")
    return digits


def bareiss_det_poly(rows: list[list[tuple[int, ...]]], split: int) -> dict[tuple[int, int], int]:
    """Determinant of a two-block matrix of integer polynomials, as {(i, j): c} for c*u^i*v^j.

    rows[:split] are polynomials in u and rows[split:] polynomials in v; each
    entry is the ascending tuple of its integer coefficients, () for zero.
    D_u sums the u-rows' largest degrees (a bound on the determinant's degree
    in u) and D_v the v-rows'.  The block of larger degree bound is packed
    (on a tie the one with fewer rows, then v) and the other is evaluated at
    0..D: at each point bareiss_det_int takes the evaluated rows followed by
    the packed rows at 2^B (a packed u-block moves below the v-block, with the
    sign (-1)^(split*(n-split))), and the result is read back as signed
    base-2^B digits and interpolated along the evaluated variable.  Zero
    coefficients are left out, so the zero determinant is {} and the empty
    matrix gives {(0, 0): 1}.
    """
    n = len(rows)
    blocks = [rows[:split], rows[split:]]
    tops = [sum(max(1, *map(len, row)) - 1 for row in block) for block in blocks]
    pack_u = tops[0] > tops[1] or (tops[0] == tops[1] and split < n - split)
    sign = 1
    if pack_u:
        blocks.reverse()
        tops.reverse()
        sign = (-1) ** (split * (n - split))
    evaluated, packed = blocks
    # The product of the rows' l1 norms bounds every coefficient of the
    # determinant; a packed row's norm is the sum of its coefficients' sizes.
    packed_norm = 1
    for row in packed:
        packed_norm *= sum(abs(c) for entry in row for c in entry)
    lines = []
    for x in range(tops[0] + 1):
        at_x = [[_horner(entry, 1, x) for entry in row] for row in evaluated]
        bound = packed_norm
        for row in at_x:
            bound *= sum(map(abs, row))
        width = bound.bit_length() + 2
        at_w = [[sum(c << k * width for k, c in enumerate(entry)) for entry in row]
                for row in packed]
        lines.append(_signed_digits(sign * bareiss_det_int(at_x + at_w), width, tops[1] + 1))
    # coeffs[i][j] multiplies (packed variable)^i * (evaluated variable)^j.
    coeffs = [_interpolate_line(list(line)) for line in zip(*lines)]
    return {
        (i, j) if pack_u else (j, i): c
        for i, line in enumerate(coeffs)
        for j, c in enumerate(line)
        if c
    }


def bareiss_det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, Bareiss style."""
    n = len(rows)
    if n == 0:
        return 1
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def sylvester_rows(f: Sequence, g: Sequence, zero):
    """The (d+e) x (d+e) Sylvester matrix for coefficient vectors f, g (ascending).

    Its first e = len(g) - 1 rows carry f and the d = len(f) - 1 after them
    carry g.
    """
    d, e = len(f) - 1, len(g) - 1
    n = d + e
    rows = []
    for r in range(e):
        row = [zero] * n
        row[r : r + d + 1] = list(f)
        rows.append(row)
    for s in range(d):
        row = [zero] * n
        row[s : s + e + 1] = list(g)
        rows.append(row)
    return rows


def homogeneous_resultant(f: BinaryForm, g: BinaryForm) -> Fraction:
    """Resultant of two binary forms at their declared degrees.

    Equals the univariate resultant of the dehomogenizations; the ascending
    coefficient storage of BinaryForm is already the dehomogenized vector, so
    vanishing leading coefficients are honored.  Evaluated by Bareiss
    elimination on the integer-scaled Sylvester matrix, independently of the
    subresultant kernel behind covariant_resultant.
    """
    fi, df = _int_scale(f.coeffs)
    gi, dg = _int_scale(g.coeffs)
    det = bareiss_det_int(sylvester_rows(fi, gi, 0))
    return Fraction(det, df**g.degree * dg**f.degree)


def _resultant_prs(f: Sequence[int], g: Sequence[int]) -> int:
    """bareiss_det_int(sylvester_rows(f, g, 0)) by a subresultant PRS.

    f and g are ascending integer vectors of declared degrees d = len(f) - 1
    and e = len(g) - 1; the ascending layout is (-1)^(d*e) times the
    classical resultant Res_{d,e}.  The declared degrees are reduced to exact
    ones first (d = 0 gives f0^e, e = 0 gives g0^d; two vanishing leading
    coefficients give 0; Res_{d,e}(f, g) = (-1)^(d*e) Res_{e,d}(g, f); and
    Res_{d,e} = lc(f)^(e-k) Res_{d,k} when g has actual degree k < e), then
    Collins' subresultant sequence runs as in Cohen, A Course in
    Computational Algebraic Number Theory, Algorithm 3.3.7.
    """
    d, e = len(f) - 1, len(g) - 1
    if d == 0:
        return f[0] ** e
    if e == 0:
        return g[0] ** d
    sign = (-1) ** (d * e)
    if f[-1] == 0:
        if g[-1] == 0:
            return 0
        f, g, d, e = g, f, e, d
        sign *= (-1) ** (d * e)
    b = list(g)
    while b and not b[-1]:
        b.pop()
    if not b:
        return 0
    a = list(f)
    scale = a[-1] ** (e - len(b) + 1)
    if len(b) == 1:
        return sign * scale * b[0] ** d
    if len(a) < len(b):
        a, b = b, a
        sign *= (-1) ** ((len(a) - 1) * (len(b) - 1))
    lead, h = 1, 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        r = _prem(a, b)
        if not r:
            return 0
        div = lead * h**delta
        a, b = b, [c // div for c in r]
        lead = a[-1]
        if delta:
            h = lead**delta // h ** (delta - 1)
        if len(b) == 1:
            da = len(a) - 1
            return sign * scale * (b[0] ** da // h ** (da - 1))


def covariant_resultant(f: BinaryForm, p: BinaryForm, q: BinaryForm) -> BinaryForm:
    """Resultant of f against the pencil p*dx + q*dy, as a form in (dx, dy).

    p and q share one declared degree m >= n = deg f >= 1, and the resultant
    is taken at the declared degrees (n, m).  Up to a constant it is the
    product of the pencil's values at the n roots of f, so the result is
    homogeneous of degree n: a BinaryForm read with (z0, z1) = (dy, dx), so
    coefficient k multiplies dx^k * dy^(n-k) and r.evaluate(dy, dx) is the
    resultant of f against p*dx + q*dy.  It is taken at dx = t, dy = 1 for
    t = 0..n by the integer subresultant kernel and interpolated back, in the
    ascending-layout Sylvester sign.  The result is the zero form exactly when
    f shares a projective root with both p and q.  Being a resultant, it is
    multiplicative in f: the result for f = a*b is the product of those for a
    and b, each against the same pencil.
    """
    n, m = f.degree, p.degree
    # A degree-0 f gets the mismatch message unless the pencil has degree 0 too.
    if q.degree != m or m < n or n == 0 < m:
        raise ValueError("pencil forms must match the declared degree of f")
    if n < 1:
        raise ValueError("declared degree must be at least 1")
    fi, df = _int_scale(f.coeffs)
    pq, den = _int_scale(p.coeffs + q.coeffs)
    pi, qi = pq[: m + 1], pq[m + 1 :]
    values = [_resultant_prs(fi, [t * a + b for a, b in zip(pi, qi)]) for t in range(n + 1)]
    scale = df**m * den**n
    return BinaryForm(n, [Fraction(c, scale) for c in _interpolate_line(values)])
