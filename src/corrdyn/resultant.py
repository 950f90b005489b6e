"""Sylvester resultants over exact coefficient domains.

Layout convention (normative for the whole package): for f of declared degree
d and g of declared degree e, the Sylvester matrix is (d+e) x (d+e) with the
coefficients in *ascending* order; row r < e carries f[x^0..x^d] in columns
r..r+d and row e+s carries g[x^0..x^e] in columns s..s+e.  This differs from
the descending-order classical layout by the sign (-1)^(d*e); all downstream
consumers either compare projectively or are validated against independent
oracles, so the sign is absorbed here once.

The covariant resultant res(f, p*dx + q*dy) takes the pencil at n + 1
integer points dx = t, dy = 1 and interpolates.  At each point a
fraction-free subresultant polynomial remainder sequence (Collins, J. ACM 14
(1967); Cohen, A Course in Computational Algebraic Number Theory, Algorithm
3.3.7) gives the integer resultant in O(n^2) operations instead of the O(n^3)
of an elimination.  That sequence needs exact degrees, so the declared
degrees are reduced first: a degree-0 argument gives a power of its constant,
two vanishing leading coefficients give 0, a vanishing leading coefficient of
f alone swaps the arguments with the sign (-1)^(d*e), and g of actual degree
k < e contributes lc(f)^(e-k).

Every other determinant is evaluated by fraction-free Bareiss elimination on
plain Python integers: homogeneous_resultant, the resultant of two binary
forms, kept as the independent route the covariant resultant is checked
against; composition, whose entries are polynomials in x1 (the f-rows) or
in y1 (the g-rows); and the Woods Hole resultant, a pencil too, but one that
only feeds a verification identity, which is better served by a route the
multiplier form does not take.  Rows are scaled to integer entries first and
the known scale factor is divided back out at the end, and every division the
recurrence performs is exact.  A matrix with integer-polynomial entries goes
through the same integer kernel (evaluation/interpolation, as in Collins'
resultant method): its determinant has degree at most D_v in each variable
v, where D_v sums over the rows the row's largest exponent of v, so it is
evaluated at every point of the integer grid prod_v {0..D_v} and the
coefficients are recovered by exact Newton interpolation, one variable at a
time.  Each distinct entry is evaluated once per value of the one variable it
involves (in a composition, the f-rows at each x1 and the g-rows at each y1),
and the integer matrix at a grid point is gathered from those values through
an index layout fixed in advance.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .forms import BinaryForm, _int_scale, _prem

# Sparse polynomial with integer coefficients: exponent tuple -> coefficient.
# Inputs may store zero coefficients; results never do, so the zero result is
# the empty dict.  Within one matrix every key has the same length; () is the
# scalar case.
IntPoly = dict[tuple[int, ...], int]


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


def bareiss_det_poly(rows: list[list[IntPoly]]) -> IntPoly:
    """Determinant of a square matrix of integer polynomials, each entry in one variable.

    Every entry may involve at most one of the variables (in a composition,
    x1 in the f-rows and y1 in the g-rows; in the Woods Hole pencil, t), and
    a variable may appear in no entry at all.  Evaluates the entries on the
    integer grid prod_v {0..D_v}, takes bareiss_det_int at every point and
    interpolates the values back, one variable at a time.  D_v sums each
    row's largest exponent of variable v, which bounds every term of the
    determinant's expansion.  Each distinct entry is evaluated once per value
    of its variable, and its value at a grid point read off that point's
    coordinate.
    """
    n = len(rows)
    if n == 0:
        return {(): 1}
    nvars = next((len(key) for row in rows for entry in row for key in entry), 0)
    bounds = [
        sum(max((key[v] for entry in row for key in entry), default=0) for row in rows)
        for v in range(nvars)
    ]
    # Sylvester rows repeat the same entry objects: number the distinct ones
    # and lay the matrix out as indices into that numbering.
    distinct = {id(entry): entry for row in rows for entry in row}
    slot = {key: k for k, key in enumerate(distinct)}
    layout = [[slot[id(entry)] for entry in row] for row in rows]
    # An entry in the variable v is evaluated at v = 0..D_v, and its value at
    # each grid point read off the point's v; a constant entry is its value.
    grid = list(itertools.product(*(range(b + 1) for b in bounds)))
    columns = []
    for entry in distinct.values():
        v = next((v for v in range(nvars) if any(key[v] for key in entry)), None)
        if v is None:
            columns.append([sum(entry.values())] * len(grid))
            continue
        table = [sum(c * x ** key[v] for key, c in entry.items()) for x in range(bounds[v] + 1)]
        columns.append([table[point[v]] for point in grid])
    values = [bareiss_det_int([[at[k] for k in lrow] for lrow in layout]) for at in zip(*columns)]
    # values is row-major over the grid; interpolate along each axis in turn.
    stride = len(values)
    for b in bounds:
        size = b + 1
        stride //= size
        for base in range(len(values)):
            if base // stride % size:
                continue
            line = slice(base, base + size * stride, stride)
            values[line] = _interpolate_line(values[line])
    return {key: v for key, v in zip(grid, values) if v}


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
    """The (d+e) x (d+e) Sylvester matrix for coefficient vectors f, g (ascending)."""
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

    All three inputs share one declared degree n >= 1, so the result is
    homogeneous of degree n: a BinaryForm read with (z0, z1) = (dy, dx), so
    coefficient k multiplies dx^k * dy^(n-k) and r.evaluate(dy, dx) is the
    resultant of f against p*dx + q*dy.  It is taken at dx = t, dy = 1 for
    t = 0..n by the integer subresultant kernel and interpolated back, in the
    ascending-layout Sylvester sign.  The result is the zero form exactly when
    f shares a projective root with both p and q.
    """
    n = f.degree
    if p.degree != n or q.degree != n:
        raise ValueError("pencil forms must match the declared degree of f")
    if n < 1:
        raise ValueError("declared degree must be at least 1")
    fi, df = _int_scale(f.coeffs)
    pq, den = _int_scale(p.coeffs + q.coeffs)
    pi, qi = pq[: n + 1], pq[n + 1 :]
    values = [_resultant_prs(fi, [t * a + b for a, b in zip(pi, qi)]) for t in range(n + 1)]
    scale = df**n * den**n
    return BinaryForm(n, [Fraction(c, scale) for c in _interpolate_line(values)])
