"""Exact binary and bihomogeneous forms over the rationals.

Coefficient conventions, fixed once and used everywhere:

* ``BinaryForm(n, coeffs)``: ``coeffs[k]`` multiplies ``z0^(n-k) * z1^k``.
* ``BiForm(d, e, rows)``: ``rows[i][j]`` multiplies ``x0^(d-i) x1^i y0^(e-j) y1^j``.

A form in the covariables (dx, dy), such as the multiplier form, is a
``BinaryForm`` read with (z0, z1) = (dy, dx): ``coeffs[k]`` multiplies
``dx^k * dy^(n-k)``, and it is evaluated as ``evaluate(dy, dx)``.

Degrees are declared, not inferred: the all-zero form of every degree is a
legal value, and trailing zero coefficients are significant because Sylvester
matrices are shaped by declared degrees.  Coefficients are
``fractions.Fraction`` at every interface; every operation is exact and every
value is immutable, so everything here is safe to share between threads.
Inside, the hot loops run on integer numerators over one common denominator
from ``_int_scale`` and make one ``Fraction`` per output coefficient at the
end: linear substitution, the homogeneous GCD (``_gcd_int_forms``), exact
division (``divide_exact``) and ``_diagonal_sum``, the weighted
anti-diagonal sum of ``_int_rows`` that gives the diagonal restrictions of f,
of the multiplier's diagonal derivatives and of the y-partials d_{y1}^l f
from which stability derives the rest along the diagonal (the Cayley powers
of ``clebsch`` read their summed weights from a cached table instead).
``rational_roots`` finds the roots of an integer core by p-adic lifting and
rational reconstruction (Loos 1983), in time polynomial in the coefficients'
bit size, and keeps a root only when an exact integer division confirms it.

Linear substitution of a degree-n form is one integer matrix: the
``_substitution_table`` of the 2x2 matrix cleared to integers, whose column j
holds L^(n-j) * M^j, built in O(n^2) from L^n by exact division
(L * column j+1 = M * column j).
``substitute_linear`` takes one integer dot product per output coefficient
with it; ``substitute_pair`` clears f to integer rows once, sends the rows
through the y-table and the columns through the x-table (one table serves
both when the two matrices and degrees agree, as in every conjugation of a
square bidegree), and divides once by den * dx^d * dy^e.

The equality, hashing and linear structure of both form classes (sums,
negation, scaling, projective equality) are written once, in their private
base ``_Form``, over a flat coefficient view.

Each univariate kernel on ascending coefficient lists exists once: the
pseudo-remainder ``_prem``, which both the primitive remainder sequence of
``_gcd_int`` and the subresultant sequence of ``resultant._resultant_prs``
take; the exact integer division ``_divide_int``; the product by a linear
form ``_times_linear``, which gives the substitution tables their first
column and the multiplier oracle its product; the homogeneous Horner value
``_horner``, the evaluation kernel of both classes (``BiForm.evaluate`` runs
it on each integer row and then on the row values) and of that oracle; and
the convolution ``_convolve``, which also multiplies bihomogeneous forms row
pair by row pair.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction coefficient, got {type(x).__name__}")


def _int_scale(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of coeffs over their least common denominator, and that denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _primitive(p: Sequence[int]) -> list[int]:
    """p divided by its content; p must have a nonzero entry."""
    g = math.gcd(*p)
    return [c // g for c in p]


def _times_linear(p: Sequence[int], a: int, b: int) -> list[int]:
    """p * (a*z0 + b*z1) for the coefficient list p of a binary form."""
    return [a * u + b * v for u, v in zip([*p, 0], [0, *p])]


def _horner(p: Sequence[int], u: int, v: int) -> int:
    """The binary form with integer coefficients p at the integer point [u:v]."""
    acc, upow = 0, 1
    for c in reversed(p):
        acc = acc * v + c * upow
        upow *= u
    return acc


def _int_point(z0, z1) -> tuple[int, int, int]:
    """Integers u, v and w > 0 with (z0, z1) = (u, v) / w."""
    z0, z1 = _frac(z0), _frac(z1)
    return (
        z0.numerator * z1.denominator,
        z1.numerator * z0.denominator,
        z0.denominator * z1.denominator,
    )


def _int_matrix(m) -> tuple[list[int], int]:
    """The entries a, b, c, d of m = ((a, b), (c, d)) over their common denominator, and it."""
    return _int_scale([_frac(v) for row in m for v in row])


def _substitution_table(a: int, b: int, c: int, d: int, n: int) -> list[list[int]]:
    """Row k holds coefficient k of L^(n-j) * M^j for j = 0..n.

    L = a*z0 + b*z1 and M = c*z0 + d*z1, so row k dotted with the
    coefficients of a degree-n form F is coefficient k of F(L, M).  Column 0
    is L^n; column j+1 is the N with L*N = M * (column j), solved one
    coefficient at a time by exact division by a: O(n^2) operations where
    multiplying out every L^(n-j) * M^j would take O(n^3).
    """
    if not a:
        if b:  # L = b*z1: the table of (b, a, d, c) read with z0 and z1 swapped
            return _substitution_table(b, a, d, c, n)[::-1]
        mpow = [1]  # L = 0: every column but M^n vanishes
        for _ in range(n):
            mpow = _times_linear(mpow, c, d)
        return [[0] * n + [v] for v in mpow]
    col = [1]
    for _ in range(n):
        col = _times_linear(col, a, b)
    cols = [col]
    for _ in range(n):
        # a*N[k] + b*N[k-1] = c*col[k] + d*col[k-1]; q is N[k-1] and prev col[k-1].
        nxt, q, prev = [], 0, 0
        for u in col:
            q = (c * u + d * prev - b * q) // a
            nxt.append(q)
            prev = u
        col = nxt
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def _partial_weights(n: int, i: int, j: int) -> list[int]:
    """Weights of d_{v0}^i d_{v1}^j on a degree-n form in (v0, v1).

    Entry k (k = 0..n-i-j) multiplies source coefficient k + j, the one of
    v0^(n-k-j) * v1^(k+j), to give output coefficient k.
    """
    return [math.perm(n - k - j, i) * math.perm(k + j, j) for k in range(n - i - j + 1)]


def _int_rows(f: "BiForm") -> tuple[list[list[int]], int]:
    """f's coefficient matrix as integer rows over its common denominator, and that denominator."""
    flat, den = _int_scale(f.flat())
    return [flat[r : r + f.deg_y + 1] for r in range(0, len(flat), f.deg_y + 1)], den


def _diagonal_sum(a, wx: Sequence[int], wy: Sequence[int], i0: int, j0: int) -> list[int]:
    """Anti-diagonal sums r[ii + jj] of wx[ii] * wy[jj] * a[i0 + ii][j0 + jj].

    Unit weights restrict the form with rows a to the diagonal; the _partial_weights
    of orders (i, j) and (k, l), with offsets (j, l), restrict that mixed partial.
    """
    r = [0] * (len(wx) + len(wy) - 1)
    for ii, u in enumerate(wx):
        row = a[i0 + ii]
        for jj, v in enumerate(wy):
            r[ii + jj] += u * v * row[j0 + jj]
    return r


class _Form:
    """What BinaryForm and BiForm share: equality, hashing and the linear structure.

    Each subclass supplies its declared degrees ``_shape()``, its coefficients
    in one flat tuple ``flat()`` and the form of its own shape with given flat
    coefficients ``_from_flat(cs)``; everything here is written once over
    those.  A BinaryForm never equals a BiForm, and forms of different shapes
    neither compare equal nor add.
    """

    __slots__ = ()

    def is_zero(self) -> bool:
        return not any(self.flat())

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._shape() == other._shape()
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((*self._shape(), self.coeffs))

    def __add__(self, other):
        if self._shape() != other._shape():
            kind = "bidegree" if len(self._shape()) == 2 else "declared degree"
            raise ValueError(f"cannot add forms of different {kind}")
        return self._from_flat([a + b for a, b in zip(self.flat(), other.flat())])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._from_flat([-c for c in self.flat()])

    def scale(self, c):
        c = _frac(c)
        return self._from_flat([c * x for x in self.flat()])

    def projectively_equal(self, other) -> bool:
        """True when other has this shape and its coefficients are a nonzero multiple of these."""
        if self._shape() != other._shape():
            return False
        a, b = self.flat(), other.flat()
        pivot = next((k for k, c in enumerate(a) if c != 0), None)
        if pivot is None:
            return other.is_zero()
        return b[pivot] != 0 and all(b[pivot] * x == a[pivot] * y for x, y in zip(a, b))


class BinaryForm(_Form):
    """Homogeneous form of declared degree n in the variable pair (z0, z1)."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Iterable):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        cs = tuple(map(_frac, coeffs))
        if len(cs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients, got {len(cs)}")
        self.degree = degree
        self.coeffs = cs

    @classmethod
    def zero(cls, degree: int) -> "BinaryForm":
        return cls(degree, [0] * (degree + 1))

    @classmethod
    def monomial(cls, degree: int, k: int, coeff=1) -> "BinaryForm":
        if not 0 <= k <= degree:
            raise ValueError(f"monomial index {k} outside 0..{degree}")
        cs = [Fraction(0)] * (degree + 1)
        cs[k] = _frac(coeff)
        return cls(degree, cs)

    def _shape(self) -> tuple[int]:
        return (self.degree,)

    def flat(self) -> tuple[Fraction, ...]:
        return self.coeffs

    def _from_flat(self, cs) -> "BinaryForm":
        return BinaryForm(self.degree, cs)

    def evaluate(self, z0, z1) -> Fraction:
        ints, den = _int_scale(self.coeffs)
        # With (z0, z1) = (u, v) / w, the value is
        # sum c_k u^(n-k) v^k / (den * w^n): homogeneous Horner on integers.
        u, v, w = _int_point(z0, z1)
        return Fraction(_horner(ints, u, v), den * w**self.degree)

    def __repr__(self):
        return f"BinaryForm({self.degree}, {[str(c) for c in self.coeffs]})"

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        return BinaryForm(self.degree + other.degree, _convolve(self.coeffs, other.coeffs))

    def substitute_linear(self, m) -> "BinaryForm":
        """F(a*z0 + b*z1, c*z0 + d*z1) for the 2x2 matrix m = ((a, b), (c, d))."""
        entries, den = _int_matrix(m)
        ints, cden = _int_scale(self.coeffs)
        # den times the substituted linear forms, on the numerators c_j.
        table = _substitution_table(*entries, self.degree)
        scale = cden * den**self.degree
        return BinaryForm(
            self.degree, [Fraction(sum(map(operator.mul, row, ints)), scale) for row in table]
        )

    def divide_exact(self, divisor: "BinaryForm") -> "BinaryForm":
        """Quotient Q with self == divisor * Q; raises ValueError when not divisible.

        Both forms are cleared to integers and the divisor's core made
        primitive; its vanishing top coefficients are a power of z0 that must
        divide self, and the rest is one exact integer division, which by
        Gauss's lemma succeeds exactly when the division does over the
        rationals.  A zero dividend yields the zero form of degree
        max(self.degree - divisor.degree, 0).
        """
        if divisor.is_zero():
            raise ValueError("division by the zero form")
        if self.is_zero():
            return BinaryForm.zero(max(self.degree - divisor.degree, 0))
        if self.degree < divisor.degree:
            raise ValueError("declared degree of dividend below divisor")
        den, dscale = _int_scale(divisor.coeffs)
        content = math.gcd(*den)
        den = [c // content for c in den]
        while not den[-1]:
            den.pop()
        num, nscale = _int_scale(self.coeffs)
        top = len(num) - (divisor.degree + 1 - len(den))
        q = None if any(num[top:]) else _divide_int(num[:top], den)
        if q is None:
            raise ValueError("not exactly divisible")
        return BinaryForm(len(q) - 1, [Fraction(c * dscale, nscale * content) for c in q])


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of ascending integer vectors with lc(b) != 0 and len(a) >= len(b).

    Returns r with lc(b)^(deg a - deg b + 1) * a = b*q + r, trailing zeros
    stripped, so the zero remainder is [].  deg a is the declared len(a) - 1:
    a vanishing top coefficient of a still costs a factor lc(b), which the
    subresultant sequence needs; those factors are applied once, at the end.
    """
    m = len(b) - 1
    lead = b[-1]
    r = list(a)
    skipped = 0
    while len(r) > m:
        # r <- lead * r - c * x^shift * b for the popped top coefficient c, in place
        c = r.pop()
        if not c:
            skipped += 1
            continue
        shift = len(r) - m
        for k in range(shift):
            r[k] *= lead
        for t in range(m):
            r[shift + t] = lead * r[shift + t] - c * b[t]
    while r and not r[-1]:
        r.pop()
    if skipped:
        r = [lead**skipped * x for x in r]
    return r


def _gcd_int(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """GCD of two ascending integer coefficient lists, primitive and up to sign.

    Primitive remainder sequence (Knuth, TAOCP vol. 2, 4.6.1): each step takes
    the pseudo-remainder, which stays integral, and divides out its content.
    Top zero coefficients are ignored; the GCD of two zero lists is [].
    """
    a, b = list(p), list(q)
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, (_primitive(r) if r else r)
    return _primitive(a) if a else a


def _gcd_int_forms(forms: Iterable[tuple[int, Sequence[int]]]) -> list[int]:
    """The coefficients of binary_gcd of forms given as (degree, integer coefficients).

    Each form's coefficients may carry their own nonzero scale: the normalized
    GCD does not see it, and the GCD of zero forms only is [0].  Reading stops
    once the GCD is 1, that is once the core is constant and no power of z0 or
    z1 can remain, so a lazy iterable is never read past that point.
    """
    v1 = v0 = 0
    acc: list[int] | None = None
    for degree, cs in forms:
        ks = [k for k, c in enumerate(cs) if c]
        if not ks:
            continue
        lo, hi = ks[0], ks[-1]
        if acc is None:
            v1, v0, acc = lo, degree - hi, _primitive(cs[lo : hi + 1])
        else:
            v1, v0 = min(v1, lo), min(v0, degree - hi)
            if len(acc) > 1:
                acc = _gcd_int(acc, cs[lo : hi + 1])
        if len(acc) == 1 and v1 == v0 == 0:
            break  # the GCD is 1: no later form can change it
    if acc is None:
        return [0]
    if acc[0] < 0:
        acc = [-c for c in acc]
    return [0] * v1 + acc + [0] * v0


def binary_gcd(forms: Sequence[BinaryForm]) -> BinaryForm:
    """Greatest common divisor of binary forms as homogeneous polynomials.

    Monomial factors z0^a and z1^b are split off first so that roots at [1:0]
    and [0:1] survive dehomogenization; the remaining parts go through a
    primitive integer remainder sequence on their numerators.  The forms are
    read, and cleared, one by one, and reading stops once the GCD is 1: the
    core is constant and no power of z0 or z1 can remain.  Zero entries are
    absorbed, the gcd of an all-zero list is the zero form, and the result is
    normalized to be integer-primitive with positive first nonzero
    coefficient.
    """
    if not forms:
        raise ValueError("binary_gcd needs at least one form")
    cs = _gcd_int_forms((f.degree, _int_scale(f.coeffs)[0]) for f in forms)
    return BinaryForm(len(cs) - 1, cs)


def _divide_int(num: Sequence[int], den: Sequence[int]) -> list[int] | None:
    """Quotient of ascending integer lists num / den, or None unless it is exact over the integers.

    den's top coefficient must be nonzero; a num shorter than den gives None.
    """
    r, lead = list(num), den[-1]
    q = []
    for k in range(len(num) - len(den), -1, -1):
        c, rem = divmod(r[k + len(den) - 1], lead)
        if rem:
            return None
        q.append(c)
        for i, v in enumerate(den):
            r[k + i] -= c * v
    return q[::-1] if q and not any(r) else None


def _eval_mod(p: Sequence[int], x: int, m: int) -> int:
    """p(x) mod m for an ascending integer list p."""
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % m
    return acc


def _lifted_root_candidates(core: Sequence[int]) -> list[tuple[int, int]]:
    """Pairs (a, b), b > 0, among which are all rational roots a/b of core.

    core is an ascending primitive integer list of degree >= 1 with nonzero
    ends.  Its square-free part s has the same rational roots, each a/b with
    a | s(0) and b | lc(s).  At the smallest odd prime p not dividing lc(s)
    at which every root of s mod p is simple, each root mod p is Newton-lifted
    to a root mod M > 2 |s(0)| |lc(s)|, the bound under which the half
    extended Euclid of (M, root) returns the one a/b with |a| <= |s(0)| and
    0 < b <= |lc(s)| that can reduce to it.  Roots mod p that come from no
    rational root give spurious pairs, which the caller's exact division drops.

    A prime p not dividing lc(s) with a multiple root of s mod p divides
    res(s, s') != 0, whose bit size Hadamard's bound limits, so past that many
    such primes s was not square-free and ArithmeticError is raised.
    """
    s = _divide_int(core, _gcd_int(core, [k * c for k, c in enumerate(core)][1:]))
    ds = [k * c for k, c in enumerate(s)][1:]
    n = len(s) - 1
    bits = (n - 1) * sum(c * c for c in s).bit_length() + n * sum(c * c for c in ds).bit_length()
    misses_left = bits // 2 + 1
    p = 1
    while True:
        p += 2
        if s[-1] % p == 0 or any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            continue
        residues = [x for x in range(p) if _eval_mod(s, x, p) == 0]
        if all(_eval_mod(ds, x, p) for x in residues):
            break
        misses_left -= 1
        if misses_left < 0:
            raise ArithmeticError("the square-free part has a multiple root modulo every prime")
    height, bound = abs(s[0]), 2 * abs(s[0]) * abs(s[-1])
    out = []
    for x in residues:
        m = p
        while m <= bound:  # Newton: a simple root mod m lifts to one mod m^2
            m *= m
            x = (x - _eval_mod(s, x, m) * pow(_eval_mod(ds, x, m), -1, m)) % m
        # Half extended Euclid on (m, x): the first remainder <= |s(0)| and its cofactor.
        r0, r1, t0, t1 = m, x, 0, 1
        while r1 > height:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        out.append((r1, t1) if t1 > 0 else (-r1, -t1))
    return out


def rational_roots(form: BinaryForm) -> list[tuple[tuple[int, int], int]]:
    """Rational projective roots of a nonzero binary form, with multiplicities.

    Points are returned as coprime integer pairs (p0, p1) with p0 > 0, or
    (0, 1) for the point at infinity of the z1/z0 chart; the list is sorted.
    Roots at [1:0] and [0:1] are read off the z1- and z0-valuations, and the
    remainder, the primitive integer core, goes through p-adic lifting (Loos,
    "Computing rational zeros of integral polynomials by p-adic expansion",
    SIAM J. Comput. 12, 1983; see _lifted_root_candidates): the roots mod a small
    prime of its square-free part s are lifted past 2 |s(0)| |lc(s)| and
    reconstructed as fractions, in time polynomial in the bit size of the
    coefficients.  A candidate a/b is a root when b*z - a divides the core
    exactly over the integers, and its multiplicity is the number of such
    exact divisions.
    """
    if form.is_zero():
        raise ValueError("the zero form vanishes everywhere")
    ints = _primitive(_int_scale(form.coeffs)[0])
    ks = [k for k, c in enumerate(ints) if c]
    lo, hi = ks[0], ks[-1]
    roots: list[tuple[tuple[int, int], int]] = []
    if lo > 0:
        roots.append(((1, 0), lo))
    if hi < form.degree:
        roots.append(((0, 1), form.degree - hi))
    core = ints[lo : hi + 1]
    if len(core) > 1:
        for a, b in _lifted_root_candidates(core):
            mult = 0
            while (q := _divide_int(core, [-a, b])) is not None:
                core, mult = q, mult + 1
            if mult:
                roots.append(((b, a), mult))
    return sorted(roots)


class BiForm(_Form):
    """Bihomogeneous form of declared bidegree (d, e) in (x0, x1) and (y0, y1)."""

    __slots__ = ("deg_x", "deg_y", "coeffs")

    def __init__(self, deg_x: int, deg_y: int, rows: Iterable[Iterable]):
        if deg_x < 0 or deg_y < 0:
            raise ValueError("bidegree must be nonnegative")
        cs = tuple(tuple(map(_frac, row)) for row in rows)
        if len(cs) != deg_x + 1 or any(len(row) != deg_y + 1 for row in cs):
            raise ValueError(f"coefficient matrix must be {deg_x + 1} x {deg_y + 1}")
        self.deg_x = deg_x
        self.deg_y = deg_y
        self.coeffs = cs

    @classmethod
    def zero(cls, deg_x: int, deg_y: int) -> "BiForm":
        return cls(deg_x, deg_y, [[0] * (deg_y + 1) for _ in range(deg_x + 1)])

    @classmethod
    def monomial(cls, deg_x: int, deg_y: int, i: int, j: int, coeff=1) -> "BiForm":
        if not (0 <= i <= deg_x and 0 <= j <= deg_y):
            raise ValueError(f"monomial index ({i}, {j}) outside bidegree ({deg_x}, {deg_y})")
        rows = [[Fraction(0)] * (deg_y + 1) for _ in range(deg_x + 1)]
        rows[i][j] = _frac(coeff)
        return cls(deg_x, deg_y, rows)

    def __repr__(self):
        rows = [[str(c) for c in row] for row in self.coeffs]
        return f"BiForm({self.deg_x}, {self.deg_y}, {rows})"

    def _shape(self) -> tuple[int, int]:
        return (self.deg_x, self.deg_y)

    def flat(self) -> tuple[Fraction, ...]:
        return tuple(c for row in self.coeffs for c in row)

    def _from_flat(self, cs) -> "BiForm":
        w = self.deg_y + 1
        return BiForm(self.deg_x, self.deg_y, [cs[r : r + w] for r in range(0, len(cs), w)])

    def evaluate(self, point) -> Fraction:
        x0, x1, y0, y1 = point
        rows, den = _int_rows(self)
        # Each integer row is a form in y; their values are the coefficients of one in x.
        u0, u1, wx = _int_point(x0, x1)
        v0, v1, wy = _int_point(y0, y1)
        value = _horner([_horner(row, v0, v1) for row in rows], u0, u1)
        return Fraction(value, den * wx**self.deg_x * wy**self.deg_y)

    def diagonal_restriction(self) -> BinaryForm:
        """The binary form f(z, z) of degree d + e cutting out the fixed points."""
        a, den = _int_rows(self)
        r = _diagonal_sum(a, [1] * (self.deg_x + 1), [1] * (self.deg_y + 1), 0, 0)
        return BinaryForm(self.deg_x + self.deg_y, [Fraction(v, den) for v in r])

    def mixed_partial(self, orders) -> "BiForm":
        """d_{x0}^i d_{x1}^j d_{y0}^k d_{y1}^l applied to the form.

        Overflowing orders return the zero form of the clamped bidegree
        (max(d-i-j, 0), max(e-k-l, 0)).
        """
        i, j, k, l = orders
        if min(i, j, k, l) < 0:
            raise ValueError("derivative orders must be nonnegative")
        d, e = self.deg_x, self.deg_y
        nd, ne = d - i - j, e - k - l
        if nd < 0 or ne < 0:
            return BiForm.zero(max(nd, 0), max(ne, 0))
        wy = _partial_weights(e, k, l)
        rows = [
            [src * (u * v) for src, v in zip(self.coeffs[ii + j][l:], wy)]
            for ii, u in enumerate(_partial_weights(d, i, j))
        ]
        return BiForm(nd, ne, rows)

    def __mul__(self, other: "BiForm") -> "BiForm":
        d, e = self.deg_x + other.deg_x, self.deg_y + other.deg_y
        rows = [[Fraction(0)] * (e + 1) for _ in range(d + 1)]
        for i1, r1 in enumerate(self.coeffs):
            for i2, r2 in enumerate(other.coeffs):
                rows[i1 + i2] = [u + v for u, v in zip(rows[i1 + i2], _convolve(r1, r2))]
        return BiForm(d, e, rows)

    def substitute_pair(self, mx, my) -> "BiForm":
        """Substitute (x0, x1) -> mx @ (x0, x1) and (y0, y1) -> my @ (y0, y1).

        Each matrix ((a, b), (c, d)) sends the first slot to a*v0 + b*v1 and
        the second to c*v0 + d*v1, exactly as substitute_linear does for
        binary forms.  The form is cleared to integer rows once; the rows go
        through the substitution table of my, then the columns through that of
        mx (the same table when mx = my and d = e), and each output
        coefficient is one Fraction over den * dx^d * dy^e.
        """
        d, e = self.deg_x, self.deg_y
        rows, den = _int_rows(self)
        (xs, dx), (ys, dy) = _int_matrix(mx), _int_matrix(my)
        ty = _substitution_table(*ys, e)
        tx = ty if (xs, d) == (ys, e) else _substitution_table(*xs, d)
        # half[i][s]: row i of f substituted in y; out[r][s] then sums down column s.
        half = [[sum(map(operator.mul, t, row)) for t in ty] for row in rows]
        cols = list(zip(*half))
        scale = den * dx**d * dy**e
        return BiForm(
            d, e, [[Fraction(sum(map(operator.mul, t, col)), scale) for col in cols] for t in tx]
        )


def _convolve(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out
