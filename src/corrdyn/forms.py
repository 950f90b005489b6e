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
``fractions.Fraction``; every operation is exact and every value is
immutable, so everything here is safe to share between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction coefficient, got {type(x).__name__}")


def _pow_linear(p: Fraction, q: Fraction, t: int) -> list[Fraction]:
    """Coefficients of (p*v0 + q*v1)^t: entry s multiplies v0^(t-s) * v1^s."""
    return [math.comb(t, s) * p ** (t - s) * q**s for s in range(t + 1)]


def projectively_equal(a: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
    """True when one coefficient vector is a nonzero rational multiple of the other."""
    if len(a) != len(b):
        return False
    pivot = next((k for k, c in enumerate(a) if c != 0), None)
    if pivot is None:
        return all(c == 0 for c in b)
    if b[pivot] == 0:
        return False
    lhs, rhs = b[pivot], a[pivot]
    return all(lhs * a[k] == rhs * b[k] for k in range(len(a)))


class BinaryForm:
    """Homogeneous form of declared degree n in the variable pair (z0, z1)."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Iterable):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        cs = tuple(_frac(c) for c in coeffs)
        if len(cs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients, got {len(cs)}")
        self.degree = degree
        self.coeffs = cs

    @classmethod
    def zero(cls, degree: int) -> "BinaryForm":
        return cls(degree, [0] * (degree + 1))

    @classmethod
    def monomial(cls, degree: int, k: int, coeff=1) -> "BinaryForm":
        cs = [Fraction(0)] * (degree + 1)
        cs[k] = _frac(coeff)
        return cls(degree, cs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def evaluate(self, z0, z1) -> Fraction:
        z0, z1 = _frac(z0), _frac(z1)
        n = self.degree
        return sum((c * z0 ** (n - k) * z1**k for k, c in enumerate(self.coeffs)), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryForm)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __repr__(self):
        return f"BinaryForm({self.degree}, {[str(c) for c in self.coeffs]})"

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different declared degree")
        return BinaryForm(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        return self + (-other)

    def __neg__(self) -> "BinaryForm":
        return BinaryForm(self.degree, [-c for c in self.coeffs])

    def scale(self, c) -> "BinaryForm":
        c = _frac(c)
        return BinaryForm(self.degree, [c * x for x in self.coeffs])

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        return BinaryForm(self.degree + other.degree, _convolve(self.coeffs, other.coeffs))

    def substitute_linear(self, m) -> "BinaryForm":
        """F(a*z0 + b*z1, c*z0 + d*z1) for the 2x2 matrix m = ((a, b), (c, d))."""
        (a, b), (c, d) = m
        a, b, c, d = _frac(a), _frac(b), _frac(c), _frac(d)
        # Homogeneous Horner: after step k, acc holds sum_{j<=k} c_j L^(k-j) M^j
        # and bpow holds M^k, for L = a*z0 + b*z1 and M = c*z0 + d*z1.
        acc = [self.coeffs[0]]
        bpow = [Fraction(1)]
        for coeff in self.coeffs[1:]:
            bpow = _convolve(bpow, [c, d])
            acc = _convolve(acc, [a, b])
            if coeff != 0:
                acc = [u + coeff * v for u, v in zip(acc, bpow)]
        return BinaryForm(self.degree, acc)

    def divide_exact(self, divisor: "BinaryForm") -> "BinaryForm":
        """Quotient Q with self == divisor * Q; raises ValueError when not divisible.

        Divisibility is decided on the dehomogenizations; declared degrees are
        bookkept so that powers of z0 split correctly.  A zero dividend yields
        the zero form of degree max(self.degree - divisor.degree, 0).
        """
        if divisor.is_zero():
            raise ValueError("division by the zero form")
        if self.is_zero():
            return BinaryForm.zero(max(self.degree - divisor.degree, 0))
        if self.degree < divisor.degree:
            raise ValueError("declared degree of dividend below divisor")
        q, r = _poly_divmod(list(self.coeffs), list(divisor.coeffs))
        if any(c != 0 for c in r):
            raise ValueError("not exactly divisible")
        qdeg = self.degree - divisor.degree
        q += [Fraction(0)] * (qdeg + 1 - len(q))
        return BinaryForm(qdeg, q[: qdeg + 1])

    def primitive_normalized(self) -> "BinaryForm":
        """Integer-primitive representative with positive first nonzero coefficient."""
        if self.is_zero():
            return self
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints)
        ints = [v // g for v in ints]
        first = next(v for v in ints if v != 0)
        if first < 0:
            ints = [-v for v in ints]
        return BinaryForm(self.degree, ints)

    def projectively_equal(self, other: "BinaryForm") -> bool:
        return self.degree == other.degree and projectively_equal(self.coeffs, other.coeffs)


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    """Long division of ascending coefficient lists; returns (quotient, remainder)."""
    num = _trim(list(num))
    den = _trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if len(num) < len(den):
        return [], num
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    r = num[:]
    dlead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        if len(r) < len(den) + k:
            continue
        c = r[len(den) + k - 1] / dlead
        if c == 0:
            continue
        q[k] = c
        for i, dc in enumerate(den):
            r[k + i] -= c * dc
        _trim(r)
    return q, _trim(r)


def _poly_gcd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """Monic Euclidean GCD of two ascending coefficient lists over the rationals."""
    a, b = _trim(list(p)), _trim(list(q))
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def binary_gcd(forms: Sequence[BinaryForm]) -> BinaryForm:
    """Greatest common divisor of binary forms as homogeneous polynomials.

    Monomial factors z0^a and z1^b are split off first so that roots at [1:0]
    and [0:1] survive dehomogenization; the remaining parts go through the
    monic Euclidean algorithm.  Zero entries are absorbed, the gcd of an
    all-zero list is the zero form, and the result is normalized to be
    integer-primitive with positive first nonzero coefficient.
    """
    if not forms:
        raise ValueError("binary_gcd needs at least one form")
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        return BinaryForm.zero(0)
    v1 = None
    v0 = None
    acc: list[Fraction] | None = None
    for f in nonzero:
        ks = [k for k, c in enumerate(f.coeffs) if c != 0]
        lo, hi = ks[0], ks[-1]
        v1 = lo if v1 is None else min(v1, lo)
        v0 = (f.degree - hi) if v0 is None else min(v0, f.degree - hi)
        core = list(f.coeffs[lo : hi + 1])
        acc = core if acc is None else _poly_gcd(acc, core)
    assert acc is not None
    coeffs = [Fraction(0)] * v1 + acc + [Fraction(0)] * v0
    return BinaryForm(v1 + len(acc) - 1 + v0, coeffs).primitive_normalized()


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def rational_roots(form: BinaryForm) -> list[tuple[tuple[int, int], int]]:
    """Rational projective roots of a nonzero binary form, with multiplicities.

    Points are returned as coprime integer pairs (p0, p1) with p0 > 0, or
    (0, 1) for the point at infinity of the z1/z0 chart; the list is sorted.
    Roots at [1:0] and [0:1] are read off the z1- and z0-valuations; a linear
    remainder gives its root directly, and a longer one goes through the
    rational root theorem on the primitive integer part.
    """
    if form.is_zero():
        raise ValueError("the zero form vanishes everywhere")
    prim = form.primitive_normalized()
    ks = [k for k, c in enumerate(prim.coeffs) if c != 0]
    lo, hi = ks[0], ks[-1]
    roots: list[tuple[tuple[int, int], int]] = []
    if lo > 0:
        roots.append(((1, 0), lo))
    if hi < prim.degree:
        roots.append(((0, 1), prim.degree - hi))
    core = [int(c) for c in prim.coeffs[lo : hi + 1]]
    if len(core) == 2:
        r = Fraction(-core[0], core[1])
        roots.append(((r.denominator, r.numerator), 1))
    elif len(core) > 2:
        cands = set()
        for p in _divisors(core[0]):
            for q in _divisors(core[-1]):
                cands.add(Fraction(p, q))
                cands.add(Fraction(-p, q))
        for r in sorted(cands):
            mult = 0
            poly = [Fraction(c) for c in core]
            while len(poly) > 1 and sum(c * r**k for k, c in enumerate(poly)) == 0:
                poly, rem = _poly_divmod(poly, [-r, Fraction(1)])
                assert not rem
                mult += 1
            if mult:
                core = [c for c in poly]
                roots.append(((r.denominator, r.numerator), mult))
    return sorted(roots)


class BiForm:
    """Bihomogeneous form of declared bidegree (d, e) in (x0, x1) and (y0, y1)."""

    __slots__ = ("deg_x", "deg_y", "coeffs")

    def __init__(self, deg_x: int, deg_y: int, rows: Iterable[Iterable]):
        if deg_x < 0 or deg_y < 0:
            raise ValueError("bidegree must be nonnegative")
        cs = tuple(tuple(_frac(c) for c in row) for row in rows)
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
        rows = [[Fraction(0)] * (deg_y + 1) for _ in range(deg_x + 1)]
        rows[i][j] = _frac(coeff)
        return cls(deg_x, deg_y, rows)

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.coeffs for c in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiForm)
            and (self.deg_x, self.deg_y) == (other.deg_x, other.deg_y)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.deg_x, self.deg_y, self.coeffs))

    def __repr__(self):
        rows = [[str(c) for c in row] for row in self.coeffs]
        return f"BiForm({self.deg_x}, {self.deg_y}, {rows})"

    def flat(self) -> tuple[Fraction, ...]:
        return tuple(c for row in self.coeffs for c in row)

    def evaluate(self, point) -> Fraction:
        x0, x1, y0, y1 = (_frac(v) for v in point)
        d, e = self.deg_x, self.deg_y
        total = Fraction(0)
        for i, row in enumerate(self.coeffs):
            xpart = x0 ** (d - i) * x1**i
            if xpart == 0:
                continue
            for j, c in enumerate(row):
                if c != 0:
                    total += c * xpart * y0 ** (e - j) * y1**j
        return total

    def diagonal_restriction(self) -> BinaryForm:
        """The binary form f(z, z) of degree d + e cutting out the fixed points."""
        out = [Fraction(0)] * (self.deg_x + self.deg_y + 1)
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c != 0:
                    out[i + j] += c
        return BinaryForm(self.deg_x + self.deg_y, out)

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
        rows = [[Fraction(0)] * (ne + 1) for _ in range(nd + 1)]
        for ii in range(nd + 1):
            for jj in range(ne + 1):
                src = self.coeffs[ii + j][jj + l]
                if src == 0:
                    continue
                w = (
                    math.perm(d - ii - j, i)
                    * math.perm(ii + j, j)
                    * math.perm(e - jj - l, k)
                    * math.perm(jj + l, l)
                )
                rows[ii][jj] = src * w
        return BiForm(nd, ne, rows)

    def __add__(self, other: "BiForm") -> "BiForm":
        if (self.deg_x, self.deg_y) != (other.deg_x, other.deg_y):
            raise ValueError("cannot add forms of different bidegree")
        return BiForm(
            self.deg_x,
            self.deg_y,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.coeffs, other.coeffs)],
        )

    def __sub__(self, other: "BiForm") -> "BiForm":
        return self + (-other)

    def __neg__(self) -> "BiForm":
        return BiForm(self.deg_x, self.deg_y, [[-c for c in row] for row in self.coeffs])

    def scale(self, c) -> "BiForm":
        c = _frac(c)
        return BiForm(self.deg_x, self.deg_y, [[c * v for v in row] for row in self.coeffs])

    def __mul__(self, other: "BiForm") -> "BiForm":
        d, e = self.deg_x + other.deg_x, self.deg_y + other.deg_y
        rows = [[Fraction(0)] * (e + 1) for _ in range(d + 1)]
        for i1, r1 in enumerate(self.coeffs):
            for j1, a in enumerate(r1):
                if a == 0:
                    continue
                for i2, r2 in enumerate(other.coeffs):
                    for j2, b in enumerate(r2):
                        if b != 0:
                            rows[i1 + i2][j1 + j2] += a * b
        return BiForm(d, e, rows)

    def substitute_pair(self, mx, my) -> "BiForm":
        """Substitute (x0, x1) -> mx @ (x0, x1) and (y0, y1) -> my @ (y0, y1).

        Each matrix ((a, b), (c, d)) sends the first slot to a*v0 + b*v1 and
        the second to c*v0 + d*v1, exactly as substitute_linear does for
        binary forms.
        """
        d, e = self.deg_x, self.deg_y
        (ax, bx), (cx, dx_) = ((_frac(v) for v in row) for row in mx)
        (ay, by), (cy, dy_) = ((_frac(v) for v in row) for row in my)
        xvecs = [
            _convolve(_pow_linear(ax, bx, d - i), _pow_linear(cx, dx_, i)) for i in range(d + 1)
        ]
        yvecs = [
            _convolve(_pow_linear(ay, by, e - j), _pow_linear(cy, dy_, j)) for j in range(e + 1)
        ]
        rows = [[Fraction(0)] * (e + 1) for _ in range(d + 1)]
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c == 0:
                    continue
                xv, yv = xvecs[i], yvecs[j]
                for r, u in enumerate(xv):
                    if u == 0:
                        continue
                    cu = c * u
                    for s, v in enumerate(yv):
                        if v != 0:
                            rows[r][s] += cu * v
        return BiForm(d, e, rows)

    def projectively_equal(self, other: "BiForm") -> bool:
        return (self.deg_x, self.deg_y) == (other.deg_x, other.deg_y) and projectively_equal(
            self.flat(), other.flat()
        )


def _convolve(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u == 0:
            continue
        for j, v in enumerate(b):
            if v != 0:
                out[i + j] += u * v
    return out
