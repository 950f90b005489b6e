"""Cayley operator, Clebsch-Gordan decomposition and the degree-lowering embedding.

The m-th Cayley power of a bihomogeneous form f of bidegree (d, e) is the
binary form of degree d+e-2m obtained by applying
(d_{x0} d_{y1} - d_{y0} d_{x1})^m and restricting to the diagonal x = y = z.
Collecting the powers m = 0..min(d, e) is a linear bijection between the
(d+1)(e+1) coefficients of f and the stacked component coefficients; that is
the decomposition V_d (x) V_e ~ V_{d+e} (+) V_{d+e-2} (+) ... of classical
invariant theory, and it is inverted here exactly.

The linear map is graded: component m at coefficient index t only sees the
matrix entries a_ij with i + j = t + m, so both directions reduce to
independent integer systems of size at most min(d, e) + 1 along the
anti-diagonals of the coefficient matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .forms import BiForm, BinaryForm, _frac


def _omega_weight(d: int, e: int, m: int, i: int, j: int) -> int:
    """Integer weight of a_ij in the m-th Cayley power (binomial expansion)."""
    total = 0
    for k in range(m + 1):
        total += (
            (-1) ** (m - k)
            * math.comb(m, k)
            * math.perm(d - i, k)
            * math.perm(i, m - k)
            * math.perm(e - j, m - k)
            * math.perm(j, k)
        )
    return total


@lru_cache(maxsize=None)
def _omega_table(d: int, e: int, m: int) -> tuple[tuple[int, int, int], ...]:
    """(i, j, weight) triples with nonzero weight for the m-th Cayley power."""
    out = []
    for i in range(d + 1):
        for j in range(e + 1):
            w = _omega_weight(d, e, m, i, j)
            if w:
                out.append((i, j, w))
    return tuple(out)


def cayley_omega(f: BiForm, m: int) -> BinaryForm:
    """The m-th Cayley power of f restricted to the diagonal; degree d+e-2m."""
    d, e = f.deg_x, f.deg_y
    if m < 0 or m > min(d, e):
        raise ValueError(f"Cayley order must lie in 0..min(d, e) = {min(d, e)}")
    deg = d + e - 2 * m
    out = [Fraction(0)] * (deg + 1)
    for i, j, w in _omega_table(d, e, m):
        c = f.coeffs[i][j]
        if c != 0:
            out[i + j - m] += w * c
    return BinaryForm(deg, out)


@dataclass(frozen=True)
class CgComponents:
    """The component list (degree d+e, d+e-2, ..., |d-e|) of a bidegree (d, e) form."""

    deg_x: int
    deg_y: int
    parts: tuple[BinaryForm, ...]

    def __post_init__(self):
        d, e = self.deg_x, self.deg_y
        if len(self.parts) != min(d, e) + 1:
            raise ValueError("component list must have min(d, e) + 1 entries")
        for m, part in enumerate(self.parts):
            if part.degree != d + e - 2 * m:
                raise ValueError(f"component {m} must have degree {d + e - 2 * m}")


def cg_decompose(f: BiForm) -> CgComponents:
    """All Cayley powers of f, stacked; an exact linear bijection."""
    return CgComponents(
        f.deg_x, f.deg_y, tuple(cayley_omega(f, m) for m in range(min(f.deg_x, f.deg_y) + 1))
    )


def _antidiagonal_pairs(d: int, e: int, s: int) -> list[tuple[int, int]]:
    return [(i, s - i) for i in range(max(0, s - e), min(d, s) + 1)]


@lru_cache(maxsize=None)
def _block_inverse(d: int, e: int, s: int):
    """Exact inverse of the anti-diagonal s block, as integer rows over one denominator.

    Rows of the block are indexed by the Cayley orders m contributing at
    anti-diagonal s, columns by the pairs (i, j) with i + j = s.
    """
    pairs = _antidiagonal_pairs(d, e, s)
    orders = [m for m in range(min(d, e) + 1) if 0 <= s - m <= d + e - 2 * m]
    if len(pairs) != len(orders):
        raise AssertionError("anti-diagonal blocks must be square")
    size = len(pairs)
    block = [
        [Fraction(_omega_weight(d, e, m, i, j)) for (i, j) in pairs] for m in orders
    ]
    aug = [row[:] + [Fraction(int(r == c)) for c in range(size)] for r, row in enumerate(block)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise AssertionError("decomposition block is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    inv = [row[size:] for row in aug]
    rows = []
    for row in inv:
        den = math.lcm(*(v.denominator for v in row))
        rows.append((tuple(int(v * den) for v in row), den))
    return tuple(orders), tuple(pairs), tuple(rows)


def cg_reconstruct(components: CgComponents) -> BiForm:
    """The unique bidegree (d, e) form with the given Cayley powers."""
    d, e = components.deg_x, components.deg_y
    rows = [[Fraction(0)] * (e + 1) for _ in range(d + 1)]
    for s in range(d + e + 1):
        orders, pairs, inv_rows = _block_inverse(d, e, s)
        rhs = [components.parts[m].coeffs[s - m] for m in orders]
        for (nums, den), (i, j) in zip(inv_rows, pairs):
            rows[i][j] = sum(n * v for n, v in zip(nums, rhs)) / den
    return BiForm(d, e, rows)


def rho_embed(
    w0: BinaryForm,
    w1: BinaryForm,
    deg_x: int,
    deg_y: int,
    scale=(1, 1),
) -> BiForm:
    """The bidegree (deg_x, deg_y) form with Cayley powers (c0*w0, c1*w1, 0, ...).

    This realizes the injective equivariant embedding of a two-component
    system into any larger bidegree with the same total degree; the scale
    pair (c0, c1) parameterizes the two-dimensional family of such
    embeddings and must be nonzero.
    """
    d, e = deg_x, deg_y
    if min(d, e) < 1:
        raise ValueError("target bidegree needs min(d, e) >= 1")
    c0, c1 = (_frac(c) for c in scale)
    if c0 == 0 or c1 == 0:
        raise ValueError("scale pair must be nonzero")
    n = d + e
    if w0.degree != n or w1.degree != n - 2:
        raise ValueError(f"component degrees must be ({n}, {n - 2})")
    parts = [w0.scale(c0), w1.scale(c1)]
    parts += [BinaryForm.zero(n - 2 * m) for m in range(2, min(d, e) + 1)]
    return cg_reconstruct(CgComponents(d, e, tuple(parts)))


def torus_weight(d: int, e: int, i: int, j: int) -> int:
    """Exponent by which diag(t, 1/t) conjugation scales the (i, j) coefficient."""
    if not (0 <= i <= d and 0 <= j <= e):
        raise ValueError("coefficient index out of range")
    return (d + e) - 2 * (i + j)
