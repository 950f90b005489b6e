"""Cayley operator, Clebsch-Gordan decomposition and the degree-lowering embedding.

The m-th Cayley power of a bihomogeneous form f of bidegree (d, e) is the
binary form of degree d+e-2m obtained by applying
(d_{x0} d_{y1} - d_{y0} d_{x1})^m and restricting to the diagonal x = y = z.
Collecting the powers m = 0..min(d, e) is a linear bijection between the
(d+1)(e+1) coefficients of f and the stacked component coefficients; that is
the decomposition V_d (x) V_e ~ V_{d+e} (+) V_{d+e-2} (+) ... of classical
invariant theory.  Both directions run on integers.

Each power is computed from that definition: the signed binomial sum over k
of the partials d_{x0}^k d_{x1}^(m-k) d_{y0}^(m-k) d_{y1}^k, restricted by
the integer anti-diagonal kernel of ``forms``; ``cg_decompose`` clears f to
integer rows once and takes every power from them.  The map is graded:
component m at index t only sees the a_ij with i + j = t + m, so the inverse
splits into integer blocks of size at most min(d, e) + 1, one per
anti-diagonal, whose weights are read off the same partials.  Each block is
inverted once, fraction-free, and cached as integer rows over one
denominator; ``cg_reconstruct`` clears all components to one denominator and
takes integer dot products with those rows, one ``Fraction`` per coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .forms import BiForm, BinaryForm, _diagonal_sum, _frac, _int_rows, _int_scale, _partial_weights


def _omega_terms(d: int, e: int, m: int) -> list[tuple[list[int], list[int], int, int]]:
    """The m-th Cayley power as _diagonal_sum arguments (wx, wy, i0, j0), one per term.

    (d_{x0} d_{y1} - d_{y0} d_{x1})^m is the signed binomial sum over k of
    d_{x0}^k d_{x1}^(m-k) d_{y0}^(m-k) d_{y1}^k.
    """
    return [
        ([(-1) ** (m - k) * math.comb(m, k) * w for w in _partial_weights(d, k, m - k)],
         _partial_weights(e, m - k, k), m - k, k)
        for k in range(m + 1)
    ]


def _omega(a, den: int, d: int, e: int, m: int) -> BinaryForm:
    """The m-th Cayley power of the bidegree (d, e) form with integer rows a over den."""
    out = [0] * (d + e - 2 * m + 1)
    for term in _omega_terms(d, e, m):
        out = [u + v for u, v in zip(out, _diagonal_sum(a, *term))]
    return BinaryForm(d + e - 2 * m, [Fraction(v, den) for v in out])


def cayley_omega(f: BiForm, m: int) -> BinaryForm:
    """The m-th Cayley power of f restricted to the diagonal; degree d+e-2m."""
    d, e = f.deg_x, f.deg_y
    if m < 0 or m > min(d, e):
        raise ValueError(f"Cayley order must lie in 0..min(d, e) = {min(d, e)}")
    return _omega(*_int_rows(f), d, e, m)


@dataclass(frozen=True)
class CgComponents:
    """The component list (degree d+e, d+e-2, ..., |d-e|) of a bidegree (d, e) form.

    ``parts`` may be any iterable of ``BinaryForm``; it is stored as a tuple.
    """

    deg_x: int
    deg_y: int
    parts: tuple[BinaryForm, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        for part in parts:
            if not isinstance(part, BinaryForm):
                raise TypeError(f"components must be BinaryForm, got {type(part).__name__}")
        object.__setattr__(self, "parts", parts)
        d, e = self.deg_x, self.deg_y
        if len(parts) != min(d, e) + 1:
            raise ValueError("component list must have min(d, e) + 1 entries")
        for m, part in enumerate(parts):
            if part.degree != d + e - 2 * m:
                raise ValueError(f"component {m} must have degree {d + e - 2 * m}")


def cg_decompose(f: BiForm) -> CgComponents:
    """All Cayley powers of f, stacked; an exact linear bijection."""
    d, e = f.deg_x, f.deg_y
    a, den = _int_rows(f)
    return CgComponents(d, e, tuple(_omega(a, den, d, e, m) for m in range(min(d, e) + 1)))


def _antidiagonal_pairs(d: int, e: int, s: int) -> list[tuple[int, int]]:
    return [(i, s - i) for i in range(max(0, s - e), min(d, s) + 1)]


@lru_cache(maxsize=None)
def _block_inverse(d: int, e: int, s: int):
    """Exact inverse of the anti-diagonal s block, as integer rows over one denominator.

    Rows of the block are indexed by the Cayley orders m contributing at
    anti-diagonal s, columns by the pairs (i, j) with i + j = s.  Fraction-free
    Gauss-Jordan on [B | I] (Bareiss: each update is divided exactly by the
    previous pivot) leaves [p*I | p*B^-1], p the last pivot; each row is then
    reduced by its gcd with p and given a positive denominator.
    """
    pairs = _antidiagonal_pairs(d, e, s)
    orders = [m for m in range(min(d, e) + 1) if 0 <= s - m <= d + e - 2 * m]
    if len(pairs) != len(orders):
        raise AssertionError("anti-diagonal blocks must be square")
    size = len(pairs)
    # The weight of a_ij in component m: the terms of cayley_omega read at (i, j).
    terms = {m: _omega_terms(d, e, m) for m in orders}
    aug = [
        [sum(wx[i - i0] * wy[j - j0] for wx, wy, i0, j0 in terms[m]
             if 0 <= i - i0 < len(wx) and 0 <= j - j0 < len(wy))
         for (i, j) in pairs] + [int(r == c) for c in range(size)]
        for r, m in enumerate(orders)
    ]
    prev = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise AssertionError("decomposition block is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        prow = aug[col]
        pv = prow[col]
        for r in range(size):
            if r != col:
                row, factor = aug[r], aug[r][col]
                for c in range(2 * size):
                    q, rem = divmod(pv * row[c] - factor * prow[c], prev)
                    if rem:
                        raise ArithmeticError("inexact Bareiss division in a decomposition block")
                    row[c] = q
        prev = pv
    rows = []
    for row in aug:
        g = math.gcd(prev, *row[size:])
        if prev < 0:
            g = -g
        rows.append((tuple(v // g for v in row[size:]), prev // g))
    return tuple(orders), tuple(pairs), tuple(rows)


def cg_reconstruct(components: CgComponents) -> BiForm:
    """The unique bidegree (d, e) form with the given Cayley powers."""
    d, e = components.deg_x, components.deg_y
    # All components as integers over one denominator; part m starts at start[m].
    flat, den = _int_scale([c for part in components.parts for c in part.coeffs])
    start = [0]
    for part in components.parts:
        start.append(start[-1] + part.degree + 1)
    rows = [[0] * (e + 1) for _ in range(d + 1)]
    for s in range(d + e + 1):
        orders, pairs, inv_rows = _block_inverse(d, e, s)
        rhs = [flat[start[m] + s - m] for m in orders]
        for (nums, row_den), (i, j) in zip(inv_rows, pairs):
            rows[i][j] = Fraction(sum(n * v for n, v in zip(nums, rhs)), row_den * den)
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

