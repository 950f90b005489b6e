"""Cayley operator, Clebsch-Gordan decomposition and the degree-lowering embedding.

The m-th Cayley power of a bihomogeneous form f of bidegree (d, e) is the
binary form of degree d+e-2m obtained by applying
(d_{x0} d_{y1} - d_{y0} d_{x1})^m and restricting to the diagonal x = y = z.
Collecting the powers m = 0..min(d, e) is a linear bijection between the
(d+1)(e+1) coefficients of f and the stacked component coefficients; that is
the decomposition V_d (x) V_e ~ V_{d+e} (+) V_{d+e-2} (+) ... of classical
invariant theory.  Both directions run on integers.

The map is graded: component m at index t only sees the a_ij with
i + j = t + m.  Each power's integer weights are summed once per (d, e, m)
from the definition, the signed binomial sum over k of the partials
d_{x0}^k d_{x1}^(m-k) d_{y0}^(m-k) d_{y1}^k restricted to the diagonal, and
cached by anti-diagonal; a power is then one integer dot product per output
coefficient with f's integer rows read by anti-diagonal, which
``cg_decompose`` clears once for all powers.  By the same grading the
inverse splits into blocks of size at most min(d, e) + 1, one per
anti-diagonal.
Gordan's series (Grace and Young, The Algebra of Invariants, 1903) writes f
back from its Cayley powers in closed form, so each block's weights are read
off binomial coefficients and cached as integer rows over one denominator;
``cg_reconstruct`` clears all components to one denominator and takes integer
dot products with those rows, one ``Fraction`` per coefficient.  Each dot
product is divided by its row's denominator times the common one with one
``divmod``: an exact quotient, as at every entry of the image of an integer
form, becomes an integer ``Fraction`` with no gcd, and only a nonzero
remainder pays for reducing the quotient to lowest terms.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .forms import BiForm, BinaryForm, _frac, _int_rows, _int_scale, _partial_weights


@lru_cache(maxsize=None)
def _omega_table(d: int, e: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Integer weights of the m-th Cayley power of a bidegree (d, e) form.

    Row t holds the weights of the a_ij with i + j = t + m, in increasing i:
    output coefficient t is their dot product with that anti-diagonal.
    (d_{x0} d_{y1} - d_{y0} d_{x1})^m is the signed binomial sum over k of
    d_{x0}^k d_{x1}^(m-k) d_{y0}^(m-k) d_{y1}^k, whose weight on a_ij is
    wx[i - m + k] * wy[j - k] for the _partial_weights wx of the x orders
    and wy of the y orders; for one k and one i these fill the run
    j = k..k+e-m of the weight matrix, which is updated as a whole.
    """
    w = [[0] * (e + 1) for _ in range(d + 1)]
    for k in range(m + 1):
        sign = (-1) ** (m - k) * math.comb(m, k)
        wy = _partial_weights(e, m - k, k)
        for ii, u in enumerate(_partial_weights(d, k, m - k)):
            row, su = w[m - k + ii], sign * u
            row[k : k + len(wy)] = [x + su * v for x, v in zip(row[k : k + len(wy)], wy)]
    return tuple(map(tuple, _anti_diagonals(w, d, e)[m : d + e - m + 1]))


def _anti_diagonals(a, d: int, e: int) -> list[list[int]]:
    """The (d+1) x (e+1) matrix a by anti-diagonal: entry s lists a[i][s - i] in increasing i."""
    return [[a[i][s - i] for i in range(max(0, s - e), min(d, s) + 1)] for s in range(d + e + 1)]


def _omega(diagonals, den: int, d: int, e: int, m: int) -> BinaryForm:
    """The m-th Cayley power of the bidegree (d, e) form with anti-diagonals over den."""
    table = _omega_table(d, e, m)
    return BinaryForm(
        d + e - 2 * m,
        [Fraction(sum(map(operator.mul, row, diagonals[t + m])), den) for t, row in enumerate(table)],
    )


def cayley_omega(f: BiForm, m: int) -> BinaryForm:
    """The m-th Cayley power of f restricted to the diagonal; degree d+e-2m."""
    d, e = f.deg_x, f.deg_y
    if m < 0 or m > min(d, e):
        raise ValueError(f"Cayley order must lie in 0..min(d, e) = {min(d, e)}")
    a, den = _int_rows(f)
    return _omega(_anti_diagonals(a, d, e), den, d, e, m)


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
    diagonals = _anti_diagonals(a, d, e)
    return CgComponents(d, e, tuple(_omega(diagonals, den, d, e, m) for m in range(min(d, e) + 1)))


@lru_cache(maxsize=None)
def _block_inverse(d: int, e: int, s: int):
    """Exact inverse of the anti-diagonal s block, as integer rows over one denominator.

    Columns are the Cayley orders m contributing at anti-diagonal s, rows the
    pairs (i, j) with i + j = s.  Gordan's series gives each weight in closed
    form: f = sum_m (x.y)^m P_m(Omega^m f) / (m!^2 C(n-m+1, m)), n = d + e,
    where (x.y) = x0 y1 - x1 y0 and the polar P_m(g)[i][j] is
    g[i+j] C(d-m, i) C(e-m, j) / C(n-2m, i+j).  Expanding
    (x.y)^m = sum_k (-1)^k C(m, k) x0^(m-k) x1^k y0^k y1^(m-k) gives the
    weight of component m, at index s - m, in a_ij.
    """
    n = d + e
    orders = [m for m in range(min(d, e) + 1) if 0 <= s - m <= n - 2 * m]
    pairs = [(i, s - i) for i in range(max(0, s - e), min(d, s) + 1)]
    rows = []
    for i, j in pairs:
        weights = [
            Fraction(
                sum((-1) ** k * math.comb(m, k) * math.comb(d - m, i - k)
                    * math.comb(e - m, j - m + k) for k in range(max(0, m - j), min(m, i) + 1)),
                math.factorial(m) ** 2 * math.comb(n - m + 1, m) * math.comb(n - 2 * m, s - m),
            )
            for m in orders
        ]
        nums, den = _int_scale(weights)
        rows.append((tuple(nums), den))
    return tuple(orders), tuple(pairs), tuple(rows)


def cg_reconstruct(components: CgComponents) -> BiForm:
    """The unique bidegree (d, e) form with the given Cayley powers.

    Each entry is one integer dot product over row_den * den; an exact
    quotient is taken as it is, and only an inexact one is reduced by a gcd.
    """
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
            dot, scale = sum(map(operator.mul, nums, rhs)), row_den * den
            q, r = divmod(dot, scale)
            rows[i][j] = Fraction(dot, scale) if r else Fraction(q)
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


def _project(f: BiForm, scale=(1, 1)) -> BiForm:
    """f projected onto bidegree (1, d+e-1): rho_embed of its Cayley powers 0 and 1."""
    d, e = f.deg_x, f.deg_y
    return rho_embed(cayley_omega(f, 0), cayley_omega(f, 1), 1, d + e - 1, scale)

