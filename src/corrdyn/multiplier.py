"""Fixed-point multiplier forms, spectra, and the index identities.

The fixed points of a correspondence f are the diagonal roots of
F(z) = f(z, z).  At a smooth fixed point p the curve has a slope dy/dx, the
multiplier, and it equals -diag_x(p)/diag_y(p) for the degree d+e polynomial
representatives

    diag_x[k] = sum_{i+j=k} (d - 2i) a_ij      diag_y[k] = sum_{i+j=k} (e - 2j) a_ij.

Sign convention (validated by the differentiation oracle in the test suite):
these arrays equal MINUS the diagonal restrictions of x1*d_{x1}f - x0*d_{x0}f
and y1*d_{y1}f - y0*d_{y0}f; both carry the same global flip, so the ratio,
the multiplier and everything downstream are unaffected.

The multiplier form is res_z(F, diag_x*dx + diag_y*dy), a form of degree d+e
in the covariables, held as a BinaryForm in (z0, z1) = (dy, dx); it factors
through the fixed points as a product of (diag_x(p)*dx + diag_y(p)*dy), so
its coefficients encode the elementary symmetric functions of the
multipliers.  The same covector rewrites exactly
as w0*dz0 + w1*dz1 in the basis

    dz0 = (d*dx + e*dy)/(d+e)      dz1 = (2*dx - 2*dy)/(d+e)

with w0[k] = (d+e-2k)*F[k] and w1 = z0*z1 * (first Cayley power of f); the
dz coordinates are where the image hyperplane [coefficient of
dz0^(d+e-1)*dz1] = 0 lives.

On an iterate f^n the resultant splits.  A fixed point of f^k is one of f^n
when k divides n, so F(f^k) divides F(f^n) (Silverman, The Arithmetic of
Dynamical Systems, 4.1), and iterate records F(f^k) for each proper divisor
k.  multiplier_form splits F along them, each by a gcd and an exact division,
and multiplies the resultants of the factors against the same pencil: a
factor of degree m takes m + 1 subresultant sequences instead of d+e+1.  The
gcd makes each split exact whatever the record holds, so the product is the
unsplit form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .correspondence import Correspondence, _PreconditionError
from .forms import (
    BinaryForm,
    _diagonal_sum,
    _frac,
    _horner,
    _int_rows,
    _int_scale,
    _times_linear,
    binary_gcd,
    rational_roots,
)
from .resultant import bareiss_det_poly, covariant_resultant, sylvester_rows


class BadPosition(_PreconditionError):
    """A fixed point sits at 0 or infinity (a00 * a_de = 0); conjugate first."""


class IndeterminateMultiplier(_PreconditionError):
    """The multiplier map is undefined for this correspondence."""


@dataclass(frozen=True)
class DiagonalDerivatives:
    """Degree d+e polynomial representatives of the diagonal derivative data.

    diag satisfies diag[k] = sum_{i+j=k} a_ij (the fixed point form), and
    diag_x, diag_y are the slope forms of the module docstring.  Their dz
    coefficients are diag_x + diag_y (dz0) and (e*diag_x - d*diag_y)/2 (dz1).
    """

    diag: BinaryForm
    diag_x: BinaryForm
    diag_y: BinaryForm


@dataclass(frozen=True)
class MultiplierSpectrum:
    """sigma[i] is the i-th elementary symmetric function of the n multipliers."""

    sigma: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.sigma or self.sigma[0] != 1:
            raise ValueError("spectrum needs n+1 entries starting with 1")

    @property
    def n(self) -> int:
        return len(self.sigma) - 1


def diagonal_derivative_forms(f: Correspondence) -> DiagonalDerivatives:
    """The three diagonal derivative forms of a correspondence."""
    d, e = f.deg_x, f.deg_y
    n = d + e
    a, den = _int_rows(f.form)
    ones_x, ones_y = [1] * (d + 1), [1] * (e + 1)
    diag = _diagonal_sum(a, ones_x, ones_y, 0, 0)
    xk = _diagonal_sum(a, [d - 2 * i for i in range(d + 1)], ones_y, 0, 0)
    yk = _diagonal_sum(a, ones_x, [e - 2 * j for j in range(e + 1)], 0, 0)
    return DiagonalDerivatives(
        BinaryForm(n, [Fraction(c, den) for c in diag]),
        BinaryForm(n, [Fraction(x, den) for x in xk]),
        BinaryForm(n, [Fraction(y, den) for y in yk]),
    )


def multiplier_form(f: Correspondence) -> BinaryForm:
    """The fixed point multiplier form res_z(F, diag_x*dx + diag_y*dy).

    Requires good position (a00 != 0 and a_de != 0); conjugating by a generic
    Moebius map restores it, since multipliers are conjugation invariants.
    Raises IndeterminateMultiplier when the form is zero, which happens exactly
    when a fixed point is a common root of diag_x and diag_y.  The result is
    well-defined up to scalars; its coefficients divided by a00*a_de are
    conjugation-invariant functions of the coefficient matrix.  On a form
    built by iterate the resultant is taken factor by factor, as the module
    docstring describes; the result is the same.
    """
    d, e = f.deg_x, f.deg_y
    a00 = f.form.coeffs[0][0]
    ade = f.form.coeffs[d][e]
    if a00 == 0 or ade == 0:
        raise BadPosition(
            "fixed point at 0 or infinity (a00 or a_de vanishes); conjugate by a generic "
            "Moebius map first"
        )
    dd = diagonal_derivative_forms(f)
    # Split F along the fixed point forms iterate records (module docstring).
    factors = [dd.diag]
    for divisor in f._fixed_divisors:
        refined = []
        for a in factors:
            g = binary_gcd([a, divisor])
            refined += [g, a.divide_exact(g)] if 0 < g.degree < a.degree else [a]
        factors = refined
    r = math.prod(
        (covariant_resultant(a, dd.diag_x, dd.diag_y) for a in factors), start=BinaryForm(0, [1])
    )
    if r.is_zero():
        raise IndeterminateMultiplier(
            "a fixed point is critical in both directions; the multiplier map is undefined"
        )
    return r


def _invariant_coefficients(f: Correspondence, r: BinaryForm) -> tuple[Fraction, ...]:
    """The coefficients of f's multiplier form r over a00*a_de, as multiplier_form promises."""
    d, e = f.deg_x, f.deg_y
    norm = f.form.coeffs[0][0] * f.form.coeffs[d][e]
    return tuple(c / norm for c in r.coeffs)


def sigma_spectrum(r: BinaryForm) -> MultiplierSpectrum:
    """Normalized spectrum sigma[i] = (-1)^i * r[dx^i dy^(n-i)] / r[dy^n]."""
    lead = r.coeffs[0]
    if lead == 0:
        raise IndeterminateMultiplier(
            "dy^n coefficient vanishes: a multiplier is infinite, the spectrum is indeterminate"
        )
    sigma = tuple((-1) ** i * c / lead for i, c in enumerate(r.coeffs))
    return MultiplierSpectrum(sigma)


def rational_fixed_point_oracle(f: Correspondence) -> MultiplierSpectrum:
    """Brute-force spectrum from the rational fixed points themselves.

    Requires the fixed point form to split into distinct rational roots, none
    at 0 or infinity (BadPosition), with diag_y nonzero at each (else
    IndeterminateMultiplier); the multiplier at p is -diag_x(p)/diag_y(p) and
    sigma collects their elementary symmetric functions.  diag_x and diag_y
    are cleared to integers over one denominator, which the ratio drops, and
    read at each root [p0:p1] by integer Horner as X_p and Y_p; sigma_i is
    coefficient i of prod (Y_p - X_p*t) over the integers, divided by
    prod Y_p.  This is the independent check of the resultant route.
    """
    dd = diagonal_derivative_forms(f)
    n = dd.diag.degree
    if dd.diag.coeffs[0] == 0 or dd.diag.coeffs[n] == 0:
        raise BadPosition("fixed point at 0 or infinity")
    roots = rational_roots(dd.diag)
    if sum(mult for _, mult in roots) != n:
        raise ValueError("fixed point form does not split over the rationals")
    if any(mult > 1 for _, mult in roots):
        raise ValueError("fixed points are not distinct")
    ints = _int_scale(dd.diag_x.coeffs + dd.diag_y.coeffs)[0]
    xs, ys = ints[: n + 1], ints[n + 1 :]
    product, den = [1], 1
    for (p0, p1), _ in roots:
        y = _horner(ys, p0, p1)
        if y == 0:
            raise IndeterminateMultiplier(f"y-critical fixed point at [{p0}:{p1}]")
        product = _times_linear(product, y, -_horner(xs, p0, p1))
        den *= y
    return MultiplierSpectrum(tuple(Fraction(c, den) for c in product))


def dz_coordinates(r: BinaryForm, deg_x: int, deg_y: int) -> tuple[Fraction, ...]:
    """Coefficients of r in the (dz0, dz1) basis attached to (deg_x, deg_y).

    Entry k multiplies dz0^(n-k) * dz1^k; the rewrite is r.substitute_linear
    of the exact inverse substitution dx = dz0 + (e'/2)*dz1,
    dy = dz0 - (d'/2)*dz1 and requires d' + e' to equal the degree of r.
    """
    if deg_x < 0 or deg_y < 0:
        raise ValueError("basis degrees must be nonnegative")
    if deg_x + deg_y != r.degree or r.degree < 1:
        raise ValueError("basis bidegree must sum to the form degree")
    return r.substitute_linear(((1, Fraction(-deg_x, 2)), (1, Fraction(deg_y, 2)))).coeffs


def index_residual(spectrum: MultiplierSpectrum) -> Fraction:
    """sum (-1)^i (d - i) sigma_i over i = 0..d+1, for the map degree d = n - 1.

    Vanishes exactly on spectra of genuine degree-d self-maps; a nonzero
    value certifies a non-realizable spectrum.  This is the e = 1 case of the
    index theorem sum (-1)^i (n - i - e) sigma_i = 0 for a (d, e)
    correspondence with n = d + e.
    """
    d = spectrum.n - 1
    return sum(
        ((-1) ** i * (d - i) * s for i, s in enumerate(spectrum.sigma)), Fraction(0)
    )


def woods_hole_resultant(f: Sequence, g: Sequence) -> tuple[Fraction, ...]:
    """res_x(f, f' + t*g) as an ascending polynomial in t.

    f and g are ascending univariate coefficient vectors of ints or Fractions
    (anything else raises TypeError); requires the actual degree of f to be
    its declared degree, deg f >= 3 and deg f >= deg g + 2.  The second
    argument carries declared degree deg f - 1.
    """
    fc = [_frac(c) for c in f]
    gc = [_frac(c) for c in g]
    df = len(fc) - 1
    if df < 3 or fc[-1] == 0:
        raise ValueError("f must have actual degree >= 3")
    if len(gc) - 1 > df - 2:
        raise ValueError("g must have degree at most deg f - 2")
    deriv = [(k + 1) * fc[k + 1] for k in range(df)]
    gc += [Fraction(0)] * (df - len(gc))
    fi, den_f = _int_scale(fc)
    dgi, den_g = _int_scale(deriv + gc)
    rows_g = list(zip(dgi[:df], dgi[df:]))
    det = bareiss_det_poly(sylvester_rows([(c,) for c in fi], rows_g, ()), df - 1)
    scale = den_f ** (df - 1) * den_g**df
    return tuple(Fraction(det.get((0, k), 0), scale) for k in range(df + 1))

