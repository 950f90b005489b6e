"""The polynomial-entry resultants against sympy.resultant, rational_roots
against sympy's ground_roots and the pseudo-remainder against sympy.prem, as
outside oracles.

The package's Sylvester layout is ascending, sympy's descending, so each pair
must agree up to the sign (-1)^(d*e) of the two declared degrees.
"""

import random
from fractions import Fraction as F

import pytest

from corrdyn.correspondence import Correspondence, compose
from corrdyn.forms import BinaryForm, _prem, rational_roots
from corrdyn.multiplier import woods_hole_resultant
from corrdyn.resultant import covariant_resultant

sympy = pytest.importorskip("sympy")
x, y, z, t = sympy.symbols("x y z t")


def rat(c: F):
    return sympy.Rational(c.numerator, c.denominator)


def nonzero(rng):
    return F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 3))


def coeff_of(poly, var_powers):
    """Coefficient of the monomial prod(var**k) as a Fraction."""
    c = sympy.Poly(poly, *(v for v, _ in var_powers)).coeff_monomial(
        tuple(k for _, k in var_powers)
    )
    c = sympy.Rational(c)
    return F(int(c.p), int(c.q))


def test_compose_matches_sympy():
    rng = random.Random(31)
    # Twelve drawn bidegree pairs, then three where one block of the Sylvester
    # matrix dominates: x1 packed with an odd row-order sign, x1 packed, y1 packed.
    for fixed in [None] * 12 + [(3, 1, 1, 1), (4, 1, 2, 1), (1, 1, 1, 4)]:
        d, e, dp, ep = fixed or (rng.randint(1, 2) for _ in range(4))
        a = [[nonzero(rng) for _ in range(e + 1)] for _ in range(d + 1)]
        b = [[nonzero(rng) for _ in range(ep + 1)] for _ in range(dp + 1)]
        h = compose(Correspondence.from_matrix(d, e, a), Correspondence.from_matrix(dp, ep, b))
        # Dehomogenized at x0 = y0 = z0 = 1: f read in (x, z), g in (z, y).
        fz = sum(rat(a[i][j]) * x**i * z**j for i in range(d + 1) for j in range(e + 1))
        gz = sum(rat(b[k][l]) * z**k * y**l for k in range(dp + 1) for l in range(ep + 1))
        want = sympy.expand((-1) ** (e * dp) * sympy.resultant(fz, gz, z))
        for i in range(d * dp + 1):
            for j in range(e * ep + 1):
                assert h.form.coeffs[i][j] == coeff_of(want, [(x, i), (y, j)])


def test_covariant_resultant_matches_sympy():
    rng = random.Random(32)
    for trial in range(28):
        n = trial % 8 + 1
        # After sixteen pencils of degree n, twelve of degree N > n, as
        # multiplier_form passes them for each factor of a fixed point form.
        big = n + (rng.randint(1, 5) if trial >= 16 else 0)
        f, p, q = (
            [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(deg)] + [nonzero(rng)]
            for deg in (n, big, big)
        )
        # A zero leading coefficient in p or q (not both, so the pencil keeps
        # its z-degree for sympy) exercises the declared-degree sign.
        if trial % 3 == 1:
            p[-1] = F(0)
        elif trial % 3 == 2:
            q[-1] = F(0)
        r = covariant_resultant(BinaryForm(n, f), BinaryForm(big, p), BinaryForm(big, q))
        # Dehomogenized at z0 = 1 and dy = 1, with t standing for dx.
        fz = sum(rat(c) * z**k for k, c in enumerate(f))
        pencil = sum((rat(a) * t + rat(b)) * z**k for k, (a, b) in enumerate(zip(p, q)))
        # Res(pencil, f) = (-1)^(n*N) Res(f, pencil), the ascending-layout sign.
        # The argument of higher degree goes first: that is the order in which
        # sympy.resultant is the Sylvester determinant; the other order lacks
        # the sign (-1)^(n*N) of the swap.
        want = sympy.expand(sympy.resultant(pencil, fz, z))
        assert list(r.coeffs) == [coeff_of(want, [(t, k)]) for k in range(n + 1)]


def test_woods_hole_resultant_matches_sympy():
    rng = random.Random(33)
    for _ in range(12):
        df = rng.randint(3, 6)
        f = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(df)] + [nonzero(rng)]
        g = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, df - 1))]
        got = woods_hole_resultant(f, g)
        fx = sum(rat(c) * x**k for k, c in enumerate(f))
        gx = sum(rat(c) * x**k for k, c in enumerate(g))
        # Declared degrees df and df - 1: the sign (-1)^(df*(df-1)) is always +1.
        want = sympy.expand(sympy.resultant(fx, sympy.diff(fx, x) + t * gx, x))
        assert list(got) == [coeff_of(want, [(t, k)]) for k in range(df + 1)]


def test_tall_rational_roots_match_sympy():
    # Roots of height 10^20 to 10^40, some repeated, times an irreducible
    # cofactor, powers of z0 and z1 and a rational scale: out of reach of
    # trial division, which would enumerate the divisors of the ends.
    rng = random.Random(34)
    for trial in range(40):
        form = BinaryForm(0, [F(rng.randint(1, 10**20), rng.randint(1, 10**20))])
        for _ in range(rng.randint(1, 3)):
            height = 10 ** rng.randint(20, 40)
            p0, p1 = rng.randint(1, height), rng.choice([-1, 1]) * rng.randint(1, height)
            for _ in range(rng.choice([1, 1, 2, 3])):
                form = form * BinaryForm(1, [p1, -p0])
        if trial % 2:  # z1^2 - k*z0^2 or z1^3 - k*z0^3 with k a large non-square prime
            n = 2 + trial % 4 // 2
            form = form * BinaryForm(n, [-sympy.nextprime(10**25 + trial)] + [0] * (n - 1) + [1])
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        form = BinaryForm.monomial(a + b, a) * form
        # Dehomogenized at z0 = 1: [p0:p1] is the root t = p1/p0, [1:0] is
        # t = 0, and [0:1] is the drop of the degree below the declared one.
        poly = sympy.Poly([rat(c) for c in reversed(form.coeffs)], t, domain="QQ")
        want = {(int(r.q), int(r.p)): m for r, m in poly.ground_roots().items()}
        if poly.degree() < form.degree:
            want[(0, 1)] = form.degree - poly.degree()
        assert rational_roots(form) == sorted(want.items()), form


def test_prem_matches_sympy():
    # _prem scales by lc(b)^(len(a) - len(b) + 1), from a's declared length;
    # sympy.prem by lc(b)^(deg a - deg b + 1) from a's actual degree, or not
    # at all when deg a < deg b.  Zero top coefficients of a make them differ.
    rng = random.Random(35)
    for trial in range(300):
        b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [rng.choice([-3, -1, 1, 2, 7])]
        a = [rng.randint(-30, 30) for _ in range(rng.randint(len(b), 8))]
        if trial % 3 == 0:
            k = rng.randint(1, len(a))
            a[-k:] = [0] * k
        got = _prem(a, b)
        pa, pb = sympy.Poly(list(reversed(a)), x), sympy.Poly(list(reversed(b)), x)
        actual = pa.degree() if any(a) else -1
        power = (len(a) - len(b) + 1) - max(actual - (len(b) - 1) + 1, 0)
        want = b[-1] ** power * (sympy.prem(pa, pb) if actual >= len(b) - 1 else pa)
        want_coeffs = [int(c) for c in reversed(want.all_coeffs())] if not want.is_zero else []
        assert got == want_coeffs, (a, b)
