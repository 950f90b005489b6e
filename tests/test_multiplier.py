import math
import random
from fractions import Fraction as F

import pytest

from corrdyn import clebsch, multiplier
from corrdyn.clebsch import cayley_omega
from corrdyn.correspondence import (
    Correspondence,
    DegenerateComposition,
    MoebiusMap,
    conjugate,
    iterate,
    moebius_graph,
)
from corrdyn.forms import BiForm, BinaryForm, binary_gcd, rational_roots
from corrdyn.multiplier import (
    BadPosition,
    IndeterminateMultiplier,
    MultiplierSpectrum,
    diagonal_derivative_forms,
    dz_coordinates,
    index_residual,
    multiplier_form,
    rational_fixed_point_oracle,
    sigma_spectrum,
    woods_hole_resultant,
)
from corrdyn.resultant import covariant_resultant
from corrdyn.verify import (
    _projection_agrees,
    conjugated_square_map,
    rand_binary_form,
    rand_correspondence,
    rand_good_position,
    rand_map_graph,
    rand_moebius,
    rand_planted_corner,
    rand_split_map_graph,
)

MOEBIUS_FIXTURE = Correspondence.from_matrix(1, 1, [[1, 0], [-2, 1]])  # z -> (2z - 1)/z


def graph_of(p, q, d):
    """(d, 1) graph of the rational map p/q from ascending coefficient lists."""
    p = list(p) + [F(0)] * (d + 1 - len(p))
    q = list(q) + [F(0)] * (d + 1 - len(q))
    return Correspondence.from_matrix(d, 1, [[-p[i], q[i]] for i in range(d + 1)])


def derivative_at(p, q, z):
    """Oracle: (p/q)'(z) by direct differentiation of the coefficient lists."""
    z = F(z)
    pv = sum(c * z**k for k, c in enumerate(p))
    qv = sum(c * z**k for k, c in enumerate(q))
    pd = sum(k * c * z ** (k - 1) for k, c in enumerate(p) if k)
    qd = sum(k * c * z ** (k - 1) for k, c in enumerate(q) if k)
    return (pd * qv - pv * qd) / qv**2


def dz_parts(f):
    """The dz0 and dz1 coefficient forms of the slope covector diag_x*dx + diag_y*dy."""
    d, e = f.bidegree
    dd = diagonal_derivative_forms(f)
    return dd.diag_x + dd.diag_y, (dd.diag_x.scale(e) - dd.diag_y.scale(d)).scale(F(1, 2))


def dz_to_covariant(coords, deg_x, deg_y):
    """Reference inverse of dz_coordinates: the (dx, dy) form with these dz coefficients."""
    n = deg_x + deg_y
    s = F(1, n)
    return BinaryForm(n, coords).substitute_linear(((deg_y * s, deg_x * s), (-2 * s, 2 * s)))


def elementary_symmetric(values):
    out = [F(1)]
    for v in values:
        nxt = [F(1)] + [out[k] + v * out[k - 1] for k in range(1, len(out))] + [v * out[-1]]
        out = nxt
    return tuple(out)


class TestDiagonalDerivatives:
    def test_moebius_fixture_values(self):
        # direct application of the coefficient rules to x0*y0 - 2*x1*y0 + x1*y1
        dd = diagonal_derivative_forms(MOEBIUS_FIXTURE)
        assert dd.diag == BinaryForm(2, [1, -2, 1])
        assert dd.diag_x == BinaryForm(2, [1, 2, -1])
        assert dd.diag_y == BinaryForm(2, [1, -2, -1])
        assert dz_parts(MOEBIUS_FIXTURE) == (BinaryForm(2, [2, 0, -2]), BinaryForm(2, [0, 2, 0]))

    def test_linear_relations(self):
        # diag_x*dx + diag_y*dy == dz0_part*dz0 + dz1_part*dz1 as covectors,
        # so the resultant of the fixed point form against the dz pencil is
        # the multiplier form written in dz coordinates, exactly.
        rng = random.Random(71)
        for _ in range(15):
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            f = rand_good_position(rng, d, e)
            dz0_part, dz1_part = dz_parts(f)
            in_dz = covariant_resultant(diagonal_derivative_forms(f).diag, dz1_part, dz0_part)
            assert in_dz.coeffs == dz_coordinates(multiplier_form(f), d, e)

    def test_dz1_part_is_shifted_cayley_power(self):
        rng = random.Random(72)
        for _ in range(15):
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            f = rand_good_position(rng, d, e)
            omega1 = cayley_omega(f.form, 1)
            assert dz_parts(f)[1] == BinaryForm(d + e, [0] + list(omega1.coeffs) + [0])

    def test_dz0_part_is_euler_weighted_diagonal(self):
        rng = random.Random(73)
        for _ in range(15):
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            f = rand_good_position(rng, d, e)
            diag, dz0_part = diagonal_derivative_forms(f).diag, dz_parts(f)[0]
            n = d + e
            assert all(dz0_part.coeffs[k] == (n - 2 * k) * diag.coeffs[k] for k in range(n + 1))

    def test_matches_definition_with_large_denominators(self):
        # The class docstring's definitions, term by term, on coefficients
        # that are zero, integers and fractions with large denominators.
        rng = random.Random(74)
        for _ in range(60):
            d, e = rng.randint(0, 4), rng.randint(0, 4)
            rows = [
                [rng.choice([F(0), F(rng.randint(-9, 9)),
                             F(rng.randint(-(10**22), 10**22), rng.randint(1, 10**22))])
                 for _ in range(e + 1)]
                for _ in range(d + 1)
            ]
            rows[0][0] = rows[0][0] or F(1)
            f = Correspondence.from_matrix(d, e, rows)
            dd = diagonal_derivative_forms(f)
            n = d + e
            diag, xk, yk = ([F(0)] * (n + 1) for _ in range(3))
            for i in range(d + 1):
                for j in range(e + 1):
                    diag[i + j] += rows[i][j]
                    xk[i + j] += (d - 2 * i) * rows[i][j]
                    yk[i + j] += (e - 2 * j) * rows[i][j]
            assert list(dd.diag.coeffs) == diag
            assert list(dd.diag_x.coeffs) == xk
            assert list(dd.diag_y.coeffs) == yk
            dz0_part, dz1_part = dz_parts(f)
            assert all(dz0_part.coeffs[k] == (n - 2 * k) * diag[k] for k in range(n + 1))
            if min(d, e) >= 1:
                omega1 = cayley_omega(f.form, 1)
                assert dz1_part == BinaryForm(n, [0] + list(omega1.coeffs) + [0])

    def test_symmetric_matrix_gives_equal_parts(self):
        f = Correspondence.from_matrix(2, 2, [[1, 2, 3], [2, 5, 7], [3, 7, 4]])
        dd = diagonal_derivative_forms(f)
        assert dd.diag_x == dd.diag_y


class TestMultiplierForm:
    def test_moebius_fixture(self):
        r = multiplier_form(MOEBIUS_FIXTURE)
        assert r.projectively_equal(BinaryForm(2, [1, -2, 1]))  # (dy - dx)^2

    def test_bad_position(self):
        square = Correspondence.from_matrix(2, 1, [[0, -1], [0, 0], [1, 0]])
        with pytest.raises(BadPosition):
            multiplier_form(square)

    def test_indeterminate(self):
        # (x - 1)(y - 1) = 0 is a node at the diagonal point (1, 1): both
        # slope forms vanish there along with the fixed point form, so the
        # multiplier is undefined even though a00 = a_de = 1
        f = Correspondence.from_matrix(1, 1, [[1, -1], [-1, 1]])
        with pytest.raises(IndeterminateMultiplier):
            multiplier_form(f)

    def test_raises_exactly_when_slope_forms_share_a_fixed_point(self):
        # The zero multiplier form stands in for a nonconstant
        # gcd(F, diag_x, diag_y).  Plant a fixed point p in three ways: as a
        # node (u*v, u^2 and v^2 terms with u = x1 - p*x0 and v = y1 - p*y0,
        # critical in both directions), as a point critical in y only
        # (u*A + v^2*B), or not at all.
        rng = random.Random(81)

        def rand_bi(d, e):
            return BiForm(d, e, [[rng.randint(-6, 6) for _ in range(e + 1)] for _ in range(d + 1)])

        raised = kept = 0
        for trial in range(150):
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            p = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            u, v = BiForm(1, 0, [[-p], [1]]), BiForm(0, 1, [[-p, 1]])
            kind = trial % 3
            if kind == 0:
                form = rand_bi(d, e)
            elif kind == 1:
                form = u * v * rand_bi(d - 1, e - 1)
                if d >= 2:
                    form = form + u * u * rand_bi(d - 2, e)
                if e >= 2:
                    form = form + v * v * rand_bi(d, e - 2)
            else:
                e = max(e, 2)
                form = u * rand_bi(d - 1, e) + v * v * rand_bi(d, e - 2)
            if form.is_zero():
                continue
            f = Correspondence(form)
            dd = diagonal_derivative_forms(f)
            shared = binary_gcd([dd.diag, dd.diag_x, dd.diag_y])
            critical = shared.is_zero() or shared.degree >= 1
            try:
                multiplier_form(f)
            except BadPosition:
                continue
            except IndeterminateMultiplier:
                assert critical
                raised += 1
            else:
                assert not critical
                kept += 1
        assert raised >= 20 and kept >= 40

    def test_conjugated_square_spectrum(self):
        f = conjugated_square_map()
        spectrum = sigma_spectrum(multiplier_form(f))
        assert spectrum.sigma == (1, 2, 0, 0)

    def test_spectrum_conjugation_invariance(self):
        rng = random.Random(74)
        for _ in range(8):
            f = rand_good_position(rng, rng.randint(1, 2), rng.randint(1, 2))
            while True:
                try:
                    g = MoebiusMap(*(rng.randint(-4, 4) for _ in range(4)))
                    other = sigma_spectrum(multiplier_form(conjugate(f, g)))
                    break
                except ValueError:
                    continue
            assert sigma_spectrum(multiplier_form(f)) == other

    def test_coefficients_divisible_by_corner_product(self):
        # every coefficient of the multiplier form is divisible by a00 * a_de
        # as a polynomial in the matrix entries, so integer matrices must give
        # integer quotients
        rng = random.Random(96)
        for _ in range(10):
            f = rand_good_position(rng, rng.randint(1, 2), rng.randint(1, 3))
            d, e = f.bidegree
            norm = f.form.coeffs[0][0] * f.form.coeffs[d][e]
            for c in multiplier_form(f).coeffs:
                assert (c / norm).denominator == 1

    def test_normalized_coefficients_have_degree_2n_minus_2(self):
        # scaling the correspondence by t scales the resultant by t^(2n) and
        # the corner product by t^2, so the quotients are homogeneous of
        # degree 2(d + e - 1) in the matrix entries
        rng = random.Random(97)
        for _ in range(6):
            f = rand_good_position(rng, rng.randint(1, 2), rng.randint(1, 2))
            d, e = f.bidegree
            n = d + e
            t = F(rng.randint(2, 5), rng.randint(1, 3))
            g = Correspondence(f.form.scale(t))
            norm_f = f.form.coeffs[0][0] * f.form.coeffs[d][e]
            norm_g = g.form.coeffs[0][0] * g.form.coeffs[d][e]
            lhs = [c / norm_g for c in multiplier_form(g).coeffs]
            rhs = [t ** (2 * n - 2) * c / norm_f for c in multiplier_form(f).coeffs]
            assert lhs == rhs

    def test_normalized_coefficients_are_invariants(self):
        rng = random.Random(75)
        for _ in range(8):
            f = rand_good_position(rng, rng.randint(1, 2), rng.randint(1, 2))
            d, e = f.bidegree
            x, y = F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-3, 3), rng.randint(1, 3))
            g = MoebiusMap(1, x, 0, 1) * MoebiusMap(1, 0, y, 1)
            assert g.determinant() == 1
            h = conjugate(f, g)
            try:
                rh = multiplier_form(h)
            except ValueError:
                continue
            rf = multiplier_form(f)
            nf = f.form.coeffs[0][0] * f.form.coeffs[d][e]
            nh = h.form.coeffs[0][0] * h.form.coeffs[d][e]
            assert tuple(c / nf for c in rf.coeffs) == tuple(c / nh for c in rh.coeffs)


class TestSigmaSpectrum:
    def test_square_of_difference(self):
        assert sigma_spectrum(BinaryForm(2, [1, -2, 1])).sigma == (1, 2, 1)

    def test_pure_power(self):
        assert sigma_spectrum(BinaryForm(3, [1, 0, 0, 0])).sigma == (1, 0, 0, 0)

    def test_product_expansion(self):
        # prod (dy - m*dx) for m = (0, 2, 0); sigma must be the elementary
        # symmetric functions
        factors = [BinaryForm(1, [1, -m]) for m in (0, 2, 0)]
        r = factors[0] * factors[1] * factors[2]
        assert sigma_spectrum(r).sigma == elementary_symmetric([F(0), F(2), F(0)])

    def test_infinite_multiplier_rejected(self):
        with pytest.raises(IndeterminateMultiplier):
            sigma_spectrum(BinaryForm(2, [0, 1, 1]))


class TestOracle:
    def test_double_fixed_point_rejected(self):
        with pytest.raises(ValueError):
            rational_fixed_point_oracle(MOEBIUS_FIXTURE)

    def test_oracle_requires_good_position(self):
        # y = (z^2 + 6)/5 parks a fixed point at infinity (a_de = 0)
        p, q = [F(6), F(0), F(1)], [F(5)]
        f = graph_of(p, q, 2)
        assert f.form.coeffs[2][1] == 0
        with pytest.raises(ValueError):
            rational_fixed_point_oracle(f)

    def test_fixed_point_at_zero_is_bad_position(self):
        # z -> z^2 fixes 0, 1 and infinity; the oracle refuses it as multiplier_form does
        square = Correspondence.from_matrix(2, 1, [[0, -1], [0, 0], [1, 0]])
        with pytest.raises(BadPosition):
            rational_fixed_point_oracle(square)
        with pytest.raises(BadPosition):
            multiplier_form(square)

    def test_y_critical_fixed_point_is_indeterminate(self):
        # The conjugated square map with x and y swapped: its two critical fixed
        # points have infinite multipliers, which sigma_spectrum refuses too.
        rows = conjugated_square_map().form.coeffs
        f = Correspondence.from_matrix(1, 2, [[rows[i][j] for i in range(3)] for j in range(2)])
        with pytest.raises(IndeterminateMultiplier):
            rational_fixed_point_oracle(f)
        with pytest.raises(IndeterminateMultiplier):
            sigma_spectrum(multiplier_form(f))

    def test_planted_fixed_points(self):
        from corrdyn.forms import rational_roots

        rng = random.Random(76)
        for _ in range(8):
            f = rand_split_map_graph(rng, rng.randint(1, 3))
            d = f.deg_x
            q = [f.form.coeffs[i][1] for i in range(d + 1)]
            p = [-f.form.coeffs[i][0] for i in range(d + 1)]
            oracle = rational_fixed_point_oracle(f)
            fixed_points = rational_roots(diagonal_derivative_forms(f).diag)
            mults = [derivative_at(p, q, F(p1, p0)) for (p0, p1), _ in fixed_points]
            assert oracle.sigma == elementary_symmetric(mults)
            assert sigma_spectrum(multiplier_form(f)) == oracle

    def test_conjugated_square_by_direct_differentiation(self):
        f = conjugated_square_map()
        d = f.deg_x
        q = [f.form.coeffs[i][1] for i in range(d + 1)]
        p = [-f.form.coeffs[i][0] for i in range(d + 1)]
        mults = sorted(derivative_at(p, q, z) for z in (F(1, 2), F(2, 3), F(1)))
        assert mults == [0, 0, 2]
        assert rational_fixed_point_oracle(f).sigma == (1, 2, 0, 0)


def fraction_product_oracle(f):
    """rational_fixed_point_oracle in Fraction arithmetic: each multiplier
    -diag_x(p)/diag_y(p) from two Fraction evaluations, then the product of
    the (1 + m*t)."""
    dd = diagonal_derivative_forms(f)
    n = dd.diag.degree
    if dd.diag.coeffs[0] == 0 or dd.diag.coeffs[n] == 0:
        raise BadPosition("fixed point at 0 or infinity")
    roots = rational_roots(dd.diag)
    if sum(mult for _, mult in roots) != n:
        raise ValueError("fixed point form does not split over the rationals")
    if any(mult > 1 for _, mult in roots):
        raise ValueError("fixed points are not distinct")
    multipliers = []
    for (p0, p1), _ in roots:
        dy = dd.diag_y.evaluate(p0, p1)
        if dy == 0:
            raise IndeterminateMultiplier(f"y-critical fixed point at [{p0}:{p1}]")
        multipliers.append(-dd.diag_x.evaluate(p0, p1) / dy)
    return MultiplierSpectrum(elementary_symmetric(multipliers))


def outcome(fn, f):
    try:
        return fn(f)
    except ValueError as exc:  # BadPosition and IndeterminateMultiplier included
        return type(exc), exc.args


class TestOracleArithmetic:
    def test_matches_fraction_product(self):
        rng = random.Random(77)
        seen = set()
        for trial in range(160):
            d = rng.randint(1, 6)
            kind = trial % 4
            if kind == 0:
                f = rand_split_map_graph(rng, d)
            elif kind == 1:  # rational fixed points, moved off the planted chart
                f = conjugate(rand_split_map_graph(rng, d), rand_moebius(rng))
            elif kind == 2:
                f = rand_map_graph(rng, d)
            else:
                f = rand_planted_corner(rng, d, rng.randint(1, 3), rng.randint(0, 1))
            got = outcome(rational_fixed_point_oracle, f)
            assert got == outcome(fraction_product_oracle, f), f
            seen.add(got[0] if isinstance(got, tuple) else MultiplierSpectrum)
        assert seen == {MultiplierSpectrum, BadPosition, ValueError}

    def test_messages(self):
        rows = conjugated_square_map().form.coeffs
        swapped = Correspondence.from_matrix(
            1, 2, [[rows[i][j] for i in range(3)] for j in range(2)]
        )
        square = Correspondence.from_matrix(2, 1, [[0, -1], [0, 0], [1, 0]])
        # x0*y0 + x1*y1: the fixed point form z0^2 + z1^2 has no rational root
        irreducible = Correspondence.from_matrix(1, 1, [[1, 0], [0, 1]])
        cases = [
            (swapped, IndeterminateMultiplier, "y-critical fixed point at [1:1]"),
            (square, BadPosition, "fixed point at 0 or infinity"),
            (irreducible, ValueError, "fixed point form does not split over the rationals"),
            (MOEBIUS_FIXTURE, ValueError, "fixed points are not distinct"),
        ]
        for f, kind, message in cases:
            with pytest.raises(kind) as info:
                rational_fixed_point_oracle(f)
            assert type(info.value) is kind and info.value.args == (message,)


class TestNthMultiplier:
    def test_base_case(self):
        f = conjugated_square_map()
        assert multiplier_form(iterate(f, 1)) == multiplier_form(f)

    def test_moebius_square(self):
        # z -> (z + 2)/(z + 1) and its square both fix only the finite
        # nonzero points +-sqrt(2), so every multiplier form is defined
        g = MoebiusMap(1, 2, 1, 1)
        lhs = multiplier_form(iterate(moebius_graph(g), 2))
        rhs = multiplier_form(moebius_graph(g * g))
        assert lhs.projectively_equal(rhs)

    def test_degenerate_iterate_propagates(self):
        f = Correspondence.from_matrix(1, 1, [[1, 0], [0, 0]])
        with pytest.raises(DegenerateComposition):
            multiplier_form(iterate(f, 2))

    def test_split_matches_unsplit_route(self, monkeypatch):
        # iterate records the fixed point forms of f^k for k | n, and
        # multiplier_form takes one resultant per factor they split off.  The
        # product must equal the single resultant of the whole fixed point
        # form, and an iterate with a planted node must raise the same error
        # as the same form without the record.
        rng = random.Random(84)
        calls = []

        def counted(*args):
            calls.append(args[0].degree)
            return covariant_resultant(*args)

        monkeypatch.setattr(multiplier, "covariant_resultant", counted)

        def rand_bi(d, e):
            return BiForm(d, e, [[rng.randint(-6, 6) for _ in range(e + 1)] for _ in range(d + 1)])

        def planted_node(d, e):
            p = F(rng.choice([-2, -1, 1, 2]))
            u, v = BiForm(1, 0, [[-p], [1]]), BiForm(0, 1, [[-p, 1]])
            form = u * v * rand_bi(d - 1, e - 1) + u * u * rand_bi(d - 2, e)
            return Correspondence(form + v * v * rand_bi(d, e - 2))

        plan = [
            ("good", (1, 1), 4), ("good", (2, 1), 2), ("good", (2, 2), 2), ("good", (3, 2), 2),
            ("good", (3, 3), 2), ("good", (1, 2), 3), ("good", (2, 2), 3), ("good", (2, 1), 4),
            ("map", 2, 2), ("map", 2, 3), ("map", 2, 4), ("map", 3, 2),
            ("node", (2, 2), 2), ("node", (3, 2), 2), ("node", (2, 2), 3),
        ]
        for kind, deg, n in plan:
            if kind == "good":
                f = rand_good_position(rng, *deg)
            elif kind == "map":
                f = rand_map_graph(rng, deg)
            else:
                f = planted_node(*deg)
            it = iterate(f, n)
            calls.clear()
            got = outcome(multiplier_form, it)
            factors = list(calls)
            assert got == outcome(multiplier_form, Correspondence(it.form)), (kind, deg, n)
            assert sum(factors) == it.deg_x + it.deg_y
            if kind == "node":
                assert got == (IndeterminateMultiplier, (
                    "a fixed point is critical in both directions; the multiplier map is undefined",
                ))
                continue
            dd = diagonal_derivative_forms(it)
            assert got == covariant_resultant(dd.diag, dd.diag_x, dd.diag_y)
            # One factor per distinct fixed point form along the divisors.
            lower = {form.degree for form in it._fixed_divisors}
            assert len(factors) == len(lower - {it.deg_x + it.deg_y}) + 1, (kind, deg, n)

    def test_split_ignores_a_wrong_record(self):
        # The gcd keeps the split exact whatever the record holds: an
        # unrelated form, the zero form, a non-divisor, another map's forms.
        rng = random.Random(85)
        f = rand_good_position(rng, 2, 1)
        it = iterate(f, 4)
        want = multiplier_form(it)
        other = iterate(rand_good_position(rng, 2, 1), 4)
        for record in [
            (rand_binary_form(rng, 5),),
            (BinaryForm.zero(3),),
            (iterate(f, 3).form.diagonal_restriction(),),
            other._fixed_divisors,
            it._fixed_divisors[::-1],
        ]:
            it._fixed_divisors = record
            assert multiplier_form(it) == want


class TestDzCoordinates:
    def test_difference_square(self):
        # dy - dx = -dz1 in the (1, 1) basis, so the square is pure dz1^2
        assert dz_coordinates(BinaryForm(2, [1, -2, 1]), 1, 1) == (0, 0, 1)

    def test_pure_dz0_power(self):
        r = dz_to_covariant([1, 0, 0, 0], 1, 2)
        assert dz_coordinates(r, 1, 2) == (1, 0, 0, 0)

    def test_round_trip(self):
        rng = random.Random(77)
        for _ in range(15):
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            r = BinaryForm(d + e, [rng.randint(-9, 9) for _ in range(d + e + 1)])
            assert dz_to_covariant(dz_coordinates(r, d, e), d, e) == r

    def test_basis_matches_binomial_expansion(self):
        # Coefficient k multiplies dx^k * dy^(n-k); expanding
        # dx = dz0 + (e/2)*dz1 and dy = dz0 - (d/2)*dz1 by the binomial
        # theorem sends the term with dz1^a from dx^k and dz1^b from dy^(n-k)
        # to dz coordinate a + b.
        rng = random.Random(80)
        for _ in range(80):
            d, e = rng.randint(0, 9), rng.randint(1, 9)
            if rng.random() < 0.5:
                d, e = e, d
            n = d + e
            coeffs = [F(rng.randint(-10**6, 10**6), rng.randint(1, 30)) for _ in range(n + 1)]
            expected = [F(0)] * (n + 1)
            for k, c in enumerate(coeffs):
                for a in range(k + 1):
                    for b in range(n - k + 1):
                        expected[a + b] += (c * math.comb(k, a) * F(e, 2) ** a
                                            * math.comb(n - k, b) * F(-d, 2) ** b)
            assert dz_coordinates(BinaryForm(n, coeffs), d, e) == tuple(expected)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            dz_coordinates(BinaryForm(2, [1, 0, 1]), 1, 2)

    def test_bidegree_zero_rejected(self):
        # the (0, 0) basis has no dz1 direction
        with pytest.raises(ValueError, match="basis bidegree"):
            dz_coordinates(BinaryForm(0, [1]), 0, 0)

    def test_negative_basis_degree_rejected(self):
        # (-1, 3) sums to the degree of r but names no dz basis
        for deg_x, deg_y in [(-1, 3), (3, -1), (-2, 4)]:
            with pytest.raises(ValueError, match="nonnegative"):
                dz_coordinates(BinaryForm(2, [1, 0, 1]), deg_x, deg_y)


class TestHyperplane:
    # The coefficient of dz0^(d+e-1) * dz1 of the multiplier form vanishes.
    def test_moebius_fixture(self):
        assert dz_coordinates(multiplier_form(MOEBIUS_FIXTURE), 1, 1)[1] == 0

    def test_map_graphs(self):
        rng = random.Random(78)
        for d in (2, 3):
            for _ in range(5):
                f = rand_map_graph(rng, d)
                assert dz_coordinates(multiplier_form(f), d, 1)[1] == 0

    def test_general_correspondences(self):
        rng = random.Random(79)
        for d, e in [(1, 2), (1, 3), (2, 2), (2, 3)]:
            for _ in range(3):
                f = rand_good_position(rng, d, e)
                assert dz_coordinates(multiplier_form(f), d, e)[1] == 0


class TestIndexResidual:
    def test_square_spectrum(self):
        s = MultiplierSpectrum((F(1), F(2), F(0), F(0)))
        assert s.n == 3
        assert index_residual(s) == 0

    def test_moebius_spectrum(self):
        s = MultiplierSpectrum((F(1), F(2), F(1)))
        assert index_residual(s) == 0

    def test_non_realizable_spectrum(self):
        for d in (1, 2, 3):
            s = MultiplierSpectrum(tuple([F(1)] + [F(0)] * (d + 1)))
            assert index_residual(s) == d

    def test_malformed_spectrum_rejected(self):
        for sigma in ((), (F(2), F(1)), (F(0),)):
            with pytest.raises(ValueError, match="starting with 1"):
                MultiplierSpectrum(sigma)

    def test_map_graph_corpus(self):
        rng = random.Random(80)
        for d in (1, 2, 3, 4):
            for _ in range(4):
                f = rand_map_graph(rng, d)
                assert index_residual(sigma_spectrum(multiplier_form(f))) == 0

    def test_index_theorem_at_every_bidegree(self):
        # sum (-1)^i (n - i - e) sigma_i = 0 for a (d, e) correspondence with
        # n = d + e; index_residual is the e = 1 case.
        rng = random.Random(84)
        checked = set()
        instances = 0
        for _ in range(80):
            d, e = rng.randint(0, 3), rng.randint(1, 3)
            f = rand_correspondence(rng, d, e)
            try:
                sigma = sigma_spectrum(multiplier_form(f)).sigma
            except (BadPosition, IndeterminateMultiplier):
                continue
            n = d + e
            assert sum((-1) ** i * (n - i - e) * s for i, s in enumerate(sigma)) == 0, f
            checked.add((d, e))
            instances += 1
        assert instances >= 60
        assert len(checked) == 12


class TestWoodsHole:
    def test_cubic_fixture(self):
        # product of (t + 3*w^2) over the cube roots of unity is t^3 + 27
        assert woods_hole_resultant([-1, 0, 0, 1], [1]) == (27, 0, 0, 1)
        assert woods_hole_resultant([-1, 0, 0, 1], [1])[1] == 0

    def test_common_root_collapses(self):
        out = woods_hole_resultant([0, 0, 0, 1], [0, 1])
        assert all(c == 0 for c in out)
        assert woods_hole_resultant([0, 0, 0, 1], [0, 1])[1] == 0

    def test_random_residuals_vanish(self):
        rng = random.Random(81)
        for _ in range(25):
            df = rng.randint(3, 6)
            f = [F(rng.randint(-9, 9)) for _ in range(df)] + [F(rng.randint(1, 9))]
            g = [F(rng.randint(-9, 9)) for _ in range(rng.randint(0, df - 2) + 1)]
            assert woods_hole_resultant(f, g)[1] == 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            woods_hole_resultant([1, 1, 1], [1])  # degree 2 < 3
        with pytest.raises(ValueError):
            woods_hole_resultant([1, 0, 0, 1], [0, 0, 1])  # deg g > deg f - 2

    def test_rejects_float_and_string_coefficients(self):
        # Fraction(0.1) would be a binary-float artefact and Fraction('1/3')
        # a silent parse; coefficients must be ints or Fractions.
        for f, g in [
            ([0.1, 0, 0, 1], [1]),
            ([-1, 0, 0, 1], [0.5]),
            (["1/3", 0, 0, 1], [1]),
            ([-1, 0, 0, 1], ["2"]),
        ]:
            with pytest.raises(TypeError):
                woods_hole_resultant(f, g)


class TestRhoCompatibility:
    # The projection onto (Omega^0 f, Omega^1 f) commutes with the multiplier map.
    SCALES = [(1, 1), (2, 3), (F(-1, 2), 5)]

    def test_two_component_bidegrees_trivially_commute(self):
        rng = random.Random(82)
        for d, e in [(1, 3), (3, 1)]:
            for scale in self.SCALES:
                f = rand_good_position(rng, d, e)
                assert _projection_agrees(f, multiplier_form(f), scale)

    def test_square_bidegrees(self):
        rng = random.Random(83)
        for d, e in [(2, 2), (2, 3), (3, 2)]:
            for scale in self.SCALES:
                f = rand_good_position(rng, d, e)
                assert _projection_agrees(f, multiplier_form(f), scale)

    def test_swapped_scale_pair_disagrees(self, monkeypatch):
        # An embedding that swaps (c0, c1) rescales coordinate k by an extra
        # (c0/c1)^(2k-n), which no single scalar absorbs once two coordinates
        # are nonzero.
        rng = random.Random(84)
        f = rand_good_position(rng, 2, 3)
        r = multiplier_form(f)
        assert sum(c != 0 for c in dz_coordinates(r, 2, 3)) >= 2
        assert _projection_agrees(f, r, (2, 3))
        embed = clebsch.rho_embed
        monkeypatch.setattr(clebsch, "rho_embed",
                            lambda w0, w1, d, e, scale: embed(w0, w1, d, e, scale[::-1]))
        assert not _projection_agrees(f, r, (2, 3))
