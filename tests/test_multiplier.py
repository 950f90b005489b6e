import random
from fractions import Fraction as F

import pytest

from corrdyn.clebsch import cayley_omega
from corrdyn.correspondence import (
    Correspondence,
    DegenerateComposition,
    MoebiusMap,
    conjugate,
    iterate,
    moebius_graph,
)
from corrdyn.forms import BiForm, BinaryForm, binary_gcd
from corrdyn.multiplier import (
    BadPosition,
    IndeterminateMultiplier,
    MultiplierSpectrum,
    diagonal_derivative_forms,
    dz_coordinates,
    dz_to_covariant,
    hyperplane_residual,
    index_residual,
    multiplier_form,
    nth_multiplier_form,
    rational_fixed_point_oracle,
    rho_compatibility_check,
    sigma_spectrum,
    woods_hole_residual,
    woods_hole_resultant,
)
from corrdyn.verify import (
    conjugated_square_map,
    rand_good_position,
    rand_map_graph,
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
        assert dd.dz0_part == BinaryForm(2, [2, 0, -2])
        assert dd.dz1_part == BinaryForm(2, [0, 2, 0])

    def test_linear_relations(self):
        rng = random.Random(71)
        for _ in range(15):
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            f = rand_good_position(rng, d, e)
            dd = diagonal_derivative_forms(f)
            assert dd.dz0_part == dd.diag_x + dd.diag_y
            assert dd.dz1_part == dd.diag_x.scale(F(e, 2)) - dd.diag_y.scale(F(d, 2))

    def test_dz1_part_is_shifted_cayley_power(self):
        rng = random.Random(72)
        for _ in range(15):
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            f = rand_good_position(rng, d, e)
            dd = diagonal_derivative_forms(f)
            omega1 = cayley_omega(f.form, 1)
            assert dd.dz1_part == BinaryForm(d + e, [0] + list(omega1.coeffs) + [0])

    def test_dz0_part_is_euler_weighted_diagonal(self):
        rng = random.Random(73)
        for _ in range(15):
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            f = rand_good_position(rng, d, e)
            dd = diagonal_derivative_forms(f)
            n = d + e
            assert all(dd.dz0_part.coeffs[k] == (n - 2 * k) * dd.diag.coeffs[k] for k in range(n + 1))

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


class TestNthMultiplier:
    def test_base_case(self):
        f = conjugated_square_map()
        assert nth_multiplier_form(f, 1) == multiplier_form(f)

    def test_moebius_square(self):
        # z -> (z + 2)/(z + 1) and its square both fix only the finite
        # nonzero points +-sqrt(2), so every multiplier form is defined
        g = MoebiusMap(1, 2, 1, 1)
        lhs = nth_multiplier_form(moebius_graph(g), 2)
        rhs = multiplier_form(moebius_graph(g * g))
        assert lhs.projectively_equal(rhs)

    def test_degenerate_iterate_propagates(self):
        f = Correspondence.from_matrix(1, 1, [[1, 0], [0, 0]])
        with pytest.raises(DegenerateComposition):
            nth_multiplier_form(f, 2)


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

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            dz_coordinates(BinaryForm(2, [1, 0, 1]), 1, 2)


class TestHyperplane:
    def test_moebius_fixture(self):
        assert hyperplane_residual(MOEBIUS_FIXTURE) == 0

    def test_map_graphs(self):
        rng = random.Random(78)
        for d in (2, 3):
            for _ in range(5):
                assert hyperplane_residual(rand_map_graph(rng, d)) == 0

    def test_general_correspondences(self):
        rng = random.Random(79)
        for d, e in [(1, 2), (1, 3), (2, 2), (2, 3)]:
            for _ in range(3):
                assert hyperplane_residual(rand_good_position(rng, d, e)) == 0


class TestIndexResidual:
    def test_square_spectrum(self):
        s = MultiplierSpectrum(3, (F(1), F(2), F(0), F(0)))
        assert index_residual(s) == 0

    def test_moebius_spectrum(self):
        s = MultiplierSpectrum(2, (F(1), F(2), F(1)))
        assert index_residual(s) == 0

    def test_non_realizable_spectrum(self):
        for d in (1, 2, 3):
            s = MultiplierSpectrum(d + 1, tuple([F(1)] + [F(0)] * (d + 1)))
            assert index_residual(s) == d

    def test_map_graph_corpus(self):
        rng = random.Random(80)
        for d in (1, 2, 3, 4):
            for _ in range(4):
                f = rand_map_graph(rng, d)
                assert index_residual(sigma_spectrum(multiplier_form(f))) == 0


class TestWoodsHole:
    def test_cubic_fixture(self):
        # product of (t + 3*w^2) over the cube roots of unity is t^3 + 27
        assert woods_hole_resultant([-1, 0, 0, 1], [1]) == (27, 0, 0, 1)
        assert woods_hole_residual([-1, 0, 0, 1], [1]) == 0

    def test_common_root_collapses(self):
        out = woods_hole_resultant([0, 0, 0, 1], [0, 1])
        assert all(c == 0 for c in out)
        assert woods_hole_residual([0, 0, 0, 1], [0, 1]) == 0

    def test_random_residuals_vanish(self):
        rng = random.Random(81)
        for _ in range(25):
            df = rng.randint(3, 6)
            f = [F(rng.randint(-9, 9)) for _ in range(df)] + [F(rng.randint(1, 9))]
            g = [F(rng.randint(-9, 9)) for _ in range(rng.randint(0, df - 2) + 1)]
            assert woods_hole_residual(f, g) == 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            woods_hole_resultant([1, 1, 1], [1])  # degree 2 < 3
        with pytest.raises(ValueError):
            woods_hole_resultant([1, 0, 0, 1], [0, 0, 1])  # deg g > deg f - 2


class TestRhoCompatibility:
    def test_two_component_bidegrees_trivially_commute(self):
        rng = random.Random(82)
        assert rho_compatibility_check(rand_good_position(rng, 1, 3))
        assert rho_compatibility_check(rand_good_position(rng, 3, 1))

    def test_square_bidegrees(self):
        rng = random.Random(83)
        for d, e in [(2, 2), (2, 3)]:
            for scale in [(1, 1), (2, 3)]:
                f = rand_good_position(rng, d, e)
                assert rho_compatibility_check(f, scale)

    def test_error_propagation(self):
        square = Correspondence.from_matrix(2, 1, [[0, -1], [0, 0], [1, 0]])
        with pytest.raises(BadPosition):
            rho_compatibility_check(square)
