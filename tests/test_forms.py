import random
from fractions import Fraction as F

import pytest

from corrdyn.forms import BiForm, BinaryForm, binary_gcd, rational_roots


def rand_binary(rng, degree):
    return BinaryForm(degree, [rng.randint(-9, 9) for _ in range(degree + 1)])


def rand_coeff(rng):
    """Zero, small integer or small fraction, or a fraction with a large denominator."""
    kind = rng.randrange(4)
    if kind == 0:
        return F(0)
    if kind == 1:
        return F(rng.randint(-9, 9))
    if kind == 2:
        return F(rng.randint(-30, 30), rng.randint(1, 12))
    return F(rng.randint(-(10**25), 10**25), rng.randint(1, 10**25))


def rand_biform(rng, d, e):
    return BiForm(d, e, [[rng.randint(-9, 9) for _ in range(e + 1)] for _ in range(d + 1)])


class TestEvaluate:
    def test_monomial_at_unit_point(self):
        f = BiForm.monomial(1, 1, 0, 0)  # x0*y0
        assert f.evaluate((1, 0, 1, 0)) == 1

    def test_point_on_square_graph(self):
        # x1^2*y0 - x0^2*y1 at (1, 2, 1, 4): 4*1 - 1*4 = 0 by hand
        f = BiForm(2, 1, [[0, -1], [0, 0], [1, 0]])
        assert f.evaluate((1, 2, 1, 4)) == 0
        assert f.evaluate((1, 2, 1, 5)) == 4 - 5

    def test_zero_form(self):
        assert BiForm.zero(2, 3).evaluate((5, -7, F(1, 2), 3)) == 0

    def test_homogeneity(self):
        rng = random.Random(5)
        for _ in range(20):
            d, e = rng.randint(0, 3), rng.randint(0, 3)
            f = rand_biform(rng, d, e)
            t = F(rng.randint(1, 7), rng.randint(1, 5))
            p = tuple(F(rng.randint(-6, 6)) for _ in range(4))
            assert f.evaluate((t * p[0], t * p[1], p[2], p[3])) == t**d * f.evaluate(p)
            assert f.evaluate((p[0], p[1], t * p[2], t * p[3])) == t**e * f.evaluate(p)


class TestDiagonalRestriction:
    def test_diagonal_form_vanishes(self):
        f = BiForm(1, 1, [[0, 1], [-1, 0]])  # x0*y1 - x1*y0
        assert f.diagonal_restriction() == BinaryForm.zero(2)

    def test_square_graph(self):
        # substituting x = y = z into x1^2*y0 - x0^2*y1 gives z0*z1^2 - z0^2*z1
        f = BiForm(2, 1, [[0, -1], [0, 0], [1, 0]])
        assert f.diagonal_restriction() == BinaryForm(3, [0, -1, 1, 0])

    def test_moebius_graph(self):
        f = BiForm(1, 1, [[1, 0], [-2, 1]])  # x0*y0 - 2*x1*y0 + x1*y1
        assert f.diagonal_restriction() == BinaryForm(2, [1, -2, 1])

    def test_matches_evaluation(self):
        rng = random.Random(6)
        for _ in range(20):
            f = rand_biform(rng, rng.randint(0, 3), rng.randint(0, 3))
            z0, z1 = F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
            assert f.diagonal_restriction().evaluate(z0, z1) == f.evaluate((z0, z1, z0, z1))


class TestMixedPartial:
    def test_term_by_term(self):
        f = BiForm(1, 1, [[0, 1], [-1, 0]])  # x0*y1 - x1*y0
        assert f.mixed_partial((1, 0, 0, 1)) == BiForm(0, 0, [[1]])
        assert f.mixed_partial((0, 1, 1, 0)) == BiForm(0, 0, [[-1]])

    def test_zeroth_derivative(self):
        rng = random.Random(7)
        f = rand_biform(rng, 2, 3)
        assert f.mixed_partial((0, 0, 0, 0)) == f

    def test_overflow_is_zero(self):
        f = rand_biform(random.Random(8), 1, 2)
        out = f.mixed_partial((2, 0, 0, 0))
        assert out.is_zero() and (out.deg_x, out.deg_y) == (0, 2)

    def test_commutes(self):
        rng = random.Random(9)
        for _ in range(20):
            f = rand_biform(rng, rng.randint(1, 3), rng.randint(1, 3))
            assert f.mixed_partial((1, 0, 0, 0)).mixed_partial((0, 1, 0, 0)) == f.mixed_partial(
                (1, 1, 0, 0)
            )
            assert f.mixed_partial((0, 0, 1, 0)).mixed_partial((0, 0, 0, 1)) == f.mixed_partial(
                (0, 0, 1, 1)
            )


class TestBinaryGcd:
    def test_monomial_gcd(self):
        a = BinaryForm(3, [0, 1, 0, 0])  # z0^2*z1
        b = BinaryForm(3, [0, 0, 1, 0])  # z0*z1^2
        assert binary_gcd([a, b]) == BinaryForm(2, [0, 1, 0])  # z0*z1

    def test_gcd_with_zero(self):
        f = BinaryForm(2, [1, 0, -1])
        assert binary_gcd([BinaryForm.zero(2), f]) == f

    def test_euclidean_case(self):
        # gcd(z0^2 - z1^2, (z0 - z1)^2) = z0 - z1 via dehomogenized Euclid
        a = BinaryForm(2, [1, 0, -1])
        b = BinaryForm(2, [1, -2, 1])
        assert binary_gcd([a, b]) == BinaryForm(1, [1, -1])

    def test_all_zero(self):
        g = binary_gcd([BinaryForm.zero(2), BinaryForm.zero(4)])
        assert g.is_zero() and g.degree == 0

    def test_divides_inputs(self):
        rng = random.Random(10)
        for _ in range(25):
            shared = rand_binary(rng, rng.randint(1, 3))
            if shared.is_zero():
                continue
            inputs = [rand_binary(rng, rng.randint(0, 3)) * shared for _ in range(3)]
            g = binary_gcd(inputs)
            for h in inputs:
                if h.is_zero():
                    continue
                q = h.divide_exact(g)
                assert q * g == h
            # the planted factor divides the gcd
            assert g.divide_exact(shared.primitive_normalized()) is not None

    def test_normalization(self):
        # primitive with positive first nonzero coefficient
        f = BinaryForm(2, [F(-2, 3), 0, F(2, 3)])
        assert binary_gcd([f]) == BinaryForm(2, [1, 0, -1])


def fraction_horner(form, m):
    """Reference substitution: homogeneous Horner in Fraction arithmetic."""

    def convolve(a, b):
        out = [F(0)] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return out

    (a, b), (c, d) = ((F(v) for v in row) for row in m)
    acc = [form.coeffs[0]]
    mpow = [F(1)]
    for coeff in form.coeffs[1:]:
        mpow = convolve(mpow, [c, d])
        acc = [u + coeff * v for u, v in zip(convolve(acc, [a, b]), mpow)]
    return acc


class TestSubstituteLinear:
    def test_identity(self):
        f = BinaryForm(2, [0, 1, 0])
        assert f.substitute_linear(((1, 0), (0, 1))) == f

    def test_swap(self):
        assert BinaryForm(2, [1, 0, 0]).substitute_linear(((0, 1), (1, 0))) == BinaryForm(
            2, [0, 0, 1]
        )

    def test_shear(self):
        # (z0 + z1) - z1 = z0, expanded by hand
        f = BinaryForm(1, [1, -1])
        assert f.substitute_linear(((1, 1), (0, 1))) == BinaryForm(1, [1, 0])

    def test_composition(self):
        rng = random.Random(11)
        for _ in range(20):
            f = rand_binary(rng, rng.randint(1, 4))
            m = ((F(rng.randint(-4, 4)), F(rng.randint(-4, 4))),
                 (F(rng.randint(-4, 4)), F(rng.randint(-4, 4))))
            n = ((F(rng.randint(-4, 4)), F(rng.randint(-4, 4))),
                 (F(rng.randint(-4, 4)), F(rng.randint(-4, 4))))
            prod = (
                (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
                (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
            )
            assert f.substitute_linear(m).substitute_linear(n) == f.substitute_linear(prod)

    def test_matches_fraction_horner(self):
        rng = random.Random(12)
        for trial in range(300):
            n = rng.randint(0, 7)
            form = BinaryForm(n, [rand_coeff(rng) for _ in range(n + 1)])
            if trial % 4 == 0:  # singular: second row a multiple of the first
                a, b, k = rand_coeff(rng), rand_coeff(rng), rand_coeff(rng)
                m = ((a, b), (k * a, k * b))
            elif trial % 4 == 1:  # half-integer entries
                m = tuple(tuple(F(2 * rng.randint(-4, 3) + 1, 2) for _ in range(2))
                          for _ in range(2))
            else:
                m = tuple(tuple(rand_coeff(rng) for _ in range(2)) for _ in range(2))
            assert list(form.substitute_linear(m).coeffs) == fraction_horner(form, m), (form, m)

    def test_degree_zero_zero_form_and_int_entries(self):
        m = ((F(1, 3), -2), (5, F(7, 10**20)))
        assert BinaryForm(0, [F(-4, 9)]).substitute_linear(m) == BinaryForm(0, [F(-4, 9)])
        assert BinaryForm.zero(5).substitute_linear(m) == BinaryForm.zero(5)
        form = BinaryForm(3, [1, F(1, 2), 0, F(-3, 10**30)])
        assert list(form.substitute_linear(m).coeffs) == fraction_horner(form, m)
        assert list(form.substitute_linear(((0, 0), (0, 0))).coeffs) == [0, 0, 0, 0]


class TestRationalRoots:
    def test_split_form(self):
        # z0*z1*(z0 - z1) has roots [1:0], [0:1], [1:1]
        f = BinaryForm(3, [0, 1, -1, 0])
        assert rational_roots(f) == [((0, 1), 1), ((1, 0), 1), ((1, 1), 1)]

    def test_multiplicity(self):
        f = BinaryForm(2, [1, -2, 1])  # (z0 - z1)^2
        assert rational_roots(f) == [((1, 1), 2)]

    def test_fractional_root(self):
        # 2*z1 - 3*z0 vanishes at [2:3]
        f = BinaryForm(1, [-3, 2])
        assert rational_roots(f) == [((2, 3), 1)]

    def test_irrational_part_ignored(self):
        f = BinaryForm(2, [-2, 0, 1])  # z1^2 - 2 z0^2, no rational roots
        assert rational_roots(f) == []


class TestDeclaredDegrees:
    def test_zero_forms_keep_degree(self):
        assert BinaryForm.zero(3).degree == 3
        assert BinaryForm.zero(3) != BinaryForm.zero(2)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BinaryForm(2, [1, 2])
        with pytest.raises(ValueError):
            BiForm(1, 1, [[1, 2, 3], [0, 0, 0]])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            BinaryForm(1, [0.5, 1])

    def test_projective_equality(self):
        f = BinaryForm(2, [2, -4, 6])
        g = BinaryForm(2, [F(1, 3), F(-2, 3), 1])
        assert f.projectively_equal(g)
        assert not f.projectively_equal(BinaryForm(2, [2, -4, 5]))
        assert not BinaryForm.zero(2).projectively_equal(f)
