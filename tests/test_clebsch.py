import math
import random
from fractions import Fraction as F

import pytest

from corrdyn.clebsch import (
    CgComponents,
    cayley_omega,
    cg_decompose,
    cg_reconstruct,
    rho_embed,
    torus_weight,
)
from corrdyn.correspondence import Correspondence, MoebiusMap, conjugate
from corrdyn.forms import BiForm, BinaryForm


def omega_by_definition(f, m):
    """Oracle: expand (d_x0 d_y1 - d_y0 d_x1)^m through mixed partials, then restrict."""
    d, e = f.deg_x, f.deg_y
    acc = BiForm.zero(max(d - m, 0), max(e - m, 0))
    for k in range(m + 1):
        term = f.mixed_partial((k, m - k, m - k, k)).scale((-1) ** (m - k) * math.comb(m, k))
        acc = acc + term
    return acc.diagonal_restriction()


def rand_biform(rng, d, e):
    return BiForm(d, e, [[rng.randint(-9, 9) for _ in range(e + 1)] for _ in range(d + 1)])


class TestCayleyOmega:
    def test_explicit_monomial_value(self):
        for d in range(6):
            for e in range(6):
                for m in range(min(d, e) + 1):
                    got = cayley_omega(BiForm.monomial(d, e, 0, m), m)
                    value = F(math.factorial(d) * math.factorial(m), math.factorial(d - m))
                    assert got == BinaryForm.monomial(d + e - 2 * m, 0, value)

    def test_antisymmetric_form(self):
        f = BiForm(1, 1, [[0, 1], [-1, 0]])  # x0*y1 - x1*y0
        assert cayley_omega(f, 1) == BinaryForm(0, [2])

    def test_order_zero_is_diagonal_restriction(self):
        rng = random.Random(41)
        f = rand_biform(rng, 3, 2)
        assert cayley_omega(f, 0) == f.diagonal_restriction()

    def test_matches_operator_expansion(self):
        rng = random.Random(42)
        for _ in range(25):
            d, e = rng.randint(1, 4), rng.randint(1, 4)
            f = rand_biform(rng, d, e)
            for m in range(min(d, e) + 1):
                assert cayley_omega(f, m) == omega_by_definition(f, m)

    def test_order_out_of_range(self):
        f = BiForm.monomial(2, 1, 0, 0)
        with pytest.raises(ValueError):
            cayley_omega(f, 2)

    def test_linearity(self):
        rng = random.Random(43)
        for _ in range(15):
            d, e = rng.randint(1, 4), rng.randint(1, 4)
            f, g = rand_biform(rng, d, e), rand_biform(rng, d, e)
            a, b = F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
            m = rng.randint(0, min(d, e))
            lhs = cayley_omega(f.scale(a) + g.scale(b), m)
            assert lhs == cayley_omega(f, m).scale(a) + cayley_omega(g, m).scale(b)


class TestDecomposition:
    def test_pure_product(self):
        f = BiForm.monomial(1, 1, 0, 0)  # x0*y0
        comp = cg_decompose(f)
        assert comp.parts[0] == BinaryForm(2, [1, 0, 0])
        assert comp.parts[1] == BinaryForm.zero(0)

    def test_antisymmetric(self):
        f = BiForm(1, 1, [[0, 1], [-1, 0]])
        comp = cg_decompose(f)
        assert comp.parts[0] == BinaryForm.zero(2)
        assert comp.parts[1] == BinaryForm(0, [2])

    def test_zero(self):
        comp = cg_decompose(BiForm.zero(2, 2))
        assert all(p.is_zero() for p in comp.parts)

    def test_component_profile(self):
        comp = cg_decompose(rand_biform(random.Random(44), 3, 5))
        assert [p.degree for p in comp.parts] == [8, 6, 4, 2]
        assert sum(p.degree + 1 for p in comp.parts) == 4 * 6

    def test_bad_profile_rejected(self):
        with pytest.raises(ValueError):
            CgComponents(1, 1, (BinaryForm.zero(2), BinaryForm.zero(1)))


class TestReconstruction:
    def test_inverse_of_decompose_examples(self):
        comp = CgComponents(1, 1, (BinaryForm(2, [1, 0, 0]), BinaryForm.zero(0)))
        assert cg_reconstruct(comp) == BiForm.monomial(1, 1, 0, 0)
        comp = CgComponents(1, 1, (BinaryForm.zero(2), BinaryForm(0, [2])))
        assert cg_reconstruct(comp) == BiForm(1, 1, [[0, 1], [-1, 0]])

    def test_roundtrip_both_ways(self):
        rng = random.Random(45)
        for _ in range(30):
            d, e = rng.randint(1, 4), rng.randint(1, 4)
            f = rand_biform(rng, d, e)
            assert cg_reconstruct(cg_decompose(f)) == f
            parts = tuple(
                BinaryForm(d + e - 2 * m, [rng.randint(-9, 9) for _ in range(d + e - 2 * m + 1)])
                for m in range(min(d, e) + 1)
            )
            comp = CgComponents(d, e, parts)
            assert cg_decompose(cg_reconstruct(comp)) == comp


class TestRhoEmbed:
    def test_identity_reindexing_for_two_component_target(self):
        rng = random.Random(46)
        f = rand_biform(rng, 1, 3)
        comp = cg_decompose(f)
        image = rho_embed(comp.parts[0], comp.parts[1], 1, 3)
        assert image == f

    def test_vanishing_second_component(self):
        rng = random.Random(47)
        w0 = BinaryForm(4, [rng.randint(-9, 9) for _ in range(5)])
        image = rho_embed(w0, BinaryForm.zero(2), 2, 2)
        assert cayley_omega(image, 1).is_zero()
        assert cayley_omega(image, 0) == w0

    def test_components_land_as_prescribed(self):
        rng = random.Random(48)
        w0 = BinaryForm(4, [rng.randint(-9, 9) for _ in range(5)])
        w1 = BinaryForm(2, [rng.randint(-9, 9) for _ in range(3)])
        image = rho_embed(w0, w1, 2, 2, (1, 1))
        comp = cg_decompose(image)
        assert comp.parts[0] == w0
        assert comp.parts[1] == w1
        assert comp.parts[2].is_zero()

    def test_scaling(self):
        rng = random.Random(49)
        w0 = BinaryForm(5, [rng.randint(-9, 9) for _ in range(6)])
        w1 = BinaryForm(3, [rng.randint(-9, 9) for _ in range(4)])
        image = rho_embed(w0, w1, 2, 3, (F(2), F(-1, 3)))
        assert cayley_omega(image, 0) == w0.scale(2)
        assert cayley_omega(image, 1) == w1.scale(F(-1, 3))

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            rho_embed(BinaryForm.zero(3), BinaryForm.zero(2), 2, 2)
        with pytest.raises(ValueError):
            rho_embed(BinaryForm.zero(4), BinaryForm.zero(2), 2, 2, (0, 1))


class TestTorusWeights:
    def test_corner_values(self):
        assert torus_weight(2, 1, 0, 0) == 3
        assert torus_weight(2, 1, 2, 1) == -3

    def test_antisymmetry(self):
        for d in range(4):
            for e in range(4):
                for i in range(d + 1):
                    for j in range(e + 1):
                        assert torus_weight(d, e, i, j) == -torus_weight(d, e, d - i, e - j)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            torus_weight(2, 1, 3, 0)

    def test_conjugation_scaling(self):
        rng = random.Random(50)
        for t in (F(2), F(3), F(-5), F(7, 2)):
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            f = Correspondence(rand_biform(rng, d, e))
            conj = conjugate(f, MoebiusMap(1 / t, 0, 0, t)).form
            for i in range(d + 1):
                for j in range(e + 1):
                    assert conj.coeffs[i][j] == t ** torus_weight(d, e, i, j) * f.form.coeffs[i][j]


class TestEquivariance:
    def test_omega0_under_conjugation(self):
        rng = random.Random(51)
        for _ in range(12):
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            f = Correspondence(rand_biform(rng, d, e))
            while True:
                try:
                    g = MoebiusMap(*(rng.randint(-5, 5) for _ in range(4)))
                    break
                except ValueError:
                    continue
            lhs = cayley_omega(conjugate(f, g).form, 0)
            rhs = cayley_omega(f.form, 0).substitute_linear(g.coordinate_matrix())
            assert lhs == rhs
