import functools
import math
import random
from fractions import Fraction as F

import pytest

from corrdyn.clebsch import (
    CgComponents,
    _block_inverse,
    _omega_table,
    cayley_omega,
    cg_decompose,
    cg_reconstruct,
    rho_embed,
)
from corrdyn.correspondence import Correspondence, MoebiusMap, conjugate
from corrdyn.forms import BiForm, BinaryForm
from test_forms import fraction_diagonal_restriction, rand_coeff


def omega_by_definition(f, m):
    """Oracle: expand (d_x0 d_y1 - d_y0 d_x1)^m through mixed partials, then restrict.

    The restriction is the Fraction anti-diagonal sum of the test suite, so
    the oracle shares no restriction code with cayley_omega.
    """
    d, e = f.deg_x, f.deg_y
    acc = BiForm.zero(max(d - m, 0), max(e - m, 0))
    for k in range(m + 1):
        term = f.mixed_partial((k, m - k, m - k, k)).scale((-1) ** (m - k) * math.comb(m, k))
        acc = acc + term
    return fraction_diagonal_restriction(acc)


def monomial_weight(d, e, i, j, m):
    """The weight of a_ij in Cayley power m: the operator applied to one monomial.

    d_x0^k d_x1^(m-k) d_y0^(m-k) d_y1^k of x0^(d-i) x1^i y0^(e-j) y1^j is the
    product of four falling factorials; the binomial expansion sums them.
    """
    return sum(
        (-1) ** (m - k) * math.comb(m, k) * math.perm(d - i, k) * math.perm(i, m - k)
        * math.perm(e - j, m - k) * math.perm(j, k)
        for k in range(m + 1)
    )


@functools.lru_cache(maxsize=None)
def fraction_block_inverse(d, e, s):
    """Oracle: the anti-diagonal s block and its inverse by Fraction Gauss-Jordan.

    The block weights come from monomial_weight, so the oracle shares neither
    the Cayley terms nor the elimination with the library.
    Returns (orders, pairs, inverse rows as Fractions).
    """
    pairs = [(i, s - i) for i in range(max(0, s - e), min(d, s) + 1)]
    orders = [m for m in range(min(d, e) + 1) if 0 <= s - m <= d + e - 2 * m]
    size = len(pairs)
    aug = [
        [F(monomial_weight(d, e, i, j, m)) for (i, j) in pairs]
        + [F(int(r == c)) for c in range(size)]
        for r, m in enumerate(orders)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return orders, pairs, [row[size:] for row in aug]


def fraction_cg_reconstruct(components):
    """Oracle: solve every anti-diagonal block with fraction_block_inverse, in Fraction."""
    d, e = components.deg_x, components.deg_y
    rows = [[F(0)] * (e + 1) for _ in range(d + 1)]
    for s in range(d + e + 1):
        orders, pairs, inv = fraction_block_inverse(d, e, s)
        rhs = [components.parts[m].coeffs[s - m] for m in orders]
        for inv_row, (i, j) in zip(inv, pairs):
            rows[i][j] = sum(n * v for n, v in zip(inv_row, rhs))
    return BiForm(d, e, rows)


def rand_biform(rng, d, e):
    return BiForm(d, e, [[rng.randint(-9, 9) for _ in range(e + 1)] for _ in range(d + 1)])


def rand_parts(rng, d, e):
    """Arbitrary Cayley components of bidegree (d, e), some of them zero."""
    return tuple(
        BinaryForm.zero(d + e - 2 * m) if rng.random() < 0.15 else
        BinaryForm(d + e - 2 * m, [rand_coeff(rng) for _ in range(d + e - 2 * m + 1)])
        for m in range(min(d, e) + 1)
    )


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
        fixed = [(12, 12), (0, 0), (0, 4), (0, 9), (4, 0), (9, 0)]
        for trial in range(60 + 2 * len(fixed)):
            if trial < 60:
                d, e = rng.randint(0, 5), rng.randint(0, 5)
            else:  # each fixed bidegree once with integer and once with Fraction entries
                d, e = fixed[(trial - 60) // 2]
            if trial % 2:  # zero, small and large-denominator Fraction entries
                f = BiForm(d, e, [[rand_coeff(rng) for _ in range(e + 1)] for _ in range(d + 1)])
            else:
                f = rand_biform(rng, d, e)
            for m in range(min(d, e) + 1):
                assert cayley_omega(f, m) == omega_by_definition(f, m)

    def test_table_matches_closed_form(self):
        for d in range(9):
            for e in range(9):
                for m in range(min(d, e) + 1):
                    table = _omega_table(d, e, m)
                    assert len(table) == d + e - 2 * m + 1
                    for t, row in enumerate(table):
                        s = t + m
                        pairs = [(i, s - i) for i in range(max(0, s - e), min(d, s) + 1)]
                        assert list(row) == [monomial_weight(d, e, i, j, m) for i, j in pairs]

    def test_results_survive_a_cold_table(self):
        rng = random.Random(53)
        forms = [rand_biform(rng, rng.randint(0, 7), rng.randint(0, 7)) for _ in range(20)]
        forms.append(BiForm(3, 4, [[rand_coeff(rng) for _ in range(5)] for _ in range(4)]))
        warm = [cg_decompose(f) for f in forms]
        _omega_table.cache_clear()
        assert [cg_decompose(f) for f in forms] == warm
        _omega_table.cache_clear()
        for f, comp in zip(forms, warm):
            assert [cayley_omega(f, m) for m in range(len(comp.parts))] == list(comp.parts)

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

    def test_parts_stored_as_tuple(self):
        w0, w1 = BinaryForm(2, [1, 2, 3]), BinaryForm(0, [4])
        comp = CgComponents(1, 1, [w0, w1])
        assert comp.parts == (w0, w1)
        assert hash(comp) == hash(CgComponents(1, 1, (w0, w1)))

    def test_non_form_part_rejected(self):
        with pytest.raises(TypeError):
            CgComponents(1, 1, (1, 2))
        with pytest.raises(TypeError):
            CgComponents(1, 1, (BinaryForm.zero(2), [F(1)]))


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


class TestBlockInverse:
    BIDEGREES = [(d, e) for d in range(9) for e in range(9)] + [(12, 12), (3, 11)]

    def test_block_inverse_matches_fraction_oracle(self):
        for d, e in self.BIDEGREES:
            for s in range(d + e + 1):
                orders, pairs, rows = _block_inverse(d, e, s)
                want_orders, want_pairs, want = fraction_block_inverse(d, e, s)
                assert (list(orders), list(pairs)) == (want_orders, want_pairs)
                assert [[F(n, den) for n in nums] for nums, den in rows] == want, (d, e, s)
                for nums, den in rows:  # lowest terms, positive denominator
                    assert den > 0 and math.gcd(den, *nums) == 1

    def test_reconstruct_matches_fraction_oracle(self):
        rng = random.Random(52)
        comps = []
        for trial in range(200):
            d, e = (9, 4) if trial % 20 == 0 else (rng.randint(0, 6), rng.randint(0, 6))
            comps.append(CgComponents(d, e, rand_parts(rng, d, e)))
        # At large bidegree: images of integer forms, whose every entry is an
        # exact quotient, and arbitrary parts, whose entries need a gcd.
        for d, e in [(12, 12), (3, 11)] * 3:
            comps.append(cg_decompose(rand_biform(rng, d, e)))
            comps.append(CgComponents(d, e, rand_parts(rng, d, e)))
        for comp in comps:
            assert cg_reconstruct(comp) == fraction_cg_reconstruct(comp)


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
    def test_conjugation_scaling(self):
        rng = random.Random(50)
        for t in (F(2), F(3), F(-5), F(7, 2)):
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            f = Correspondence(rand_biform(rng, d, e))
            conj = conjugate(f, MoebiusMap(1 / t, 0, 0, t)).form
            for i in range(d + 1):
                for j in range(e + 1):
                    assert conj.coeffs[i][j] == t ** (d + e - 2 * (i + j)) * f.form.coeffs[i][j]


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
