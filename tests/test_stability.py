import math
import random
from fractions import Fraction as F

import pytest

from corrdyn.correspondence import Correspondence, MoebiusMap, conjugate
from corrdyn.forms import BiForm, BinaryForm, rational_roots
import corrdyn.stability
from corrdyn.stability import Verdict, classify_stability, diagonal_multiplicity_at_least
from corrdyn.verify import rand_correspondence, rand_moebius, rand_planted_corner
from test_forms import fraction_binary_gcd, fraction_diagonal_restriction, rand_coeff

SQUARE = Correspondence.from_matrix(2, 1, [[0, -1], [0, 0], [1, 0]])
DIAGONAL = Correspondence.from_matrix(1, 1, [[0, 1], [-1, 0]])
CUSP = Correspondence.from_matrix(2, 1, [[1, 0], [0, 0], [0, 0]])  # x0^2*y0


def max_multiplicity(f: Correspondence):
    """The largest diagonal multiplicity and its witness, as classify_stability reports them."""
    verdict = classify_stability(f)
    return verdict.max_multiplicity, verdict.witness


def affine_multiplicity(f: Correspondence, p0, p1) -> int:
    """Oracle: lowest total degree of the chart expansion at the diagonal point.

    Dehomogenizes in the chart containing the point and Taylor-shifts the
    point to the origin; completely independent of the partial-derivative
    criterion used by the library.
    """
    d, e = f.deg_x, f.deg_y
    coeffs = f.form.coeffs
    if p0 != 0:
        p = F(p1, p0)
    else:
        # swap to the chart at infinity: u = x0/x1, v = y0/y1
        coeffs = tuple(tuple(coeffs[d - i][e - j] for j in range(e + 1)) for i in range(d + 1))
        p = F(0)
    shifted = [[F(0)] * (e + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(e + 1):
            total = F(0)
            for bi in range(i, d + 1):
                for bj in range(j, e + 1):
                    c = coeffs[bi][bj]
                    if c != 0:
                        total += c * math.comb(bi, i) * math.comb(bj, j) * p ** (bi - i + bj - j)
            shifted[i][j] = total
    orders = [i + j for i in range(d + 1) for j in range(e + 1) if shifted[i][j] != 0]
    return min(orders) if orders else d + e + 1


class TestMultiplicity:
    def test_cusp_has_triple_point_at_infinity(self):
        # chart at ([0:1], [0:1]): the dehomogenization of x0^2*y0 is u^2*v
        assert affine_multiplicity(CUSP, 0, 1) == 3
        hit, witness = diagonal_multiplicity_at_least(CUSP, 3)
        assert hit
        assert rational_roots(witness) == [((0, 1), 1)]

    def test_square_graph_is_smooth_on_diagonal(self):
        hit, witness = diagonal_multiplicity_at_least(SQUARE, 2)
        assert not hit
        assert witness.degree == 0 and not witness.is_zero()

    def test_order_one_always_holds(self):
        rng = random.Random(61)
        for _ in range(10):
            f = rand_correspondence(rng, rng.randint(1, 3), rng.randint(1, 3))
            assert diagonal_multiplicity_at_least(f, 1)[0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            diagonal_multiplicity_at_least(SQUARE, 0)
        with pytest.raises(ValueError):
            diagonal_multiplicity_at_least(SQUARE, 4)

    def test_planted_multiplicity(self):
        # multiplying by vertical/horizontal lines through a diagonal point
        # raises its multiplicity by exactly the number of factors
        rng = random.Random(62)
        for _ in range(10):
            p0, p1 = rng.choice([(1, 0), (1, 1), (2, -1), (0, 1), (3, 2)])
            alpha, beta = rng.randint(0, 2), rng.randint(1, 2)
            xline = BiForm(1, 0, [[p1], [-p0]])
            yline = BiForm(0, 1, [[p1, -p0]])
            h = rand_correspondence(rng, 1, 1).form
            if h.evaluate((p0, p1, p0, p1)) == 0:
                continue
            form = h
            for _ in range(alpha):
                form = form * xline
            for _ in range(beta):
                form = form * yline
            f = Correspondence(form)
            assert affine_multiplicity(f, p0, p1) == alpha + beta
            for m in range(1, alpha + beta + 1):
                assert diagonal_multiplicity_at_least(f, m)[0]
            assert max_multiplicity(f)[0] >= alpha + beta

    def test_monotonicity(self):
        rng = random.Random(63)
        for _ in range(10):
            f = rand_correspondence(rng, rng.randint(1, 3), rng.randint(1, 3))
            n = f.deg_x + f.deg_y
            flags = [diagonal_multiplicity_at_least(f, m)[0] for m in range(1, n + 1)]
            for earlier, later in zip(flags, flags[1:]):
                assert earlier or not later


def partial_route_multiplicity(f: Correspondence, m: int):
    """Reference route: every order-(m-1) partial as a form, restricted, monic Fraction GCD.

    Restriction and GCD are the Fraction routes of the test suite, so nothing
    here shares the integer kernels of diagonal_multiplicity_at_least.
    """
    order = m - 1
    restrictions = [
        fraction_diagonal_restriction(f.form.mixed_partial((i, j, k, order - i - j - k)))
        for i in range(order + 1)
        for j in range(order - i + 1)
        for k in range(order - i - j + 1)
    ]
    witness = fraction_binary_gcd(restrictions)
    return witness.is_zero() or witness.degree >= 1, witness


class TestIntegerRestrictions:
    def test_matches_partial_route_at_every_order(self):
        rng = random.Random(64)
        for trial in range(120):
            d, e = rng.randint(0, 5), rng.randint(0, 5)
            if d + e == 0:
                d = 1
            rows = [[rand_coeff(rng) for _ in range(e + 1)] for _ in range(d + 1)]
            if trial % 3 == 0:  # multiplicity >= k at ([1:0], [1:0])
                k = rng.randint(1, d + e)
                rows = [[c if i + j >= k else 0 for j, c in enumerate(row)]
                        for i, row in enumerate(rows)]
            rows[d][e] = rows[d][e] or 1
            form = BiForm(d, e, rows)
            if trial % 5 == 0 and d >= 1 and e >= 1:  # diagonal restriction zero
                cofactor = [row[:-1] for row in rows[:-1]]
                cofactor[0][0] = cofactor[0][0] or 1
                form = BiForm(d - 1, e - 1, cofactor) * DIAGONAL.form
            f = Correspondence(form)
            for m in range(1, d + e + 1):
                assert diagonal_multiplicity_at_least(f, m) == partial_route_multiplicity(f, m)


def linear_scan_multiplicity(f: Correspondence):
    """Oracle: try the orders m = 1, 2, ... in turn and keep the last hit with its witness."""
    best, best_witness = 0, BinaryForm(0, [1])
    for m in range(1, f.deg_x + f.deg_y + 1):
        hit, witness = diagonal_multiplicity_at_least(f, m)
        if not hit:
            break
        best, best_witness = m, witness
    return best, best_witness


class TestBisection:
    def test_planted_orders_match_linear_scan(self):
        rng = random.Random(69)
        for d in range(8):
            for e in range(8):
                if d + e == 0:
                    continue
                for k in range(d + e + 1):
                    f = rand_planted_corner(rng, d, e, k)
                    if k % 2:  # move the planted point off [1:0]
                        f = conjugate(f, rand_moebius(rng))
                    assert max_multiplicity(f) == linear_scan_multiplicity(f), (d, e, k)

    def test_multiples_of_the_diagonal_match_linear_scan(self):
        # A power of the diagonal has every diagonal point at multiplicity j,
        # so its witness is zero; a nonconstant cofactor adds points of
        # higher multiplicity where it meets the diagonal.
        power = BiForm(0, 0, [[1]])
        for j in range(1, 8):
            power = power * DIAGONAL.form
            f = Correspondence(power)
            expected = (j, BinaryForm.zero(0))
            assert max_multiplicity(f) == linear_scan_multiplicity(f) == expected
        rng = random.Random(70)
        for d in range(7):
            for e in range(7):
                if d + e == 0:
                    continue
                k = rng.randint(0, d + e)
                f = Correspondence(rand_planted_corner(rng, d, e, k).form * DIAGONAL.form)
                assert max_multiplicity(f) == linear_scan_multiplicity(f), (d, e, k)

    def test_full_corners_match_linear_scan(self):
        for d in range(8):
            for e in range(8):
                if d + e == 0:
                    continue
                f = Correspondence(BiForm.monomial(d, e, 0, 0))  # x0^d * y0^e
                got = max_multiplicity(f)
                assert got == linear_scan_multiplicity(f)
                assert got[0] == d + e

    def test_tries_logarithmically_many_orders(self, monkeypatch):
        calls = []
        inner = corrdyn.stability.diagonal_multiplicity_at_least

        def counted(f, m):
            calls.append(m)
            return inner(f, m)

        monkeypatch.setattr(corrdyn.stability, "diagonal_multiplicity_at_least", counted)
        rng = random.Random(71)
        n = 24
        for k in (0, 1, 5, 12, 13, 23, 24):
            calls.clear()
            f = rand_planted_corner(rng, 12, 12, k)
            assert max_multiplicity(f)[0] >= k
            assert len(calls) <= math.ceil(math.log2(n + 1)), (k, calls)


class TestMaxMultiplicity:
    def test_full_corner(self):
        for d, e in [(1, 1), (2, 1), (2, 2)]:
            f = Correspondence(BiForm.monomial(d, e, 0, 0))  # x0^d * y0^e
            assert max_multiplicity(f)[0] == d + e
            assert affine_multiplicity(f, 0, 1) == d + e

    def test_square_graph(self):
        assert max_multiplicity(SQUARE)[0] == 1

    def test_diagonal_form(self):
        # f(z, z) vanishes identically but the first partials restrict to
        # coprime forms, so the maximum stays 1
        assert max_multiplicity(DIAGONAL)[0] == 1

    def test_agrees_with_chart_oracle_at_rational_points(self):
        rng = random.Random(64)
        for _ in range(15):
            f = rand_correspondence(rng, rng.randint(1, 3), rng.randint(1, 3))
            best, witness = max_multiplicity(f)
            # the chart expansion at any rational diagonal point bounds the max
            probes = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]
            for p0, p1 in probes:
                assert best >= affine_multiplicity(f, p0, p1)
            # every rational witness root really is a point of that multiplicity
            if not witness.is_zero():
                for (q0, q1), _ in rational_roots(witness):
                    assert affine_multiplicity(f, q0, q1) >= best


class TestClassify:
    def test_fixtures(self):
        assert classify_stability(SQUARE).verdict == Verdict.STABLE
        assert classify_stability(DIAGONAL).verdict == Verdict.STRICTLY_SEMISTABLE
        assert classify_stability(CUSP).verdict == Verdict.UNSTABLE

    def test_threshold_arithmetic(self):
        res = classify_stability(SQUARE)
        assert 2 * res.max_multiplicity < 3
        res = classify_stability(DIAGONAL)
        assert 2 * res.max_multiplicity == 2
        res = classify_stability(CUSP)
        assert 2 * res.max_multiplicity > 3

    def test_conjugation_invariance(self):
        rng = random.Random(65)
        for _ in range(12):
            f = rand_correspondence(rng, rng.randint(1, 3), rng.randint(1, 3))
            g = rand_moebius(rng)
            assert classify_stability(f).verdict == classify_stability(conjugate(f, g)).verdict

    def test_odd_total_degree_never_strictly_semistable(self):
        rng = random.Random(66)
        checked = 0
        while checked < 20:
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            if (d + e) % 2 == 0:
                continue
            f = rand_correspondence(rng, d, e)
            assert classify_stability(f).verdict != Verdict.STRICTLY_SEMISTABLE
            checked += 1


class TestMatrixCrosscheck:
    def test_planted_vanishing_pattern_is_unstable(self):
        rng = random.Random(67)
        for _ in range(12):
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            n = d + e
            rows = [
                [0 if 2 * (i + j) <= n else rng.randint(-9, 9) for j in range(e + 1)]
                for i in range(d + 1)
            ]
            rows[d][e] = rows[d][e] or 1
            f = Correspondence.from_matrix(d, e, rows)
            assert classify_stability(f).verdict == Verdict.UNSTABLE

    def test_unstable_witness_conjugates_to_vanishing_pattern(self):
        rng = random.Random(68)
        found = 0
        while found < 8:
            d, e = rng.randint(1, 3), rng.randint(1, 3)
            # plant instability at a random rational diagonal point
            p0, p1 = rng.choice([(1, 0), (1, 1), (1, -2), (2, 1), (0, 1)])
            xline = BiForm(1, 0, [[p1], [-p0]])
            yline = BiForm(0, 1, [[p1, -p0]])
            form = BiForm(0, 0, [[1]])
            for _ in range(d):
                form = form * xline
            for _ in range(e):
                form = form * yline
            f = Correspondence(form)
            res = classify_stability(f)
            assert res.verdict == Verdict.UNSTABLE
            roots = [pt for pt, _ in rational_roots(res.witness)]
            assert roots
            q0, q1 = roots[0]
            g = MoebiusMap(1, q1, 0, q0) if q0 != 0 else MoebiusMap(0, 1, 1, 0)
            conj = conjugate(f, g).form
            n = d + e
            for i in range(d + 1):
                for j in range(e + 1):
                    if 2 * (i + j) <= n:
                        assert conj.coeffs[i][j] == 0
            found += 1
