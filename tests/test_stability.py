import math
import random
from fractions import Fraction as F

import pytest

from corrdyn.correspondence import Correspondence, MoebiusMap, conjugate
from corrdyn.forms import (
    BiForm,
    BinaryForm,
    _diagonal_sum,
    _gcd_int_forms,
    _int_rows,
    _partial_weights,
    rational_roots,
)
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


def planted_at_infinity(rng, d: int, e: int, k: int, coeff=rand_coeff):
    """Rows of a random nonzero (d, e) form with a_ij = 0 for (d-i) + (e-j) < k.

    Its multiplicity at ([0:1], [0:1]) is at least k.
    """
    rows = [[0 if (d - i) + (e - j) < k else coeff(rng) for j in range(e + 1)]
            for i in range(d + 1)]
    rows[0][0] = rows[0][0] or 1  # (d-0) + (e-0) >= k, so the form stays nonzero
    return rows


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


def chart_route_multiplicity(f: Correspondence, m: int):
    """Reference route: the GCD of the restrictions of every chart partial of order < m.

    That is the family the scan read before it differentiated along the
    diagonal; the GCD of the mirrored form's family gives the order at [0:1].
    """
    d, e = f.deg_x, f.deg_y

    def chart_gcd(a):
        return _gcd_int_forms(
            (d + e - j - l,
             _diagonal_sum(a, _partial_weights(d, 0, j), _partial_weights(e, 0, l), j, l))
            for j in range(d + 1) for l in range(e + 1) if j + l < m)

    rows = _int_rows(f.form)[0]
    w = chart_gcd(rows)
    if w[-1] == 0 and any(w):
        v0 = next(i for i, c in enumerate(reversed(w)) if c)
        low = next(i for i, c in enumerate(chart_gcd([r[::-1] for r in reversed(rows)])) if c)
        w = w[: len(w) - v0] + [0] * low
    hit = len(w) > 1 or not w[0]
    return hit, BinaryForm(len(w) - 1, w) if hit else BinaryForm(0, [1])


class TestIntegerRestrictions:
    def test_restriction_turns_the_diagonal_derivative_into_d_z1(self):
        # R(d_{x1} h + d_{y1} h) = d_{z1} R(h) for R the restriction to the
        # diagonal, in Fraction; a partial past its degree (d = 0 or e = 0) is zero.
        rng = random.Random(78)
        for trial in range(60):
            d, e = [(0, rng.randint(1, 6)), (rng.randint(1, 6), 0),
                    (rng.randint(1, 6), rng.randint(1, 6))][trial % 3]
            h = BiForm(d, e, [[rand_coeff(rng) for _ in range(e + 1)] for _ in range(d + 1)])
            parts = [fraction_diagonal_restriction(h.mixed_partial(orders))
                     for orders, degree in (((0, 1, 0, 0), d), ((0, 0, 0, 1), e)) if degree]
            r = fraction_diagonal_restriction(h).coeffs
            expected = BinaryForm(d + e - 1, [i * c for i, c in enumerate(r)][1:])
            assert sum(parts[1:], parts[0]) == expected, (d, e)

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

    def test_matches_the_chart_route_at_large_bidegree(self):
        # Above (5, 5), where the partial route is too slow, against every
        # chart restriction: planted forms, moved along the diagonal, or
        # planted at ([0:1], [0:1]) with a_de = 0 (small coefficients, so that
        # the common denominator of (16, 16) rows stays small).
        rng = random.Random(79)
        for d, e in [(12, 12), (16, 16)]:
            for k in (d // 2, d + 1, d + e):
                at_infinity = planted_at_infinity(rng, d, e, k, lambda r: r.randint(-9, 9))
                for f in (rand_planted_corner(rng, d, e, k),
                          conjugate(rand_planted_corner(rng, d, e, k), rand_moebius(rng)),
                          Correspondence.from_matrix(d, e, at_infinity)):
                    for m in range(1, d + e + 1):
                        got = diagonal_multiplicity_at_least(f, m)
                        assert got == chart_route_multiplicity(f, m), (d, e, k, m)

    def test_matches_partial_route_off_the_corner(self):
        # Forms planted at ([0:1], [0:1]), the only inputs whose witness the
        # chart z0 != 0 cannot settle, and planted forms moved along the diagonal.
        rng = random.Random(72)
        for trial in range(48):
            d, e = rng.randint(0, 6), rng.randint(0, 6)
            if d + e == 0:
                e = 1
            k = rng.randint(1, d + e)
            if trial % 2 == 0:
                f = Correspondence.from_matrix(d, e, planted_at_infinity(rng, d, e, k))
            else:
                f = conjugate(rand_planted_corner(rng, d, e, k), rand_moebius(rng))
            for m in range(1, d + e + 1):
                got = diagonal_multiplicity_at_least(f, m)
                assert got == partial_route_multiplicity(f, m), (trial, m)


def linear_scan_multiplicity(f: Correspondence, at_least=diagonal_multiplicity_at_least):
    """Oracle: try the orders m = 1, 2, ... in turn and keep the last hit with its witness."""
    best, best_witness = 0, BinaryForm(0, [1])
    for m in range(1, f.deg_x + f.deg_y + 1):
        hit, witness = at_least(f, m)
        if not hit:
            break
        best, best_witness = m, witness
    return best, best_witness


class TestBisection:
    """classify_stability's upward scan against linear scans of the order test.

    The class keeps its old name, from the bisection the scan replaced, so
    that its test ids stay stable.
    """

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

    def test_off_the_corner_matches_linear_scan(self):
        # Planted at ([0:1], [0:1]) with a_de = 0, or moved along the diagonal:
        # where the carried GCD meets the [0:1] correction.
        rng = random.Random(76)
        for d in range(9):
            for e in range(9):
                if d + e == 0:
                    continue
                for k in rng.sample(range(d + e + 1), min(3, d + e + 1)):
                    f = Correspondence.from_matrix(d, e, planted_at_infinity(rng, d, e, k))
                    assert max_multiplicity(f) == linear_scan_multiplicity(f), (d, e, k)
                    f = conjugate(rand_planted_corner(rng, d, e, k), rand_moebius(rng))
                    assert max_multiplicity(f) == linear_scan_multiplicity(f), (d, e, k)

    def test_confirmed_order_reads_the_chart_only(self, monkeypatch):
        # A confirmed order m reads one restriction per y-order l < min(m, e+1),
        # d_{y1}^l f restricted, and derives the rest along the diagonal; the
        # chart z0 = 0 is read only when a_de = 0 leaves [0:1] undecided, at
        # most e+1 restrictions more.
        reads = []
        inner = corrdyn.stability._diagonal_sum

        def counted(*args):
            reads.append(args)
            return inner(*args)

        monkeypatch.setattr(corrdyn.stability, "_diagonal_sum", counted)
        rng = random.Random(73)
        for k in (3, 5, 12, 13, 23, 24):
            f = rand_planted_corner(rng, 12, 12, k)
            while f.form.coeffs[12][12] == 0:
                f = rand_planted_corner(rng, 12, 12, k)
            for m in range(1, k + 1):
                reads.clear()
                assert diagonal_multiplicity_at_least(f, m)[0]
                assert len(reads) == min(m, 13), (k, m, len(reads))
                assert all(args[0] is reads[0][0] for args in reads)
        for trial in range(24):
            d, e = rng.randint(2, 6), rng.randint(1, 6)
            k = rng.randint(3, d + e)
            at_infinity = trial % 2 == 1
            if at_infinity:
                f = Correspondence.from_matrix(d, e, planted_at_infinity(rng, d, e, k))
            else:
                f = conjugate(rand_planted_corner(rng, d, e, k), rand_moebius(rng))
                if f.form.coeffs[d][e] == 0:
                    continue
            for m in range(1, k + 1):
                reads.clear()
                assert diagonal_multiplicity_at_least(f, m)[0]
                chart = min(m, e + 1)
                if at_infinity and m > 1:
                    assert chart < len(reads) <= 2 * (e + 1), (trial, m)
                else:
                    assert len(reads) == chart, (trial, m)

    def test_classify_reads_each_chart_partial_once(self, monkeypatch):
        # With a_de != 0 the scan reads no mirrored partial and one restriction
        # per y-order l <= min(mult, e): orders 0..mult-1 hold and the miss at
        # order mult reads its own before its GCD is 1.
        reads = []
        inner = corrdyn.stability._diagonal_sum

        def counted(*args):
            reads.append(args)
            return inner(*args)

        monkeypatch.setattr(corrdyn.stability, "_diagonal_sum", counted)
        rng = random.Random(75)
        for d, e, k in [(12, 12, 11), (12, 12, 13), (12, 12, 0), (12, 12, 24), (10, 10, 5),
                        (10, 10, 10), (8, 8, 9), (3, 7, 4), (7, 2, 9)]:
            for _ in range(3):
                f = rand_planted_corner(rng, d, e, k)
                while f.form.coeffs[d][e] == 0:
                    f = rand_planted_corner(rng, d, e, k)
                reads.clear()
                mult = max_multiplicity(f)[0]
                assert mult >= k
                assert len(reads) <= e + 1, (d, e, k, len(reads))
        # Without a double point the scan ends at order 1.
        for _ in range(12):
            f = rand_correspondence(rng, 12, 12)
            if f.form.coeffs[12][12] == 0:
                continue
            reads.clear()
            classify_stability(f)
            assert len(reads) <= 5

    def test_matches_the_fraction_route(self):
        # classify_stability against the last hit of the Fraction route, which
        # shares no integer kernel with the scan.
        rng = random.Random(77)
        for d in range(6):
            for e in range(6):
                if d + e == 0:
                    continue
                k = rng.randint(0, d + e)
                forms = [
                    rand_planted_corner(rng, d, e, k),
                    conjugate(rand_planted_corner(rng, d, e, k), rand_moebius(rng)),
                    Correspondence.from_matrix(d, e, planted_at_infinity(rng, d, e, k)),
                ]
                if d >= 1 and e >= 1:
                    cofactor = rand_planted_corner(rng, d - 1, e - 1, min(k, d + e - 2))
                    forms.append(Correspondence(cofactor.form * DIAGONAL.form))
                for f in forms:
                    expected = linear_scan_multiplicity(f, partial_route_multiplicity)
                    assert max_multiplicity(f) == expected, (d, e, k)


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
