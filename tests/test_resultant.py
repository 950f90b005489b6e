import itertools
import math
import random
from fractions import Fraction as F

import pytest

import corrdyn.resultant
from corrdyn.correspondence import Correspondence, compose
from corrdyn.forms import BinaryForm, binary_gcd
from corrdyn.multiplier import woods_hole_resultant
from corrdyn.resultant import (
    _interpolate_line,
    _resultant_prs,
    bareiss_det_int,
    bareiss_det_poly,
    covariant_resultant,
    homogeneous_resultant,
    sylvester_rows,
)
from corrdyn.verify import rand_binary_form


def minor_det(rows):
    """Independent determinant oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return F(1)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j, top in enumerate(rows[0]):
        if top == 0:
            continue
        sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * top * minor_det(sub)
    return total


def univariate(f, g, d, e):
    """Resultant of ascending vectors f, g at declared degrees (d, e)."""
    return homogeneous_resultant(BinaryForm(d, f), BinaryForm(e, g))


class TestUnivariate:
    def test_two_linear(self):
        # det [[-1, 1], [-2, 1]] = 1 by hand
        assert univariate([-1, 1], [-2, 1], 1, 1) == 1

    def test_equal_arguments_vanish(self):
        assert univariate([2, -3, 1], [2, -3, 1], 2, 2) == 0

    def test_cube_roots(self):
        # product of 3*w^2 over the cube roots of unity is 27
        assert univariate([-1, 0, 0, 1], [0, 0, 3], 3, 2) == 27

    def test_against_minor_expansion(self):
        rng = random.Random(20)
        for _ in range(40):
            d, e = rng.randint(0, 3), rng.randint(0, 3)
            if d + e > 5:
                continue
            f = [F(rng.randint(-9, 9)) for _ in range(d + 1)]
            g = [F(rng.randint(-9, 9)) for _ in range(e + 1)]
            want = minor_det(sylvester_rows(f, g, F(0)))
            assert univariate(f, g, d, e) == want

    def test_declared_degrees_matter(self):
        # padding g with a zero leading coefficient changes the determinant
        f = [F(-1), F(1)]
        assert univariate(f, [F(-2), F(1)], 1, 1) == 1
        assert univariate(f, [F(-2), F(1), F(0)], 1, 2) == -1


class TestHomogeneous:
    def test_shared_factor(self):
        f = BinaryForm(3, [0, 1, -1, 0])  # z0*z1*(z0 - z1)
        g = BinaryForm(2, [0, 1, 0]) * BinaryForm(1, [3, 5])
        assert homogeneous_resultant(f, g) == 0

    def test_linear_pair(self):
        assert homogeneous_resultant(BinaryForm(1, [1, -1]), BinaryForm(1, [1, 1])) == 2

    def test_disjoint_monomials(self):
        assert homogeneous_resultant(BinaryForm(2, [1, 0, 0]), BinaryForm(2, [0, 0, 1])) == 1

    def test_equivariance(self):
        rng = random.Random(21)
        for _ in range(30):
            df, dg = rng.randint(1, 4), rng.randint(1, 4)
            f = rand_binary_form(rng, df, nonzero=False)
            g = rand_binary_form(rng, dg, nonzero=False)
            m = ((F(rng.randint(-5, 5)), F(rng.randint(-5, 5))),
                 (F(rng.randint(-5, 5)), F(rng.randint(-5, 5))))
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            if det == 0:
                continue
            lhs = homogeneous_resultant(f.substitute_linear(m), g.substitute_linear(m))
            assert lhs == det ** (df * dg) * homogeneous_resultant(f, g)

    def test_multiplicativity(self):
        rng = random.Random(22)
        for _ in range(30):
            f = rand_binary_form(rng, rng.randint(1, 3), nonzero=False)
            g = rand_binary_form(rng, rng.randint(1, 3), nonzero=False)
            h = rand_binary_form(rng, rng.randint(1, 3), nonzero=False)
            assert homogeneous_resultant(f, g * h) == homogeneous_resultant(
                f, g
            ) * homogeneous_resultant(f, h)

    def test_vanishes_iff_common_factor(self):
        rng = random.Random(23)
        for k in range(40):
            if k % 2 == 0:
                shared = rand_binary_form(rng, rng.randint(1, 2), nonzero=False)
                if shared.is_zero():
                    continue
                f = rand_binary_form(rng, rng.randint(0, 2), nonzero=False) * shared
                g = rand_binary_form(rng, rng.randint(0, 2), nonzero=False) * shared
            else:
                f = rand_binary_form(rng, rng.randint(1, 4), nonzero=False)
                g = rand_binary_form(rng, rng.randint(1, 4), nonzero=False)
            if f.is_zero() or g.is_zero():
                continue
            assert (homogeneous_resultant(f, g) == 0) == (binary_gcd([f, g]).degree >= 1)


def shifted_pair(f, g, d, e, a):
    """res(f, g) and res(f, g + a*f), equal by row reduction when e >= d."""
    shifted = [v + a * u for u, v in zip(list(f) + [0] * (e - d), g)]
    return univariate(f, g, d, e), univariate(f, shifted, d, e)


class TestShiftInvariance:
    def test_linear_vs_square(self):
        lhs, rhs = shifted_pair([-1, 1], [0, 0, 1], 1, 2, 1)
        assert lhs == rhs

    def test_zero_shift(self):
        lhs, rhs = shifted_pair([2, 1], [1, 2, 3], 1, 2, 0)
        assert lhs == rhs

    def test_random(self):
        rng = random.Random(24)
        for _ in range(25):
            d = rng.randint(0, 3)
            e = rng.randint(d, 4)
            f = [F(rng.randint(-9, 9)) for _ in range(d + 1)]
            g = [F(rng.randint(-9, 9)) for _ in range(e + 1)]
            a = F(rng.randint(-6, 6), rng.randint(1, 4))
            lhs, rhs = shifted_pair(f, g, d, e, a)
            assert lhs == rhs


def sylvester_covariant(f, p, q):
    """Reference route: the 2n x 2n Sylvester matrix of f against p*dx + q*dy.

    n scalar rows from f and n rows of linear forms in dx (dy = 1), in the
    ascending layout, on integer-scaled inputs.
    """
    n = f.degree
    df = math.lcm(*(c.denominator for c in f.coeffs))
    den = math.lcm(*(c.denominator for c in p.coeffs + q.coeffs))
    frow = [(int(c * df),) for c in f.coeffs]
    grow = [(int(b * den), int(a * den)) for a, b in zip(p.coeffs, q.coeffs)]
    det = bareiss_det_poly(sylvester_rows(frow, grow, ()), n)
    return [F(det.get((0, k), 0), df**n * den**n) for k in range(n + 1)]


class TestCovariant:
    def test_zero_pencil(self):
        f = BinaryForm(2, [1, 1, 1])
        out = covariant_resultant(f, BinaryForm.zero(2), BinaryForm.zero(2))
        assert out.is_zero() and out.degree == 2

    def test_double_root_fixture(self):
        # F = (z0 - z1)^2 with the slope forms of the Moebius graph
        # x0*y0 - 2*x1*y0 + x1*y1; the double root [1:1] gives a square factor
        # proportional to (-2*dx + 2*dy)^2, i.e. (dy - dx)^2.
        f = BinaryForm(2, [1, -2, 1])
        p = BinaryForm(2, [1, 2, -1])
        q = BinaryForm(2, [1, -2, -1])
        out = covariant_resultant(f, p, q)
        assert out.projectively_equal(
            type(out)(2, [1, -2, 1])
        )  # dy^2 - 2*dx*dy + dx^2

    def test_common_root_vanishes(self):
        f = BinaryForm(2, [0, 1, 0])  # z0*z1
        p = BinaryForm(2, [1, 0, 0])  # z0^2
        out = covariant_resultant(f, p, p)
        assert out.is_zero()

    def test_degree_mismatch(self):
        pencil = "pencil forms must match the declared degree of f"
        cases = [
            ((2, 1, 1), pencil),  # pencil below deg f
            ((2, 3, 2), pencil),  # p and q disagree
            ((2, 2, 3), pencil),
            ((0, 2, 2), pencil),  # a constant f against a pencil of higher degree
            ((0, 0, 0), "declared degree must be at least 1"),
        ]
        for (n, dp, dq), message in cases:
            with pytest.raises(ValueError) as info:
                covariant_resultant(BinaryForm(n, [1] * (n + 1)), BinaryForm(dp, [1] * (dp + 1)),
                                    BinaryForm(dq, [1] * (dq + 1)))
            assert info.value.args == (message,)

    def test_specializations(self):
        # After 25 pencils of degree n, 30 of degree N > n: the result keeps
        # degree n, specializes at the declared degrees (n, N), and is
        # multiplicative in f.
        rng = random.Random(25)
        for trial in range(55):
            n = rng.randint(1, 4)
            big = n + (rng.randint(1, 4) if trial >= 25 else 0)
            f = rand_binary_form(rng, n, nonzero=False)
            if f.is_zero():
                continue
            p, q = rand_binary_form(rng, big, nonzero=False), rand_binary_form(rng, big, nonzero=False)
            r = covariant_resultant(f, p, q)
            assert r.degree == n
            assert r.evaluate(1, 0) == homogeneous_resultant(f, q)
            assert r.evaluate(0, 1) == homogeneous_resultant(f, p)
            t, u = F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
            pencil = BinaryForm(big, [t * a + u * b for a, b in zip(p.coeffs, q.coeffs)])
            assert r.evaluate(u, t) == homogeneous_resultant(f, pencil)
            if big > n:
                g = rand_binary_form(rng, rng.randint(1, big - n))
                assert covariant_resultant(f * g, p, q) == r * covariant_resultant(g, p, q)

    def test_zero_iff_triple_common_root(self):
        rng = random.Random(26)
        for _ in range(25):
            n = rng.randint(1, 3)
            f, p, q = (rand_binary_form(rng, n, nonzero=False) for _ in range(3))
            if f.is_zero():
                continue
            r = covariant_resultant(f, p, q)
            common = binary_gcd([f, binary_gcd([p, q])])
            assert r.is_zero() == (common.is_zero() or common.degree >= 1)

    def test_covariant_matches_sylvester_route(self):
        rng = random.Random(41)

        def draw(n):
            cs = [F(rng.randint(-30, 30), rng.randint(1, 6)) if rng.random() < 0.8 else F(0)
                  for _ in range(n + 1)]
            if rng.random() < 0.3:
                cs[-1] = F(0)  # vanishing leading coefficient: root at [0:1]
            if rng.random() < 0.3:
                cs[0] = F(0)  # vanishing trailing coefficient: root at [1:0]
            return BinaryForm(n, cs)

        for n in range(1, 11):
            for trial in range(8):
                f, p, q = draw(n), draw(n), draw(n)
                if trial == 0:
                    f = BinaryForm.zero(n)
                elif trial == 1:
                    # all three share the root [2:3]: the result is the zero form
                    shared = BinaryForm(1, [3, -2])
                    f, p, q = (shared * draw(n - 1) for _ in range(3))
                r = covariant_resultant(f, p, q)
                assert list(r.coeffs) == sylvester_covariant(f, p, q)
                if trial == 1:
                    assert r.is_zero()


class TestResultantPRS:
    def test_prs_kernel_matches_sylvester_determinant(self):
        rng = random.Random(42)

        def draw(deg):
            v = [rng.randint(-20, 20) if rng.random() < 0.75 else 0 for _ in range(deg + 1)]
            if rng.random() < 0.05:
                return [0] * (deg + 1)
            if rng.random() < 0.2:
                v[0] = 0  # vanishing trailing coefficient
            return v

        def times(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        for trial in range(2400):
            d, e = rng.randint(0, 9), rng.randint(0, 9)
            kind = trial % 4
            if kind == 0 and d >= 1 and e >= 1:
                # planted shared factor root[0] + root[1]*x
                root = [rng.randint(-5, 5), rng.choice([-3, -2, -1, 1, 2, 3])]
                f, g = times(root, draw(d - 1)), times(root, draw(e - 1))
            else:
                f, g = draw(d), draw(e)
                if kind == 1:
                    g[-1] = 0  # leading-coefficient drop in g only
                    f[-1] = f[-1] or 1
                elif kind == 2:
                    f[-1] = 0  # in f only: the swap branch
                    g[-1] = g[-1] or 1
            assert _resultant_prs(f, g) == bareiss_det_int(sylvester_rows(f, g, 0)), (f, g)

    def test_prs_kernel_edge_cases(self):
        assert _resultant_prs([5], [1, 2, 3]) == 25  # d = 0: f0^e
        assert _resultant_prs([1, 2, 3], [7]) == 49  # e = 0: g0^d
        assert _resultant_prs([1, 2, 0], [3, 4, 0]) == 0  # both leads vanish
        assert _resultant_prs([1, 1], [0, 0, 0]) == 0
        assert _resultant_prs([0, 0, 0], [1, 1]) == 0
        # (x - 1)(x - 2) and (x - 2)(x + 5) share the root 2
        assert _resultant_prs([2, -3, 1], [-10, 3, 1]) == 0
        big = [10**40 + 7, -(3**70), 2**100 + 1, 5]
        other = [11**30, 0, -(7**33), 13**20, 1]
        assert _resultant_prs(big, other) == bareiss_det_int(sylvester_rows(big, other, 0))


def leibniz_det_poly(rows):
    """Independent polynomial determinant oracle: the permutation expansion."""
    n = len(rows)
    total = {}
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = {(): (-1) ** inversions}
        for r, col in enumerate(perm):
            product = {}
            for ka, va in term.items():
                for kb, vb in rows[r][col].items():
                    key = tuple(a + b for a, b in itertools.zip_longest(ka, kb, fillvalue=0))
                    product[key] = product.get(key, 0) + va * vb
            term = product
        for key, v in term.items():
            total[key] = total.get(key, 0) + v
    return {k: v for k, v in total.items() if v}


def as_dict_rows(rows, split):
    """Two-block tuple rows as leibniz_det_poly entries {(i, j): c} of c*u^i*v^j."""
    return [[{(k, 0) if r < split else (0, k): c for k, c in enumerate(entry)} for entry in row]
            for r, row in enumerate(rows)]


@pytest.fixture
def det_int_calls(monkeypatch):
    """A list that grows by one for each bareiss_det_int call made inside corrdyn.resultant."""
    calls = []
    monkeypatch.setattr(corrdyn.resultant, "bareiss_det_int",
                        lambda rows: calls.append(1) or bareiss_det_int(rows))
    return calls


class TestDetPoly:
    def test_empty_matrix(self):
        assert bareiss_det_poly([], 0) == {(0, 0): 1}

    def test_identically_zero(self):
        # second row is (u + 1) times the first; every grid point is singular
        row = [(2, 1), (0, 0, -3)]
        scaled = [(2, 3, 1), (0, 0, -3, -3)]
        assert bareiss_det_poly([row, scaled], 2) == {}
        assert bareiss_det_poly([[(), ()], [(0, 1), (1,)]], 1) == {}

    def test_singular_at_some_grid_points(self):
        # det = x^2 - 1 in either block: the (0, 0) pivot vanishes at x = 0 and
        # needs a row swap, and the whole matrix is singular at x = 1.
        x, one = (0, 1), (1,)
        assert bareiss_det_poly([[x, one], [one, x]], 2) == {(2, 0): 1, (0, 0): -1}
        assert bareiss_det_poly([[x, one], [one, x]], 0) == {(0, 2): 1, (0, 0): -1}
        rows = [[x, one, ()], [one, x, one], [(), one, x]]
        for split in range(4):
            assert bareiss_det_poly(rows, split) == leibniz_det_poly(as_dict_rows(rows, split))
        assert bareiss_det_poly(rows, 1) == {(1, 2): 1, (1, 0): -1, (0, 1): -1}

    def test_scalar_matrix_matches_integer_kernel(self):
        rng = random.Random(27)
        for _ in range(30):
            n = rng.randint(1, 5)
            ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            det = bareiss_det_int(ints)
            rows = [[(v,) if v else () for v in row] for row in ints]
            got = bareiss_det_poly(rows, rng.randint(0, n))
            assert got == ({(0, 0): det} if det else {})

    def test_variable_in_some_rows_only(self):
        # u enters only the last u-row, v only the first v-row; every other row
        # is constant, so the degree bound in each variable comes from one row.
        rng = random.Random(28)
        for _ in range(30):
            n = rng.randint(1, 4)
            split = rng.randint(0, n)
            rows = []
            for r in range(n):
                carries = r == split - 1 or r == split
                top = (3 if r < split else 2) if carries else 0
                rows.append([tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, top + 1)))
                             for _ in range(n)])
            got = bareiss_det_poly(rows, split)
            assert got == leibniz_det_poly(as_dict_rows(rows, split)), rows
            assert all(i <= 3 and j <= 2 for i, j in got)

    def test_large_coefficients(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(2, 4)
            split = rng.randint(0, n)
            rows = [[(0,) * rng.randint(0, 3 if r < split else 2) + (rng.randint(-2**80, 2**80),)
                     for _ in range(n)] for r in range(n)]
            assert bareiss_det_poly(rows, split) == leibniz_det_poly(as_dict_rows(rows, split))

    def test_mixed_variable_subsets_and_shared_entries(self):
        # Entries drawn from a small pool of tuple objects, so one entry sits in
        # several rows and columns of both blocks; a block may be empty (split
        # 0 or n), and every third u-block holds only constants.
        rng = random.Random(30)

        def coeff():
            return rng.choice([rng.randint(-9, 9), rng.randint(-(2**80), 2**80)])

        for trial in range(90):
            n = rng.randint(1, 4)
            split = rng.randint(0, n)
            pool = [(), (coeff(),)] + [tuple(coeff() for _ in range(rng.randint(1, 3)))
                                       for _ in range(rng.randint(1, 4))]
            upool = [entry for entry in pool if len(entry) < 2] if trial % 3 == 0 else pool
            rows = [[rng.choice(upool if r < split else pool) for _ in range(n)] for r in range(n)]
            want = leibniz_det_poly(as_dict_rows(rows, split))
            assert bareiss_det_poly(rows, split) == want, rows

    def test_signed_digits_with_borrows(self):
        # Coefficients of +-2**80 beside zeros, and a negative top coefficient,
        # packed into one integer, in either block.
        big = 2**80
        entry = (big, 0, -big, 0, 0, -1)
        assert bareiss_det_poly([[entry]], 0) == {(0, 0): big, (0, 2): -big, (0, 5): -1}
        assert bareiss_det_poly([[entry]], 1) == {(0, 0): big, (5, 0): -1, (2, 0): -big}
        rows = [[(0, 1), (1,)], [(-big, 0, big, 0, -3), (0, 0, -big)]]
        for split in range(3):
            assert bareiss_det_poly(rows, split) == leibniz_det_poly(as_dict_rows(rows, split))
        rng = random.Random(32)
        for _ in range(20):
            n = rng.randint(1, 4)
            split = rng.randint(0, n)
            rows = [[tuple(rng.choice([0, 0, big, -big, -1]) for _ in range(rng.randint(0, 3)))
                     for _ in range(n)] for _ in range(n)]
            assert bareiss_det_poly(rows, split) == leibniz_det_poly(as_dict_rows(rows, split))

    def test_diagonal_meets_the_packing_bound(self):
        # With positive monomials on the diagonal the determinant's one
        # coefficient is the product of the rows' l1 norms, the bound the
        # packing width is taken from, so a width one bit short misreads it.
        rng = random.Random(33)
        for _ in range(40):
            n = rng.randint(1, 5)
            split = rng.randint(0, n)
            rows = [[()] * n for _ in range(n)]
            want_key, want = [0, 0], 1
            for r in range(n):
                k, c = rng.randint(0, 3), rng.choice([1, rng.randint(2, 99), 2**rng.randint(1, 60)])
                rows[r][r] = (0,) * k + (c,)
                want_key[r >= split] += k
                want *= c
            assert bareiss_det_poly(rows, split) == {tuple(want_key): want}
        # positive entries of several terms each
        rows = [[(3, 1, 4), (), ()], [(), (1, 5), ()], [(), (), (9, 2, 6, 5)]]
        for split in range(4):
            assert bareiss_det_poly(rows, split) == leibniz_det_poly(as_dict_rows(rows, split))

    def test_packed_u_block_with_odd_sign(self, det_int_calls):
        # The u-block is packed when its degree bound is larger, or equal with
        # fewer rows; its rows then follow the v-block's, with the sign
        # (-1)^(split * (n - split)), here -1.  It takes D_v + 1 determinants.
        rng = random.Random(34)
        for n, split, top_u, top_v in [(2, 1, 3, 1), (4, 1, 6, 1), (4, 3, 2, 1), (4, 1, 3, 1)]:
            for _ in range(5):
                tops = [top_u] * split + [top_v] * (n - split)
                rows = [[tuple(rng.randint(-9, 9) for _ in range(top + 1)) for _ in range(n)]
                        for top in tops]
                det_int_calls.clear()
                got = bareiss_det_poly(rows, split)
                assert got == leibniz_det_poly(as_dict_rows(rows, split)), rows
                assert len(det_int_calls) == (n - split) * top_v + 1

    def test_determinant_counts_of_compose_and_woods_hole(self, det_int_calls):
        # One determinant per value of the evaluated variable: (3,3) o (3,3)
        # packs y1 and evaluates x1 at 0..9, and the Woods Hole matrix, whose
        # u-block is constant, needs one.
        rng = random.Random(35)
        f, g = (Correspondence.from_matrix(3, 3, [[rng.randint(1, 9) for _ in range(4)]
                                                  for _ in range(4)]) for _ in range(2))
        compose(f, g)
        assert len(det_int_calls) == 10
        det_int_calls.clear()
        woods_hole_resultant([rng.randint(-9, 9) for _ in range(9)] + [1], [1, 2, 3])
        assert len(det_int_calls) == 1


class TestInterpolateLine:
    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(60):
            coeffs = [rng.choice([rng.randint(-9, 9), rng.randint(-(2**80), 2**80)])
                      for _ in range(rng.randint(1, 8))]
            m = len(coeffs) + rng.randint(0, 2)
            vals = [sum(c * x**k for k, c in enumerate(coeffs)) for x in range(m)]
            assert _interpolate_line(vals) == coeffs + [0] * (m - len(coeffs))

    def test_inexact_difference_raises(self):
        # x(x - 1)/2 takes the values 0, 0, 1; its second divided difference is 1/2
        with pytest.raises(ArithmeticError):
            _interpolate_line([0, 0, 1])
