import itertools
import math
import random
from fractions import Fraction as F

import pytest

from corrdyn.forms import BinaryForm, binary_gcd
from corrdyn.resultant import (
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
    frow = [{(0,): int(c * df)} for c in f.coeffs]
    grow = [{(1,): int(a * den), (0,): int(b * den)} for a, b in zip(p.coeffs, q.coeffs)]
    det = bareiss_det_poly(sylvester_rows(frow, grow, {}))
    return [F(det.get((k,), 0), df**n * den**n) for k in range(n + 1)]


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
        with pytest.raises(ValueError):
            covariant_resultant(BinaryForm(2, [1, 0, 1]), BinaryForm(1, [1, 0]), BinaryForm(1, [0, 1]))

    def test_specializations(self):
        rng = random.Random(25)
        for _ in range(25):
            n = rng.randint(1, 4)
            f = rand_binary_form(rng, n, nonzero=False)
            if f.is_zero():
                continue
            p, q = rand_binary_form(rng, n, nonzero=False), rand_binary_form(rng, n, nonzero=False)
            r = covariant_resultant(f, p, q)
            assert r.evaluate(1, 0) == homogeneous_resultant(f, q)
            assert r.evaluate(0, 1) == homogeneous_resultant(f, p)
            t, u = F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
            pencil = BinaryForm(n, [t * a + u * b for a, b in zip(p.coeffs, q.coeffs)])
            assert r.evaluate(u, t) == homogeneous_resultant(f, pencil)

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


class TestDetPoly:
    def test_empty_matrix(self):
        assert bareiss_det_poly([]) == {(): 1}

    def test_identically_zero(self):
        # second row is (x + 1) times the first; every grid point is singular
        row = [{(0,): 2, (1,): 1}, {(2,): -3}]
        scaled = [{(0,): 2, (1,): 3, (2,): 1}, {(2,): -3, (3,): -3}]
        assert bareiss_det_poly([row, scaled]) == {}
        assert bareiss_det_poly([[{}, {}], [{(1, 0): 1}, {(0, 1): 1}]]) == {}

    def test_singular_at_some_grid_points(self):
        # det = x^2 - 1: the (0, 0) pivot vanishes at x = 0 and needs a row
        # swap, and the whole matrix is singular at x = 1.
        x, one = {(1,): 1}, {(0,): 1}
        assert bareiss_det_poly([[x, one], [one, x]]) == {(2,): 1, (0,): -1}
        rows = [[x, one, {}], [one, x, one], [{}, one, x]]
        assert bareiss_det_poly(rows) == leibniz_det_poly(rows) == {(3,): 1, (1,): -2}

    def test_scalar_matrix_matches_integer_kernel(self):
        rng = random.Random(27)
        for _ in range(30):
            n = rng.randint(1, 5)
            ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            det = bareiss_det_int(ints)
            got = bareiss_det_poly([[{(): v} if v else {} for v in row] for row in ints])
            assert got == ({(): det} if det else {})

    def test_variable_in_some_rows_only(self):
        # y enters only the last row, z only the first; the degree bound in
        # each variable comes from the rows that carry it.
        rng = random.Random(28)
        for _ in range(30):
            n = rng.randint(1, 4)
            rows = []
            for r in range(n):
                row = []
                for _ in range(n):
                    v = rng.choice([0] + [1] * (r == n - 1) + [2] * (r == 0))
                    tops = [2 * (v == 0), 3 * (v == 1), 1 * (v == 2)]
                    entry = {}
                    for _ in range(rng.randint(0, 2)):
                        key = tuple(rng.randint(0, top) for top in tops)
                        entry[key] = entry.get(key, 0) + rng.randint(-9, 9)
                    row.append({k: c for k, c in entry.items() if c})
                rows.append(row)
            assert bareiss_det_poly(rows) == leibniz_det_poly(rows)

    def test_large_coefficients(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(2, 4)
            rows = [[{rng.choice([(rng.randint(0, 3), 0), (0, rng.randint(0, 2))]):
                      rng.randint(-2**80, 2**80)} for _ in range(n)] for _ in range(n)]
            assert bareiss_det_poly(rows) == leibniz_det_poly(rows)

    def test_mixed_variable_subsets_and_shared_entries(self):
        # Entries drawn from a small pool, so one entry object sits in several
        # rows and columns; each pool entry is a constant or involves one of
        # the first two variables, and the last variable appears in no entry.
        rng = random.Random(30)
        for _ in range(60):
            n = rng.randint(1, 4)
            pool = []
            for _ in range(rng.randint(1, 5)):
                used = rng.choice([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
                entry = {}
                for _ in range(rng.randint(0, 3)):
                    key = tuple(rng.randint(0, 2) * u for u in used)
                    c = rng.choice([rng.randint(-9, 9), rng.randint(-(2**70), 2**70)])
                    entry[key] = entry.get(key, 0) + c
                pool.append(entry)
            rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            got = bareiss_det_poly(rows)
            assert got == leibniz_det_poly(rows), rows
            assert all(key[2] == 0 for key in got)
