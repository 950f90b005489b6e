import math
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from corrdyn.forms import (
    BiForm,
    BinaryForm,
    _gcd_int,
    _gcd_int_forms,
    _substitution_table,
    binary_gcd,
    rational_roots,
)
from corrdyn.verify import rand_binary_form


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


def fraction_diagonal_restriction(f):
    """Reference route for f(z, z): the anti-diagonal sums of the matrix, in Fraction."""
    out = [F(0)] * (f.deg_x + f.deg_y + 1)
    for i, row in enumerate(f.coeffs):
        for j, c in enumerate(row):
            out[i + j] += c
    return BinaryForm(f.deg_x + f.deg_y, out)


def fraction_power_sum(f, point):
    """Reference route for f at point: the sum of its nonzero terms, in Fraction."""
    x0, x1, y0, y1 = (F(v) for v in point)
    d, e = f.deg_x, f.deg_y
    total = F(0)
    for i, row in enumerate(f.coeffs):
        xpart = x0 ** (d - i) * x1**i
        if xpart == 0:
            continue
        for j, c in enumerate(row):
            if c != 0:
                total += c * xpart * y0 ** (e - j) * y1**j
    return total


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
            g = rand_biform(rng, rng.randint(0, 3), rng.randint(0, 3))
            assert (f * g).evaluate(p) == f.evaluate(p) * g.evaluate(p)
            assert f.evaluate((p[0], p[1], t * p[2], t * p[3])) == t**e * f.evaluate(p)

    def test_binary_form_matches_fraction_sum(self):
        # Reference: the definition, sum c_k z0^(n-k) z1^k in Fraction arithmetic.
        def fraction_sum(form, z0, z1):
            n = form.degree
            return sum((c * F(z0) ** (n - k) * F(z1) ** k for k, c in enumerate(form.coeffs)), F(0))

        rng = random.Random(74)
        for trial in range(300):
            n = 0 if trial % 10 == 0 else rng.randint(1, 8)
            form = BinaryForm(n, [rand_coeff(rng) for _ in range(n + 1)])
            points = [(1, 0), (0, 1), (rng.randint(-9, 9), rng.randint(-9, 9)),
                      (rand_coeff(rng), rand_coeff(rng)),
                      (F(rng.randint(-30, 30), rng.randint(1, 9)), rng.randint(-9, 9))]
            for z0, z1 in points:
                got = form.evaluate(z0, z1)
                assert type(got) is F and got == fraction_sum(form, z0, z1), (trial, z0, z1)

    def test_biform_matches_fraction_power_sum(self):
        rng = random.Random(75)
        for trial in range(200):
            d, e = rng.randint(0, 4), rng.randint(0, 4)
            f = BiForm(d, e, [[rand_coeff(rng) for _ in range(e + 1)] for _ in range(d + 1)])
            for _ in range(4):
                # Many coordinates are zero; the rest are integers and fractions.
                point = [rng.choice([0, rng.randint(-9, 9), rand_coeff(rng)]) for _ in range(4)]
                got = f.evaluate(point)
                assert type(got) is F and got == fraction_power_sum(f, point), (trial, f, point)


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

    def test_matches_fraction_route(self):
        rng = random.Random(7)
        for _ in range(200):
            d, e = rng.randint(0, 6), rng.randint(0, 6)
            f = BiForm(d, e, [[rand_coeff(rng) for _ in range(e + 1)] for _ in range(d + 1)])
            assert f.diagonal_restriction() == fraction_diagonal_restriction(f)


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


def poly_gcd(p, q):
    """Reference GCD: monic Euclid on ascending Fraction coefficient lists."""

    def trim(a):
        while a and a[-1] == 0:
            a.pop()
        return a

    a, b = trim([F(c) for c in p]), trim([F(c) for c in q])
    while b:
        r = a[:]
        while len(r) >= len(b):
            c = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, v in enumerate(b):
                r[shift + i] -= c * v
            trim(r)
        a, b = b, r
    return [c / a[-1] for c in a] if a else a


def fraction_binary_gcd(forms):
    """Reference homogeneous GCD: split off z0/z1 powers, monic Euclid on the cores."""
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        return BinaryForm.zero(0)
    v1 = min(next(k for k, c in enumerate(f.coeffs) if c) for f in nonzero)
    v0 = min(next(k for k, c in enumerate(reversed(f.coeffs)) if c) for f in nonzero)
    acc = None
    for f in nonzero:
        ks = [k for k, c in enumerate(f.coeffs) if c != 0]
        core = list(f.coeffs[ks[0] : ks[-1] + 1])
        acc = core if acc is None else poly_gcd(acc, core)
    return BinaryForm(v1 + len(acc) - 1 + v0, [0] * v1 + acc + [0] * v0).primitive_normalized()


def rand_gcd_inputs(rng):
    """Zero, constant and monomial forms, and multiples of one shared factor."""
    n = rng.randint(0, 3)
    shared = BinaryForm(n, [rand_coeff(rng) for _ in range(n)] + [F(rng.randint(1, 5))])
    forms = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(5)
        if kind == 0:
            forms.append(BinaryForm.zero(rng.randint(0, 4)))
        elif kind == 1:
            forms.append(BinaryForm(0, [rand_coeff(rng) or F(-3, 7)]))
        else:
            k = rng.randint(0, 4)
            cofactor = BinaryForm(k, [rand_coeff(rng) for _ in range(k + 1)])
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            forms.append(BinaryForm.monomial(a + b, b) * shared * cofactor)
    return forms


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
            shared = rand_binary_form(rng, rng.randint(1, 3), nonzero=False)
            if shared.is_zero():
                continue
            inputs = [
                rand_binary_form(rng, rng.randint(0, 3), nonzero=False) * shared for _ in range(3)
            ]
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

    def test_matches_fraction_euclid(self):
        rng = random.Random(13)
        for _ in range(600):
            forms = rand_gcd_inputs(rng)
            assert binary_gcd(forms) == fraction_binary_gcd(forms), forms

    def test_constant_stops_euclid_but_not_the_valuations(self):
        # The cores of the first two, z0 + z1 and z0 + 2*z1, are coprime, so
        # Euclid stops there; the last form, 7*z1, still drops the shared
        # power of z0, and the GCD is z1.
        forms = [BinaryForm(3, [0, 1, 1, 0]), BinaryForm(3, [0, 1, 2, 0]),
                 BinaryForm(3, [0, 0, 5, 0]), BinaryForm(1, [0, 7])]
        assert binary_gcd(forms) == fraction_binary_gcd(forms) == BinaryForm(1, [0, 1])

    def test_stops_reading_once_the_gcd_is_1(self):
        # (z0 + z1)(z0 - z1), (z0 + z1)^2, z0 - z1: the core is constant and
        # no power of z0 or z1 is pending after the third form, so the fourth
        # is never read.
        def forms(head):
            yield from head
            raise AssertionError("read past the point where the GCD is 1")

        head = [(2, [1, 0, -1]), (2, [1, 2, 1]), (1, [1, -1])]
        assert _gcd_int_forms(forms(head)) == [1]
        assert _gcd_int_forms(forms([(0, [0]), (0, [-5])])) == [1]

    def test_pending_monomial_factor_does_not_stop(self):
        # z1's core is constant, but the power of z1 is still pending
        z0, z1 = BinaryForm(1, [1, 0]), BinaryForm(1, [0, 1])
        assert binary_gcd([z1, z1 * z0]) == z1
        assert binary_gcd([z1, z0]) == BinaryForm(0, [1])

    def test_integer_gcd_matches_monic_euclid(self):
        rng = random.Random(14)
        for _ in range(600):
            shared = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
            p, q = ([rng.randint(-20, 20) for _ in range(rng.randint(0, 5))] for _ in range(2))
            if rng.random() < 0.7:
                p, q = poly_mul(p, shared), poly_mul(q, shared)
            if rng.random() < 0.2:
                p = p + [0] * rng.randint(1, 2)  # zero top coefficients are ignored
            got, want = _gcd_int(p, q), poly_gcd(p, q)
            assert [F(c, got[-1]) for c in got] == want, (p, q)
            assert not got or math.gcd(*got) == 1


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


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
            f = rand_binary_form(rng, rng.randint(1, 4), nonzero=False)
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


def definition_substitute_linear(form, m):
    """F(L, M) by its definition: sum_j c_j L^(n-j) M^j with both powers expanded binomially."""

    def pow_linear(p, q, t):
        return [math.comb(t, s) * p ** (t - s) * q**s for s in range(t + 1)]

    (a, b), (c, d) = ((F(v) for v in row) for row in m)
    n = form.degree
    out = [F(0)] * (n + 1)
    for j, coeff in enumerate(form.coeffs):
        for r, u in enumerate(pow_linear(a, b, n - j)):
            for s, v in enumerate(pow_linear(c, d, j)):
                out[r + s] += coeff * u * v
    return out


def rand_matrix(rng, kind):
    """A rational 2x2 matrix: 0 singular, 1 zero, otherwise random."""
    if kind == 0:
        a, b, k = rand_coeff(rng), rand_coeff(rng), rand_coeff(rng)
        return ((a, b), (k * a, k * b))
    if kind == 1:
        return ((0, 0), (0, 0))
    return tuple(tuple(rand_coeff(rng) for _ in range(2)) for _ in range(2))


class TestSubstitutionTable:
    def test_matches_definition(self):
        rng = random.Random(16)
        for trial in range(200):
            n = trial % 9
            form = BinaryForm(n, [rand_coeff(rng) for _ in range(n + 1)])
            m = rand_matrix(rng, trial % 5)
            assert list(form.substitute_linear(m).coeffs) == definition_substitute_linear(form, m)

    def test_degree_zero_and_unit_columns(self):
        assert _substitution_table(2, 3, 5, 7, 0) == [[1]]
        # (a, b, c, d) = (1, 2, 3, 4), n = 2: columns L^2, L*M, M^2
        assert _substitution_table(1, 2, 3, 4, 2) == [[1, 3, 9], [4, 10, 24], [4, 8, 16]]
        # a = 0: L = 2*z1, so the columns are 4*z1^2, 2*z1*M and M^2
        assert _substitution_table(0, 2, 3, 4, 2) == [[0, 0, 9], [0, 6, 24], [4, 8, 16]]
        # L = 0: only M^n survives
        assert _substitution_table(0, 0, 1, 2, 2) == [[0, 0, 1], [0, 0, 4], [0, 0, 4]]
        assert _substitution_table(0, 0, 0, 0, 3) == [[0] * 4] * 4


def row_then_column_substitute_pair(form, mx, my):
    """substitute_pair's earlier route: every row substituted by my, then every column by mx.

    The substitution is fraction_horner, so nothing here shares the integer tables.
    """
    d, e = form.deg_x, form.deg_y
    rows = [fraction_horner(BinaryForm(e, row), my) for row in form.coeffs]
    cols = [fraction_horner(BinaryForm(d, col), mx) for col in zip(*rows)]
    return [list(row) for row in zip(*cols)]


def loop_substitute_pair(form, mx, my):
    """Reference substitute_pair: expand every monomial's image term by term in Fractions."""

    def pow_linear(p, q, t):
        return [math.comb(t, s) * p ** (t - s) * q**s for s in range(t + 1)]

    def image(m, n, i):
        (a, b), (c, d) = ((F(v) for v in row) for row in m)
        u, v = pow_linear(a, b, n - i), pow_linear(c, d, i)
        out = [F(0)] * (n + 1)
        for r, x in enumerate(u):
            for s, y in enumerate(v):
                out[r + s] += x * y
        return out

    d, e = form.deg_x, form.deg_y
    rows = [[F(0)] * (e + 1) for _ in range(d + 1)]
    for i, row in enumerate(form.coeffs):
        for j, c in enumerate(row):
            xv, yv = image(mx, d, i), image(my, e, j)
            for r, u in enumerate(xv):
                for s, v in enumerate(yv):
                    rows[r][s] += c * u * v
    return [list(row) for row in rows]


class TestSubstitutePair:
    def test_matches_term_by_term_expansion(self):
        rng = random.Random(15)
        for trial in range(300):
            d, e = rng.randint(0, 4), rng.randint(0, 4)
            form = BiForm(d, e, [[rand_coeff(rng) for _ in range(e + 1)] for _ in range(d + 1)])
            ms = []
            for kind in (trial % 3, trial // 3 % 3):
                if kind == 0:  # singular: second row a multiple of the first
                    a, b, k = rand_coeff(rng), rand_coeff(rng), rand_coeff(rng)
                    ms.append(((a, b), (k * a, k * b)))
                else:
                    ms.append(tuple(tuple(rand_coeff(rng) for _ in range(2)) for _ in range(2)))
            got = form.substitute_pair(*ms)
            assert [list(row) for row in got.coeffs] == loop_substitute_pair(form, *ms)

    def test_matches_row_then_column_route(self):
        rng = random.Random(17)
        bidegrees = [(0, 0), (0, 4), (5, 0), (3, 3), (2, 6), (7, 1), (8, 8)]
        for trial in range(300):
            d, e = bidegrees[trial % len(bidegrees)]
            form = BiForm(d, e, [[rand_coeff(rng) for _ in range(e + 1)] for _ in range(d + 1)])
            mx = rand_matrix(rng, trial // 7 % 5)
            my = mx if trial % 3 == 0 else rand_matrix(rng, trial // 5 % 5)
            got = [list(row) for row in form.substitute_pair(mx, my).coeffs]
            assert got == row_then_column_substitute_pair(form, mx, my), (form, mx, my)


def trial_division_roots(form):
    """rational_roots by the rational root theorem: every divisor pair of the
    core's constant and leading coefficients is tried as a root, with its
    multiplicity counted by repeated Fraction synthetic division.  Exponential in the
    coefficients' bit size, so only for small heights."""
    prim = form.primitive_normalized()
    ks = [k for k, c in enumerate(prim.coeffs) if c != 0]
    lo, hi = ks[0], ks[-1]
    roots = []
    if lo > 0:
        roots.append(((1, 0), lo))
    if hi < prim.degree:
        roots.append(((0, 1), prim.degree - hi))
    poly = list(prim.coeffs[lo : hi + 1])

    def divisors(n):
        n = abs(int(n))
        small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
        return small + [n // k for k in small]

    cands = {F(sign * p, q) for p in divisors(poly[0]) for q in divisors(poly[-1])
             for sign in (1, -1)}
    for r in sorted(cands):
        mult = 0
        while len(poly) > 1:
            quotient, carry = [], F(0)  # synthetic division by z - r; carry ends as poly(r)
            for c in reversed(poly):
                carry = carry * r + c
                quotient.append(carry)
            if quotient.pop():
                break
            poly = quotient[::-1]
            mult += 1
        if mult:
            roots.append(((r.denominator, r.numerator), mult))
    return sorted(roots)


def small_height_form(rng):
    """A product of at most six linear factors of small height, with
    multiplicities up to 3, a random small cofactor, powers of z0 and z1 and
    a rational scale."""
    form = BinaryForm(0, [rand_coeff(rng) or F(3, 7)])
    for _ in range(rng.randint(0, 4)):
        lin = BinaryForm(1, [rng.randint(-5, 5), -rng.randint(1, 5)])
        for _ in range(min(rng.choice([1, 1, 2, 3]), 6 - form.degree)):
            form = form * lin
    n = rng.randint(0, 3)
    cofactor = BinaryForm(n, [rng.randint(-5, 5) for _ in range(n)] + [rng.randint(1, 5)])
    a, b = rng.randint(0, 2), rng.randint(0, 2)
    return BinaryForm.monomial(a + b, a) * form * cofactor


class TestRationalRoots:
    def test_matches_trial_division(self):
        # 500 planted forms, then 300 forms with random small coefficients.
        rng = random.Random(1983)
        forms = [small_height_form(rng) for _ in range(500)]
        forms += [rand_binary_form(rng, rng.randint(1, 7), nonzero=False) for _ in range(300)]
        for form in forms:
            if not form.is_zero():
                assert rational_roots(form) == trial_division_roots(form), form

    def test_tall_roots_end(self):
        # (10^30 z - 1)(z - 2): trial division would try every divisor of 2*10^30.
        f = BinaryForm(1, [-1, 10**30]) * BinaryForm(1, [-2, 1])
        assert rational_roots(f) == [((1, 2), 1), ((10**30, 1), 1)]
        g = f * f * BinaryForm(1, [-(10**40 + 1), 3 * 10**40])
        assert rational_roots(g) == [((1, 2), 2), ((10**30, 1), 2), ((3 * 10**40, 10**40 + 1), 1)]

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

    def test_prime_search_is_bounded(self):
        # With a GCD that finds no repeated factor, the "square-free part" is
        # (z - 1)^2 (z - 2), which has a double root modulo every prime; the
        # search must give up, not run on.
        code = (
            "import corrdyn.forms as forms\n"
            "forms._gcd_int = lambda p, q: [1]\n"
            "try:\n"
            "    forms.rational_roots(forms.BinaryForm(3, [-2, 5, -4, 1]))\n"
            "except ArithmeticError:\n"
            "    print('bounded')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=30)
        assert proc.stdout == "bounded\n", proc.stderr

    def test_irrational_part_ignored(self):
        f = BinaryForm(2, [-2, 0, 1])  # z1^2 - 2 z0^2, no rational roots
        assert rational_roots(f) == []


def fraction_divmod(num, den):
    """Reference division: long division of ascending Fraction lists, as (quotient, remainder)."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    num, den = trim(list(num)), trim(list(den))
    if len(num) < len(den):
        return [], num
    q = [F(0)] * (len(num) - len(den) + 1)
    r = num[:]
    for k in range(len(num) - len(den), -1, -1):
        if len(r) < len(den) + k:
            continue
        c = r[len(den) + k - 1] / den[-1]
        if c == 0:
            continue
        q[k] = c
        for i, dc in enumerate(den):
            r[k + i] -= c * dc
        trim(r)
    return q, trim(r)


def fraction_divide_exact(f, g):
    """f / g by fraction_divmod of the dehomogenizations, or None unless exact.

    The quotient must also fit the declared degree f.degree - g.degree; a
    zero f gives the zero form of degree max(f.degree - g.degree, 0).
    """
    qdeg = f.degree - g.degree
    if f.is_zero():
        return BinaryForm.zero(max(qdeg, 0))
    q, r = fraction_divmod(f.coeffs, g.coeffs)
    if qdeg < 0 or r or len(q) > qdeg + 1:
        return None
    return BinaryForm(qdeg, q + [F(0)] * (qdeg + 1 - len(q)))


def rand_division_pair(rng):
    """(f, g) with g = z0^a z1^b core: multiples of g, some perturbed, and forms with too few z0."""
    a, b, n = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 3)
    core = BinaryForm(n, [rand_coeff(rng) for _ in range(n)] + [rand_coeff(rng) or F(2, 3)])
    g = BinaryForm.monomial(a + b, b) * core
    k = rng.randint(0, 3)
    kind = rng.randrange(4)
    if kind == 3:  # every factor of g but z0^a: g divides f only over the dehomogenizations
        top = rand_coeff(rng) or F(-5)
        cofactor = BinaryForm(a + k, [rand_coeff(rng) for _ in range(a + k)] + [top])
        return BinaryForm.monomial(b, b) * core * cofactor, g
    f = g * BinaryForm(k, [rand_coeff(rng) for _ in range(k + 1)])
    if kind == 1 and not f.is_zero():  # perturb one coefficient
        cs = list(f.coeffs)
        cs[rng.randrange(len(cs))] += rand_coeff(rng) or 1
        f = BinaryForm(f.degree, cs)
    elif kind == 2 and g.degree + k:  # unrelated, sometimes of lower degree than g
        n = g.degree + k - 1
        f = BinaryForm(n, [rand_coeff(rng) for _ in range(n + 1)])
    return f, g


class TestDivideExact:
    def test_quotient_above_the_declared_degree_raises(self):
        # z1^2 / z0 and z1 (z0 + z1) / z0 divide only after dehomogenizing.
        for f in (BinaryForm(2, [0, 0, 1]), BinaryForm(2, [0, 1, 1])):
            with pytest.raises(ValueError):
                f.divide_exact(BinaryForm(1, [1, 0]))

    def test_zero_divisor_and_dividend(self):
        with pytest.raises(ValueError):
            BinaryForm(1, [1, 2]).divide_exact(BinaryForm.zero(1))
        assert BinaryForm.zero(1).divide_exact(BinaryForm(3, [1, 0, 0, 1])) == BinaryForm.zero(0)

    def test_matches_fraction_divmod(self):
        rng = random.Random(16)
        outcomes = set()
        for _ in range(600):
            f, g = rand_division_pair(rng)
            want = fraction_divide_exact(f, g)
            if want is None:
                with pytest.raises(ValueError):
                    f.divide_exact(g)
            else:
                assert f.divide_exact(g) == want, (f, g)
                assert f.is_zero() or want * g == f
            outcomes.add((want is None, g.coeffs[0] == 0, g.coeffs[-1] == 0))
        assert len(outcomes) == 8


class TestDeclaredDegrees:
    def test_zero_forms_keep_degree(self):
        assert BinaryForm.zero(3).degree == 3
        assert BinaryForm.zero(3) != BinaryForm.zero(2)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BinaryForm(2, [1, 2])
        with pytest.raises(ValueError):
            BiForm(1, 1, [[1, 2, 3], [0, 0, 0]])

    def test_monomial_index_out_of_range(self):
        assert BinaryForm.monomial(3, 3) == BinaryForm(3, [0, 0, 0, 1])
        assert BiForm.monomial(1, 2, 1, 2) == BiForm(1, 2, [[0, 0, 0], [0, 0, 1]])
        for k in (-1, 4):
            with pytest.raises(ValueError):
                BinaryForm.monomial(3, k)
        for i, j in ((-1, 0), (0, -1), (2, 0), (0, 3)):
            with pytest.raises(ValueError):
                BiForm.monomial(1, 2, i, j)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            BinaryForm(1, [0.5, 1])

    def test_shared_structure_keeps_types_hashes_and_messages(self):
        f, g = BinaryForm(1, [1, 2]), BiForm(0, 1, [[1, 2]])
        assert f.flat() == g.flat() and f != g and g != f
        assert BinaryForm(0, [1]) != BiForm(0, 0, [[1]])
        assert hash(f) == hash((1, (F(1), F(2))))
        assert hash(g) == hash((0, 1, ((F(1), F(2)),)))
        with pytest.raises(ValueError, match="^cannot add forms of different declared degree$"):
            f + BinaryForm.zero(2)
        with pytest.raises(ValueError, match="^cannot add forms of different bidegree$"):
            g - BiForm.zero(1, 0)

    def test_projective_equality(self):
        f = BinaryForm(2, [2, -4, 6])
        g = BinaryForm(2, [F(1, 3), F(-2, 3), 1])
        assert f.projectively_equal(g)
        assert not f.projectively_equal(BinaryForm(2, [2, -4, 5]))
        assert not BinaryForm.zero(2).projectively_equal(f)
