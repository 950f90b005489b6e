import random

import pytest

from corrdyn.correspondence import (
    Correspondence,
    DegenerateComposition,
    MoebiusMap,
    compose,
    conjugate,
    iterate,
    moebius_graph,
)
from corrdyn.forms import BiForm, BinaryForm
from corrdyn.verify import rand_correspondence, rand_moebius


SQUARE = Correspondence.from_matrix(2, 1, [[0, -1], [0, 0], [1, 0]])  # graph of z -> z^2


class TestMoebiusGraph:
    def test_identity_graph(self):
        # (b*x0 + a*x1)*y0 - (d*x0 + c*x1)*y1 with (1, 0, 0, 1)
        g = moebius_graph(MoebiusMap(1, 0, 0, 1))
        assert g.form == BiForm(1, 1, [[0, -1], [1, 0]])

    def test_doubling_graph(self):
        g = moebius_graph(MoebiusMap(2, 0, 0, 1))  # z -> 2z
        assert g.form == BiForm(1, 1, [[0, -1], [2, 0]])

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            MoebiusMap(2, 4, 1, 2)


class TestCompose:
    def test_square_twice_is_fourth_power(self):
        # 3x3 Sylvester determinant expanded by hand: x1^4*y0 - x0^4*y1
        out = compose(SQUARE, SQUARE)
        assert out.bidegree == (4, 1)
        want = BiForm(4, 1, [[0, -1], [0, 0], [0, 0], [0, 0], [1, 0]])
        assert out.form.projectively_equal(want)

    def test_identity_law(self):
        rng = random.Random(31)
        ident = moebius_graph(MoebiusMap(1, 0, 0, 1))
        for _ in range(10):
            f = rand_correspondence(rng, rng.randint(1, 2), rng.randint(1, 2))
            assert compose(f, ident).projectively_equal(f)
            assert compose(ident, f).projectively_equal(f)

    def test_degenerate_matching_factors(self):
        h = BiForm(1, 1, [[1, 2], [3, 4]])
        f = Correspondence(h * BiForm(0, 1, [[1, 0]]))  # extra factor y0
        g = Correspondence(BiForm(1, 0, [[1], [0]]) * h)  # extra factor x0
        with pytest.raises(DegenerateComposition) as err:
            compose(f, g)
        assert "y0" in str(err.value) and "x0" in str(err.value)

    def test_degenerate_composite_always_has_a_shared_factor(self):
        # A zero composite means a linear factor of f's y-pair that is also one
        # of g's x-pair, so the certificate divides every nonzero row of f (as a
        # y-form) and column of g (as an x-form) and is never constant.
        rng = random.Random(33)

        def sparse(d, e):
            while True:
                rows = [[0 if rng.random() < 0.6 else rng.randint(-3, 3) for _ in range(e + 1)]
                        for _ in range(d + 1)]
                if any(any(row) for row in rows):
                    return Correspondence.from_matrix(d, e, rows)

        degenerate = 0
        for _ in range(1500):
            f = sparse(rng.randint(0, 2), rng.randint(0, 2))
            g = sparse(rng.randint(0, 2), rng.randint(0, 2))
            try:
                compose(f, g)
            except DegenerateComposition as exc:
                degenerate += 1
                shared = exc.shared_factor
                assert shared.degree >= 1, (f, g)
                rows = [BinaryForm(f.deg_y, row) for row in f.form.coeffs]
                cols = [BinaryForm(g.deg_x, col) for col in zip(*g.form.coeffs)]
                for h in rows + cols:
                    if not h.is_zero():
                        assert h.divide_exact(shared) * shared == h, (f, g)
        assert degenerate >= 100

    def test_no_middle_variable_gives_empty_determinant(self):
        # f = 2*x0 + 3*x1 and g = 5*y0 + 7*y1 share no z: the eliminant is the
        # 0 x 0 determinant 1, as sympy.resultant(2 + 3*x, 5 + 7*y, z) is.
        f = Correspondence.from_matrix(1, 0, [[2], [3]])
        g = Correspondence.from_matrix(0, 1, [[5, 7]])
        out = compose(f, g)
        assert out.bidegree == (0, 0)
        assert out.form == BiForm(0, 0, [[1]])

    def test_bidegree_law(self):
        rng = random.Random(32)
        for _ in range(10):
            f = rand_correspondence(rng, rng.randint(1, 2), rng.randint(1, 2))
            g = rand_correspondence(rng, rng.randint(1, 2), rng.randint(1, 2))
            try:
                h = compose(f, g)
            except DegenerateComposition:
                continue
            assert h.bidegree == (f.deg_x * g.deg_x, f.deg_y * g.deg_y)

    def test_associativity(self):
        rng = random.Random(33)
        done = 0
        while done < 12:
            f = rand_correspondence(rng, rng.randint(1, 2), rng.randint(1, 2))
            g = rand_correspondence(rng, rng.randint(1, 2), rng.randint(1, 2))
            h = rand_correspondence(rng, rng.randint(1, 2), rng.randint(1, 2))
            try:
                lhs = compose(compose(f, g), h)
                rhs = compose(f, compose(g, h))
            except DegenerateComposition:
                continue
            assert lhs.projectively_equal(rhs)
            done += 1

    def test_associativity_is_exact(self):
        # Both groupings give the same form, not merely proportional ones,
        # so an iterate may be built in any order.
        rng = random.Random(37)
        checked = 0
        for _ in range(60):
            f, g, h = (rand_correspondence(rng, rng.randint(0, 2), rng.randint(0, 2))
                       for _ in range(3))
            try:
                lhs = compose(compose(f, g), h)
                rhs = compose(f, compose(g, h))
            except DegenerateComposition:
                continue
            assert lhs.form == rhs.form, (f, g, h)
            checked += 1
        assert checked >= 50

    def test_graphs_compose_by_matrix_product(self):
        rng = random.Random(34)
        for _ in range(15):
            g, h = rand_moebius(rng), rand_moebius(rng)
            lhs = compose(moebius_graph(g), moebius_graph(h))
            assert lhs.projectively_equal(moebius_graph(h * g))


class TestIterate:
    def test_single_iterate(self):
        assert iterate(SQUARE, 1).form == SQUARE.form

    def test_square_iterated(self):
        want = BiForm(4, 1, [[0, -1], [0, 0], [0, 0], [0, 0], [1, 0]])
        assert iterate(SQUARE, 2).form.projectively_equal(want)

    def test_moebius_iterate_matches_matrix_square(self):
        g = MoebiusMap(2, 1, 0, 1)
        assert iterate(moebius_graph(g), 2).projectively_equal(moebius_graph(g * g))

    def test_left_fold_equals_right_fold(self):
        rng = random.Random(38)
        for _ in range(8):
            f = rand_correspondence(rng, rng.randint(1, 2), rng.randint(1, 2))
            right = f
            for n in range(2, 5):
                try:
                    right = compose(f, right)
                    left = iterate(f, n)
                except DegenerateComposition:
                    break
                assert left.form == right.form, (f, n)

    def test_degenerate_step_reported(self):
        f = Correspondence.from_matrix(1, 1, [[1, 0], [0, 0]])  # x0*y0
        with pytest.raises(DegenerateComposition) as err:
            iterate(f, 3)
        assert err.value.step == 1

    def test_bad_count(self):
        with pytest.raises(ValueError):
            iterate(SQUARE, 0)


class TestConjugate:
    def test_identity(self):
        rng = random.Random(35)
        f = rand_correspondence(rng, 2, 2)
        assert conjugate(f, MoebiusMap(1, 0, 0, 1)).form == f.form

    def test_inverse_law(self):
        rng = random.Random(36)
        for _ in range(10):
            f = rand_correspondence(rng, rng.randint(1, 2), rng.randint(1, 2))
            g = rand_moebius(rng)
            assert conjugate(conjugate(f, g), g.inverse()).projectively_equal(f)

    def test_agrees_with_graph_resultants(self):
        # conjugation by substitution equals composing with the graph of g on
        # the left and the graph of its inverse on the right
        rng = random.Random(37)
        for _ in range(10):
            f = rand_correspondence(rng, rng.randint(1, 2), rng.randint(1, 2))
            g = rand_moebius(rng)
            via_graphs = compose(compose(moebius_graph(g), f), moebius_graph(g.inverse()))
            assert conjugate(f, g).projectively_equal(via_graphs)

    def test_right_action_law(self):
        rng = random.Random(38)
        for _ in range(12):
            f = rand_correspondence(rng, rng.randint(1, 3), rng.randint(1, 3))
            g, h = rand_moebius(rng), rand_moebius(rng)
            lhs = conjugate(f, g * h)
            rhs = conjugate(conjugate(f, g), h)
            assert lhs.projectively_equal(rhs)

    def test_diagonal_equivariance(self):
        rng = random.Random(39)
        for _ in range(12):
            f = rand_correspondence(rng, rng.randint(1, 3), rng.randint(1, 3))
            g = rand_moebius(rng)
            lhs = conjugate(f, g).form.diagonal_restriction()
            rhs = f.form.diagonal_restriction().substitute_linear(g.coordinate_matrix())
            assert lhs == rhs

    def test_fixed_points_move_by_inverse(self):
        # z -> z^2 fixes 0; after conjugating by g the point g^{-1}(0) is fixed
        g = MoebiusMap(1, 1, 0, 1)  # z -> z + 1
        conj = conjugate(SQUARE, g)
        diag = conj.form.diagonal_restriction()
        # g^{-1}(0) = -1 is the point [1:-1]
        assert diag.evaluate(1, -1) == 0


class TestCorrespondenceType:
    def test_nonzero_required(self):
        with pytest.raises(ValueError):
            Correspondence(BiForm.zero(1, 1))

    def test_projective_equality(self):
        f = Correspondence.from_matrix(1, 1, [[2, 0], [0, -4]])
        g = Correspondence.from_matrix(1, 1, [[-1, 0], [0, 2]])
        assert f.projectively_equal(g)
        assert not f.projectively_equal(Correspondence.from_matrix(1, 1, [[2, 0], [0, 4]]))
