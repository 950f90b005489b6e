"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per criterion.
"""

import math
import random
import subprocess
import sys
from fractions import Fraction as F

from corrdyn.clebsch import CgComponents, cayley_omega, cg_decompose, cg_reconstruct
from corrdyn.correspondence import (
    Correspondence,
    DegenerateComposition,
    MoebiusMap,
    compose,
    conjugate,
    moebius_graph,
)
from corrdyn.forms import BiForm, BinaryForm, rational_roots
from corrdyn.multiplier import (
    dz_coordinates,
    index_residual,
    multiplier_form,
    rational_fixed_point_oracle,
    sigma_spectrum,
    woods_hole_resultant,
)
from corrdyn.resultant import homogeneous_resultant
from corrdyn.stability import Verdict, classify_stability
from corrdyn.verify import (
    _projection_agrees,
    conjugated_square_map,
    rand_binary_form,
    rand_correspondence,
    rand_good_position,
    rand_map_graph,
    rand_moebius,
    rand_split_map_graph,
    run_verify_suite,
)

SQUARE = Correspondence.from_matrix(2, 1, [[0, -1], [0, 0], [1, 0]])


def report(number, text):
    print(f"criterion {number:2d}: PASS — {text}")


def rand_biform(rng, d, e):
    return BiForm(d, e, [[rng.randint(-9, 9) for _ in range(e + 1)] for _ in range(d + 1)])


def test_criterion_01_cayley_explicit_value():
    for d in range(6):
        for e in range(6):
            for m in range(min(d, e) + 1):
                got = cayley_omega(BiForm.monomial(d, e, 0, m), m)
                value = F(math.factorial(d) * math.factorial(m), math.factorial(d - m))
                assert got == BinaryForm.monomial(d + e - 2 * m, 0, value)
    report(1, "Cayley explicit monomial values, all d, e <= 5")


def test_criterion_02_clebsch_gordan_bijectivity():
    rng = random.Random(1002)
    for d in range(6):
        for e in range(6):
            for _ in range(100):
                f = rand_biform(rng, d, e)
                assert cg_reconstruct(cg_decompose(f)) == f
            parts = tuple(
                rand_binary_form(rng, d + e - 2 * m, nonzero=False) for m in range(min(d, e) + 1)
            )
            comp = CgComponents(d, e, parts)
            assert cg_decompose(cg_reconstruct(comp)) == comp
    report(2, "decompose/reconstruct identities, 100 forms per bidegree, d, e <= 5")


def test_criterion_03_resultant_equivariance():
    rng = random.Random(1003)
    done = 0
    while done < 100:
        df, dg = rng.randint(1, 4), rng.randint(1, 4)
        f, g = rand_binary_form(rng, df, nonzero=False), rand_binary_form(rng, dg, nonzero=False)
        m = ((F(rng.randint(-5, 5)), F(rng.randint(-5, 5))),
             (F(rng.randint(-5, 5)), F(rng.randint(-5, 5))))
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det == 0:
            continue
        lhs = homogeneous_resultant(f.substitute_linear(m), g.substitute_linear(m))
        assert lhs == det ** (df * dg) * homogeneous_resultant(f, g)
        done += 1
    report(3, "resultant equivariance with the determinant power factor, 100 instances")


def test_criterion_04_composition():
    want = BiForm(4, 1, [[0, -1], [0, 0], [0, 0], [0, 0], [1, 0]])
    assert compose(SQUARE, SQUARE).form.projectively_equal(want)

    rng = random.Random(1004)
    done = 0
    while done < 50:
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

    for _ in range(50):
        g, h = rand_moebius(rng), rand_moebius(rng)
        assert compose(moebius_graph(g), moebius_graph(h)).projectively_equal(
            moebius_graph(h * g)
        )
    report(4, "square graph composition, associativity x50, Moebius graphs x50")


def test_criterion_05_conjugation_action_and_stability_invariance():
    rng = random.Random(1005)
    for _ in range(50):
        f = rand_correspondence(rng, rng.randint(1, 3), rng.randint(1, 3))
        g, h = rand_moebius(rng), rand_moebius(rng)
        assert conjugate(f, g * h).projectively_equal(conjugate(conjugate(f, g), h))
        assert classify_stability(f).verdict == classify_stability(conjugate(f, g)).verdict
    report(5, "conjugation action law and stability invariance, 50 instances")


def test_criterion_06_stability_fixtures_and_corpus():
    assert classify_stability(SQUARE).verdict == Verdict.STABLE
    diagonal = Correspondence.from_matrix(1, 1, [[0, 1], [-1, 0]])
    assert classify_stability(diagonal).verdict == Verdict.STRICTLY_SEMISTABLE
    cusp = Correspondence.from_matrix(2, 1, [[1, 0], [0, 0], [0, 0]])
    assert classify_stability(cusp).verdict == Verdict.UNSTABLE

    rng = random.Random(1006)
    crosschecked = 0
    for _ in range(80):
        d, e = rng.randint(1, 3), rng.randint(1, 3)
        n = d + e
        if rng.random() < 0.5:
            f = rand_correspondence(rng, d, e)
        else:
            # bias the corpus toward planted instabilities at rational points
            p0, p1 = rng.choice([(1, 0), (0, 1), (1, 1), (2, 1), (1, -2)])
            form = rand_biform(rng, max(d - 1, 0), max(e - 1, 0))
            if form.is_zero():
                continue
            if d >= 1:
                form = form * BiForm(1, 0, [[p1], [-p0]])
            if e >= 1 and form.deg_y < e:
                form = form * BiForm(0, 1, [[p1, -p0]])
            if (form.deg_x, form.deg_y) != (d, e):
                continue
            f = Correspondence(form)
        res = classify_stability(f)
        if n % 2 == 1:
            assert res.verdict != Verdict.STRICTLY_SEMISTABLE
        if res.verdict == Verdict.UNSTABLE and not res.witness.is_zero():
            roots = [pt for pt, _ in rational_roots(res.witness)]
            if roots:
                q0, q1 = roots[0]
                g = MoebiusMap(1, q1, 0, q0) if q0 != 0 else MoebiusMap(0, 1, 1, 0)
                conj = conjugate(f, g).form
                for i in range(d + 1):
                    for j in range(e + 1):
                        if 2 * (i + j) <= n:
                            assert conj.coeffs[i][j] == 0
                crosschecked += 1
    assert crosschecked >= 5
    # planted vanishing patterns are unstable (converse direction)
    for _ in range(20):
        d, e = rng.randint(1, 3), rng.randint(1, 3)
        n = d + e
        rows = [
            [0 if 2 * (i + j) <= n else rng.randint(-9, 9) for j in range(e + 1)]
            for i in range(d + 1)
        ]
        rows[d][e] = rows[d][e] or 1
        assert classify_stability(Correspondence.from_matrix(d, e, rows)).verdict == Verdict.UNSTABLE
    report(6, "stability fixtures, odd-parity rule, coefficient-matrix cross-check")


def test_criterion_07_multiplier_oracle_agreement():
    fixture = conjugated_square_map()
    spectrum = sigma_spectrum(multiplier_form(fixture))
    assert spectrum.sigma == (1, 2, 0, 0)
    assert rational_fixed_point_oracle(fixture) == spectrum

    rng = random.Random(1007)
    corpus = [fixture] + [rand_split_map_graph(rng, rng.randint(1, 3)) for _ in range(20)]
    for f in corpus:
        assert sigma_spectrum(multiplier_form(f)) == rational_fixed_point_oracle(f)
    report(7, "resultant spectrum equals fixed-point oracle on 21 map graphs")


def test_criterion_08_index_theorem():
    rng = random.Random(1008)
    corpus = [conjugated_square_map()] + [
        rand_split_map_graph(rng, rng.randint(1, 3)) for _ in range(20)
    ]
    corpus += [rand_map_graph(rng, rng.randint(1, 4)) for _ in range(50)]
    for f in corpus:
        spectrum = sigma_spectrum(multiplier_form(f))
        assert index_residual(spectrum) == 0
    report(8, "index residual vanishes on 71 map-graph spectra, d <= 4")


def test_criterion_09_hyperplane_theorem():
    rng = random.Random(1009)
    for d, e in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        for _ in range(50):
            f = rand_good_position(rng, d, e)
            assert dz_coordinates(multiplier_form(f), d, e)[1] == 0
    report(9, "hyperplane residual vanishes, 50 instances per bidegree in 4 bidegrees")


def test_criterion_10_rho_compatibility():
    rng = random.Random(1010)
    for d, e in [(1, 3), (3, 1), (2, 3), (3, 2)]:
        for scale in [(1, 1), (2, 3), (F(-1, 2), 5)]:
            for _ in range(10):
                f = rand_good_position(rng, d, e)
                assert _projection_agrees(f, multiplier_form(f), scale)
    report(10, "projection commutes with the multiplier map, 10 instances x 3 scales x 4 bidegrees")


def test_criterion_11_woods_hole():
    assert woods_hole_resultant([-1, 0, 0, 1], [1]) == (27, 0, 0, 1)
    rng = random.Random(1011)
    for _ in range(100):
        df = rng.randint(3, 6)
        f = [F(rng.randint(-9, 9)) for _ in range(df)] + [F(rng.randint(1, 9))]
        g = [F(rng.randint(-9, 9)) for _ in range(rng.randint(0, df - 2) + 1)]
        assert woods_hole_resultant(f, g)[1] == 0
    report(11, "Woods Hole residual vanishes on 100 instances; cubic fixture gives t^3 + 27")


def test_criterion_12_verify_determinism():
    assert run_verify_suite(seed=9, degree_cap=2).text() == run_verify_suite(
        seed=9, degree_cap=2
    ).text()
    cmd = [sys.executable, "-m", "corrdyn", "verify", "--seed", "1", "--degree-cap", "2"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout and first.stdout
    report(12, "verify reports are byte-identical for a fixed seed")
