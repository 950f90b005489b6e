"""Seeded verification suite for every algebraic identity the library promises.

Each check draws its own deterministic corpus from the seed, so a single
check replayed via ``only=`` sees exactly the instances it saw inside the
full run; reports are byte-identical across runs with the same arguments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import clebsch, multiplier, serialization, stability
from .correspondence import (
    Correspondence,
    DegenerateComposition,
    MoebiusMap,
    compose,
    conjugate,
    moebius_graph,
)
from .forms import BiForm, BinaryForm, _convolve, _gcd_int, _int_scale, binary_gcd, rational_roots
from .resultant import covariant_resultant, homogeneous_resultant

# ---------------------------------------------------------------------------
# corpus generators (shared with the test-suite)


def rand_fraction(rng: random.Random, lo=-9, hi=9, nonzero=False) -> Fraction:
    while True:
        v = Fraction(rng.randint(lo, hi))
        if v != 0 or not nonzero:
            return v


def rand_binary_form(rng: random.Random, degree: int, nonzero=True) -> BinaryForm:
    while True:
        form = BinaryForm(degree, [rng.randint(-9, 9) for _ in range(degree + 1)])
        if not nonzero or not form.is_zero():
            return form


def rand_biform(rng: random.Random, d: int, e: int) -> BiForm:
    while True:
        form = BiForm(d, e, [[rng.randint(-9, 9) for _ in range(e + 1)] for _ in range(d + 1)])
        if not form.is_zero():
            return form


def rand_correspondence(rng: random.Random, d: int, e: int) -> Correspondence:
    return Correspondence(rand_biform(rng, d, e))


def rand_bidegree(rng: random.Random, cap: int) -> tuple[int, int]:
    return rng.randint(1, cap), rng.randint(1, cap)


def rand_moebius(rng: random.Random) -> MoebiusMap:
    while True:
        try:
            return MoebiusMap(*(rng.randint(-5, 5) for _ in range(4)))
        except ValueError:
            continue


def rand_planted_corner(rng: random.Random, d: int, e: int, k: int) -> Correspondence:
    """Random (d, e) correspondence of multiplicity exactly k at ([1:0], [1:0]), 0 <= k <= d+e."""
    rows = [[0 if i + j < k else rng.randint(-9, 9) for j in range(e + 1)] for i in range(d + 1)]
    i = rng.randint(max(0, k - e), min(d, k))
    rows[i][k - i] = rng.choice([-2, -1, 1, 3])
    return Correspondence.from_matrix(d, e, rows)


def rand_sl2_moebius(rng: random.Random) -> MoebiusMap:
    """Random determinant-one map, as a product of rational shears."""
    x, y, z = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
    return MoebiusMap(1, x, 0, 1) * MoebiusMap(1, 0, y, 1) * MoebiusMap(1, z, 0, 1)


def rand_invertible_matrix(rng: random.Random):
    while True:
        m = ((rand_fraction(rng, -5, 5), rand_fraction(rng, -5, 5)),
             (rand_fraction(rng, -5, 5), rand_fraction(rng, -5, 5)))
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
            return m


def rand_good_position(rng: random.Random, d: int, e: int) -> Correspondence:
    """Random (d, e) correspondence on which the multiplier form is defined."""
    while True:
        f = rand_correspondence(rng, d, e)
        try:
            multiplier.multiplier_form(f)
            return f
        except ValueError:
            continue


def _map_graph_in_good_position(p: list, q: list) -> Correspondence | None:
    """The (d, 1) graph y*Q(x) - P(x) of ascending P, Q with d = deg Q, or None.

    None unless P(0) != 0, gcd(P, Q) = 1 and the multiplier form is defined.
    """
    if p[0] == 0 or len(_gcd_int(_int_scale(p)[0], _int_scale(q)[0])) > 1:
        return None
    d = len(q) - 1
    f = Correspondence.from_matrix(d, 1, [[-p[i], q[i]] for i in range(d + 1)])
    try:
        multiplier.multiplier_form(f)
    except ValueError:
        return None
    return f


def rand_map_graph(rng: random.Random, d: int) -> Correspondence:
    """Graph of a random degree-d rational map, in good position.

    The defining form is y*Q(x) - P(x) with coprime P, Q, Q monic of degree d
    and P(0) != 0, so no fixed point sits at 0 or infinity.
    """
    while True:
        p = [Fraction(rng.randint(-9, 9)) for _ in range(d + 1)]
        q = [Fraction(rng.randint(-9, 9)) for _ in range(d)] + [Fraction(1)]
        f = _map_graph_in_good_position(p, q)
        if f is not None:
            return f


_POINT_POOL = [Fraction(n) for n in range(-9, 10) if n] + [
    Fraction(n, 2) for n in range(-9, 10, 2) if n
] + [Fraction(n, 3) for n in (-8, -7, -5, -4, -2, -1, 1, 2, 4, 5, 7, 8)]


def rand_split_map_graph(rng: random.Random, d: int) -> Correspondence:
    """Graph of a degree-d map with d+1 distinct rational fixed points.

    Fixed points are planted: with N monic vanishing on the chosen points and
    Q monic of degree d, the map P/Q with P = z*Q - N has fixed point form
    exactly N.  Retries until the multiplier preconditions hold.
    """
    while True:
        pts = rng.sample(_POINT_POOL, d + 1)
        # monic product prod (z - pt), ascending
        n_poly = [Fraction(1)]
        for pt in pts:
            n_poly = _convolve(n_poly, [-pt, Fraction(1)])
        q = [Fraction(rng.randint(-6, 6)) for _ in range(d)] + [Fraction(1)]
        if any(sum(c * pt**k for k, c in enumerate(q)) == 0 for pt in pts):
            continue
        zq = [Fraction(0)] + q
        p = [zq[k] - n_poly[k] for k in range(d + 1)]
        if zq[d + 1] != n_poly[d + 1]:
            continue
        f = _map_graph_in_good_position(p, q)
        if f is None:
            continue
        try:
            multiplier.rational_fixed_point_oracle(f)
            return f
        except ValueError:
            continue


def conjugated_square_map() -> Correspondence:
    """Graph of z -> z^2 moved into good position; fixed points 1/2, 2/3, 1."""
    square = Correspondence.from_matrix(2, 1, [[0, -1], [0, 0], [1, 0]])
    h = MoebiusMap(1, 1, 1, 2)
    return conjugate(square, h.inverse())


# ---------------------------------------------------------------------------
# check harness


@dataclass
class CheckResult:
    """The per-instance verdicts of one identity."""

    name: str
    total: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, describe):
        self.total += 1
        if not ok:
            self.failures.append(f"instance {self.total}: {describe()}")


@dataclass
class VerifyReport:
    seed: int
    degree_cap: int
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def text(self) -> str:
        lines = ["corrdyn identity verification", f"seed={self.seed} degree-cap={self.degree_cap}"]
        for r in self.results:
            repro = f"corrdyn verify --seed {self.seed} --degree-cap {self.degree_cap} --only {r.name}"
            if r.passed:
                lines.append(f"PASS {r.name} ({r.total} instances) :: {repro}")
            else:
                lines.append(
                    f"FAIL {r.name} ({r.total - len(r.failures)}/{r.total} instances) :: {repro}"
                )
                lines.extend(f"    {msg}" for msg in r.failures)
        good = sum(1 for r in self.results if r.passed)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({good}/{len(self.results)} identities hold)")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the identity checks


def _check_biform_homogeneity(rng, cap, c: CheckResult):
    for _ in range(12):
        d, e = rand_bidegree(rng, cap)
        f = rand_biform(rng, d, e)
        t = rand_fraction(rng, nonzero=True)
        p = tuple(rand_fraction(rng) for _ in range(4))
        base = f.evaluate(p)
        sx = f.evaluate((t * p[0], t * p[1], p[2], p[3]))
        sy = f.evaluate((p[0], p[1], t * p[2], t * p[3]))
        c.record(sx == t**d * base and sy == t**e * base, lambda: f"f={f!r} t={t} p={p}")


def _check_diagonal_linearity(rng, cap, c: CheckResult):
    for _ in range(12):
        d, e = rand_bidegree(rng, cap)
        f, g = rand_biform(rng, d, e), rand_biform(rng, d, e)
        a, b = rand_fraction(rng), rand_fraction(rng)
        lin = (f.scale(a) + g.scale(b)).diagonal_restriction() == (
            f.diagonal_restriction().scale(a) + g.diagonal_restriction().scale(b)
        )
        z0, z1 = rand_fraction(rng), rand_fraction(rng)
        point = f.diagonal_restriction().evaluate(z0, z1) == f.evaluate((z0, z1, z0, z1))
        c.record(lin and point, lambda: f"f={f!r} g={g!r}")


def _check_mixed_partial_commutation(rng, cap, c: CheckResult):
    for _ in range(12):
        d, e = rand_bidegree(rng, cap)
        f = rand_biform(rng, d, e)
        stepwise = f.mixed_partial((1, 0, 0, 0)).mixed_partial((0, 1, 0, 0))
        direct = f.mixed_partial((1, 1, 0, 0))
        other = f.mixed_partial((0, 0, 1, 0)).mixed_partial((1, 0, 0, 1))
        direct2 = f.mixed_partial((1, 0, 1, 1))
        c.record(stepwise == direct and other == direct2, lambda: f"f={f!r}")


def _check_gcd_divides(rng, cap, c: CheckResult):
    for _ in range(12):
        shared = rand_binary_form(rng, rng.randint(1, cap))
        inputs = [rand_binary_form(rng, rng.randint(0, cap)) * shared for _ in range(3)]
        if rng.random() < 0.3:
            inputs.append(BinaryForm.zero(rng.randint(0, cap)))
        g = binary_gcd(inputs)
        ok = not g.is_zero()
        for h in inputs:
            if h.is_zero():
                continue
            try:
                ok = ok and h.divide_exact(g) * g == h
            except ValueError:
                ok = False
        try:
            ok = ok and g.divide_exact(shared.primitive_normalized()) is not None
        except ValueError:
            ok = False
        c.record(ok, lambda: f"inputs={inputs!r}")


def _check_substitution_composition(rng, cap, c: CheckResult):
    for _ in range(12):
        f = rand_binary_form(rng, rng.randint(1, cap + 1))
        m, n = rand_invertible_matrix(rng), rand_invertible_matrix(rng)
        prod = (
            (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
            (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
        )
        c.record(
            f.substitute_linear(m).substitute_linear(n) == f.substitute_linear(prod),
            lambda: f"f={f!r} m={m} n={n}",
        )


def _check_resultant_equivariance(rng, cap, c: CheckResult):
    for _ in range(12):
        df, dg = rng.randint(1, cap + 1), rng.randint(1, cap + 1)
        f, g = rand_binary_form(rng, df), rand_binary_form(rng, dg)
        m = rand_invertible_matrix(rng)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        lhs = homogeneous_resultant(f.substitute_linear(m), g.substitute_linear(m))
        rhs = det ** (df * dg) * homogeneous_resultant(f, g)
        c.record(lhs == rhs, lambda: f"f={f!r} g={g!r} m={m}")


def _check_resultant_multiplicativity(rng, cap, c: CheckResult):
    for _ in range(12):
        f = rand_binary_form(rng, rng.randint(1, cap))
        g = rand_binary_form(rng, rng.randint(1, cap))
        h = rand_binary_form(rng, rng.randint(1, cap))
        lhs = homogeneous_resultant(f, g * h)
        rhs = homogeneous_resultant(f, g) * homogeneous_resultant(f, h)
        c.record(lhs == rhs, lambda: f"f={f!r} g={g!r} h={h!r}")


def _check_resultant_common_factor(rng, cap, c: CheckResult):
    for k in range(14):
        if k % 2 == 0:
            shared = rand_binary_form(rng, rng.randint(1, cap))
            f = rand_binary_form(rng, rng.randint(0, cap)) * shared
            g = rand_binary_form(rng, rng.randint(0, cap)) * shared
        else:
            f = rand_binary_form(rng, rng.randint(1, cap + 1))
            g = rand_binary_form(rng, rng.randint(1, cap + 1))
        vanish = homogeneous_resultant(f, g) == 0
        common = binary_gcd([f, g]).degree >= 1
        c.record(vanish == common, lambda: f"f={f!r} g={g!r}")


def _check_shift_invariance(rng, cap, c: CheckResult):
    for _ in range(12):
        d = rng.randint(0, cap)
        e = rng.randint(d, cap + 1)
        f = [rand_fraction(rng) for _ in range(d + 1)]
        g = [rand_fraction(rng) for _ in range(e + 1)]
        a = rand_fraction(rng)
        # Row reduction: g + a*f keeps g's declared degree e >= d.
        shifted = [v + a * u for u, v in zip(f + [0] * (e - d), g)]
        fd = BinaryForm(d, f)
        same = homogeneous_resultant(fd, BinaryForm(e, g)) == homogeneous_resultant(
            fd, BinaryForm(e, shifted)
        )
        c.record(same, lambda: f"f={f} g={g} a={a}")


def _check_covariant_specialization(rng, cap, c: CheckResult):
    for _ in range(10):
        n = rng.randint(1, cap + 1)
        f = rand_binary_form(rng, n)
        p = rand_binary_form(rng, n, nonzero=False)
        q = rand_binary_form(rng, n, nonzero=False)
        r = covariant_resultant(f, p, q)
        t, u = rand_fraction(rng), rand_fraction(rng)
        pencil = BinaryForm(n, [t * a + u * b for a, b in zip(p.coeffs, q.coeffs)])
        ok = (
            r.evaluate(1, 0) == homogeneous_resultant(f, q)
            and r.evaluate(0, 1) == homogeneous_resultant(f, p)
            and r.evaluate(u, t) == homogeneous_resultant(f, pencil)
        )
        c.record(ok, lambda: f"f={f!r} p={p!r} q={q!r}")


def _nondegenerate_pair(rng, cap):
    while True:
        f = rand_correspondence(rng, *rand_bidegree(rng, cap))
        g = rand_correspondence(rng, *rand_bidegree(rng, cap))
        try:
            return f, g, compose(f, g)
        except DegenerateComposition:
            continue


def _check_composition_bidegree(rng, cap, c: CheckResult):
    for _ in range(10):
        f, g, h = _nondegenerate_pair(rng, min(cap, 2))
        want = (f.deg_x * g.deg_x, f.deg_y * g.deg_y)
        c.record(h.bidegree == want, lambda: f"f={f!r} g={g!r}")


def _check_composition_associativity(rng, cap, c: CheckResult):
    for _ in range(8):
        while True:
            f = rand_correspondence(rng, *rand_bidegree(rng, 2))
            g = rand_correspondence(rng, *rand_bidegree(rng, 2))
            h = rand_correspondence(rng, *rand_bidegree(rng, 2))
            try:
                lhs = compose(compose(f, g), h)
                rhs = compose(f, compose(g, h))
                break
            except DegenerateComposition:
                continue
        c.record(lhs.projectively_equal(rhs), lambda: f"f={f!r} g={g!r} h={h!r}")


def _check_moebius_graph_composition(rng, cap, c: CheckResult):
    for _ in range(12):
        g, h = rand_moebius(rng), rand_moebius(rng)
        composite = compose(moebius_graph(g), moebius_graph(h))
        c.record(
            composite.projectively_equal(moebius_graph(h * g)),
            lambda: f"g={g!r} h={h!r}",
        )


def _check_conjugation_action_law(rng, cap, c: CheckResult):
    for _ in range(10):
        f = rand_correspondence(rng, *rand_bidegree(rng, cap))
        g, h = rand_moebius(rng), rand_moebius(rng)
        lhs = conjugate(f, g * h)
        rhs = conjugate(conjugate(f, g), h)
        c.record(lhs.projectively_equal(rhs), lambda: f"f={f!r} g={g!r} h={h!r}")


def _check_conjugation_diagonal(rng, cap, c: CheckResult):
    for _ in range(10):
        f = rand_correspondence(rng, *rand_bidegree(rng, cap))
        g = rand_moebius(rng)
        lhs = conjugate(f, g).form.diagonal_restriction()
        rhs = f.form.diagonal_restriction().substitute_linear(g.coordinate_matrix())
        c.record(lhs == rhs, lambda: f"f={f!r} g={g!r}")


def _check_cayley_linearity(rng, cap, c: CheckResult):
    for _ in range(10):
        d, e = rand_bidegree(rng, cap)
        f, g = rand_biform(rng, d, e), rand_biform(rng, d, e)
        a, b = rand_fraction(rng), rand_fraction(rng)
        m = rng.randint(0, min(d, e))
        lhs = clebsch.cayley_omega(f.scale(a) + g.scale(b), m)
        rhs = clebsch.cayley_omega(f, m).scale(a) + clebsch.cayley_omega(g, m).scale(b)
        c.record(lhs == rhs, lambda: f"f={f!r} g={g!r} m={m}")


def _check_cayley_explicit(rng, cap, c: CheckResult):
    for d in range(1, min(cap, 5) + 1):
        for e in range(1, min(cap, 5) + 1):
            for m in range(min(d, e) + 1):
                got = clebsch.cayley_omega(BiForm.monomial(d, e, 0, m), m)
                want = BinaryForm.monomial(
                    d + e - 2 * m,
                    0,
                    Fraction(math.factorial(d) * math.factorial(m), math.factorial(d - m)),
                )
                c.record(got == want, lambda: f"(d,e,m)=({d},{e},{m})")


def _check_cg_roundtrip(rng, cap, c: CheckResult):
    for _ in range(12):
        d, e = rand_bidegree(rng, min(cap, 5))
        f = rand_biform(rng, d, e)
        comp = clebsch.cg_decompose(f)
        ok = clebsch.cg_reconstruct(comp) == f
        parts = tuple(
            rand_binary_form(rng, d + e - 2 * m, nonzero=False) for m in range(min(d, e) + 1)
        )
        comp2 = clebsch.CgComponents(d, e, parts)
        ok = ok and clebsch.cg_decompose(clebsch.cg_reconstruct(comp2)) == comp2
        c.record(ok, lambda: f"f={f!r}")


def _check_omega0_equivariance(rng, cap, c: CheckResult):
    for _ in range(10):
        d, e = rand_bidegree(rng, cap)
        f = rand_correspondence(rng, d, e)
        g = rand_moebius(rng)
        lhs = clebsch.cayley_omega(conjugate(f, g).form, 0)
        rhs = clebsch.cayley_omega(f.form, 0).substitute_linear(g.coordinate_matrix())
        c.record(lhs == rhs, lambda: f"f={f!r} g={g!r}")


def _check_torus_weight_scaling(rng, cap, c: CheckResult):
    for _ in range(8):
        d, e = rand_bidegree(rng, cap)
        f = rand_correspondence(rng, d, e)
        t = Fraction(rng.choice([2, 3, 5, -2, -3]), rng.choice([1, 1, 1, 2]))
        g = MoebiusMap(1 / t, 0, 0, t)
        conj = conjugate(f, g).form
        ok = all(
            conj.coeffs[i][j] == t ** (d + e - 2 * (i + j)) * f.form.coeffs[i][j]
            for i in range(d + 1)
            for j in range(e + 1)
        )
        c.record(ok, lambda: f"f={f!r} t={t}")


def _planted_instance(rng, cap, moved: bool, unstable=False) -> Correspondence:
    """rand_planted_corner at a random order (above (d+e)/2 if unstable), moved if moved."""
    d, e = rand_bidegree(rng, cap)
    n = d + e
    f = rand_planted_corner(rng, d, e, rng.randint(n // 2 + 1 if unstable else 0, n))
    return conjugate(f, rand_moebius(rng)) if moved else f


def _check_stability_conjugation(rng, cap, c: CheckResult):
    # Conjugation moves diagonal points along the diagonal and keeps their
    # multiplicities, so the verdict and the largest multiplicity stay.
    for k in range(10):
        f = _planted_instance(rng, cap, k % 2 == 1)
        g = rand_moebius(rng)
        lhs = stability.classify_stability(f)
        rhs = stability.classify_stability(conjugate(f, g))
        same = (lhs.verdict, lhs.max_multiplicity) == (rhs.verdict, rhs.max_multiplicity)
        c.record(same, lambda: f"f={f!r} g={g!r}")


def _check_stability_odd_parity(rng, cap, c: CheckResult):
    for _ in range(12):
        while True:
            d, e = rand_bidegree(rng, cap)
            if (d + e) % 2 == 1:
                break
        f = rand_correspondence(rng, d, e)
        verdict = stability.classify_stability(f).verdict
        c.record(verdict != stability.Verdict.STRICTLY_SEMISTABLE, lambda: f"f={f!r}")


def _check_stability_matrix_crosscheck(rng, cap, c: CheckResult):
    # A point of multiplicity above (d+e)/2 makes f Unstable; it is the one
    # root of the witness, and moving it to [1:0] clears every a_ij with
    # 2(i+j) <= d+e.
    for k in range(10):
        f = _planted_instance(rng, cap, k % 2 == 1, unstable=True)
        d, e = f.bidegree
        res = stability.classify_stability(f)
        unstable = res.verdict == stability.Verdict.UNSTABLE and not res.witness.is_zero()
        pts = [pt for pt, _ in rational_roots(res.witness)] if unstable else []
        ok = len(pts) == 1
        if ok:
            p0, p1 = pts[0]
            g = MoebiusMap(1, p1, 0, p0) if p0 != 0 else MoebiusMap(0, 1, 1, 0)
            conj = conjugate(f, g).form
            ok = all(
                conj.coeffs[i][j] == 0
                for i in range(d + 1)
                for j in range(e + 1)
                if 2 * (i + j) <= d + e
            )
        c.record(ok, lambda: f"f={f!r} witness={res.witness!r}")


def _check_multiplicity_monotonicity(rng, cap, c: CheckResult):
    # Once "some diagonal point has multiplicity >= m" fails it fails for every
    # larger m: the premise of classify_stability's bisection.
    for k in range(8):
        f = _planted_instance(rng, cap, k % 2 == 1)
        d, e = f.bidegree
        flags = [
            stability.diagonal_multiplicity_at_least(f, m)[0] for m in range(1, d + e + 1)
        ]
        ok = all(not later or earlier for earlier, later in zip(flags, flags[1:]))
        c.record(ok, lambda: f"f={f!r} flags={flags}")


def _check_derivative_relations(rng, cap, c: CheckResult):
    for _ in range(10):
        d, e = rand_bidegree(rng, cap)
        f = rand_correspondence(rng, d, e)
        dd = multiplier.diagonal_derivative_forms(f)
        n = d + e
        # The dz0 and dz1 coefficients of the slope covector (module docstring
        # of multiplier): Euler weights of the fixed point form, and the first
        # Cayley power shifted by z0*z1.
        dz0_part = dd.diag_x + dd.diag_y
        dz1_part = (dd.diag_x.scale(e) - dd.diag_y.scale(d)).scale(Fraction(1, 2))
        shifted = BinaryForm(n, [0] + list(clebsch.cayley_omega(f.form, 1).coeffs) + [0])
        ok = all(dz0_part.coeffs[k] == (n - 2 * k) * dd.diag.coeffs[k] for k in range(n + 1))
        ok = ok and dz1_part == shifted
        x1 = BiForm(1, 0, [[0], [1]])
        x0 = BiForm(1, 0, [[1], [0]])
        direct = (
            (x1 * f.form.mixed_partial((0, 1, 0, 0))) - (x0 * f.form.mixed_partial((1, 0, 0, 0)))
        ).diagonal_restriction()
        ok = ok and direct == -dd.diag_x
        c.record(ok, lambda: f"f={f!r}")


def _check_spectrum_conjugation(rng, cap, c: CheckResult):
    for _ in range(8):
        # An infinite multiplier stays infinite under every conjugation, so
        # such an f is redrawn rather than conjugated forever.
        while True:
            f = rand_good_position(rng, rng.randint(1, 2), rng.randint(1, 2))
            try:
                lhs = multiplier.sigma_spectrum(multiplier.multiplier_form(f))
                break
            except multiplier.IndeterminateMultiplier:
                continue
        while True:
            g = rand_moebius(rng)
            h = conjugate(f, g)
            try:
                rhs = multiplier.sigma_spectrum(multiplier.multiplier_form(h))
                break
            except ValueError:
                continue
        c.record(lhs == rhs, lambda: f"f={f!r} g={g!r}")


def _check_oracle_agreement(rng, cap, c: CheckResult):
    instances = [conjugated_square_map()] + [
        rand_split_map_graph(rng, rng.randint(1, min(cap, 3))) for _ in range(7)
    ]
    for f in instances:
        got = multiplier.sigma_spectrum(multiplier.multiplier_form(f))
        want = multiplier.rational_fixed_point_oracle(f)
        c.record(got == want, lambda: f"f={f!r}")


def _check_invariant_coefficients(rng, cap, c: CheckResult):
    for _ in range(8):
        f = rand_good_position(rng, rng.randint(1, 2), rng.randint(1, 2))
        d, e = f.bidegree
        while True:
            g = rand_sl2_moebius(rng)
            h = conjugate(f, g)
            try:
                rh = multiplier.multiplier_form(h)
                break
            except ValueError:
                continue
        rf = multiplier.multiplier_form(f)
        nf = f.form.coeffs[0][0] * f.form.coeffs[d][e]
        nh = h.form.coeffs[0][0] * h.form.coeffs[d][e]
        ok = tuple(x / nf for x in rf.coeffs) == tuple(x / nh for x in rh.coeffs)
        c.record(ok, lambda: f"f={f!r} g={g!r}")


def _check_hyperplane(rng, cap, c: CheckResult):
    plan = [(1, 2), (2, 2)] + [rand_bidegree(rng, min(cap, 3)) for _ in range(4)]
    for d, e in plan:
        f = rand_good_position(rng, d, e)
        residual = multiplier.dz_coordinates(multiplier.multiplier_form(f), d, e)[1]
        c.record(residual == 0, lambda: f"f={f!r}")


def _check_index(rng, cap, c: CheckResult):
    for _ in range(8):
        f = rand_map_graph(rng, rng.randint(1, min(cap + 1, 4)))
        spectrum = multiplier.sigma_spectrum(multiplier.multiplier_form(f))
        c.record(multiplier.index_residual(spectrum) == 0, lambda: f"f={f!r}")


def _check_woods_hole(rng, cap, c: CheckResult):
    for _ in range(12):
        df = rng.randint(3, 6)
        f = [rand_fraction(rng) for _ in range(df)] + [rand_fraction(rng, nonzero=True)]
        g = [rand_fraction(rng) for _ in range(rng.randint(0, df - 2) + 1)]
        c.record(multiplier.woods_hole_resultant(f, g)[1] == 0, lambda: f"f={f} g={g}")


def _check_serialization_roundtrip(rng, cap, c: CheckResult):
    for _ in range(10):
        d, e = rand_bidegree(rng, cap)
        rows = [
            [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(e + 1)]
            for _ in range(d + 1)
        ]
        if all(v == 0 for row in rows for v in row):
            rows[0][0] = Fraction(1)
        f = Correspondence.from_matrix(d, e, rows)
        text = serialization.serialize_correspondence(f)
        back = serialization.parse_correspondence(text)
        ok = back.form == f.form and serialization.serialize_correspondence(back) == text
        c.record(ok, lambda: f"f={f!r}")


CHECKS = [
    ("biform-homogeneity", _check_biform_homogeneity),
    ("diagonal-restriction-linearity", _check_diagonal_linearity),
    ("mixed-partial-commutation", _check_mixed_partial_commutation),
    ("gcd-divides-inputs", _check_gcd_divides),
    ("substitution-composition", _check_substitution_composition),
    ("resultant-equivariance", _check_resultant_equivariance),
    ("resultant-multiplicativity", _check_resultant_multiplicativity),
    ("resultant-common-factor", _check_resultant_common_factor),
    ("resultant-shift-invariance", _check_shift_invariance),
    ("covariant-specialization", _check_covariant_specialization),
    ("composition-bidegree", _check_composition_bidegree),
    ("composition-associativity", _check_composition_associativity),
    ("moebius-graph-composition", _check_moebius_graph_composition),
    ("conjugation-action-law", _check_conjugation_action_law),
    ("conjugation-diagonal-equivariance", _check_conjugation_diagonal),
    ("cayley-linearity", _check_cayley_linearity),
    ("cayley-explicit-monomial", _check_cayley_explicit),
    ("cg-roundtrip", _check_cg_roundtrip),
    ("omega0-conjugation-equivariance", _check_omega0_equivariance),
    ("torus-weight-scaling", _check_torus_weight_scaling),
    ("stability-conjugation-invariance", _check_stability_conjugation),
    ("stability-odd-parity", _check_stability_odd_parity),
    ("stability-matrix-crosscheck", _check_stability_matrix_crosscheck),
    ("multiplicity-monotonicity", _check_multiplicity_monotonicity),
    ("derivative-linear-relations", _check_derivative_relations),
    ("spectrum-conjugation-invariance", _check_spectrum_conjugation),
    ("multiplier-oracle-agreement", _check_oracle_agreement),
    ("invariant-normalized-coefficients", _check_invariant_coefficients),
    ("hyperplane-residual", _check_hyperplane),
    ("index-residual", _check_index),
    ("woods-hole-residual", _check_woods_hole),
    ("serialization-roundtrip", _check_serialization_roundtrip),
]

CHECK_NAMES = [name for name, _ in CHECKS]


def run_verify_suite(seed: int, degree_cap: int, only: str | None = None) -> VerifyReport:
    """Run the identity suite; deterministic in (seed, degree_cap, only)."""
    if degree_cap < 2:
        raise ValueError("degree cap must be at least 2")
    if only is not None and only not in CHECK_NAMES:
        raise ValueError(f"unknown identity {only!r}; choose from {', '.join(CHECK_NAMES)}")
    results = []
    for name, runner in CHECKS:
        if only is not None and name != only:
            continue
        rng = random.Random(f"{seed}/{name}")
        check = CheckResult(name)
        runner(rng, degree_cap, check)
        results.append(check)
    return VerifyReport(seed, degree_cap, results)
