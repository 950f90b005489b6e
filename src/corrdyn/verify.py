"""Seeded verification suite for every algebraic identity the library promises.

Each check draws its own deterministic corpus from the seed, so a single
check replayed via ``only=`` sees exactly the instances it saw inside the
full run; reports are byte-identical across runs with the same arguments.
An input is redrawn only when a documented precondition rejects it, at most
_MAX_DRAWS times.  An identity that raises, or finds no valid input within
that bound, is a failed instance naming the exception, and the run goes on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from . import clebsch, multiplier, serialization, stability
from .correspondence import (
    Correspondence,
    MoebiusMap,
    _PreconditionError,
    compose,
    conjugate,
    moebius_graph,
)
from .forms import BiForm, BinaryForm, binary_gcd, rational_roots
from .resultant import covariant_resultant, homogeneous_resultant

# ---------------------------------------------------------------------------
# corpus generators (shared with the test-suite)

# Tries per drawn input.  A correct library needs few: at most 18 (an odd d+e)
# over verify seeds 1-400 at caps 2-5, and 5 in any generator.
_MAX_DRAWS = 1000


def _draw_until(draw, accept=lambda value: True):
    """The first draw() that accept takes, within _MAX_DRAWS tries.

    A false accept(value), or a _PreconditionError (BadPosition,
    DegenerateComposition, IndeterminateMultiplier) from either call, rejects
    the draw.  Any other error, and the RuntimeError of running out, passes
    through enclosing draws.
    """
    for _ in range(_MAX_DRAWS):
        try:
            value = draw()
            if accept(value):
                return value
        except _PreconditionError:
            pass
    raise RuntimeError(f"no valid input in {_MAX_DRAWS} draws")


def rand_fraction(rng: random.Random, lo=-9, hi=9, nonzero=False) -> Fraction:
    return _draw_until(lambda: Fraction(rng.randint(lo, hi)), lambda v: v != 0 or not nonzero)


def rand_binary_form(rng: random.Random, degree: int, nonzero=True) -> BinaryForm:
    return _draw_until(
        lambda: BinaryForm(degree, [rng.randint(-9, 9) for _ in range(degree + 1)]),
        lambda form: not nonzero or not form.is_zero(),
    )


def rand_biform(rng: random.Random, d: int, e: int) -> BiForm:
    return _draw_until(
        lambda: BiForm(d, e, [[rng.randint(-9, 9) for _ in range(e + 1)] for _ in range(d + 1)]),
        lambda form: not form.is_zero(),
    )


def rand_correspondence(rng: random.Random, d: int, e: int) -> Correspondence:
    return Correspondence(rand_biform(rng, d, e))


def rand_bidegree(rng: random.Random, cap: int) -> tuple[int, int]:
    return rng.randint(1, cap), rng.randint(1, cap)


def rand_moebius(rng: random.Random) -> MoebiusMap:
    a, b, c, d = _draw_until(
        lambda: [rng.randint(-5, 5) for _ in range(4)], lambda v: v[0] * v[3] != v[1] * v[2]
    )
    return MoebiusMap(a, b, c, d)


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
    return _draw_until(
        lambda: ((rand_fraction(rng, -5, 5), rand_fraction(rng, -5, 5)),
                 (rand_fraction(rng, -5, 5), rand_fraction(rng, -5, 5))),
        lambda m: m[0][0] * m[1][1] != m[0][1] * m[1][0],
    )


def _draw_with_form(draw) -> tuple[Correspondence, BinaryForm]:
    """The first draw() f that is not None and has a multiplier form, with that form."""
    def pair():
        f = draw()
        return f, None if f is None else multiplier.multiplier_form(f)

    return _draw_until(pair, lambda v: v[0] is not None)


def _good_position(rng: random.Random, d: int, e: int) -> tuple[Correspondence, BinaryForm]:
    return _draw_with_form(lambda: rand_correspondence(rng, d, e))


def rand_good_position(rng: random.Random, d: int, e: int) -> Correspondence:
    """Random (d, e) correspondence on which the multiplier form is defined."""
    return _good_position(rng, d, e)[0]


def _map_graph(p: list, q: list) -> Correspondence | None:
    """The (d, 1) graph y*Q(x) - P(x) of ascending P, Q with d = deg Q, or None.

    None unless P(0) != 0 and gcd(P, Q) = 1.  Q is monic, so the forms of
    degree d share no power of z0 or z1.
    """
    d = len(q) - 1
    if p[0] == 0 or binary_gcd([BinaryForm(d, p), BinaryForm(d, q)]).degree:
        return None
    return Correspondence.from_matrix(d, 1, [[-p[i], q[i]] for i in range(d + 1)])


def _map_graph_in_position(rng: random.Random, d: int) -> tuple[Correspondence, BinaryForm]:
    return _draw_with_form(
        lambda: _map_graph(
            [Fraction(rng.randint(-9, 9)) for _ in range(d + 1)],
            [Fraction(rng.randint(-9, 9)) for _ in range(d)] + [Fraction(1)],
        )
    )


def rand_map_graph(rng: random.Random, d: int) -> Correspondence:
    """Graph of a random degree-d rational map, in good position.

    The defining form is y*Q(x) - P(x) with coprime P, Q, Q monic of degree d
    and P(0) != 0, so no fixed point sits at 0 or infinity.
    """
    return _map_graph_in_position(rng, d)[0]


_POINT_POOL = [Fraction(n) for n in range(-9, 10) if n] + [
    Fraction(n, 2) for n in range(-9, 10, 2) if n
] + [Fraction(n, 3) for n in (-8, -7, -5, -4, -2, -1, 1, 2, 4, 5, 7, 8)]


def _split_map_graph(
    rng: random.Random, d: int
) -> tuple[Correspondence, BinaryForm, multiplier.MultiplierSpectrum]:
    """rand_split_map_graph's draw with its multiplier form and the oracle spectrum that took it."""
    def draw():
        pts = rng.sample(_POINT_POOL, d + 1)
        # monic product prod (z - pt), ascending
        n_poly = math.prod((BinaryForm(1, [-pt, 1]) for pt in pts), start=BinaryForm(0, [1])).coeffs
        q = [Fraction(rng.randint(-6, 6)) for _ in range(d)] + [Fraction(1)]
        if any(BinaryForm(d, q).evaluate(1, pt) == 0 for pt in pts):
            return None
        f = _map_graph([(q[k - 1] if k else 0) - n_poly[k] for k in range(d + 1)], q)
        if f is None:
            return None
        return f, multiplier.multiplier_form(f), multiplier.rational_fixed_point_oracle(f)

    return _draw_until(draw, lambda v: v is not None)


def rand_split_map_graph(rng: random.Random, d: int) -> Correspondence:
    """Graph of a degree-d map with d+1 distinct rational fixed points.

    Fixed points are planted: with N monic vanishing on the chosen points and
    Q monic of degree d, the map P/Q with P = z*Q - N has fixed point form
    exactly N.  Redraws until the multiplier preconditions hold.
    """
    return _split_map_graph(rng, d)[0]


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
            ok = ok and g.divide_exact(shared) is not None
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
    def draw():
        f = rand_correspondence(rng, *rand_bidegree(rng, cap))
        g = rand_correspondence(rng, *rand_bidegree(rng, cap))
        return f, g, compose(f, g)

    return _draw_until(draw)


def _check_composition_bidegree(rng, cap, c: CheckResult):
    for _ in range(10):
        f, g, h = _nondegenerate_pair(rng, min(cap, 2))
        want = (f.deg_x * g.deg_x, f.deg_y * g.deg_y)
        c.record(h.bidegree == want, lambda: f"f={f!r} g={g!r}")


def _check_composition_associativity(rng, cap, c: CheckResult):
    def draw():
        f, g, h = (rand_correspondence(rng, *rand_bidegree(rng, 2)) for _ in range(3))
        return f, g, h, compose(compose(f, g), h), compose(f, compose(g, h))

    for _ in range(8):
        f, g, h, lhs, rhs = _draw_until(draw)
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


def _check_conjugation_equivariance(restrict, rng, cap, c: CheckResult):
    """restrict(conjugate(f, g)) is restrict(f) moved by g's coordinate matrix."""
    for _ in range(10):
        f = rand_correspondence(rng, *rand_bidegree(rng, cap))
        g = rand_moebius(rng)
        lhs = restrict(conjugate(f, g).form)
        rhs = restrict(f.form).substitute_linear(g.coordinate_matrix())
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
    # For odd d+e a planted point of multiplicity k > (d+e)/2 makes f Unstable,
    # and k is the largest multiplicity: a (1, 1) curve through it and any
    # other diagonal point meets f in d+e points, so that point has fewer than k.
    for i in range(12):
        d, e = _draw_until(lambda: rand_bidegree(rng, cap), lambda de: sum(de) % 2 == 1)
        k = rng.randint((d + e) // 2 + 1, d + e)
        f = rand_planted_corner(rng, d, e, k)
        if i % 2 == 1:
            f = conjugate(f, rand_moebius(rng))
        res = stability.classify_stability(f)
        c.record(
            (res.verdict, res.max_multiplicity) == (stability.Verdict.UNSTABLE, k),
            lambda: f"f={f!r} k={k}",
        )


def _check_stability_matrix_crosscheck(rng, cap, c: CheckResult):
    # A point of multiplicity above (d+e)/2 makes f Unstable; it is the one
    # root of the witness, a root of f(z, z) of at least that multiplicity
    # unless f(z, z) vanishes, and moving it to [1:0] clears every a_ij with
    # 2(i+j) <= d+e.
    for k in range(10):
        f = _planted_instance(rng, cap, k % 2 == 1, unstable=True)
        d, e = f.bidegree
        res = stability.classify_stability(f)
        unstable = res.verdict == stability.Verdict.UNSTABLE and not res.witness.is_zero()
        pts = [pt for pt, _ in rational_roots(res.witness)] if unstable else []
        ok = len(pts) == 1
        if ok:
            diag = f.form.diagonal_restriction()
            ok = diag.is_zero() or dict(rational_roots(diag)).get(pts[0], 0) >= res.max_multiplicity
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
    # larger m: the premise of the scan's stop at the first miss.
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


def _check_conjugation_invariance(draw_moebius, invariant, rng, cap, c: CheckResult):
    """invariant(f, r), r the multiplier form of f, is the same at f and at conjugate(f, g)."""
    def draw_f():
        f, r = _good_position(rng, rng.randint(1, 2), rng.randint(1, 2))
        return f, invariant(f, r)

    def draw_g():
        g = draw_moebius(rng)
        h = conjugate(f, g)
        return g, invariant(h, multiplier.multiplier_form(h))

    for _ in range(8):
        # An infinite multiplier stays infinite under every conjugation, so
        # such an f is redrawn rather than conjugated forever.
        f, lhs = _draw_until(draw_f)
        g, rhs = _draw_until(draw_g)
        c.record(lhs == rhs, lambda: f"f={f!r} g={g!r}")


def _check_oracle_agreement(rng, cap, c: CheckResult):
    square = conjugated_square_map()
    instances = [
        (square, multiplier.multiplier_form(square), multiplier.rational_fixed_point_oracle(square))
    ] + [_split_map_graph(rng, rng.randint(1, min(cap, 3))) for _ in range(7)]
    for f, r, spectrum in instances:
        c.record(multiplier.sigma_spectrum(r) == spectrum, lambda: f"f={f!r}")


def _projection_agrees(f, r, scale) -> bool:
    """Whether projecting f onto (Omega^0 f, Omega^1 f) commutes with the multiplier map.

    r is f's multiplier form.  The image under rho_embed with scale pair
    (c0, c1) has bidegree (1, n-1), n = d+e; its multiplier form, read in the
    (1, n-1) basis, must agree projectively with r read in the (d, e) basis
    after rescaling coordinate k by c0^(n-k) * c1^k.
    """
    d, e = f.bidegree
    n = d + e
    c0, c1 = scale
    image = Correspondence(clebsch._project(f.form, scale))
    lhs = multiplier.dz_coordinates(multiplier.multiplier_form(image), 1, n - 1)
    rhs = [c0 ** (n - k) * c1**k * x for k, x in enumerate(multiplier.dz_coordinates(r, d, e))]
    return BinaryForm(n, lhs).projectively_equal(BinaryForm(n, rhs))


def _check_hyperplane(rng, cap, c: CheckResult):
    # The dz0^(n-1)*dz1 coordinate vanishes, and the multiplier form survives
    # the projection; c0 != c1, neither +-1, so a swapped or dropped scale shows.
    plan = [(1, 2), (2, 2)] + [rand_bidegree(rng, min(cap, 3)) for _ in range(4)]
    for d, e in plan:
        f, r = _good_position(rng, d, e)
        residual = multiplier.dz_coordinates(r, d, e)[1]
        c.record(residual == 0 and _projection_agrees(f, r, (2, -3)), lambda: f"f={f!r}")


def _check_index(rng, cap, c: CheckResult):
    for _ in range(8):
        f, r = _map_graph_in_position(rng, rng.randint(1, min(cap + 1, 4)))
        c.record(multiplier.index_residual(multiplier.sigma_spectrum(r)) == 0, lambda: f"f={f!r}")


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
    ("conjugation-diagonal-equivariance",
     partial(_check_conjugation_equivariance, lambda form: form.diagonal_restriction())),
    ("cayley-linearity", _check_cayley_linearity),
    ("cayley-explicit-monomial", _check_cayley_explicit),
    ("cg-roundtrip", _check_cg_roundtrip),
    ("omega0-conjugation-equivariance",
     partial(_check_conjugation_equivariance, lambda form: clebsch.cayley_omega(form, 0))),
    ("torus-weight-scaling", _check_torus_weight_scaling),
    ("stability-conjugation-invariance", _check_stability_conjugation),
    ("stability-odd-parity", _check_stability_odd_parity),
    ("stability-matrix-crosscheck", _check_stability_matrix_crosscheck),
    ("multiplicity-monotonicity", _check_multiplicity_monotonicity),
    ("derivative-linear-relations", _check_derivative_relations),
    ("spectrum-conjugation-invariance",
     partial(_check_conjugation_invariance, rand_moebius,
             lambda f, r: multiplier.sigma_spectrum(r))),
    ("multiplier-oracle-agreement", _check_oracle_agreement),
    ("invariant-normalized-coefficients",
     partial(_check_conjugation_invariance, rand_sl2_moebius, multiplier._invariant_coefficients)),
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
    if degree_cap > 32:  # the unclamped identities grow steeply with the cap
        raise ValueError("degree cap must be at most 32")
    if only is not None and only not in CHECK_NAMES:
        raise ValueError(f"unknown identity {only!r}; choose from {', '.join(CHECK_NAMES)}")
    results = []
    for name, runner in CHECKS:
        if only is not None and name != only:
            continue
        rng = random.Random(f"{seed}/{name}")
        check = CheckResult(name)
        try:
            runner(rng, degree_cap, check)
        except Exception as exc:  # a fault in the library fails this identity only
            check.record(False, lambda: f"raised {type(exc).__name__}: {exc}")
        results.append(check)
    return VerifyReport(seed, degree_cap, results)
