"""The seeded corpora behind both byte-identity checks.

``CASES`` maps each kernel family to ``(case, count)``: ``case(rng)`` draws
one input from ``rng``, runs the kernel on it and returns its output printed
canonically (str of every Fraction, the type and message of every exception).
``tests/test_golden.py`` hashes the first ``count`` outputs of each family,
drawn from ``stream(name)``, against a pinned digest, and
``tools/sameness.py record`` hashes each of those outputs on its own.
``fuzz_case(rng)`` draws one command line of malformed and well-formed JSON
inputs for ``corrdyn.cli.main``; ``TestFuzz`` in ``tests/test_cli.py`` and the
record both run the first ``FUZZ_CASES`` of them from
``random.Random(FUZZ_SEED)``.

The kernel corpus mixes zero, integer, half-integer and large-denominator
coefficients, degree-0 and zero forms, singular and half-integer matrices and
degenerate compositions; compose_large reaches bidegree (5, 5) and unbalanced
pairs such as (6, 2) with (1, 3), where one block of the Sylvester matrix
outweighs the other, and plants a shared factor in about one case in five.
The Cayley corpus has bidegrees with d = 0 or e = 0, where the projection
rho_embed(Omega^0, Omega^1) has no first power and fails.  The
cg_reconstruct corpus takes arbitrary component lists, not only images of
cg_decompose: zero parts, all-zero lists, d = 0 or e = 0 and the
asymmetric bidegrees (9, 4) and (4, 9); cg_roundtrip_large takes integer
forms, rational forms and arbitrary component lists both ways at bidegrees
(8, 8) to (14, 14), (12, 7), (7, 12) and (14, 9).  rho_embed_scaled embeds
arbitrary component pairs with non-unit scale pairs such as (2/3, -5).  The
rational_roots corpus (splits with multiplicities up to 3, roots at [1:0] and [0:1], scales
with 10**20 denominators, irreducible quadratic and cubic cofactors, constants
and zero forms) keeps root heights at most 10**6.  The stability corpus adds
planted diagonal multiplicities, bidegrees with d = 0 or e = 0 (so high
derivative orders clamp) and forms divisible by x0*y1 - x1*y0, whose diagonal
restriction is zero; classify_stability_large plants points at bidegrees
(6, 6) to (16, 16), moved by a Moebius map or mirrored to ([0:1], [0:1]),
where a_de = 0 and the scan's [0:1] correction decides.  conjugate reaches
bidegree (9, 9) under integer and determinant-one rational Moebius maps;
substitute_pair_square sends both pairs through one matrix, singular and zero
ones included; dz_coordinates reaches degree 16 and mismatched or negative
bases; the fixed-point oracle runs on split, non-split and conjugated map
graphs and on forms with a fixed point at [1:0].

Only the standard library and corrdyn are imported, so the stdlib-only
``tools/sameness.py`` can load this module from the checkout it sits in.
"""

import json
import random
from fractions import Fraction as F

from corrdyn.clebsch import CgComponents, cayley_omega, cg_decompose, cg_reconstruct, rho_embed
from corrdyn.correspondence import Correspondence, compose, conjugate
from corrdyn.forms import BiForm, BinaryForm, binary_gcd, rational_roots
from corrdyn.multiplier import (
    diagonal_derivative_forms,
    dz_coordinates,
    multiplier_form,
    rational_fixed_point_oracle,
    woods_hole_resultant,
)
from corrdyn.resultant import covariant_resultant
from corrdyn.serialization import SchemaError, components_to_doc, correspondence_from_doc
from corrdyn.stability import classify_stability, diagonal_multiplicity_at_least
from corrdyn.verify import (
    rand_map_graph,
    rand_moebius,
    rand_planted_corner,
    rand_sl2_moebius,
    rand_split_map_graph,
)


def _coeff(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return F(2 * rng.randint(-5, 4) + 1, 2)
    if kind == 3:
        return F(rng.randint(-(10**20), 10**20), rng.randint(1, 10**20))
    return F(rng.randint(-30, 30), rng.randint(1, 12))


def _coeff15(rng):
    """Like _coeff, but a third of the time a fraction with a denominator near 10**15."""
    if rng.random() < 0.33:
        return F(rng.randint(-(10**15), 10**15), rng.randint(10**14, 10**15))
    return _coeff(rng)


def _binary(rng, n):
    if rng.random() < 0.1:
        return BinaryForm.zero(n)
    return BinaryForm(n, [_coeff(rng) for _ in range(n + 1)])


def _corr(rng, d, e):
    rows = [[_coeff(rng) for _ in range(e + 1)] for _ in range(d + 1)]
    if not any(c for row in rows for c in row):
        rows[0][0] = 1  # a correspondence needs a nonzero form
    return Correspondence.from_matrix(d, e, rows)


def _matrix(rng):
    kind = rng.randrange(5)
    if kind == 0:  # singular: second row a multiple of the first
        a, b, k = _coeff(rng), _coeff(rng), _coeff(rng)
        return ((a, b), (k * a, k * b))
    if kind == 1:  # half-integer entries
        return tuple(tuple(F(2 * rng.randint(-4, 3) + 1, 2) for _ in range(2)) for _ in range(2))
    if kind == 2:  # plain ints
        return tuple(tuple(rng.randint(-5, 5) for _ in range(2)) for _ in range(2))
    if kind == 3:
        return ((0, 0), (0, 0)) if rng.random() < 0.3 else ((1, 0), (0, 1))
    return tuple(tuple(_coeff(rng) for _ in range(2)) for _ in range(2))


def _form(r):
    return f"{r.degree}:" + ",".join(str(c) for c in r.coeffs)


def _corr_text(f):
    rows = ";".join(",".join(str(c) for c in row) for row in f.form.coeffs)
    return f"{f.deg_x},{f.deg_y}:{rows}"


def _safe(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _case_substitute_linear(rng):
    form = _binary(rng, rng.randint(0, 7))
    return _form(form.substitute_linear(_matrix(rng)))


def _biform(rng, d, e):
    if rng.random() < 0.1:
        return BiForm.zero(d, e)
    return BiForm(d, e, [[_coeff(rng) for _ in range(e + 1)] for _ in range(d + 1)])


def _case_diagonal_restriction(rng):
    return _form(_biform(rng, rng.randint(0, 5), rng.randint(0, 5)).diagonal_restriction())


def _case_cg_decompose(rng):
    comp = cg_decompose(_biform(rng, rng.randint(0, 5), rng.randint(0, 5)))
    return "|".join(_form(part) for part in comp.parts)


def _case_rho_embed(rng):
    # The projection to a degree d+e-1 system: the first two Cayley powers of
    # f embedded in bidegree (1, d+e-1); d = 0 or e = 0 has no first power.
    f = _biform(rng, rng.randint(0, 5), rng.randint(0, 5))
    d, e = f.deg_x, f.deg_y
    out = _safe(lambda: rho_embed(cayley_omega(f, 0), cayley_omega(f, 1), 1, d + e - 1))
    return out if isinstance(out, str) else ";".join(",".join(map(str, r)) for r in out.coeffs)


def _cg_bidegree(rng, low):
    if rng.random() < 0.1:
        return rng.choice([(9, 4), (4, 9)])
    return rng.randint(low, 5), rng.randint(low, 5)


def _rows_text(f):
    return ";".join(",".join(map(str, r)) for r in f.coeffs)


def _case_cg_reconstruct(rng):
    # Arbitrary component lists, most of them not images of an integer form.
    d, e = _cg_bidegree(rng, 0)
    zero = rng.random() < 0.1
    parts = tuple(BinaryForm.zero(d + e - 2 * m) if zero else _binary(rng, d + e - 2 * m)
                  for m in range(min(d, e) + 1))
    return _rows_text(cg_reconstruct(CgComponents(d, e, parts)))


CG_LARGE = [(n, n) for n in range(8, 15)] + [(12, 7), (7, 12), (14, 9)]


def _case_cg_roundtrip_large(rng):
    # Integer forms, whose every reconstructed entry is an exact quotient,
    # rational forms and arbitrary component lists, each taken both ways.
    d, e = rng.choice(CG_LARGE)
    kind = rng.randrange(3)
    if kind == 2:
        f = cg_reconstruct(CgComponents(d, e, tuple(_binary(rng, d + e - 2 * m)
                                                    for m in range(min(d, e) + 1))))
        comp = cg_decompose(f)
    else:
        f = (BiForm(d, e, [[rng.randint(-9, 9) for _ in range(e + 1)] for _ in range(d + 1)])
             if kind == 0 else _biform(rng, d, e))
        comp = cg_decompose(f)
        f = cg_reconstruct(comp)
    return "|".join(_form(part) for part in comp.parts) + "=" + _rows_text(f)


def _case_rho_embed_scaled(rng):
    d, e = _cg_bidegree(rng, 1)
    n = d + e
    scale = rng.choice([(F(2, 3), -5), (-5, F(2, 3)), (F(-7, 10**20 + 1), 3),
                        (_coeff(rng) or F(1, 2), _coeff(rng) or -1)])
    return _rows_text(rho_embed(_binary(rng, n), _binary(rng, n - 2), d, e, scale))


def _case_diagonal_derivative_forms(rng):
    f = _corr(rng, rng.randint(0, 3), rng.randint(0, 3))
    dd = diagonal_derivative_forms(f)
    # The digest also covers the dz0 and dz1 coefficient forms of the slope covector.
    d, e = f.bidegree
    dz0 = dd.diag_x + dd.diag_y
    dz1 = (dd.diag_x.scale(e) - dd.diag_y.scale(d)).scale(F(1, 2))
    return "|".join(_form(x) for x in (dd.diag, dd.diag_x, dd.diag_y, dz0, dz1))


def _case_compose(rng):
    d, e, dp, ep = (rng.randint(0, 2) for _ in range(4))
    return _compose_text(rng, d, e, dp, ep, 0.25)


# Unbalanced pairs for compose_large: one block of the composite's Sylvester
# matrix has a much larger degree bound or many more rows than the other.
_UNBALANCED = [(6, 2, 1, 3), (2, 6, 3, 1), (1, 1, 1, 4), (3, 1, 1, 1), (4, 1, 2, 1),
               (1, 5, 5, 1), (5, 1, 1, 5), (2, 3, 6, 1)]


def _case_compose_large(rng):
    if rng.random() < 0.3:
        d, e, dp, ep = rng.choice(_UNBALANCED)
    else:
        d, e, dp, ep = (rng.randint(1, 5) for _ in range(4))
    return _compose_text(rng, d, e, dp, ep, 0.2)


def _compose_text(rng, d, e, dp, ep, planted):
    """compose of two drawn forms of bidegrees (d, e) and (dp, ep), as text.

    With probability planted (when e, dp >= 1) the pair shares a linear factor.
    """
    f, g = _corr(rng, d, e), _corr(rng, dp, ep)
    if rng.random() < planted and e >= 1 and dp >= 1:
        # Plant a shared linear factor (p1*z0 - p0*z1) in f's y-pair and
        # g's x-pair, so the composite degenerates.
        p0, p1 = rng.randint(-3, 3), rng.choice([1, 2, -3])
        lin = [p1, -p0]
        fy = [[_coeff(rng) or 1 for _ in range(e)] for _ in range(d + 1)]
        gx = [[_coeff(rng) or 1 for _ in range(dp)] for _ in range(ep + 1)]
        frows = [[sum(lin[t] * row[j - t] for t in range(2) if 0 <= j - t < e)
                  for j in range(e + 1)] for row in fy]
        gcols = [[sum(lin[t] * col[i - t] for t in range(2) if 0 <= i - t < dp)
                  for i in range(dp + 1)] for col in gx]
        grows = [[gcols[j][i] for j in range(ep + 1)] for i in range(dp + 1)]
        f = Correspondence.from_matrix(d, e, frows)
        g = Correspondence.from_matrix(dp, ep, grows)
    out = _safe(compose, f, g)
    return out if isinstance(out, str) else _corr_text(out)


def _case_covariant_resultant(rng):
    n = rng.randint(0, 5)
    f, p, q = (_binary(rng, n) for _ in range(3))
    if rng.random() < 0.1:
        q = _binary(rng, n + 1)
    out = _safe(covariant_resultant, f, p, q)
    return out if isinstance(out, str) else _form(out)


def _case_multiplier_form(rng):
    d, e = rng.randint(0, 3), rng.randint(0, 3)
    kind = rng.randrange(6)
    if kind == 0:
        # a rational map graph, often with critical fixed points
        d = max(d, 1)
        p = [rng.randint(-2, 2) for _ in range(d + 1)]
        q = [rng.randint(-2, 2) for _ in range(d + 1)]
        f = Correspondence.from_matrix(d, 1, [[-p[i], q[i]] for i in range(d + 1)])
    elif kind == 1 and d >= 1 and e >= 1:
        # a node (x1 - t*x0)(y1 - t*y0) * G at the fixed point [1:t]: critical
        # in both directions, so the multiplier is undefined
        t = rng.choice([-2, -1, 1, F(1, 3)])
        node = BiForm(1, 0, [[-t], [1]]) * BiForm(0, 1, [[-t, 1]])
        g = _corr(rng, d - 1, e - 1).form
        f = Correspondence(node * g)
    else:
        f = _corr(rng, d, e)
        if kind != 2:
            rows = [list(row) for row in f.form.coeffs]
            rows[0][0] = rows[0][0] or 1
            rows[d][e] = rows[d][e] or -1
            f = Correspondence.from_matrix(d, e, rows)
    out = _safe(multiplier_form, f)
    return out if isinstance(out, str) else _form(out)


def _case_woods_hole_resultant(rng):
    df = rng.randint(2, 6)
    f = [_coeff(rng) for _ in range(df + 1)]
    if rng.random() < 0.9:
        f[-1] = f[-1] or F(rng.randint(1, 9), rng.randint(1, 9))
    g = [_coeff(rng) for _ in range(rng.randint(1, df - 1) if rng.random() < 0.9 else df)]
    out = _safe(woods_hole_resultant, f, g)
    return out if isinstance(out, str) else ",".join(str(c) for c in out)


def _stability_corr(rng):
    """A correspondence with a planted diagonal point, a diagonal factor, or none."""
    d, e = rng.randint(0, 4), rng.randint(0, 4)
    if d + e == 0:
        e = 1
    kind = rng.randrange(5)
    if kind == 0:  # plant [p0:p1] with multiplicity alpha + beta by vertical/horizontal lines
        p0, p1 = rng.choice([(1, 0), (0, 1), (1, 1), (2, -1), (3, 2), (5, F(1, 7))])
        alpha, beta = rng.randint(0, d), rng.randint(0, e)
        form = _corr(rng, d - alpha, e - beta).form
        for _ in range(alpha):
            form = form * BiForm(1, 0, [[p1], [-p0]])
        for _ in range(beta):
            form = form * BiForm(0, 1, [[p1, -p0]])
        return Correspondence(form)
    if kind == 1 and d >= 1 and e >= 1:  # divisible by the diagonal x0*y1 - x1*y0
        form = _corr(rng, d - 1, e - 1).form * BiForm(1, 1, [[0, 1], [-1, 0]])
        return Correspondence(form)
    if kind == 2:  # a_ij = 0 for i + j < k: multiplicity >= k at ([1:0], [1:0])
        k = rng.randint(1, d + e)
        rows = [[0 if i + j < k else _coeff15(rng) for j in range(e + 1)] for i in range(d + 1)]
        rows[d][e] = rows[d][e] or 1
        return Correspondence.from_matrix(d, e, rows)
    rows = [[_coeff15(rng) for _ in range(e + 1)] for _ in range(d + 1)]
    if not any(c for row in rows for c in row):
        rows[0][0] = 1
    return Correspondence.from_matrix(d, e, rows)


def _case_classify_stability(rng):
    res = classify_stability(_stability_corr(rng))
    return f"{res.verdict.value}:{res.max_multiplicity}:{_form(res.witness)}"


def _case_classify_stability_large(rng):
    d, e = rng.randint(6, 16), rng.randint(6, 16)
    f = rand_planted_corner(rng, d, e, rng.randint(0, d + e))
    kind = rng.randrange(4)
    if kind % 2:
        f = conjugate(f, rand_moebius(rng))
    elif kind == 2:
        f = Correspondence.from_matrix(d, e, [row[::-1] for row in reversed(f.form.coeffs)])
    res = classify_stability(f)
    return f"{res.verdict.value}:{res.max_multiplicity}:{_form(res.witness)}"


def _case_diagonal_multiplicity_at_least(rng):
    f = _stability_corr(rng)
    out = []
    for m in range(1, f.deg_x + f.deg_y + 1):
        hit, witness = diagonal_multiplicity_at_least(f, m)
        out.append(f"{int(hit)}:{_form(witness)}")
    return "|".join(out)


def _case_binary_gcd(rng):
    count = rng.randint(0, 4) if rng.random() < 0.05 else rng.randint(1, 4)
    common = _binary(rng, rng.randint(0, 3))
    if common.is_zero():
        common = BinaryForm(0, [1])
    forms = []
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0:
            forms.append(BinaryForm.zero(rng.randint(0, 4)))
        elif kind == 1:  # a nonzero constant
            forms.append(BinaryForm(0, [_coeff15(rng) or F(3, 7)]))
        elif kind == 2:  # powers of z0 and z1 only
            n = rng.randint(0, 5)
            k = rng.randint(0, n)
            forms.append(BinaryForm.monomial(n, k, _coeff15(rng) or -2))
        else:  # a multiple of the common factor, with valuations at [1:0] and [0:1]
            n = rng.randint(0, 4)
            form = common * BinaryForm(n, [_coeff15(rng) for _ in range(n + 1)])
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            forms.append(BinaryForm.monomial(a + b, b) * form)
    out = _safe(binary_gcd, forms)
    return out if isinstance(out, str) else _form(out)


def _case_rational_roots(rng):
    kind = rng.randrange(12)
    if kind == 0:  # the zero form, or a nonzero constant
        n = rng.randint(0, 4)
        form = BinaryForm.zero(n) if rng.random() < 0.5 else BinaryForm(0, [_coeff(rng) or 5])
        out = _safe(rational_roots, form)
        return out if isinstance(out, str) else repr(out)
    if kind == 1:  # small random coefficients, mostly irreducible
        n = rng.randint(1, 6)
        form = BinaryForm(n, [rng.randint(-9, 9) for _ in range(n + 1)])
        if form.is_zero():
            form = BinaryForm(n, [1] + [0] * n)
        return repr(rational_roots(form))
    # A split part, an optional irreducible quadratic or cubic cofactor,
    # powers of z0 and z1, and a scale with a large denominator.  The split
    # part is one tall root (height up to 10**6, or up to 10**3 with
    # multiplicity up to 3) or up to five small linear factors with
    # multiplicities up to 3.
    if rng.random() < 0.5:
        scale = F(rng.choice([-1, 1]) * rng.randint(1, 10**20), rng.randint(1, 10**20))
    else:
        scale = _coeff(rng) or F(-7, 10**20 + 3)
    form = BinaryForm(0, [scale])
    if kind == 2:
        mult = rng.randint(1, 3)
        top = 10**6 if mult == 1 else 10**3
        p0, p1 = rng.randint(1, top), rng.choice([-1, 1]) * rng.randint(1, top)
        factors = [(p0, p1)] * mult
    else:
        factors = []
        while len(factors) < rng.randint(0, 5):
            p0, p1 = rng.randint(1, 9), rng.randint(-9, 9)
            factors += [(p0, p1)] * rng.choice([1, 1, 2, 3])
    for p0, p1 in factors[:5]:
        form = form * BinaryForm(1, [p1, -p0])
    cof = rng.randrange(4)
    if cof == 1:  # a*z1^2 + b*z0^2 with a, b > 0 has no real root
        form = form * BinaryForm(2, [rng.randint(1, 9), 0, rng.randint(1, 9)])
    elif cof == 2:  # z1^3 - k*z0^3 with k not a cube
        form = form * BinaryForm(3, [-rng.choice([2, 3, 5, 7, 10]), 0, 0, 1])
    elif cof == 3:  # a random quadratic or cubic, reducible or not
        n = rng.randint(2, 3)
        form = form * BinaryForm(n, [rng.randint(-6, 6) for _ in range(n)] + [rng.randint(1, 6)])
    a, b = rng.choice([0, 0, 1, 2, 3]), rng.choice([0, 0, 1, 2, 3])
    form = BinaryForm.monomial(a + b, a) * form  # a roots at [1:0], b at [0:1]
    return repr(rational_roots(form))


def _case_substitute_pair(rng):
    d, e = rng.randint(0, 4), rng.randint(0, 4)
    if rng.random() < 0.1:
        form = BiForm.zero(d, e)
    else:
        form = BiForm(d, e, [[_coeff15(rng) for _ in range(e + 1)] for _ in range(d + 1)])
    out = form.substitute_pair(_matrix(rng), _matrix(rng))
    return ";".join(",".join(str(c) for c in row) for row in out.coeffs)


def _moebius(rng):
    return rand_sl2_moebius(rng) if rng.random() < 0.5 else rand_moebius(rng)


def _case_conjugate(rng):
    f = _corr(rng, rng.randint(0, 9), rng.randint(0, 9))
    return _corr_text(conjugate(f, _moebius(rng)))


def _case_substitute_pair_square(rng):
    # One matrix for both pairs of a square bidegree: substitute_pair builds one table.
    n = rng.randint(0, 9)
    m = _matrix(rng)
    return _rows_text(_biform(rng, n, n).substitute_pair(m, m))


def _case_dz_coordinates(rng):
    # Mostly deg_x + deg_y = n; otherwise a basis that does not sum to n, or
    # deg_x = -1, or n = 0, each a ValueError.
    n = rng.randint(0, 16)
    deg_x = rng.randint(-1, n)
    deg_y = n - deg_x if rng.random() < 0.85 else rng.randint(0, n + 1)
    out = _safe(dz_coordinates, _binary(rng, n), deg_x, deg_y)
    return out if isinstance(out, str) else ",".join(map(str, out))


def _case_rational_fixed_point_oracle(rng):
    d = rng.randint(1, 6)
    kind = rng.randrange(4)
    if kind == 0:  # d + 1 distinct rational fixed points
        f = rand_split_map_graph(rng, d)
    elif kind == 1:  # fixed points mostly irrational: the form does not split
        f = rand_map_graph(rng, d)
    elif kind == 2:  # a split graph moved by a Moebius map
        f = conjugate(rand_split_map_graph(rng, d), _moebius(rng))
    else:  # a00 = 0, a fixed point at [1:0]: BadPosition
        f = rand_planted_corner(rng, d, 1, rng.randint(1, 2))
    out = _safe(rational_fixed_point_oracle, f)
    return out if isinstance(out, str) else ",".join(map(str, out.sigma))


CASES = {
    "diagonal_restriction": (_case_diagonal_restriction, 250),
    "cg_decompose": (_case_cg_decompose, 250),
    "rho_embed": (_case_rho_embed, 250),
    "cg_reconstruct": (_case_cg_reconstruct, 250),
    "rho_embed_scaled": (_case_rho_embed_scaled, 200),
    "cg_roundtrip_large": (_case_cg_roundtrip_large, 150),
    "substitute_linear": (_case_substitute_linear, 300),
    "diagonal_derivative_forms": (_case_diagonal_derivative_forms, 200),
    "compose": (_case_compose, 120),
    "compose_large": (_case_compose_large, 60),
    "covariant_resultant": (_case_covariant_resultant, 200),
    "multiplier_form": (_case_multiplier_form, 120),
    "woods_hole_resultant": (_case_woods_hole_resultant, 80),
    "classify_stability": (_case_classify_stability, 150),
    "classify_stability_large": (_case_classify_stability_large, 200),
    "diagonal_multiplicity_at_least": (_case_diagonal_multiplicity_at_least, 120),
    "binary_gcd": (_case_binary_gcd, 400),
    "substitute_pair": (_case_substitute_pair, 250),
    "rational_roots": (_case_rational_roots, 400),
    "conjugate": (_case_conjugate, 150),
    "substitute_pair_square": (_case_substitute_pair_square, 200),
    "dz_coordinates": (_case_dz_coordinates, 250),
    "rational_fixed_point_oracle": (_case_rational_fixed_point_oracle, 200),
}


def stream(name):
    """The Random that the cases of the family name are drawn from, one after another."""
    return random.Random(f"golden-{name}")


def fuzz_entry(rng):
    """A coefficient string: zero with probability 0.35, else a small rational."""
    if rng.random() < 0.35:
        return "0"
    num = rng.choice([-1, 1]) * rng.randint(1, 12)
    return str(num) if rng.random() < 0.7 else f"{num}/{rng.randint(2, 7)}"


def fuzz_doc(rng):
    d, e = rng.randint(0, 3), rng.randint(0, 3)
    rows = [[fuzz_entry(rng) for _ in range(e + 1)] for _ in range(d + 1)]
    return {"d": d, "e": e, "coeffs": rows}


FUZZ_JUNK = [None, True, 1.5, 3, -1, "", "abc", "1.5", "1/0", "--1", "0x10", [], ["1"], {}]


def mutate(rng, doc):
    """doc with one random defect: a bad degree, a missing or extra key, a bad row or entry."""
    doc = json.loads(json.dumps(doc))
    rows = doc.get("coeffs") or doc.get("parts")
    kind = rng.randrange(6)
    if kind == 0:
        doc[rng.choice(["d", "e"])] = rng.choice(FUZZ_JUNK + [rng.randint(-2, 6)])
    elif kind == 1:
        doc.pop(rng.choice(list(doc)))
    elif kind == 2:
        doc[rng.choice(["x", "coeffs", "parts"])] = rng.choice(FUZZ_JUNK)
    elif kind == 3 and rows:
        rows.pop(rng.randrange(len(rows)))
    elif kind == 4 and rows:
        rows.append(rng.choice(FUZZ_JUNK))
    else:
        row = rng.choice(rows) if rows else None
        if isinstance(row, list) and row:
            row[rng.randrange(len(row))] = rng.choice(FUZZ_JUNK)
        elif isinstance(row, dict) and row.get("coeffs"):
            row["coeffs"][rng.randrange(len(row["coeffs"]))] = rng.choice(FUZZ_JUNK)
    return doc


def fuzz_text(rng, doc):
    """JSON text for doc, sometimes mutated, sometimes truncated or not JSON at all."""
    kind = rng.randrange(10)
    if kind < 7:
        return json.dumps(doc)
    if kind < 9:
        return json.dumps(mutate(rng, doc))
    text = json.dumps(doc)
    return rng.choice([text[: rng.randrange(len(text))], "[1, 2", "", "nan", "\x00{}"])


def fuzz_rational(rng):
    return fuzz_entry(rng) if rng.random() < 0.9 else rng.choice(["x", "1/0", ""])


FUZZ_SEED, FUZZ_CASES = 20261018, 550

FUZZ_COMMANDS = [
    ["compose", "--left", "{a}", "--right", "{b}"],
    ["iterate", "--input", "{a}", "--n", "{n}"],
    ["conjugate", "--input", "{a}", "--moebius", "{m}"],
    ["decompose", "--input", "{a}"],
    ["reconstruct", "--input", "{parts}"],
    ["project", "--input", "{a}", "--c0", "{r}", "--c1", "{s}"],
    ["stability", "--input", "{a}"],
    ["multipliers", "--input", "{a}"],
    ["multipliers", "--input", "{a}", "--n", "2"],
]


def fuzz_case(rng):
    """One seeded command line: (files, argv), files mapping a relative file name to its text.

    The documents a and b are random correspondences and parts is a's
    Cayley components; each is written as JSON that may be mutated,
    truncated or not JSON at all.  The Moebius entries and the project
    coefficients are sometimes malformed too.
    """
    a, b = fuzz_doc(rng), fuzz_doc(rng)
    try:
        parts = components_to_doc(cg_decompose(correspondence_from_doc(a).form))
    except SchemaError:  # the zero form
        parts = {"d": a["d"], "e": a["e"], "parts": []}
    files = {f"{name}.json": fuzz_text(rng, doc)
             for name, doc in (("a", a), ("b", b), ("parts", parts))}
    entries = [fuzz_entry(rng) for _ in range(4)]
    if rng.random() < 0.1:
        entries = entries[: rng.randrange(4)] + ["y"]
    fields = dict(a="a.json", b="b.json", parts="parts.json", n=str(rng.randint(1, 2)),
                  m=",".join(entries), r=fuzz_rational(rng), s=fuzz_rational(rng))
    return files, [arg.format(**fields) for arg in rng.choice(FUZZ_COMMANDS)]
