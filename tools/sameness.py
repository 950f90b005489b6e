"""Byte-identity harness: sha256 digests of corrdyn's outputs over a fixed grid of cases.

    python tools/sameness.py record --out A.json [--src DIR] [--seeds 1-20] [--caps 2-5]
                                    [--cases 25]
    python tools/sameness.py compare A.json B.json

``record`` imports corrdyn from ``--src`` (default: the ``src`` directory of
the checkout this file sits in) and writes one JSON object, sorted by key,
that maps each case to the sha256 of its outcome:

* ``verify/seed=S/cap=C``: the exit code, stdout and stderr of
  ``corrdyn verify``, run in-process through ``corrdyn.cli.main``, for every
  seed and cap;
* ``gen/NAME/I``: each public ``corrdyn.verify`` generator (``rand_*``) on
  ``random.Random(I)`` for I = 1..cases, with the generator's state after it;
* ``KERNEL/I``: ``conjugate``, ``substitute_linear``, ``substitute_pair``,
  ``dz_coordinates``, ``rational_fixed_point_oracle``,
  ``classify_stability``, ``multiplier_form``, ``cg_decompose`` and
  ``compose`` on the I-th input drawn from ``random.Random("KERNEL/I")``.
  Bidegrees stay within (9, 9) and binary degrees within 16; stability
  inputs within (6, 6), multiplier forms within (3, 3), and compositions
  within a product bidegree of (6, 6), about a third of them degenerate.

An outcome is the repr of the result, or the type and message of the
exception raised.  The JSON holds nothing else, so two records of one tree
are the same file; the case count and wall time go to stderr.  ``compare``
prints each key whose digest differs or that only one file has, then a count
line, and exits 1 if any key differs.  To compare a change with its parent,
record a clone of the parent with ``--src CLONE/src``, record the change
without it, and compare the two files.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"

# The arguments after the Random of each public generator of corrdyn.verify.
GENERATOR_ARGS = {
    "rand_bidegree": (5,),
    "rand_binary_form": (4,),
    "rand_biform": (3, 2),
    "rand_correspondence": (2, 3),
    "rand_fraction": (),
    "rand_good_position": (2, 2),
    "rand_invertible_matrix": (),
    "rand_map_graph": (3,),
    "rand_moebius": (),
    "rand_planted_corner": (4, 3, 3),
    "rand_sl2_moebius": (),
    "rand_split_map_graph": (3,),
}


def _span(text: str) -> range:
    """'A-B' or 'A' as the range A..B."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"raise {type(exc).__name__}: {exc}"


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))


def _matrix(rng: random.Random):
    """A rational 2x2 matrix, one time in six zero and one time in six singular."""
    kind = rng.randrange(6)
    if kind == 0:
        return ((0, 0), (0, 0))
    a, b, k = _fraction(rng), _fraction(rng), _fraction(rng)
    if kind == 1:
        return ((a, b), (k * a, k * b))
    return ((a, b), (_fraction(rng), _fraction(rng)))


def _kernels(cd, gen):
    """(name, draw, function): draw takes a Random and returns the function's arguments."""
    BiForm, BinaryForm = cd.BiForm, cd.BinaryForm

    def binary(rng, n):
        return BinaryForm(n, [_fraction(rng) for _ in range(n + 1)])

    def biform(rng, d, e):
        return BiForm(d, e, [[_fraction(rng) for _ in range(e + 1)] for _ in range(d + 1)])

    def moebius(rng):
        return gen.rand_sl2_moebius(rng) if rng.random() < 0.5 else gen.rand_moebius(rng)

    def conjugate_args(rng):
        return gen.rand_correspondence(rng, rng.randint(0, 9), rng.randint(0, 9)), moebius(rng)

    def square_pair_args(rng):
        n, m = rng.randint(0, 9), _matrix(rng)
        return biform(rng, n, n), m, m

    def dz_args(rng):
        n = rng.randint(0, 16)
        deg_x = rng.randint(-1, n)
        return binary(rng, n), deg_x, n - deg_x if rng.random() < 0.9 else n

    def oracle_args(rng):
        d = rng.randint(1, 6)
        kind = rng.randrange(4)
        if kind == 0:
            return (gen.rand_split_map_graph(rng, d),)
        if kind == 1:
            return (gen.rand_map_graph(rng, d),)
        if kind == 2:  # a00 = 0 when k > 0: BadPosition
            return (gen.rand_planted_corner(rng, d, 1, rng.randint(0, 2)),)
        return (cd.conjugate(gen.rand_split_map_graph(rng, d), moebius(rng)),)

    def stability_args(rng):
        d, e = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            return (gen.rand_correspondence(rng, d, e),)
        f = gen.rand_planted_corner(rng, d, e, rng.randint(0, d + e))
        return (cd.conjugate(f, moebius(rng)) if rng.random() < 0.5 else f,)

    def compose_args(rng):
        while True:
            d, e, dp, ep = (rng.randint(1, 3) for _ in range(4))
            if d * dp <= 6 and e * ep <= 6:
                break
        if rng.random() < 0.3:  # f's y-pair and g's x-pair share a linear factor: degenerate
            a, b = gen.rand_fraction(rng, nonzero=True), gen.rand_fraction(rng)
            return (
                cd.Correspondence(BiForm(0, 1, [[a, b]]) * gen.rand_biform(rng, d, e - 1)),
                cd.Correspondence(BiForm(1, 0, [[a], [b]]) * gen.rand_biform(rng, dp - 1, ep)),
            )
        return gen.rand_correspondence(rng, d, e), gen.rand_correspondence(rng, dp, ep)

    return [
        ("conjugate", conjugate_args, cd.conjugate),
        ("substitute_linear", lambda rng: (binary(rng, rng.randint(0, 12)), _matrix(rng)),
         BinaryForm.substitute_linear),
        ("substitute_pair",
         lambda rng: (biform(rng, rng.randint(0, 9), rng.randint(0, 9)), _matrix(rng),
                      _matrix(rng)),
         BiForm.substitute_pair),
        ("substitute_pair_square", square_pair_args, BiForm.substitute_pair),
        ("dz_coordinates", dz_args, cd.dz_coordinates),
        ("rational_fixed_point_oracle", oracle_args, cd.rational_fixed_point_oracle),
        ("classify_stability", stability_args, cd.classify_stability),
        ("multiplier_form",
         lambda rng: (gen.rand_correspondence(rng, rng.randint(1, 3), rng.randint(1, 3)),),
         cd.multiplier_form),
        ("cg_decompose", lambda rng: (biform(rng, rng.randint(0, 7), rng.randint(0, 7)),),
         cd.cg_decompose),
        ("compose", compose_args, cd.compose),
    ]


def record(src: Path, seeds: range, caps: range, cases: int) -> dict[str, str]:
    """The digest of every case of the grid, keyed by case, for corrdyn imported from src."""
    sys.path.insert(0, str(src))
    cd = importlib.import_module("corrdyn")
    cli = importlib.import_module("corrdyn.cli")
    gen = importlib.import_module("corrdyn.verify")
    missing = sorted(
        name for name in vars(gen) if name.startswith("rand_") and name not in GENERATOR_ARGS
    )
    if missing:
        raise SystemExit(f"no arguments for the generators {missing}: add them to GENERATOR_ARGS")
    outcomes = {}
    for seed in seeds:
        for cap in caps:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["verify", "--seed", str(seed), "--degree-cap", str(cap)])
            text = f"{code}\n{out.getvalue()}\n{err.getvalue()}"
            outcomes[f"verify/seed={seed}/cap={cap}"] = text
    for name, args in GENERATOR_ARGS.items():
        for i in range(1, cases + 1):
            rng = random.Random(i)
            value = _outcome(getattr(gen, name), rng, *args)
            outcomes[f"gen/{name}/{i}"] = f"{value}\n{rng.getstate()!r}"
    for name, draw, fn in _kernels(cd, gen):
        for i in range(cases):
            outcomes[f"{name}/{i}"] = _outcome(fn, *draw(random.Random(f"{name}/{i}")))
    return {
        key: hashlib.sha256(text.encode()).hexdigest() 
            for key, text in sorted(outcomes.items())}


def compare(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """The keys whose digests differ or that only one record has, sorted."""
    return sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="write the digests of every case")
    rec.add_argument("--out", required=True, type=Path)
    rec.add_argument("--src", type=Path, default=DEFAULT_SRC, help="directory holding corrdyn")
    rec.add_argument("--seeds", type=_span, default=_span("1-20"), help="verify seeds, A-B")
    rec.add_argument("--caps", type=_span, default=_span("2-5"), help="verify degree caps, A-B")
    rec.add_argument("--cases", type=int, default=25, help="inputs per generator and kernel")
    cmp = sub.add_parser("compare", help="list the cases whose digests differ")
    cmp.add_argument("a", type=Path)
    cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        start = time.perf_counter()
        digests = record(args.src, args.seeds, args.caps, args.cases)
        args.out.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{len(digests)} cases in {time.perf_counter() - start:.1f} s", file=sys.stderr)
        return 0
    a, b = (json.loads(path.read_text(encoding="utf-8")) for path in (args.a, args.b))
    differing = compare(a, b)
    for key in differing:
        where = "differs" if key in a and key in b else f"only in {args.a if key in a else args.b}"
        print(f"{where}: {key}")
    print(f"{len(differing)} of {len(a.keys() | b.keys())} keys differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
