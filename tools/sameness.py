"""Byte-identity harness: sha256 digests of corrdyn's outputs over a fixed grid of cases.

    python tools/sameness.py record --out A.json [--src DIR] [--seeds 1-20] [--caps 2-5]
                                    [--cases N]
    python tools/sameness.py compare A.json B.json

``record`` imports corrdyn from ``--src`` (default: the ``src`` directory of
the checkout this file sits in), then the seeded corpora of
``tests/corpus.py`` from this checkout, and writes one JSON object, sorted by
key, that maps each case to the sha256 of its outcome:

* ``verify/seed=S/cap=C``: the exit code, stdout and stderr of
  ``corrdyn verify``, run in-process through ``corrdyn.cli.main``, for every
  seed and cap;
* ``gen/NAME/I``: each public ``corrdyn.verify`` generator (``rand_*``) on
  ``random.Random(I)`` for I = 1..25, with the generator's state after it;
* ``NAME/I``: case I of the kernel family NAME of ``corpus.CASES``, the I-th
  draw from ``corpus.stream(NAME)``, the stream whose outputs
  ``tests/test_golden.py`` hashes together;
* ``cli/I``: the exit code, stdout and stderr of ``corrdyn.cli.main`` on
  ``corpus.fuzz_case`` I, the ``TestFuzz`` command lines, run in-process in
  a temporary directory with relative file names.

``--cases N`` keeps the first N cases of each corpus and each generator; by
default every corpus case is recorded.  An outcome is the canonical text of
the result, or the type and message of the exception raised.  The JSON holds
nothing else, so two records of one tree are the same file; the case count
and wall time go to stderr.  ``compare`` prints each key whose digest differs
or that only one file has, then a count line, and exits 1 if any key differs.
To compare a change with its parent, record with ``--src PARENT/src`` (a
clone of the parent), record again without it, and compare the two files.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
GENERATOR_CASES = 25


def _span(text: str) -> range:
    """'A-B' or 'A' as the range A..B, which must not be empty."""
    lo, _, hi = text.partition("-")
    span = range(int(lo), int(hi or lo) + 1)
    if not span:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return span


def _positive(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"{count} is below 1")
    return count


def _outcome(fn, *args) -> str:
    try:
        return fn(*args)
    except Exception as exc:
        return f"raise {type(exc).__name__}: {exc}"


def _run(main, argv) -> str:
    """The exit code, stdout and stderr of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"


def _cli_case(main, corpus, rng) -> str:
    files, argv = corpus.fuzz_case(rng)
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")
    return _run(main, argv)


def record(src: Path, seeds: range, caps: range, cases: int | None) -> dict[str, str]:
    """The digest of every case of the grid, keyed by case, for corrdyn imported from src."""
    sys.path[:0] = [str(src.resolve()), str(ROOT / "tests")]
    corpus = importlib.import_module("corpus")
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
            argv = ["verify", "--seed", str(seed), "--degree-cap", str(cap)]
            outcomes[f"verify/seed={seed}/cap={cap}"] = _run(cli.main, argv)
    for name, args in GENERATOR_ARGS.items():
        for i in range(1, (cases or GENERATOR_CASES) + 1):
            rng = random.Random(i)
            value = _outcome(lambda: repr(getattr(gen, name)(rng, *args)))
            outcomes[f"gen/{name}/{i}"] = f"{value}\n{rng.getstate()!r}"
    for name, (case, count) in corpus.CASES.items():
        rng = corpus.stream(name)
        for i in range(min(count, cases or count)):
            outcomes[f"{name}/{i}"] = _outcome(case, rng)
    rng, here = random.Random(corpus.FUZZ_SEED), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for i in range(min(corpus.FUZZ_CASES, cases or corpus.FUZZ_CASES)):
                outcomes[f"cli/{i}"] = _outcome(_cli_case, cli.main, corpus, rng)
        finally:
            os.chdir(here)
    return {key: hashlib.sha256(text.encode()).hexdigest()
            for key, text in sorted(outcomes.items())}


def compare(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """The keys whose digests differ or that only one record has, sorted."""
    return sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="write the digests of every case")
    rec.add_argument("--out", required=True, type=Path)
    rec.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding corrdyn")
    rec.add_argument("--seeds", type=_span, default=_span("1-20"), help="verify seeds, A-B")
    rec.add_argument("--caps", type=_span, default=_span("2-5"), help="verify degree caps, A-B")
    rec.add_argument("--cases", type=_positive,
                     help="first cases of each corpus and generator (default: all; generators 25)")
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
