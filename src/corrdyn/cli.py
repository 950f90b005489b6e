"""Command-line surface over the JSON interchange format.

Exit codes: 0 success, 1 verification failure, 2 precondition error
(BadPosition, DegenerateComposition, IndeterminateMultiplier, named on
stderr), 3 schema, input or usage error (a usage error is reported as one
``UsageError: <message>`` line on stderr), 4 internal error (any other
exception, reported as one ``InternalError: <type>: <message>`` line on
stderr).  ``--help`` and ``--version`` exit 0.  An option value may start
with a minus sign in either form: ``--c0 -1/2`` or ``--c0=-1/2``.

The multiplier form is printed in the (dx, dy) monomials: entry k of
``dx_dy`` multiplies dx^k * dy^(n-k).
"""

from __future__ import annotations

import argparse
import re
import sys

from . import __version__
from .clebsch import cg_decompose, cg_reconstruct, rho_embed, cayley_omega
from .correspondence import Correspondence, DegenerateComposition, compose, conjugate, iterate, moebius_graph
from .multiplier import (
    BadPosition,
    IndeterminateMultiplier,
    dz_coordinates,
    multiplier_form,
    sigma_spectrum,
)
from .serialization import (
    SchemaError,
    binary_form_to_doc,
    components_from_doc,
    components_to_doc,
    correspondence_from_doc,
    correspondence_to_doc,
    format_rational,
    parse_moebius,
    parse_rational,
    _dumps,
    _loads,
)
from .stability import classify_stability
from .verify import CHECK_NAMES, run_verify_suite


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    return _loads(text)


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_correspondence(path: str) -> Correspondence:
    return correspondence_from_doc(_read_json(path))


def _cmd_compose(args) -> int:
    left = _load_correspondence(args.left)
    right = _load_correspondence(args.right)
    _write(_dumps(correspondence_to_doc(compose(left, right))), args.out)
    return 0


def _cmd_iterate(args) -> int:
    f = _load_correspondence(args.input)
    _write(_dumps(correspondence_to_doc(iterate(f, args.n))), args.out)
    return 0


def _cmd_conjugate(args) -> int:
    f = _load_correspondence(args.input)
    g = parse_moebius(args.moebius)
    _write(_dumps(correspondence_to_doc(conjugate(f, g))), args.out)
    return 0


def _cmd_graph(args) -> int:
    g = parse_moebius(args.moebius)
    _write(_dumps(correspondence_to_doc(moebius_graph(g))), args.out)
    return 0


def _cmd_decompose(args) -> int:
    f = _load_correspondence(args.input)
    _write(_dumps(components_to_doc(cg_decompose(f.form))), args.out)
    return 0


def _cmd_reconstruct(args) -> int:
    components = components_from_doc(_read_json(args.input))
    form = cg_reconstruct(components)
    if form.is_zero():
        raise SchemaError("components reconstruct to the zero form")
    _write(_dumps(correspondence_to_doc(Correspondence(form))), args.out)
    return 0


def _cmd_project(args) -> int:
    f = _load_correspondence(args.input)
    if min(f.deg_x, f.deg_y) < 1:
        raise SchemaError("projection needs bidegree at least (1, 1)")
    c0 = parse_rational(args.c0)
    c1 = parse_rational(args.c1)
    if c0 == 0 or c1 == 0:
        raise SchemaError("scale pair must be nonzero")
    n = f.deg_x + f.deg_y
    image = rho_embed(cayley_omega(f.form, 0), cayley_omega(f.form, 1), 1, n - 1, (c0, c1))
    if image.is_zero():
        raise SchemaError("projected form is zero (both leading components vanish)")
    _write(_dumps(correspondence_to_doc(Correspondence(image))), args.out)
    return 0


def _cmd_stability(args) -> int:
    f = _load_correspondence(args.input)
    if f.deg_x + f.deg_y < 1:
        raise SchemaError("stability needs total degree d + e at least 1")
    result = classify_stability(f)
    doc = {
        "verdict": result.verdict.value,
        "max_multiplicity": result.max_multiplicity,
        "witness": binary_form_to_doc(result.witness),
    }
    _write(_dumps(doc), args.out)
    return 0


def _cmd_multipliers(args) -> int:
    f = _load_correspondence(args.input)
    if f.deg_x + f.deg_y < 1:
        raise SchemaError("the multiplier form needs total degree d + e at least 1")
    iterated = iterate(f, args.n)
    d, e = iterated.bidegree
    r = multiplier_form(iterated)
    spectrum = sigma_spectrum(r)
    norm = iterated.form.coeffs[0][0] * iterated.form.coeffs[d][e]
    doc = {
        "d": f.deg_x,
        "e": f.deg_y,
        "n": args.n,
        "iterate_bidegree": [d, e],
        "multiplier_form": {
            "degree": r.degree,
            "dx_dy": [format_rational(c) for c in r.coeffs],
            "dz": [format_rational(c) for c in dz_coordinates(r, d, e)],
            "normalized": [format_rational(c / norm) for c in r.coeffs],
        },
        "sigma": [format_rational(s) for s in spectrum.sigma],
    }
    _write(_dumps(doc), args.out)
    return 0


def _cmd_verify(args) -> int:
    try:
        report = run_verify_suite(args.seed, args.degree_cap, args.only)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    sys.stdout.write(report.text())
    return 0 if report.passed else 1


class _UsageError(Exception):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises _UsageError instead of exiting 2.

    Any argument of the form -<digit> is a value, not an option, so negative
    entries such as ``--moebius -1,0,0,1`` parse; no option name starts with
    a digit.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="corrdyn",
        description="Exact dynamics of correspondences on the projective line.",
    )
    parser.add_argument("--version", action="version", version=f"corrdyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        return p

    p = add("compose", _cmd_compose, "compose two correspondences")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out")

    p = add("iterate", _cmd_iterate, "iterate a correspondence")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")

    p = add("conjugate", _cmd_conjugate, "conjugate by a Moebius map")
    p.add_argument("--input", required=True)
    p.add_argument("--moebius", required=True, metavar="a,b,c,d")
    p.add_argument("--out")

    p = add("graph", _cmd_graph, "graph of a Moebius map")
    p.add_argument("--moebius", required=True, metavar="a,b,c,d")
    p.add_argument("--out")

    p = add("decompose", _cmd_decompose, "Clebsch-Gordan components")
    p.add_argument("--input", required=True)
    p.add_argument("--out")

    p = add("reconstruct", _cmd_reconstruct, "rebuild a correspondence from components")
    p.add_argument("--input", required=True)
    p.add_argument("--out")

    p = add("project", _cmd_project, "project onto bidegree (1, d+e-1)")
    p.add_argument("--input", required=True)
    p.add_argument("--c0", default="1")
    p.add_argument("--c1", default="1")
    p.add_argument("--out")

    p = add("stability", _cmd_stability, "stability verdict with witness")
    p.add_argument("--input", required=True)
    p.add_argument("--out")

    p = add("multipliers", _cmd_multipliers, "multiplier form, dz coordinates and spectrum")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--out")

    p = add("verify", _cmd_verify, "run the identity suite")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--degree-cap", type=int, default=3)
    p.add_argument("--only", choices=CHECK_NAMES, metavar="IDENT")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "n", 1) < 1:
            raise _UsageError("--n must be positive")
        return args.func(args)
    except _UsageError as exc:
        message = " ".join(str(exc).splitlines())
        print(f"UsageError: {message}", file=sys.stderr)
        return 3
    except SchemaError as exc:
        print(f"SchemaError: {exc}", file=sys.stderr)
        return 3
    except (BadPosition, DegenerateComposition, IndeterminateMultiplier) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"InternalError: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
