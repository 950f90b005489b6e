"""Command-line surface over the JSON interchange format.

Exit codes: 0 success, 1 verification failure, 2 precondition error
(BadPosition, DegenerateComposition, IndeterminateMultiplier, named on
stderr), 3 schema, input or usage error (a usage error is reported as one
``UsageError: <message>`` line on stderr, an unreadable input or unwritable
``--out`` as a SchemaError), 4 internal error (any other exception, reported
as one ``InternalError: <type>: <message>`` line on stderr).  ``--help`` and
``--version`` exit 0.  An option value may start with a minus sign in either
form: ``--c0 -1/2`` or ``--c0=-1/2``.

Handlers compute and return their JSON document; ``main`` writes it to stdout
or ``--out``, the one write site.  ``verify`` prints its text report and has
no ``--out``; an identity that raises, or finds no valid input within the
redraw bound, is a FAIL line and exits 1, so ``verify`` exits 3 only for a
bad argument.

Each handler imports the modules it uses when it runs, so a command loads
only its part of the library: ``--help`` and ``--version`` none of it;
``compose``, ``iterate``, ``conjugate`` and ``graph`` forms, resultant,
correspondence and serialization; ``decompose``, ``reconstruct`` and
``project`` those and clebsch; ``stability`` those and stability (not for an
input it refuses); ``multipliers`` those and multiplier (not for an input it
refuses); ``verify`` all of it.

The multiplier form is printed in the (dx, dy) monomials: entry k of
``dx_dy`` multiplies dx^k * dy^(n-k).
"""

from __future__ import annotations

import argparse
import re
import sys

from . import __version__


def _load(path: str, from_doc=None):
    """The document in the file at path, read by from_doc (default: a correspondence)."""
    from .serialization import SchemaError, _loads, correspondence_from_doc

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    return (from_doc or correspondence_from_doc)(_loads(text))


def _cmd_compose(args):
    from .correspondence import compose
    from .serialization import correspondence_to_doc

    return correspondence_to_doc(compose(_load(args.left), _load(args.right)))


def _cmd_iterate(args):
    from .correspondence import iterate
    from .serialization import correspondence_to_doc

    return correspondence_to_doc(iterate(_load(args.input), args.n))


def _cmd_conjugate(args):
    from .correspondence import conjugate
    from .serialization import correspondence_to_doc, parse_moebius

    return correspondence_to_doc(conjugate(_load(args.input), parse_moebius(args.moebius)))


def _cmd_graph(args):
    from .correspondence import moebius_graph
    from .serialization import correspondence_to_doc, parse_moebius

    return correspondence_to_doc(moebius_graph(parse_moebius(args.moebius)))


def _cmd_decompose(args):
    from .clebsch import cg_decompose
    from .serialization import components_to_doc

    return components_to_doc(cg_decompose(_load(args.input).form))


def _cmd_reconstruct(args):
    from .clebsch import cg_reconstruct
    from .correspondence import Correspondence
    from .serialization import SchemaError, components_from_doc, correspondence_to_doc

    form = cg_reconstruct(_load(args.input, components_from_doc))
    if form.is_zero():
        raise SchemaError("components reconstruct to the zero form")
    return correspondence_to_doc(Correspondence(form))


def _cmd_project(args):
    from .clebsch import cayley_omega, rho_embed
    from .correspondence import Correspondence
    from .serialization import SchemaError, correspondence_to_doc, parse_rational

    f = _load(args.input)
    if min(f.deg_x, f.deg_y) < 1:
        raise SchemaError("projection needs bidegree at least (1, 1)")
    c0, c1 = parse_rational(args.c0), parse_rational(args.c1)
    if c0 == 0 or c1 == 0:
        raise SchemaError("scale pair must be nonzero")
    n = f.deg_x + f.deg_y
    image = rho_embed(cayley_omega(f.form, 0), cayley_omega(f.form, 1), 1, n - 1, (c0, c1))
    if image.is_zero():
        raise SchemaError("projected form is zero (both leading components vanish)")
    return correspondence_to_doc(Correspondence(image))


def _cmd_stability(args):
    from .serialization import SchemaError, binary_form_to_doc

    f = _load(args.input)
    if f.deg_x + f.deg_y < 1:
        raise SchemaError("stability needs total degree d + e at least 1")
    from .stability import classify_stability  # imported only for an input it accepts

    result = classify_stability(f)
    return {
        "verdict": result.verdict.value,
        "max_multiplicity": result.max_multiplicity,
        "witness": binary_form_to_doc(result.witness),
    }


def _cmd_multipliers(args):
    from .correspondence import iterate
    from .serialization import SchemaError, format_rational

    f = _load(args.input)
    if f.deg_x + f.deg_y < 1:
        raise SchemaError("the multiplier form needs total degree d + e at least 1")
    from .multiplier import dz_coordinates, multiplier_form, sigma_spectrum  # likewise

    iterated = iterate(f, args.n)
    d, e = iterated.bidegree
    r = multiplier_form(iterated)
    spectrum = sigma_spectrum(r)
    norm = iterated.form.coeffs[0][0] * iterated.form.coeffs[d][e]
    return {
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


def _cmd_verify(args) -> int:
    from .verify import run_verify_suite

    try:
        report = run_verify_suite(args.seed, args.degree_cap, args.only)
    except ValueError as exc:  # an argument run_verify_suite rejects
        print(f"UsageError: {exc}", file=sys.stderr)
        return 3
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

    def add(name, func, help_, *paths, **options):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        for path in paths:
            p.add_argument(f"--{path}", required=True)
        for option, kwargs in options.items():
            p.add_argument(f"--{option}", **kwargs)
        p.add_argument("--out")  # last: the help text lists it after the command's own options

    moebius = dict(required=True, metavar="a,b,c,d")
    add("compose", _cmd_compose, "compose two correspondences", "left", "right")
    add("iterate", _cmd_iterate, "iterate a correspondence", "input",
        n=dict(type=int, required=True))
    add("conjugate", _cmd_conjugate, "conjugate by a Moebius map", "input", moebius=moebius)
    add("graph", _cmd_graph, "graph of a Moebius map", moebius=moebius)
    add("decompose", _cmd_decompose, "Clebsch-Gordan components", "input")
    add("reconstruct", _cmd_reconstruct, "rebuild a correspondence from components", "input")
    add("project", _cmd_project, "project onto bidegree (1, d+e-1)", "input",
        c0=dict(default="1"), c1=dict(default="1"))
    add("stability", _cmd_stability, "stability verdict with witness", "input")
    add("multipliers", _cmd_multipliers, "multiplier form, dz coordinates and spectrum", "input",
        n=dict(type=int, default=1))

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--degree-cap", type=int, default=3)
    p.add_argument("--only", metavar="IDENT")  # checked by run_verify_suite

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "n", 1) < 1:
            raise _UsageError("--n must be positive")
    except _UsageError as exc:
        message = " ".join(str(exc).splitlines())
        print(f"UsageError: {message}", file=sys.stderr)
        return 3
    # Every command loads serialization, and with it correspondence.
    from .correspondence import _PreconditionError
    from .serialization import SchemaError, _dumps

    try:
        if args.command == "verify":
            return _cmd_verify(args)
        text = _dumps(args.func(args))
        if args.out is None:
            sys.stdout.write(text)
            return 0
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {args.out}: {exc}") from exc
        return 0
    except SchemaError as exc:
        print(f"SchemaError: {exc}", file=sys.stderr)
        return 3
    except _PreconditionError as exc:  # BadPosition, DegenerateComposition, IndeterminateMultiplier
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"InternalError: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
