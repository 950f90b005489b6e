"""Import discipline: `import corrdyn` loads no submodule, and each command only its own.

Every child runs corrdyn as `python -m corrdyn` does, through runpy, and
prints the corrdyn modules in sys.modules as its last stderr line.
"""

import ast
import json
import subprocess
import sys

import pytest

PARSER = {"corrdyn", "corrdyn.cli"}  # corrdyn/__main__.py runs as __main__
IO = PARSER | {"corrdyn.forms", "corrdyn.resultant", "corrdyn.correspondence",
               "corrdyn.serialization"}
EVERYTHING = IO | {"corrdyn.clebsch", "corrdyn.multiplier", "corrdyn.stability", "corrdyn.verify"}

SQUARE_DOC = {"d": 2, "e": 1, "coeffs": [["0", "-1"], ["0", "0"], ["1", "0"]]}
MOEBIUS_DOC = {"d": 1, "e": 1, "coeffs": [["1", "0"], ["-2", "1"]]}
PARTS_DOC = {"d": 1, "e": 1, "parts": [{"degree": 2, "coeffs": ["1", "-2", "1"]},
                                       {"degree": 0, "coeffs": ["1"]}]}

# (argv, modules loaded); {f}, {g} and {parts} name input files.
COMMANDS = [
    (["compose", "--left", "{f}", "--right", "{f}"], IO),
    (["iterate", "--input", "{f}", "--n", "2"], IO),
    (["conjugate", "--input", "{f}", "--moebius", "2,1,0,1"], IO),
    (["graph", "--moebius", "2,1,0,1"], IO),
    (["decompose", "--input", "{g}"], IO | {"corrdyn.clebsch"}),
    (["reconstruct", "--input", "{parts}"], IO | {"corrdyn.clebsch"}),
    (["project", "--input", "{f}"], IO | {"corrdyn.clebsch"}),
    (["stability", "--input", "{g}"], IO | {"corrdyn.stability"}),
    (["multipliers", "--input", "{g}"], IO | {"corrdyn.multiplier"}),
    (["verify", "--degree-cap", "2", "--only", "torus-weight-scaling"], EVERYTHING),
]


CHILD = """
import runpy, sys
try:
    runpy.run_module("corrdyn", run_name="__main__", alter_sys=True)
finally:
    print(sorted(m for m in sys.modules if m.split(".")[0] == "corrdyn"), file=sys.stderr)
"""


def loaded(argv):
    """(exit code, stdout, stderr lines, corrdyn modules) of one `python -m corrdyn` child."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True)
    *err, modules = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, err, set(ast.literal_eval(modules))


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in (("f", SQUARE_DOC), ("g", MOEBIUS_DOC), ("parts", PARTS_DOC)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return {name: str(path) for name, path in paths.items()}


def test_import_corrdyn_loads_no_submodule():
    code = "import sys, corrdyn; print(sorted(m for m in sys.modules if m.startswith('corrdyn')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['corrdyn']"


@pytest.mark.parametrize("argv, modules", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_each_command_loads_only_its_modules(files, argv, modules):
    code, _, err, seen = loaded([arg.format(**files) for arg in argv])
    assert (code, err) == (0, [])
    assert seen == modules


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_load_only_the_parser(flag):
    code, out, _, seen = loaded([flag])
    assert code == 0 and out
    assert seen == PARSER


def test_malformed_stability_input_never_loads_stability(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 1, "e": 1, "coeffs": [["1", "x"], ["0", "1"]]}')
    code, _, err, seen = loaded(["stability", "--input", str(path)])
    assert code == 3 and len(err) == 1 and err[0].startswith("SchemaError: ")
    assert seen == IO


def test_degenerate_compose_exits_2_without_multiplier(tmp_path):
    path = tmp_path / "l.json"
    path.write_text(json.dumps({"d": 1, "e": 1, "coeffs": [["1", "0"], ["0", "0"]]}))
    code, out, err, seen = loaded(["compose", "--left", str(path), "--right", str(path)])
    assert code == 2 and out == ""
    assert len(err) == 1 and err[0].startswith("DegenerateComposition: ")
    assert seen == IO

