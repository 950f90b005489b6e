import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from corrdyn.clebsch import cg_decompose
from corrdyn.cli import build_parser, main
from corrdyn.serialization import components_to_doc, correspondence_from_doc
from corpus import FUZZ_CASES, FUZZ_SEED, fuzz_case

SQUARE_DOC = {"d": 2, "e": 1, "coeffs": [["0", "-1"], ["0", "0"], ["1", "0"]]}
MOEBIUS_DOC = {"d": 1, "e": 1, "coeffs": [["1", "0"], ["-2", "1"]]}


# Arguments for each document subcommand, in the order of the parser; {f},
# {g} and {parts} name input files.
DOCUMENT_ARGS = {
    "compose": ["--left", "{f}", "--right", "{f}"],
    "iterate": ["--input", "{f}", "--n", "2"],
    "conjugate": ["--input", "{f}", "--moebius", "2,1,0,1"],
    "graph": ["--moebius", "2,0,0,1"],
    "decompose": ["--input", "{g}"],
    "reconstruct": ["--input", "{parts}"],
    "project": ["--input", "{f}", "--c0", "2", "--c1", "3"],
    "stability": ["--input", "{f}"],
    "multipliers": ["--input", "{g}"],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompose:
    def test_square_twice(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", SQUARE_DOC)
        code, out, _ = run_main(capsys, ["compose", "--left", path, "--right", path])
        assert code == 0
        doc = json.loads(out)
        assert (doc["d"], doc["e"]) == (4, 1)
        assert doc["coeffs"][4][0] != "0" and doc["coeffs"][0][1] != "0"

    @pytest.mark.parametrize("command", list(DOCUMENT_ARGS))
    def test_out_file(self, tmp_path, capsys, command):
        parts = components_to_doc(cg_decompose(correspondence_from_doc(MOEBIUS_DOC).form))
        files = {"f": write(tmp_path, "f.json", SQUARE_DOC),
                 "g": write(tmp_path, "g.json", MOEBIUS_DOC),
                 "parts": write(tmp_path, "parts.json", parts)}
        argv = [command] + [arg.format(**files) for arg in DOCUMENT_ARGS[command]]
        code, expected, _ = run_main(capsys, argv)
        assert code == 0 and expected
        out_path = tmp_path / "h.json"
        assert run_main(capsys, argv + ["--out", str(out_path)]) == (0, "", "")
        assert out_path.read_bytes() == expected.encode("utf-8")

    def test_degenerate_exit_code(self, tmp_path, capsys):
        left = write(tmp_path, "l.json", {"d": 1, "e": 1, "coeffs": [["1", "0"], ["0", "0"]]})
        code, _, err = run_main(capsys, ["compose", "--left", left, "--right", left])
        assert code == 2
        assert "DegenerateComposition" in err


class TestSchemaErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_main(capsys, ["stability", "--input", "/nonexistent.json"])
        assert code == 3 and "SchemaError" in err

    def test_zero_form(self, tmp_path, capsys):
        path = write(tmp_path, "z.json", {"d": 0, "e": 0, "coeffs": [["0"]]})
        code, _, err = run_main(capsys, ["stability", "--input", path])
        assert code == 3 and "SchemaError" in err

    def test_malformed_rational(self, tmp_path, capsys):
        path = write(tmp_path, "z.json", {"d": 0, "e": 0, "coeffs": [["1.5"]]})
        code, _, err = run_main(capsys, ["stability", "--input", path])
        assert code == 3

    def test_zero_denominator(self, tmp_path, capsys):
        path = write(tmp_path, "z.json", {"d": 0, "e": 0, "coeffs": [["1/0"]]})
        code, _, err = run_main(capsys, ["stability", "--input", path])
        assert code == 3 and "zero denominator" in err

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out(self, tmp_path, capsys, where):
        out = tmp_path / "no-such-dir" / "h.json" if where == "missing-directory" else tmp_path
        code, out_text, err = run_main(capsys, ["graph", "--moebius", "1,2,3,5", "--out", str(out)])
        assert code == 3 and out_text == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"SchemaError: cannot write {out}: ")

    @pytest.mark.parametrize("command", ["compose", "iterate", "multipliers"])
    def test_result_beyond_the_digit_limit(self, tmp_path, capsys, command):
        # Every input coefficient parses (2,500 digits), but the results need
        # more digits than str() converts, so they could not be read back.
        big = "7" * 2500
        f = write(tmp_path, "f.json", {"d": 1, "e": 1, "coeffs": [[big, big], ["2", "3"]]})
        argv = [command] + [arg.format(f=f, g=f) for arg in DOCUMENT_ARGS[command]]
        out = tmp_path / "h.json"
        code, out_text, err = run_main(capsys, argv + ["--out", str(out)])
        assert code == 3 and out_text == "" and not out.exists()
        assert len(err.splitlines()) == 1
        assert err.startswith("SchemaError: ") and "4300-digit limit" in err


class TestCommands:
    def test_graph_and_iterate(self, tmp_path, capsys):
        code, out, _ = run_main(capsys, ["graph", "--moebius", "2,0,0,1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["coeffs"] == [["0", "-1"], ["2", "0"]]
        path = write(tmp_path, "g.json", doc)
        code, out, _ = run_main(capsys, ["iterate", "--input", path, "--n", "2"])
        assert code == 0
        doc2 = json.loads(out)
        assert (doc2["d"], doc2["e"]) == (1, 1)

    def test_conjugate(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", SQUARE_DOC)
        code, out, _ = run_main(capsys, ["conjugate", "--input", path, "--moebius", "1,0,0,1"])
        assert code == 0
        assert json.loads(out) == SQUARE_DOC

    def test_decompose_reconstruct_round_trip(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", MOEBIUS_DOC)
        code, out, _ = run_main(capsys, ["decompose", "--input", path])
        assert code == 0
        parts = json.loads(out)
        assert len(parts["parts"]) == 2
        parts_path = write(tmp_path, "parts.json", parts)
        code, out, _ = run_main(capsys, ["reconstruct", "--input", parts_path])
        assert code == 0
        assert json.loads(out) == MOEBIUS_DOC

    def test_project(self, tmp_path, capsys):
        doc = {
            "d": 2,
            "e": 2,
            "coeffs": [["1", "2", "1"], ["3", "5", "-1"], ["2", "-4", "7"]],
        }
        path = write(tmp_path, "f.json", doc)
        code, out, _ = run_main(capsys, ["project", "--input", path, "--c0", "2", "--c1", "3"])
        assert code == 0
        image = json.loads(out)
        assert (image["d"], image["e"]) == (1, 3)

    def test_stability(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", SQUARE_DOC)
        code, out, _ = run_main(capsys, ["stability", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Stable"
        assert doc["max_multiplicity"] == 1

    def test_multipliers_good_position(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", MOEBIUS_DOC)
        code, out, _ = run_main(capsys, ["multipliers", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["sigma"] == ["1", "2", "1"]
        assert doc["multiplier_form"]["dz"][1] == "0"
        assert "normalized" in doc["multiplier_form"]

    def test_multipliers_bad_position(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", SQUARE_DOC)
        code, _, err = run_main(capsys, ["multipliers", "--input", path])
        assert code == 2 and "BadPosition" in err

    def test_multipliers_second_iterate(self, tmp_path, capsys):
        # graph of z -> (z + 2)/(z + 1); both iterates fix only +-sqrt(2)
        doc = {"d": 1, "e": 1, "coeffs": [["2", "-1"], ["1", "-1"]]}
        path = write(tmp_path, "f.json", doc)
        code, out, _ = run_main(capsys, ["multipliers", "--input", path, "--n", "2"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["iterate_bidegree"] == [1, 1]
        assert parsed["multiplier_form"]["dz"][1] == "0"
        assert len(parsed["sigma"]) == 3


class TestVerifyCommand:
    def test_single_identity(self, capsys):
        code, out, _ = run_main(
            capsys, ["verify", "--seed", "3", "--degree-cap", "2", "--only", "torus-weight-scaling"]
        )
        assert code == 0
        assert "PASS torus-weight-scaling" in out

    def test_unknown_identity_rejected(self, capsys):
        code, _, err = run_main(capsys, ["verify", "--only", "no-such-check"])
        assert code == 3
        assert err.startswith("UsageError: unknown identity 'no-such-check'; choose from ")

    def test_cap_validation(self, capsys):
        code, _, err = run_main(capsys, ["verify", "--degree-cap", "1"])
        assert code == 3 and err == "UsageError: degree cap must be at least 2\n"

    def test_failure_exit_code(self, capsys, monkeypatch):
        import corrdyn.multiplier as multiplier_mod
        from corrdyn.multiplier import DiagonalDerivatives

        original = multiplier_mod.diagonal_derivative_forms

        def flipped(f):
            dd = original(f)
            return DiagonalDerivatives(dd.diag, dd.diag_x, -dd.diag_y)

        monkeypatch.setattr(multiplier_mod, "diagonal_derivative_forms", flipped)
        code, out, _ = run_main(
            capsys, ["verify", "--seed", "1", "--degree-cap", "2", "--only", "hyperplane-residual"]
        )
        assert code == 1
        assert "FAIL hyperplane-residual" in out


class TestInternalError:
    def test_unexpected_exception_exits_4_with_one_line(self, tmp_path, capsys, monkeypatch):
        import corrdyn.stability as stability_mod

        def broken(f):
            raise RuntimeError("planted\nfailure")

        monkeypatch.setattr(stability_mod, "classify_stability", broken)
        path = write(tmp_path, "f.json", MOEBIUS_DOC)
        code, out, err = run_main(capsys, ["stability", "--input", path])
        assert code == 4
        assert out == ""
        assert err.splitlines() == ["InternalError: RuntimeError: planted failure"]


class TestSubprocess:
    def test_module_entry_point(self, tmp_path):
        path = write(tmp_path, "f.json", MOEBIUS_DOC)
        proc = subprocess.run(
            [sys.executable, "-m", "corrdyn", "stability", "--input", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "StrictlySemistable"

    @pytest.mark.parametrize(
        "entry", ["1" * 5000, "1/" + "3" * 5000], ids=["numerator", "denominator"]
    )
    def test_oversized_coefficient_is_a_schema_error(self, tmp_path, entry):
        # 5000 digits is over the interpreter's 4300-digit int() limit.
        path = write(tmp_path, "long.json", {"d": 0, "e": 0, "coeffs": [[entry]]})
        proc = subprocess.run(
            [sys.executable, "-m", "corrdyn", "stability", "--input", path],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("SchemaError")
        assert "Traceback" not in proc.stderr

    def test_non_ascii_digits_are_a_schema_error(self, tmp_path):
        # Arabic-Indic digits: \d and Fraction() accept them, the format does not.
        path = write(tmp_path, "a.json", {"d": 1, "e": 1, "coeffs": [
            ["\u0661/\u0662", "0"], ["0", "1"]]})
        proc = subprocess.run(
            [sys.executable, "-m", "corrdyn", "iterate", "--input", path, "--n", "2"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("SchemaError")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["stability", "multipliers"])
    def test_bidegree_zero_zero_is_a_schema_error(self, tmp_path, command):
        path = write(tmp_path, "c.json", {"d": 0, "e": 0, "coeffs": [["1"]]})
        proc = subprocess.run(
            [sys.executable, "-m", "corrdyn", command, "--input", path],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("SchemaError")
        assert "Traceback" not in proc.stderr

    def test_compose_without_middle_variable(self, tmp_path):
        left = write(tmp_path, "l.json", {"d": 1, "e": 0, "coeffs": [["2"], ["3"]]})
        right = write(tmp_path, "r.json", {"d": 0, "e": 1, "coeffs": [["5", "7"]]})
        proc = subprocess.run(
            [sys.executable, "-m", "corrdyn", "compose", "--left", left, "--right", right],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout) == {"d": 0, "e": 0, "coeffs": [["1"]]}

    def test_compose_with_a_tall_shared_linear_factor_ends(self, tmp_path):
        # f = (2x0 + 3x1)(E*y0 - y1) and g = (E*x0 - x1)(5y0 + 7y1) share the
        # middle factor E*z0 - z1; its root must not be found by trial
        # division up to sqrt(E).
        big = 10**30
        left = write(tmp_path, "l.json", {"d": 1, "e": 1, "coeffs": [
            [str(2 * big), "-2"], [str(3 * big), "-3"]]})
        right = write(tmp_path, "r.json", {"d": 1, "e": 1, "coeffs": [
            [str(5 * big), str(7 * big)], ["-5", "-7"]]})
        proc = subprocess.run(
            [sys.executable, "-m", "corrdyn", "compose", "--left", left, "--right", right],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("DegenerateComposition")
        assert "Traceback" not in proc.stderr

    def test_compose_with_a_tall_shared_quadratic_factor_ends(self, tmp_path):
        # f = (2x0 + 3x1) Q(y) and g = Q(x) (5y0 + 7y1) share the middle
        # factor Q = (E*z0 - z1)(2*z0 - z1), whose roots must be found without
        # trial division over the divisors of 2E.
        big = 10**30
        q = [2 * big, -(big + 2), 1]
        left = write(tmp_path, "l.json", {"d": 1, "e": 2, "coeffs": [
            [str(2 * c) for c in q], [str(3 * c) for c in q]]})
        right = write(tmp_path, "r.json", {"d": 2, "e": 1, "coeffs": [
            [str(5 * c), str(7 * c)] for c in q]})
        proc = subprocess.run(
            [sys.executable, "-m", "corrdyn", "compose", "--left", left, "--right", right],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("DegenerateComposition")
        assert "2*y0 - 1*y1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_verify_reports_are_byte_identical(self):
        cmd = [sys.executable, "-m", "corrdyn", "verify", "--seed", "7", "--degree-cap", "2",
               "--only", "resultant-equivariance"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout


# For each subcommand: (option strings, required, default, metavar) of every
# option after --help, in the order of the help text.
COMMAND_TABLE = {
    "compose": [(("--left",), True, None, None), (("--right",), True, None, None),
                (("--out",), False, None, None)],
    "iterate": [(("--input",), True, None, None), (("--n",), True, None, None),
                (("--out",), False, None, None)],
    "conjugate": [(("--input",), True, None, None), (("--moebius",), True, None, "a,b,c,d"),
                  (("--out",), False, None, None)],
    "graph": [(("--moebius",), True, None, "a,b,c,d"), (("--out",), False, None, None)],
    "decompose": [(("--input",), True, None, None), (("--out",), False, None, None)],
    "reconstruct": [(("--input",), True, None, None), (("--out",), False, None, None)],
    "project": [(("--input",), True, None, None), (("--c0",), False, "1", None),
                (("--c1",), False, "1", None), (("--out",), False, None, None)],
    "stability": [(("--input",), True, None, None), (("--out",), False, None, None)],
    "multipliers": [(("--input",), True, None, None), (("--n",), False, 1, None),
                    (("--out",), False, None, None)],
    "verify": [(("--seed",), False, 1, None), (("--degree-cap",), False, 3, None),
               (("--only",), False, None, "IDENT")],
}


def test_command_table():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    table = {
        name: [(tuple(a.option_strings), a.required, a.default, a.metavar)
               for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        for name, parser in sub.choices.items()
    }
    assert table == COMMAND_TABLE
    assert list(table) == list(COMMAND_TABLE)
    assert list(DOCUMENT_ARGS) == [name for name in table if name != "verify"]
    assert all(opts[-1][0] == ("--out",) for name, opts in table.items() if name != "verify")
    assert ("--out",) not in [opts for opts, *_ in table["verify"]]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["no-such-command"],
        ["compose", "--left", "f.json"],
        ["iterate", "--input", "f.json", "--n", "two"],
        ["iterate", "--input", "f.json", "--n", "0"],
        ["stability", "--input", "f.json", "--bogus"],
    ])
    def test_exit_3_with_one_line(self, capsys, argv):
        code, out, err = run_main(capsys, argv)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("UsageError: ")

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0

    def test_negative_values_in_the_separate_form(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", SQUARE_DOC)
        for argvs in (
            (["conjugate", "--input", path, "--moebius", "-1,0,0,1"],
             ["conjugate", "--input", path, "--moebius=-1,0,0,1"]),
            (["project", "--input", path, "--c0", "-1/2", "--c1", "-3"],
             ["project", "--input", path, "--c0=-1/2", "--c1=-3"]),
        ):
            separate, joined = (run_main(capsys, argv) for argv in argvs)
            assert separate[0] == 0 and separate == joined


class TestFuzz:
    """Seeded random and malformed input across the commands, in process.

    The 550 cases of tests/corpus.py drawn from random.Random(20261018), with
    relative file names in a temporary directory.  Every run must exit 0, 2
    or 3, print valid JSON on success and exactly one stderr line otherwise,
    and never a traceback.  The fixed case count keeps the test near 2 s.
    """

    def test_seeded_fuzz(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rng = random.Random(FUZZ_SEED)
        codes = set()
        for case in range(FUZZ_CASES):
            files, argv = fuzz_case(rng)
            for name, text in files.items():
                Path(name).write_text(text, encoding="utf-8")
            code, out, err = run_main(capsys, argv)
            context = (case, argv, list(files.values()), err)
            assert code in (0, 2, 3), context
            assert "Traceback" not in err, context
            if code == 0:
                json.loads(out)
            else:
                assert len(err.splitlines()) == 1 and out == "", context
            codes.add(code)
        assert codes == {0, 2, 3}
