import json
import subprocess
import sys

import pytest

from corrdyn.cli import main

SQUARE_DOC = {"d": 2, "e": 1, "coeffs": [["0", "-1"], ["0", "0"], ["1", "0"]]}
MOEBIUS_DOC = {"d": 1, "e": 1, "coeffs": [["1", "0"], ["-2", "1"]]}


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

    def test_out_file(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", SQUARE_DOC)
        out_path = tmp_path / "h.json"
        code, out, _ = run_main(
            capsys, ["compose", "--left", path, "--right", path, "--out", str(out_path)]
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["d"] == 4

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
        with pytest.raises(SystemExit):
            main(["verify", "--only", "no-such-check"])

    def test_cap_validation(self, capsys):
        code, _, err = run_main(capsys, ["verify", "--degree-cap", "1"])
        assert code == 3

    def test_failure_exit_code(self, capsys, monkeypatch):
        import corrdyn.multiplier as multiplier_mod
        from corrdyn.multiplier import DiagonalDerivatives

        original = multiplier_mod.diagonal_derivative_forms

        def flipped(f):
            dd = original(f)
            return DiagonalDerivatives(dd.diag, dd.diag_x, -dd.diag_y, dd.dz0_part, dd.dz1_part)

        monkeypatch.setattr(multiplier_mod, "diagonal_derivative_forms", flipped)
        code, out, _ = run_main(
            capsys, ["verify", "--seed", "1", "--degree-cap", "2", "--only", "hyperplane-residual"]
        )
        assert code == 1
        assert "FAIL hyperplane-residual" in out


class TestInternalError:
    def test_unexpected_exception_exits_4_with_one_line(self, tmp_path, capsys, monkeypatch):
        import corrdyn.cli as cli_mod

        def broken(f):
            raise RuntimeError("planted\nfailure")

        monkeypatch.setattr(cli_mod, "classify_stability", broken)
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

    def test_verify_reports_are_byte_identical(self):
        cmd = [sys.executable, "-m", "corrdyn", "verify", "--seed", "7", "--degree-cap", "2",
               "--only", "resultant-equivariance"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout
