"""tools/sameness.py: records repeat, planted faults change their cases, empty grids fail."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corrdyn
from corpus import CASES

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sameness.py"
TINY = ["--seeds", "1", "--caps", "2", "--cases", "2"]


def run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True, timeout=120
    )


def record(out, *extra):
    proc = run("record", "--out", out, *TINY, *extra)
    assert proc.returncode == 0, proc.stderr
    return out.read_text(encoding="utf-8")


def differing_keys(tmp_path, module, line, planted):
    """The keys that differ between this tree and a copy with line of module replaced."""
    src = tmp_path / "src"
    shutil.copytree(
        Path(corrdyn.__file__).parent, src / "corrdyn", ignore=shutil.ignore_patterns("__pycache__")
    )
    target = src / "corrdyn" / module
    text = target.read_text(encoding="utf-8")
    assert text.count(line) == 1
    target.write_text(text.replace(line, planted), encoding="utf-8")
    record(tmp_path / "good.json")
    record(tmp_path / "bad.json", "--src", src)
    proc = run("compare", tmp_path / "good.json", tmp_path / "bad.json")
    assert proc.returncode == 1
    return {row.split(": ", 1)[1] for row in proc.stdout.splitlines()[:-1]}


def families(keys):
    return {key.rsplit("/", 1)[0] for key in keys}


def test_tiny_grid_records_the_same_json_twice(tmp_path):
    first = record(tmp_path / "a.json")
    assert first == record(tmp_path / "b.json")
    keys = json.loads(first)  # two cases of every family, the CLI and the 12 generators
    assert "verify/seed=1/cap=2" in keys and {*CASES, "cli"} <= families(keys)
    assert len(keys) == 1 + 2 * (len(CASES) + 1 + 12)
    proc = run("compare", tmp_path / "a.json", tmp_path / "b.json")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].startswith("0 of ")


def test_planted_fault_changes_the_substitution_keys(tmp_path):
    line = "    return [list(row) for row in zip(*cols)]\n"
    differing = differing_keys(tmp_path, "forms.py", line, line.replace("cols", "cols[::-1]"))
    substitution = {"substitute_linear", "substitute_pair", "conjugate", "dz_coordinates"}
    assert substitution <= families(differing)
    assert "verify/seed=1/cap=2" in differing
    assert not any(
        key.startswith(("cg_decompose/", "diagonal_multiplicity_at_least/", "gen/"))
        for key in differing
    )


def test_planted_stability_fault_changes_the_multiplicity_keys(tmp_path):
    line = "        mult, witness = k + 1, w\n"
    differing = differing_keys(tmp_path, "stability.py", line, line.replace("k + 1", "k + 2"))
    assert "diagonal_multiplicity_at_least" in families(differing)


@pytest.mark.parametrize("flags", [
    ["--seeds", "5-1"],
    ["--caps", "3-2"],
    ["--cases", "0"],
    ["--cases", "-1"],
])
def test_an_empty_grid_is_a_usage_error(tmp_path, flags):
    proc = run("record", "--out", tmp_path / "x.json", *flags)
    assert proc.returncode == 2 and "error:" in proc.stderr
    assert not (tmp_path / "x.json").exists()
