"""tools/sameness.py: records are reproducible and a planted fault changes its cases."""

import shutil
import subprocess
import sys
from pathlib import Path

import corrdyn

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


def test_tiny_grid_records_the_same_json_twice(tmp_path):
    first = record(tmp_path / "a.json")
    assert first == record(tmp_path / "b.json")
    proc = run("compare", tmp_path / "a.json", tmp_path / "b.json")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].startswith("0 of ")


def test_planted_fault_changes_the_substitution_keys(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(
        Path(corrdyn.__file__).parent, src / "corrdyn", ignore=shutil.ignore_patterns("__pycache__")
    )
    target = src / "corrdyn" / "forms.py"
    line = "    return [list(row) for row in zip(*cols)]\n"
    text = target.read_text(encoding="utf-8")
    assert text.count(line) == 1
    target.write_text(text.replace(line, line.replace("cols", "cols[::-1]")), encoding="utf-8")
    record(tmp_path / "good.json")
    record(tmp_path / "bad.json", "--src", src)
    proc = run("compare", tmp_path / "good.json", tmp_path / "bad.json")
    assert proc.returncode == 1
    differing = {row.split(": ", 1)[1] for row in proc.stdout.splitlines()[:-1]}
    assert {"substitute_linear/0", "substitute_pair/0", "conjugate/0"} <= differing
    assert "verify/seed=1/cap=2" in differing
    assert not any(key.startswith(("cg_decompose/", "gen/")) for key in differing)
