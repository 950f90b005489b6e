"""Tests of the benchmark itself: pinned output digests, the tracer, the tail rule."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# sha256 of the first pass's canonical outputs at seed 1.  A change that alters
# any output changes these; fixing a known defect does not.
PINNED = {
    "iterate-multipliers": "911dfd7a5031cd0c07103c237f595af28d8b29db02aadd00479e367babb3cc80",
    "structure": "fdf6cd3390b42fb44d263e4737f1a846485e3f554da03cb2d792f45d5d8ec5ef",
    "cli-contract": "16e83a4529892a60ec50bcd438de0833953a47e817b8dbf9804ef56af6b9a917",
}


def first_pass_digest(name, work_dir):
    """The digest run.py prints, computing each distinct job of the pass once."""
    workload = run.set_up(name, 1, work_dir)
    loop = run.Loop()
    seen = {}
    for job in workload.pass_jobs(0):
        if id(job) not in seen:
            run.run_job(workload, job, loop)
            seen[id(job)] = loop.first_pass[-1]
        else:
            loop.first_pass.append(seen[id(job)])
    return workloads.digest(loop.first_pass), loop.first_pass


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_first_pass_digest_is_pinned(name, tmp_path):
    digest, outcomes = first_pass_digest(name, tmp_path)
    # No job is wrong or fails other than by a known defect, such as the
    # long-coefficient CLI job exiting 1 with a traceback instead of 3.
    assert [(label, verdict) for label, verdict, _ in outcomes
            if verdict not in ("ok", "known")] == []
    assert digest == PINNED[name]


def test_only_known_defects_leave_a_run_correct(capsys):
    loop = run.Loop()
    loop.latencies, loop.labels, loop.reasons = [0.1, 0.2], ["a", "b"], ["", "why"]
    for verdicts, correct in ((["ok", "known"], True), (["ok", "failed"], False),
                              (["wrong", "ok"], False)):
        loop.verdicts = verdicts
        run.report("header", loop, {}, [])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] is correct and result["failed"] == 1


def test_known_defects_are_recognised_by_how_they_fail():
    result = workloads.CliResult
    traceback = "Traceback (most recent call last):\nValueError: Exceeds the limit"
    assert workloads._known_defect("error", "long-coefficient", (), result(1, "", traceback, 0.1))
    assert workloads._known_defect("error", "long-coefficient", (), result(2, "", "", 0.1)) is None
    assert workloads._known_defect("error", "malformed-json", (), result(1, "", traceback, 0.1)) is None
    # A capped verify job is excused only when its hanging identity alone hangs
    # too; at verify seed 1 it ends.
    capped = result(-9, "", "", 5.0, capped=True)
    assert workloads._known_defect("verify", "verify-1", ("verify", "--seed", "1"), capped) is None


def test_tracer_rebinds_every_binding_and_restores():
    import corrdyn.correspondence as correspondence
    import corrdyn.multiplier as multiplier
    import corrdyn.resultant as resultant

    original = resultant.bareiss_det_poly
    t = tracer.Tracer()
    t.install([("corrdyn.resultant", "bareiss_det_poly", "det"),
               ("corrdyn.forms.BiForm", "mixed_partial", "mixed")])
    try:
        wrapped = resultant.bareiss_det_poly
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert correspondence.bareiss_det_poly is wrapped
        assert multiplier.bareiss_det_poly is wrapped
        assert run.TRACE_TARGETS  # the benchmark's own list resolves too
    finally:
        t.uninstall()
    assert resultant.bareiss_det_poly is original
    assert correspondence.bareiss_det_poly is original
    assert multiplier.bareiss_det_poly is original


def test_tracer_spans_nest_and_self_time_excludes_children():
    import corrdyn

    f = corrdyn.Correspondence.from_matrix(1, 1, [[1, 2], [3, 5]])
    g = corrdyn.Correspondence.from_matrix(1, 1, [[2, -1], [1, 4]])
    t = tracer.Tracer()
    t.install([("corrdyn.correspondence", "compose", "compose"),
               ("corrdyn.resultant", "bareiss_det_poly", "det")])
    try:
        t.job = 7
        corrdyn.compose(f, g)
    finally:
        t.uninstall()
    assert t.calls("compose") == 1 and t.calls("det") == 1
    det_span = next(s for s in t.spans if s[1] == "det")
    compose_span = next(s for s in t.spans if s[1] == "compose")
    assert det_span[4] == compose_span[0] and det_span[5] == 7
    assert t.self_ms("compose") == pytest.approx(t.total_ms("compose") - t.total_ms("det"))


def test_missing_layer_is_reported_absent():
    t = tracer.Tracer()
    t.install([("corrdyn.resultant", "no_such_kernel", "gone")])
    t.uninstall()
    assert t.absent == ["corrdyn.resultant.no_such_kernel"]
    assert t.calls("gone") == 0 and t.self_ms("gone") == 0


def test_tail_percentile_keeps_ten_jobs_beyond_it(tmp_path):
    assert run.tail([i / 1000 for i in range(1, 101)], 90) == pytest.approx(0.090)
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 1, tmp_path)
        n = run.min_passes(workload) * len(workload.pass_jobs(0))
        assert n - math.ceil(n * workload.tail_pct / 100) >= run.TAIL_BEYOND


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "structure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
