"""Seeded workloads of the corrdyn benchmark: inputs, jobs and output checks.

Every workload is a closed loop with one client: job i+1 starts when job i
has finished.  A workload is a *pass* of jobs that the loop repeats a fixed
number of times; inputs come from the ``corrdyn.verify`` generators driven by
a ``random.Random`` seeded with the workload name, the benchmark seed and the
pass number, so a seed always gives the same inputs.  Set-up redraws an input
only for the one stated precondition (the iterate of an
``iterate-multipliers`` input must exist and be in good position); slow
inputs and inputs that hit known defects stay.

A job's ``work`` is the timed call into corrdyn.  Its ``check`` runs untimed
afterwards and returns (verdict, reason, doc): verdict "ok", "wrong" (it
delivered a result that is not correct), "failed" (it did not deliver: wrong
exit code, traceback, unexpected exception, the job cap) or "known" (it
failed in the way a known corrdyn defect makes it fail).  A run is correct
when no job is "wrong" or "failed".  ``doc`` is the canonical JSON-able
output that feeds the workload digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from time import perf_counter
from typing import Callable

# Jobs call corrdyn through the package namespace (cd.compose, ...), which the
# tracer rebinds; a name imported here would escape it.
import corrdyn as cd
from corrdyn import BiForm, Correspondence, DegenerateComposition, Verdict
from corrdyn import cli, clebsch, serialization
from corrdyn import verify as gen

WORKLOADS = ("iterate-multipliers", "structure", "cli-contract")

# Jobs slower than this count as failed; in-process jobs are interrupted, child
# processes are killed.  The slowest job that finishes takes about 1.5 s on a
# loaded 2-vCPU machine.
JOB_CAP_S = 5.0

# Jobs whose failure is a known corrdyn defect.  Their outcome stays out of the
# digest, so fixing the defect leaves the digest as it is.
KNOWN_FAILURE_LABELS = frozenset({"long-coefficient"})


@dataclass
class Job:
    kind: str
    label: str
    work: Callable[[], object]
    check: Callable[[object], tuple[str, str, object]]


@dataclass
class Workload:
    name: str
    # make_pass(p) draws pass p's jobs from the seed and p.  Every pass has the
    # same job classes in the same order, on fresh inputs, so a run pools each
    # class over as many inputs as it has passes.
    make_pass: Callable[[int], list[Job]]
    warmups: list[Job]
    seed: int
    scratch: Path  # JSON inputs and child output files
    # job_tail_ref reads this percentile; each pass is built so that it falls
    # inside one class of jobs, pooled over the run's inputs.
    tail_pct: float
    # Wall seconds of one pass, jobs and input drawing, on the 2-vCPU x86-64
    # machine the benchmark was tuned on.  A run of S seconds makes S / pass_s
    # passes, a count fixed by S alone, so every run of a seed measures the
    # same inputs however fast the machine is.
    pass_s: float
    in_process: bool = True
    _drawn: tuple = (None, None)  # the last pass drawn, (p, jobs)

    def pass_jobs(self, p: int) -> list[Job]:
        if self._drawn[0] != p:
            self._drawn = (p, self.make_pass(p))
        return self._drawn[1]


def digest(outcomes) -> str:
    """sha256 of the canonical JSON of (label, verdict, doc) job outcomes.

    Jobs with a known defect are left out, whether or not they failed.
    """
    docs = [doc for label, verdict, doc in outcomes
            if verdict != "known" and label not in KNOWN_FAILURE_LABELS]
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def build(name: str, seed: int, work_dir: Path) -> Workload:
    def rng(part):
        return random.Random(f"perfbench/{name}/{seed}/{part}")

    warm = rng("warm-up")
    if name == "iterate-multipliers":
        return Workload(name, lambda p: _iterate_pass(rng(p)), _iterate_warmups(warm),
                        seed, work_dir, tail_pct=75, pass_s=4.2)
    if name == "structure":
        return Workload(name, lambda p: _structure_pass(rng(p)), _structure_warmups(warm),
                        seed, work_dir, tail_pct=92, pass_s=2.8)
    if name == "cli-contract":
        warmups = [job for job in _cli_pass(warm, work_dir / "warm-up")
                    if job.label in ("multipliers-n2", "malformed-json")]
        return Workload(name, lambda p: _cli_pass(rng(p), work_dir / "pass"), warmups, seed,
                        work_dir, tail_pct=75, pass_s=5.0, in_process=False)
    raise ValueError(f"unknown workload {name!r}")


def _ok(doc):
    return "ok", "", doc


def _strs(values):
    return [str(v) for v in values]


def _form_doc(form: BiForm):
    return [_strs(row) for row in form.coeffs]


# ---------------------------------------------------------------------------
# iterate-multipliers: iterate -> multiplier_form -> sigma_spectrum -> dz


def _iterate_in_good_position(f: Correspondence, n: int) -> bool:
    """The precondition multiplier_form documents, checked on the n-th iterate."""
    try:
        it = cd.iterate(f, n)
    except DegenerateComposition:
        return False
    d, e = it.bidegree
    if it.form.coeffs[0][0] == 0 or it.form.coeffs[d][e] == 0:
        return False
    dd = cd.diagonal_derivative_forms(it)
    shared = cd.binary_gcd([dd.diag, dd.diag_x, dd.diag_y])
    return not shared.is_zero() and shared.degree == 0


def _multiplier_job(kind, label, f, n) -> Job:
    def work():
        it = cd.iterate(f, n)
        r = cd.multiplier_form(it)
        return it.bidegree, cd.sigma_spectrum(r), cd.dz_coordinates(r, *it.bidegree)

    def check(result):
        bidegree, spectrum, dz = result
        doc = {"job": label, "bidegree": list(bidegree), "sigma": _strs(spectrum.sigma),
               "dz": _strs(dz)}
        if dz[1] != 0:
            return "wrong", f"{label}: dz[1] = {dz[1]}, expected 0", doc
        if spectrum.sigma[0] != 1:
            return "wrong", f"{label}: sigma_0 = {spectrum.sigma[0]}", doc
        if kind == "map-graph" and cd.index_residual(spectrum) != 0:
            return "wrong", f"{label}: index residual {cd.index_residual(spectrum)}", doc
        return _ok(doc)

    return Job(kind, label, work, check)


def _draw_good(rng, d, e, n):
    while True:
        f = gen.rand_good_position(rng, d, e)
        if _iterate_in_good_position(f, n):
            return f


def _draw_map(rng, d, n):
    while True:
        f = gen.rand_map_graph(rng, d)
        if _iterate_in_good_position(f, n):
            return f


def _iterate_pass(rng) -> list[Job]:
    # Eleven jobs: three good(3, 2)^2 hold the median and the heavy jobs,
    # good(2, 2)^3 and three good(3, 3)^2, the top four, so that job_p50_ref and
    # job_tail_ref (p75) each read one class pooled over inputs.
    plan = [
        ("good-position", (2, 2), 2), ("good-position", (3, 3), 2), ("map-graph", 2, 2),
        ("good-position", (3, 2), 2), ("good-position", (3, 3), 2), ("map-graph", 2, 3),
        ("good-position", (3, 2), 2), ("good-position", (2, 2), 3), ("map-graph", 3, 2),
        ("good-position", (3, 3), 2), ("good-position", (3, 2), 2),
    ]
    jobs = []
    for kind, deg, n in plan:
        if kind == "good-position":
            f = _draw_good(rng, *deg, n)
            label = f"good{deg}^{n}"
        else:
            f = _draw_map(rng, deg, n)
            label = f"map{deg}^{n}"
        jobs.append(_multiplier_job(kind, label, f, n))
    return jobs


def _iterate_warmups(rng) -> list[Job]:
    return [
        _multiplier_job("good-position", "warm-good", _draw_good(rng, 2, 2, 2), 2),
        _multiplier_job("map-graph", "warm-map", _draw_map(rng, 2, 2), 2),
    ]


# ---------------------------------------------------------------------------
# structure: stability, Clebsch-Gordan, projection, conjugation, oracle


def planted_multiplicity(rng, d: int, e: int, k: int) -> Correspondence:
    """Random (d, e) form with a_ij = 0 for i + j < k: multiplicity >= k at ([1:0], [1:0])."""
    rows = [[0 if i + j < k else rng.randint(-9, 9) for j in range(e + 1)] for i in range(d + 1)]
    i = rng.randint(max(0, k - e), min(d, k))
    rows[i][k - i] = rng.choice([v for v in range(-9, 10) if v])
    return Correspondence(BiForm(d, e, rows))


def _stability_job(label, f, k) -> Job:
    n = f.deg_x + f.deg_y

    def check(res):
        doc = {"job": label, "verdict": res.verdict.value, "mult": res.max_multiplicity,
               "witness": _strs(res.witness.coeffs)}
        expected = (Verdict.STABLE if 2 * res.max_multiplicity < n else
                    Verdict.STRICTLY_SEMISTABLE if 2 * res.max_multiplicity == n else
                    Verdict.UNSTABLE)
        if res.max_multiplicity < k or res.verdict != expected:
            return ("wrong",
                    f"{label}: {res.verdict.value} at multiplicity {res.max_multiplicity}", doc)
        if not res.witness.is_zero() and res.witness.evaluate(1, 0) != 0:
            return "wrong", f"{label}: witness does not vanish at the planted point", doc
        return _ok(doc)

    return Job("stability", label, lambda: cd.classify_stability(f), check)


def _cg_job(label, f) -> Job:
    def work():
        parts = cd.cg_decompose(f.form)
        return parts, cd.cg_reconstruct(parts)

    def check(result):
        parts, back = result
        doc = {"job": label, "parts": [_strs(p.coeffs) for p in parts.parts]}
        if back != f.form:
            return "wrong", f"{label}: round trip changed the form", doc
        return _ok(doc)

    return Job(f"cg-{f.deg_x}", label, work, check)


def _rho_job(label, f) -> Job:
    n = f.deg_x + f.deg_y

    def work():
        return cd.rho_embed(cd.cayley_omega(f.form, 0), cd.cayley_omega(f.form, 1), 1, n - 1)

    def check(image):
        doc = {"job": label, "coeffs": _form_doc(image)}
        if (cd.cayley_omega(image, 0) != cd.cayley_omega(f.form, 0)
                or cd.cayley_omega(image, 1) != cd.cayley_omega(f.form, 1)):
            return "wrong", f"{label}: projection changed the first two Cayley powers", doc
        return _ok(doc)

    return Job(f"rho-{f.deg_x}", label, work, check)


def _conjugate_job(label, f, g) -> Job:
    def check(h):
        doc = {"job": label, "coeffs": _form_doc(h.form)}
        if not cd.conjugate(h, g.inverse()).projectively_equal(f):
            return "wrong", f"{label}: conjugating back by g^-1 does not return f", doc
        return _ok(doc)

    return Job("conjugate", label, lambda: cd.conjugate(f, g), check)


def _oracle_job(label, f) -> Job:
    def check(spectrum):
        doc = {"job": label, "sigma": _strs(spectrum.sigma)}
        if cd.index_residual(spectrum) != 0:
            return "wrong", f"{label}: index residual {cd.index_residual(spectrum)}", doc
        return _ok(doc)

    return Job("oracle", label, lambda: cd.rational_fixed_point_oracle(f), check)


STRUCTURE_SIZES = (8, 10, 12)
# Seven of the round trips are at (12, 12): their cost varies little from input
# to input, and with nine jobs cheaper and twelve dearer they hold the median
# of the pass, which job_p50_ref reads.
CG_SIZES = (8, 10) + (12,) * 7


def _structure_pass(rng) -> list[Job]:
    # (d, k): verdicts Stable, Unstable, Stable, StrictlySemistable, Stable,
    # StrictlySemistable, Unstable.  The three (12, 12) jobs, close in cost,
    # are the slowest ninth of the 28 jobs, which job_tail_ref (p92) reads.
    stability = [(6, 3), (8, 9), (10, 5), (10, 10), (12, 11), (12, 12), (12, 13)]
    kinds = {
        "stability": [_stability_job(f"stab({d},{d})k{k}", planted_multiplicity(rng, d, d, k), k)
                      for d, k in stability],
        "cg": [_cg_job(f"cg({d},{d})", gen.rand_correspondence(rng, d, d)) for d in CG_SIZES],
        "rho": [_rho_job(f"rho({d},{d})", gen.rand_correspondence(rng, d, d))
                for d in STRUCTURE_SIZES],
        "conjugate": [_conjugate_job(f"conj({d},{d})", gen.rand_correspondence(rng, d, d),
                                     gen.rand_moebius(rng)) for d in STRUCTURE_SIZES],
        "oracle": [_oracle_job(f"oracle{d}", gen.rand_split_map_graph(rng, d))
                   for d in range(3, 9)],
    }
    jobs = []
    while any(kinds.values()):
        for queue in kinds.values():
            if queue:
                jobs.append(queue.pop(0))
    return jobs


def _structure_warmups(rng) -> list[Job]:
    # Clebsch-Gordan tables are cached per bidegree, so those kinds warm up at
    # every bidegree the passes use.
    return [
        _stability_job("warm-stab", planted_multiplicity(rng, 4, 4, 2), 2),
        *(_cg_job(f"warm-cg{d}", gen.rand_correspondence(rng, d, d)) for d in STRUCTURE_SIZES),
        *(_rho_job(f"warm-rho{d}", gen.rand_correspondence(rng, d, d)) for d in STRUCTURE_SIZES),
        _conjugate_job("warm-conj", gen.rand_correspondence(rng, 3, 3), gen.rand_moebius(rng)),
        _oracle_job("warm-oracle", gen.rand_split_map_graph(rng, 3)),
    ]


# ---------------------------------------------------------------------------
# cli-contract: sequential `python -m corrdyn` children


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    capped: bool = False


def child_env() -> dict:
    """The environment for `python -m corrdyn`: this corrdyn first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(cd.__file__).resolve().parent.parent)
    return env


def run_child(argv, env, cwd, scratch: Path, cap=JOB_CAP_S) -> CliResult:
    """Run one child with output in files; reap it with wait4 for its own rusage."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=cwd, env=env)
        timer = threading.Timer(cap, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        capped=wall >= cap and proc.returncode < 0,
    )


def run_main_in_process(args) -> CliResult:
    """cli.main in this process, with a cold Clebsch-Gordan cache as in a fresh child.

    An exception that is not an Exception (the benchmark's job cap) propagates.
    """
    for table in ("_omega_table", "_block_inverse"):
        cached = getattr(clebsch, table, None)
        if cached is not None and hasattr(cached, "cache_clear"):
            cached.cache_clear()
    out, err = StringIO(), StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what the interpreter does with an uncaught error
            traceback.print_exc()
            code = 1
    return CliResult(code, out.getvalue(), err.getvalue(), perf_counter() - start)


@dataclass
class CliJob(Job):
    args: tuple = ()


def _cli_job(kind, label, args, want_code, check_stdout=None) -> CliJob:
    def check(res: CliResult):
        doc = {"job": label, "code": res.code, "stdout": res.stdout}
        if res.capped:
            failure = f"{label}: killed at the {JOB_CAP_S:.0f} s cap"
        elif "Traceback" in res.stderr:
            last = res.stderr.strip().splitlines()[-1]
            failure = f"{label}: exit {res.code} with a traceback ({last[:120]})"
        elif res.code != want_code:
            failure = f"{label}: exit {res.code}, expected {want_code}"
        elif check_stdout is not None and (problem := check_stdout(res.stdout)):
            return "wrong", f"{label}: {problem}", doc
        else:
            return _ok(doc)
        known = _known_defect(kind, label, args, res)
        if known:
            return "known", f"{failure}; known defect: {known}", doc
        return "failed", failure, doc

    return CliJob(kind, label, None, check, args=tuple(args))


def _known_defect(kind, label, args, res: CliResult) -> str | None:
    """The known corrdyn defect that explains this CLI failure, or None."""
    if label == "long-coefficient" and res.code == 1 and "Traceback" in res.stderr:
        return "a coefficient over 4300 digits exits 1 with a traceback instead of 3"
    if kind == "verify" and res.capped and _identity_hangs(int(args[2])):
        return "spectrum-conjugation-invariance alone does not end for this seed"
    return None


_HANGS: dict[int, bool] = {}


def _identity_hangs(seed: int) -> bool:
    """Whether the spectrum-conjugation-invariance identity alone outlasts the job cap.

    It retries Moebius maps in a loop that never ends when the drawn
    correspondence has an infinite multiplier; about one verify seed in
    twenty-five draws one.
    """
    if seed not in _HANGS:
        code = ("from corrdyn.verify import run_verify_suite; "
                f"run_verify_suite({seed}, 3, only='spectrum-conjugation-invariance')")
        try:
            subprocess.run([sys.executable, "-c", code], env=child_env(),
                           stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, timeout=JOB_CAP_S)
            _HANGS[seed] = False
        except subprocess.TimeoutExpired:  # the child is killed and reaped
            _HANGS[seed] = True
    return _HANGS[seed]


def _verify_stdout(text):
    last = text.strip().splitlines()[-1] if text.strip() else ""
    total = len(gen.CHECK_NAMES)
    if last != f"result: PASS ({total}/{total} identities hold)":
        return f"verify ended with {last!r}"
    return None


def _doc_check(predicate, what):
    def check(text):
        try:
            return None if predicate(json.loads(text)) else what
        except json.JSONDecodeError:
            return "stdout is not JSON"
        except (KeyError, IndexError, TypeError, ValueError):
            return f"unexpected document shape ({what})"

    return check


def _write_doc(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def degenerate_pair(rng, height: int):
    """(f, g, p0, p1): f carries L(y) and g carries L(x), L = p1*z0 - p0*z1.

    L vanishes at the rational point [p0 : p1] with p0 > 0 and gcd 1, the
    normalization rational_roots reports, and |p1| = height.
    """
    p1 = height * rng.choice((-1, 1))
    p0 = rng.choice([q for q in range(1, 10) if math.gcd(q, height) == 1])
    ly = BiForm(0, 1, [[p1, -p0]])
    lx = BiForm(1, 0, [[p1], [-p0]])
    f = Correspondence(gen.rand_biform(rng, 2, 1) * ly)
    g = Correspondence(gen.rand_biform(rng, 1, 2) * lx)
    return f, g, p0, p1


def _cli_pass(rng, work_dir: Path) -> list[Job]:
    """One pass of CLI jobs on inputs drawn from `rng` and written to `work_dir`."""
    work_dir.mkdir(exist_ok=True)
    to_doc = serialization.correspondence_to_doc
    f = _draw_good(rng, 2, 2, 2)
    g = gen.rand_correspondence(rng, 2, 1)
    planted = planted_multiplicity(rng, 4, 4, 4)
    h = gen.rand_correspondence(rng, 3, 3)
    c = gen.rand_correspondence(rng, 3, 2)
    m = gen.rand_moebius(rng)
    bad_rows = [[rng.randint(1, 9) for _ in range(3)] for _ in range(3)]
    bad_rows[0][0] = 0  # a fixed point at 0: BadPosition
    # A planted root of height 1e10-1e12: rational_roots' trial division costs
    # 10-100 ms of the child, which a root-finder change would show.
    df, dg, _, _ = degenerate_pair(rng, int(10 ** rng.uniform(10, 12)))
    digits = str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(4400))

    files = {
        "f": _write_doc(work_dir / "f.json", to_doc(f)),
        "g": _write_doc(work_dir / "g.json", to_doc(g)),
        "planted": _write_doc(work_dir / "planted.json", to_doc(planted)),
        "h": _write_doc(work_dir / "h.json", to_doc(h)),
        "parts": _write_doc(work_dir / "parts.json",
                            serialization.components_to_doc(cd.cg_decompose(h.form))),
        "c": _write_doc(work_dir / "c.json", to_doc(c)),
        "bad": _write_doc(work_dir / "bad.json",
                          {"d": 2, "e": 2, "coeffs": [_strs(r) for r in bad_rows]}),
        "df": _write_doc(work_dir / "df.json", to_doc(df)),
        "dg": _write_doc(work_dir / "dg.json", to_doc(dg)),
        "long": _write_doc(work_dir / "long.json",
                           {"d": 1, "e": 1, "coeffs": [[digits, "1"], ["2", "3"]]}),
    }
    malformed = work_dir / "malformed.json"
    malformed.write_text('{"d": 1, "e": 1, "coeffs": [["1", "0"], ["-2"', encoding="utf-8")
    files["malformed"] = str(malformed)
    moebius = ",".join(str(v) for v in m.entries())

    def conj_back(doc):
        back = serialization.correspondence_from_doc(doc)
        return (back.bidegree == c.bidegree
                and cd.conjugate(back, m.inverse()).projectively_equal(c))

    def stability_ok(doc):
        witness = doc["witness"]["coeffs"]
        n, mult = planted.deg_x + planted.deg_y, doc["max_multiplicity"]
        want = "Stable" if 2 * mult < n else "StrictlySemistable" if 2 * mult == n else "Unstable"
        return mult >= 4 and doc["verdict"] == want and (
            witness[0] == "0" or all(w == "0" for w in witness))

    def multipliers_ok(doc):
        return doc["multiplier_form"]["dz"][1] == "0" and doc["sigma"][0] == "1"

    # verify is the slowest job; five of the fifteen jobs per pass keep
    # job_tail_ref (p75) on it.
    seed = rng.randint(1, 10**6)
    verify = _cli_job("verify", f"verify-{seed}",
                      ["verify", "--seed", str(seed), "--degree-cap", "3"], 0, _verify_stdout)
    return [
        verify,
        _cli_job("compose", "compose", ["compose", "--left", files["f"], "--right", files["g"]],
                 0, _doc_check(lambda d: (d["d"], d["e"]) == (4, 2),
                               "composite bidegree is not (4, 2)")),
        _cli_job("multipliers", "multipliers-n2",
                 ["multipliers", "--input", files["f"], "--n", "2"], 0,
                 _doc_check(multipliers_ok, "dz[1] != 0 or sigma_0 != 1")),
        _cli_job("error", "malformed-json", ["stability", "--input", files["malformed"]], 3),
        _cli_job("stability", "stability", ["stability", "--input", files["planted"]], 0,
                 _doc_check(stability_ok, "verdict or witness disagrees with the planted point")),
        _cli_job("decompose", "decompose", ["decompose", "--input", files["h"]], 0,
                 _doc_check(lambda d: len(d["parts"]) == 4, "expected 4 Cayley components")),
        verify,
        verify,
        _cli_job("error", "bad-position", ["multipliers", "--input", files["bad"]], 2),
        _cli_job("reconstruct", "reconstruct", ["reconstruct", "--input", files["parts"]], 0,
                 _doc_check(lambda d: d == to_doc(h), "reconstruction differs from the input")),
        # --moebius=... because argparse reads a leading "-3,..." as an option
        _cli_job("conjugate", "conjugate",
                 ["conjugate", "--input", files["c"], f"--moebius={moebius}"], 0,
                 _doc_check(conj_back, "conjugating back does not return the input")),
        _cli_job("error", "degenerate",
                 ["compose", "--left", files["df"], "--right", files["dg"]], 2),
        verify,
        _cli_job("error", "long-coefficient", ["stability", "--input", files["long"]], 3),
        verify,
    ]

