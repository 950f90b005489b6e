"""corrdyn benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; corrdyn is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines above it
give every metric with its unit and base.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

if __name__ == "__main__" and not (SRC / "corrdyn" / "__init__.py").is_file():
    sys.exit(f"perfbench: no corrdyn package under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))  # this checkout's corrdyn, ahead of any installed copy

import corrdyn  # noqa: E402
import corrdyn.clebsch  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # set-ups timed in fresh processes; setup_s is their median
# job_tail_ref is each workload's fixed percentile (Workload.tail_pct); a run
# makes enough whole passes that at least this many jobs lie beyond it.
TAIL_BEYOND = 10
# The passes of a run stop early once its loop has taken this long, so that a
# run whose jobs hit the cap still ends within three minutes.
LOOP_DEADLINE_S = 120

# The verify identities, one per-layer metric each.  The names are fixed here,
# as in BENCHMARK.json; an identity the library no longer has reads 0.
VERIFY_CHECKS = (
    "biform-homogeneity", "diagonal-restriction-linearity", "mixed-partial-commutation",
    "gcd-divides-inputs", "substitution-composition", "resultant-equivariance",
    "resultant-multiplicativity", "resultant-common-factor", "resultant-shift-invariance",
    "covariant-specialization", "composition-bidegree", "composition-associativity",
    "moebius-graph-composition", "conjugation-action-law", "conjugation-diagonal-equivariance",
    "cayley-linearity", "cayley-explicit-monomial", "cg-roundtrip",
    "omega0-conjugation-equivariance", "torus-weight-scaling", "stability-conjugation-invariance",
    "stability-odd-parity", "stability-matrix-crosscheck", "multiplicity-monotonicity",
    "derivative-linear-relations", "spectrum-conjugation-invariance",
    "multiplier-oracle-agreement", "invariant-normalized-coefficients", "hyperplane-residual",
    "index-residual", "woods-hole-residual", "serialization-roundtrip",
)

# (owner, attribute, span name).  Every module-level binding of each function
# is rebound, so names imported into other corrdyn modules are traced too.
TRACE_TARGETS = [
    ("corrdyn.resultant", "bareiss_det_poly", "resultant.det_poly"),
    ("corrdyn.resultant", "bareiss_det_int", "resultant.det_int"),
    ("corrdyn.resultant", "covariant_resultant", "resultant.covariant_resultant"),
    ("corrdyn.correspondence", "compose", "correspondence.compose"),
    ("corrdyn.correspondence", "iterate", "correspondence.iterate"),
    ("corrdyn.correspondence", "conjugate", "correspondence.conjugate"),
    ("corrdyn.forms", "rational_roots", "forms.rational_roots"),
    ("corrdyn.forms", "binary_gcd", "forms.binary_gcd"),
    ("corrdyn.forms.BiForm", "mixed_partial", "forms.mixed_partial"),
    ("corrdyn.forms.BiForm", "diagonal_restriction", "forms.diagonal_restriction"),
    ("corrdyn.forms.BiForm", "substitute_pair", "forms.substitute_pair"),
    ("corrdyn.forms.BinaryForm", "substitute_linear", "forms.substitute_linear"),
    ("corrdyn.stability", "classify_stability", "stability.classify"),
    ("corrdyn.stability", "diagonal_multiplicity_at_least", "stability.multiplicity_at_least"),
    ("corrdyn.clebsch", "cayley_omega", "clebsch.cayley_omega"),
    ("corrdyn.clebsch", "cg_decompose", "clebsch.cg_decompose"),
    ("corrdyn.clebsch", "cg_reconstruct", "clebsch.cg_reconstruct"),
    ("corrdyn.clebsch", "rho_embed", "clebsch.rho_embed"),
    ("corrdyn.multiplier", "multiplier_form", "multiplier.multiplier_form"),
    ("corrdyn.multiplier", "sigma_spectrum", "multiplier.sigma_spectrum"),
    ("corrdyn.multiplier", "dz_coordinates", "multiplier.dz_coordinates"),
    ("corrdyn.multiplier", "rational_fixed_point_oracle", "multiplier.oracle"),
    ("corrdyn.serialization", "_loads", "serialization.parse_json"),
    ("corrdyn.serialization", "correspondence_from_doc", "serialization.parse_doc"),
    ("corrdyn.serialization", "components_from_doc", "serialization.parse_components"),
    ("corrdyn.serialization", "_dumps", "serialization.dump_json"),
    ("corrdyn.serialization", "correspondence_to_doc", "serialization.dump_doc"),
    ("corrdyn.serialization", "components_to_doc", "serialization.dump_components"),
    ("corrdyn.serialization", "binary_form_to_doc", "serialization.dump_binary"),
    ("corrdyn.cli", "main", "cli.main"),
]

CACHED_TABLES = ("_omega_table", "_block_inverse")  # lru_cache tables in corrdyn.clebsch
CHILD_ENV = workloads.child_env()
REFERENCE_CHILD = [sys.executable, str(Path(reference.__file__).resolve())]


def reference_s(child: bool) -> float:
    """The reference time now, in seconds, for a job run in this process or as a child.

    In this process it is the fastest of five kernel calls; for a child it is
    the faster of two fresh interpreters that run the kernel once, so that it
    follows the machine's speed at starting processes too.
    """
    if not child:
        return reference.best_of(5)
    best = math.inf
    for _ in range(2):
        start = perf_counter()
        subprocess.run(REFERENCE_CHILD, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
                       timeout=60)
        best = min(best, perf_counter() - start)
    return best


class JobTimeout(BaseException):
    """Raised by SIGALRM at the job cap; a BaseException so no library handler catches it."""


def _alarm(signum, frame):
    raise JobTimeout()


class Loop:
    """The closed loop's outcomes: per-job latency, CPU, reference time and verdict."""

    def __init__(self):
        self.latencies: list[float] = []
        self.cpus: list[float] = []  # user+sys seconds of each job, its child included
        self.refs: list[float] = []  # reference time measured right after each job
        self.verdicts: list[str] = []
        self.reasons: list[str] = []
        self.labels: list[str] = []
        self.first_pass: list[tuple] = []  # (label, verdict, doc) of pass 0, for the digest
        self.pass_ends: list[int] = []  # job index after each pass
        self.child_maxrss_kb = 0
        self.child_walls: list[float] = []

    @property
    def passes(self):
        return len(self.pass_ends)

    @property
    def wall_s(self):
        """Timed wall seconds: the jobs' latencies, not the checks between them."""
        return sum(self.latencies)

    def per_pass(self, values):
        """`values`, one per job, split into the run's passes."""
        return [values[a:b] for a, b in zip([0] + self.pass_ends, self.pass_ends)]


def run_job(workload, job, loop: Loop, tracer_=None, in_process_cli=False):
    """Time one job, check it untimed, and record the outcome."""
    result, failure = None, None
    cpu = process_time()
    if workload.in_process or in_process_cli:
        signal.setitimer(signal.ITIMER_REAL, workloads.JOB_CAP_S)
        start = perf_counter()
        try:
            result = job.work() if workload.in_process else workloads.run_main_in_process(job.args)
        except JobTimeout:
            failure = f"{job.label}: interrupted at the {workloads.JOB_CAP_S:.0f} s cap"
        except Exception as exc:
            failure = f"{job.label}: {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            latency = perf_counter() - start
        cpu = process_time() - cpu
    else:
        result = workloads.run_child([sys.executable, "-m", "corrdyn", *job.args],
                                     CHILD_ENV, ROOT, workload.scratch)
        latency = result.wall_s
        cpu = process_time() - cpu + result.cpu_s
        loop.child_maxrss_kb = max(loop.child_maxrss_kb, result.maxrss_kb)
        loop.child_walls.append(latency)

    if tracer_ is not None:
        tracer_.active = False
    if failure is None:
        verdict, reason, doc = job.check(result)
    else:
        verdict, reason, doc = "failed", failure, {"job": job.label, "failed": True}
    if tracer_ is not None:
        tracer_.active = True
    loop.latencies.append(latency)
    loop.cpus.append(cpu)
    loop.verdicts.append(verdict)
    loop.reasons.append(reason)
    loop.labels.append(job.label)
    if loop.passes == 0:
        loop.first_pass.append((job.label, verdict, doc))


def fixed_passes(workload, seconds):
    """Pass indices 0 .. n-1, n fixed by `seconds` and the workload's nominal pass time.

    n is at least the passes job_tail_ref needs.  Passes stop early only after
    LOOP_DEADLINE_S.
    """
    n = max(min_passes(workload), round(seconds / workload.pass_s))
    start = perf_counter()
    for p in range(n):
        if perf_counter() - start > LOOP_DEADLINE_S:
            return
        yield p


def closed_loop(workload, loop, pass_indices, tracer_=None, in_process_cli=False,
                with_reference=False):
    """Run whole passes back to back, adding their outcomes to `loop`.

    With `with_reference`, the reference time is measured after each job.
    """
    for p in pass_indices:
        for job in workload.pass_jobs(p):
            if tracer_ is not None:
                tracer_.job = len(loop.latencies)
            run_job(workload, job, loop, tracer_, in_process_cli)
            if with_reference:
                loop.refs.append(reference_s(child=not workload.in_process))
        loop.pass_ends.append(len(loop.latencies))
    return loop


def set_up(name, seed, work_dir):
    """Inputs of the first pass from the seed, then one untimed warm-up job per job kind."""
    signal.signal(signal.SIGALRM, _alarm)
    workload = workloads.build(name, seed, work_dir)
    workload.pass_jobs(0)
    warm = Loop()
    for job in workload.warmups:
        run_job(workload, job, warm)
    bad = [r for v, r in zip(warm.verdicts, warm.reasons) if v != "ok"]
    if bad:
        raise RuntimeError("warm-up failed: " + "; ".join(bad))
    return workload


def probe_setup(name, seed):
    """Wall time of a fresh process that imports corrdyn, draws the inputs and warms up."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return perf_counter() - start


def import_ms():
    """Cumulative import time of the corrdyn packages, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import corrdyn.cli"],
        cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=60,
    )
    total_us = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\S.*)$", line)
        if m and m.group(2).startswith("corrdyn"):
            total_us += int(m.group(1))
    return total_us / 1000


def tail(latencies, pct):
    """The nearest-rank `pct` percentile of the latencies."""
    ordered = sorted(latencies)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


def min_passes(workload):
    """Fewest whole passes that leave TAIL_BEYOND jobs beyond the tail percentile."""
    return math.ceil(TAIL_BEYOND * 100 / (100 - workload.tail_pct) / len(workload.pass_jobs(0)))


def end_to_end(loop, setup_samples, workload):
    """The end-to-end metrics, and lines giving the same figures in seconds.

    Times are in reference units: each job's latency and CPU time over the
    reference time measured right after it.  Rates and CPU per job are
    medians over the run's passes.
    """
    n = len(loop.latencies)
    pct = workload.tail_pct
    beyond = n - math.ceil(n * pct / 100)
    rel_lat = [lat / ref for lat, ref in zip(loop.latencies, loop.refs)]
    rel_cpu = [cpu / ref for cpu, ref in zip(loop.cpus, loop.refs)]
    completed = [v.count("ok") for v in loop.per_pass(loop.verdicts)]

    def rate(times):
        return statistics.median(c / sum(t) for c, t in zip(completed, loop.per_pass(times)))

    def per_job(times):
        return statistics.median(sum(t) / len(t) for t in loop.per_pass(times))

    children = "" if workload.in_process else ", children included"
    if workload.in_process:
        rss_kb, rss_base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "this process"
    else:
        rss_kb, rss_base = loop.child_maxrss_kb, f"largest of {n} children"
    passes = f"median over {loop.passes} passes"
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of {len(setup_samples)} set-ups in fresh processes"),
        "jobs_per_kref": (rate(rel_lat) * 1000, "1/kref",
                          f"{passes}; {sum(completed)} completed jobs"),
        "job_p50_ref": (statistics.median(rel_lat), "ref", f"n={n}"),
        "job_tail_ref": (tail(rel_lat, pct), "ref", f"p{pct:g}, {beyond} jobs beyond, n={n}"),
        "cpu_ref_per_job": (per_job(rel_cpu), "ref", f"{passes}{children}"),
        "peak_rss_mb": (rss_kb / 1024, "MB", rss_base),
    }
    lines = [
        f"reference time = {statistics.median(loop.refs) * 1000:.4g} ms  "
        f"(median of {n}; one ref, the unit above)",
        f"jobs_per_s = {rate(loop.latencies):.6g} 1/s  ({passes}; "
        f"{sum(completed)} completed jobs in {loop.wall_s:.3f} s)",
        f"job_p50_ms = {statistics.median(loop.latencies) * 1000:.6g} ms  (n={n})",
        f"job_tail_ms = {tail(loop.latencies, pct) * 1000:.6g} ms  "
        f"(p{pct:g}, {beyond} jobs beyond, n={n})",
        f"cpu_ms_per_job = {per_job(loop.cpus) * 1000:.6g} ms  ({passes}; "
        f"{sum(loop.cpus):.3f} s user+sys over {n} jobs{children})",
    ]
    return metrics, lines


def traced(workload, seconds):
    """Per-layer metrics: each pass of the run untraced, then the same pass traced.

    Children cannot be traced from here, so for cli-contract each pass also
    runs through cli.main in this process, untraced and then traced.
    """
    untraced, base, traced_loop = Loop(), Loop(), Loop()
    seen = {"dim": 0, "bits": 0}

    def det_poly_seen(args, result):
        seen["dim"] = max(seen["dim"], len(args[0]))
        if result:
            seen["bits"] = max(seen["bits"], max(abs(v).bit_length() for v in result.values()))

    def det_int_seen(args, result):
        seen["bits"] = max(seen["bits"], abs(result).bit_length())

    t = tracer.Tracer()
    hits = lookups = 0
    for p in fixed_passes(workload, seconds):
        closed_loop(workload, untraced, [p])
        if not workload.in_process:
            closed_loop(workload, base, [p], in_process_cli=True)
        cache0 = _cache_counts()
        t.install(TRACE_TARGETS, {"resultant.det_poly": det_poly_seen,
                                  "resultant.det_int": det_int_seen})
        try:
            closed_loop(workload, traced_loop, [p], tracer_=t,
                        in_process_cli=not workload.in_process)
        finally:
            t.uninstall()
        cache1 = _cache_counts()
        hits, lookups = hits + cache1[0] - cache0[0], lookups + cache1[1] - cache0[1]
    passes = untraced.passes
    if workload.in_process:
        base, mains = untraced, None
    else:
        mains = base.latencies

    m = {}
    note = f"per pass, {passes} passes"

    def per_pass(name, value, unit, what=note):
        m[name] = (value / passes, unit, what)

    per_pass("trace.pass_ms", base.wall_s * 1000, "ms", f"untraced wall {note}")
    per_pass("resultant.det_poly.self_ms", t.self_ms("resultant.det_poly"), "ms")
    per_pass("resultant.det_poly.calls", t.calls("resultant.det_poly"), "count")
    m["resultant.det_poly.dim_max"] = (seen["dim"], "rows", "largest matrix")
    per_pass("resultant.covariant_resultant.total_ms",
             t.total_ms("resultant.covariant_resultant"), "ms")
    per_pass("resultant.det_int.self_ms", t.self_ms("resultant.det_int"), "ms")
    per_pass("resultant.det_int.calls", t.calls("resultant.det_int"), "count")
    m["resultant.det.bits_max"] = (seen["bits"], "bits", "largest determinant result")
    per_pass("correspondence.compose.total_ms", t.total_ms("correspondence.compose"), "ms")
    per_pass("correspondence.compose.self_ms", t.self_ms("correspondence.compose"), "ms")
    per_pass("correspondence.compose.calls", t.calls("correspondence.compose"), "count")
    per_pass("correspondence.degenerate.count",
             t.error_count("correspondence.compose", "DegenerateComposition"), "count")
    for layer in ("rational_roots", "binary_gcd", "mixed_partial", "diagonal_restriction"):
        per_pass(f"forms.{layer}.self_ms", t.self_ms(f"forms.{layer}"), "ms")
        per_pass(f"forms.{layer}.calls", t.calls(f"forms.{layer}"), "count")
    per_pass("forms.substitute_pair.self_ms", t.self_ms("forms.substitute_pair"), "ms")
    per_pass("forms.substitute_linear.self_ms", t.self_ms("forms.substitute_linear"), "ms")
    per_pass("stability.orders_tried", t.calls("stability.multiplicity_at_least"), "count",
             f"calls to diagonal_multiplicity_at_least, {note}")
    per_pass("stability.classify.total_ms", t.total_ms("stability.classify"), "ms")
    per_pass("clebsch.cayley_omega.self_ms", t.self_ms("clebsch.cayley_omega"), "ms")
    per_pass("clebsch.cayley_omega.calls", t.calls("clebsch.cayley_omega"), "count")
    per_pass("clebsch.cg_reconstruct.self_ms", t.self_ms("clebsch.cg_reconstruct"), "ms")
    m["clebsch.table_cache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio",
                                          f"{hits} hits of {lookups} lookups")
    per_pass("multiplier.multiplier_form.self_ms", t.self_ms("multiplier.multiplier_form"), "ms")
    for layer in ("dz_coordinates", "sigma_spectrum", "oracle"):
        per_pass(f"multiplier.{layer}.total_ms", t.total_ms(f"multiplier.{layer}"), "ms")
    per_pass("serialization.parse_ms", sum(t.total_ms(n) for n in PARSE_SPANS), "ms")
    per_pass("serialization.dump_ms", sum(t.total_ms(n) for n in DUMP_SPANS), "ms")
    imports = [import_ms() for _ in range(3)]
    m["cli.import_ms"] = (statistics.median(imports), "ms", "median of 3 -X importtime runs")
    if mains:
        spawn = [child - main for child, main in zip(untraced.child_walls, mains)]
        m["cli.main_ms"] = (statistics.median(mains) * 1000, "ms",
                            f"median of {len(mains)} in-process cli.main jobs")
        m["cli.spawn_ms"] = (statistics.median(spawn) * 1000, "ms",
                             f"median child wall minus cli.main over {len(spawn)} jobs")
        check_ms = _verify_check_ms(workload)
    else:
        m["cli.main_ms"] = m["cli.spawn_ms"] = (0.0, "ms", "no CLI jobs")
        check_ms = {}
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.ms"] = (check_ms.get(check, 0.0), "ms",
                                   "run_verify_suite(only=...)" if check in check_ms
                                   else "not run")
    m["trace.overhead_frac"] = (traced_loop.wall_s / base.wall_s - 1, "ratio",
                                f"traced {traced_loop.wall_s:.3f} s / untraced "
                                f"{base.wall_s:.3f} s - 1")

    spans_path = OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    t.write_spans(spans_path)
    lines = [f"spans: {len(t.spans)} written to {spans_path.relative_to(ROOT)}"]
    if t.absent:
        lines.append("absent layers (reported as 0): " + ", ".join(t.absent))
    return m, untraced, lines


PARSE_SPANS = ("serialization.parse_json", "serialization.parse_doc",
               "serialization.parse_components")
DUMP_SPANS = ("serialization.dump_json", "serialization.dump_doc",
              "serialization.dump_components", "serialization.dump_binary")


def _cache_counts():
    """(hits, lookups) summed over the lru_cache tables of corrdyn.clebsch."""
    hits = lookups = 0
    for name in CACHED_TABLES:
        info = getattr(getattr(corrdyn.clebsch, name, None), "cache_info", None)
        if info is not None:
            hits += info().hits
            lookups += info().hits + info().misses
    return hits, lookups


def _verify_check_ms(workload):
    """Each identity check of the verify job, run alone in this process."""
    from corrdyn.verify import CHECK_NAMES, run_verify_suite

    seed = next(int(job.args[2]) for job in workload.pass_jobs(0) if job.kind == "verify")
    out = {}
    for check in VERIFY_CHECKS:
        if check in CHECK_NAMES:
            signal.setitimer(signal.ITIMER_REAL, workloads.JOB_CAP_S)
            start = perf_counter()
            try:
                run_verify_suite(seed, 3, only=check)
            except JobTimeout:
                pass  # reads as the cap
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                out[check] = (perf_counter() - start) * 1000
    return out


def machine():
    return (f"machine={platform.machine()} nproc={os.cpu_count()} "
            f"python={platform.python_version()} ({platform.python_implementation()})")


def report(header, loop, metrics, extra):
    n = len(loop.latencies)
    failed = sum(v != "ok" for v in loop.verdicts)
    counts = {v: loop.verdicts.count(v) for v in ("wrong", "failed", "known")}
    print(header)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}  ({note})")
    print(f"  failed_frac = {failed / n:.6g}  ({failed} failed of {n} attempted: "
          f"{counts['wrong']} wrong, {counts['failed']} failed, "
          f"{counts['known']} failed by a known defect)")
    print(f"  digest = sha256:{workloads.digest(loop.first_pass)}  "
          f"(first pass, {len(loop.first_pass)} jobs)")
    by_label = {}
    for label, latency in zip(loop.labels, loop.latencies):
        by_label.setdefault(label, []).append(latency * 1000)
    print("  median ms by job: " + ", ".join(
        f"{label} {statistics.median(v):.1f}" for label, v in by_label.items()))
    for line in extra:
        print(f"  {line}")
    reported = set()
    for label, verdict, reason in zip(loop.labels, loop.verdicts, loop.reasons):
        if verdict != "ok" and label not in reported:
            reported.add(label)
            print(f"  {verdict}: {reason}")
    print(json.dumps({
        "correct": counts["wrong"] == 0 and counts["failed"] == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if Path(corrdyn.__file__).resolve().parent != (SRC / "corrdyn").resolve():
        print(f"perfbench: imported corrdyn from {corrdyn.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.setup_probe:
            set_up(args.workload, args.seed, work_dir)
            return 0
        workload = set_up(args.workload, args.seed, work_dir)
        header = (f"perfbench workload={args.workload} seed={args.seed} "
                  f"seconds={args.seconds:g} trace={args.trace} {machine()}")
        if args.trace:
            metrics, loop, extra = traced(workload, args.seconds)
        else:
            # The set-up probes are spread over the run, one before each pass,
            # so that a few slow seconds of the machine move few of them.
            loop, setup_samples = Loop(), []
            for p in fixed_passes(workload, args.seconds):
                if len(setup_samples) < SETUP_PROBES:
                    setup_samples.append(probe_setup(args.workload, args.seed))
                closed_loop(workload, loop, [p], with_reference=True)
            while len(setup_samples) < SETUP_PROBES:
                setup_samples.append(probe_setup(args.workload, args.seed))
            metrics, extra = end_to_end(loop, setup_samples, workload)
        report(header, loop, metrics, extra)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
