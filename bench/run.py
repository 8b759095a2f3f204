"""Benchmark for the aifs library and CLI.

Usage (from the repository root):

    python3 bench/run.py --workload {catalog,onb,screen} --seed N \
        --seconds S --trace {0,1}

``--workload all`` runs the three workloads one after another, each in a
fresh process, and prints every metric by name and unit.

One process, one thread, one closed-loop caller: each job starts after the
previous verdict. A pass runs the workload's whole seeded job list and
stands for one fresh CLI session (the cyclotomic-polynomial cache is
emptied before it); passes repeat until ``--seconds`` have elapsed and the
pass in progress finishes. Every verdict is checked against an independent
reference after its pass.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
set-up time (median of several fresh set-up processes), the median pass
wall time, p50/p90 over jobs of each job's median across passes, and peak
RSS. With ``--trace 1`` one untraced pass is followed by traced passes, and
the last line reports per-layer metrics (see bench/layers.py) plus the
tracing overhead. Results and spans are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog", "onb", "screen")
SETUP_PROBES = 5


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)  # system-wide clock


def _import_library():
    """Import aifs from this checkout's src/ (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "aifs" / "__init__.py").is_file():
        raise SystemExit("bench: no aifs sources under %s" % src)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import aifs
    import aifs.catalog, aifs.cli, aifs.cycles_spectrum  # noqa: E401,F401
    import aifs.hadamard, aifs.torus_dynamics, aifs.verify  # noqa: E401,F401

    if Path(aifs.__file__).resolve().parent != (src / "aifs").resolve():
        raise SystemExit("bench: imported aifs from %s" % aifs.__file__)


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(inherited_threads) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "aifs_threads": os.environ.get("AIFS_THREADS"),
        "aifs_threads_inherited": inherited_threads,
        "platform": platform.platform(),
    }


def _workdir(workload: str) -> Path:
    return ROOT / ".bench_tmp" / ("%s-%d" % (workload, os.getpid()))


# ---------------------------------------------------------------------------
# set-up


def _setup_probe(args) -> int:
    """Child process: do the whole set-up, report when it ended, clean up."""
    import workloads

    workdir = _workdir(args.workload)
    try:
        jobs = workloads.prepare(args.workload, args.seed, ROOT, workdir)
        end = _monotonic()
        print(json.dumps({"setup_end": end, "digest": workloads.digest(jobs)}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _measure_setup(args) -> list:
    """Set-up time of fresh processes: spawn to the end of set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        t0 = _monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr[-2000:])
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((rep["setup_end"] - t0, rep["digest"]))
    return samples


# ---------------------------------------------------------------------------
# passes


def _run_pass(jobs, tracer=None):
    """Run every job once, back to back; returns (wall, job times, outcomes)."""
    import workloads
    from aifs import cyclotomy

    cyclotomy.cyclotomic.cache_clear()  # a pass is a fresh session
    times, outcomes = [], []
    clock = time.perf_counter
    first = None
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i
        t0 = clock()
        outcome = workloads.run_job(job)
        t1 = clock()
        if first is None:
            first = t0
        times.append(t1 - t0)
        outcomes.append(outcome)
    return t1 - first, times, outcomes


def _judge(jobs, outcomes, failures: list) -> tuple:
    """(verdicts attempted, verdicts wrong) for one pass."""
    import workloads

    bad = 0
    for job, outcome in zip(jobs, outcomes):
        problems = workloads.check(job, outcome)
        bad += len(problems)
        if problems and len(failures) < 20:
            failures.append({"job": job.label, "problems": problems[:5]})
    return sum(job.verdicts for job in jobs), bad


def _p90(values) -> float:
    """p90 interpolated inside the sample (short job lists never extrapolate)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _untraced(args, jobs, failures):
    """Untraced passes; returns pass walls and each job's times, per job."""
    start = time.perf_counter()
    walls, attempted, failed = [], 0, 0
    per_job = [[] for _ in jobs]
    while True:
        wall, times, outcomes = _run_pass(jobs)
        for samples, t in zip(per_job, times):
            samples.append(t)
        walls.append(wall)
        tried, bad = _judge(jobs, outcomes, failures)
        attempted, failed = attempted + tried, failed + bad
        if time.perf_counter() - start >= args.seconds:
            break
    return walls, per_job, attempted, failed


def _traced(args, jobs, failures, checks):
    """One untraced pass for the overhead base, then traced passes."""
    import layers
    import tracer as tracer_mod
    from aifs import cyclotomy

    start = time.perf_counter()
    base_wall, _, outcomes = _run_pass(jobs)
    attempted, failed = _judge(jobs, outcomes, failures)
    tr = tracer_mod.Tracer()
    tr.install(layers.LAYERS)
    per_pass, walls = [], []
    try:
        while True:
            tr.reset()
            wall, _, outcomes = _run_pass(jobs, tr)
            misses = cyclotomy.cyclotomic.cache_info().misses
            summary = tr.summarize(wall)
            per_pass.append(layers.pass_metrics(summary, tr.counters, misses))
            walls.append(wall)
            tried, bad = _judge(jobs, outcomes, failures)
            attempted, failed = attempted + tried, failed + bad
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        tr.uninstall()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tr.dump(out_dir / ("spans-%s-seed%d.npz" % (args.workload, args.seed)))
    metrics = {}
    for m in layers.PER_LAYER:
        name = m["name"]
        if name == "trace.overhead_ratio":
            value = statistics.median(walls) / base_wall
        elif name == "trace.accounting_error":
            value = max(p[name] for p in per_pass)
        else:
            value = statistics.median(p[name] for p in per_pass)
        metrics[name] = {"value": value, "unit": m["unit"]}
    zero = [n for n in layers.PREDICTED_CALLS[args.workload]
            if all(p[n + ".calls"] == 0 for p in per_pass)]
    checks["layers_missing"] = tr.missing
    checks["predicted_layers_without_calls"] = zero
    checks["accounting_error_max"] = metrics["trace.accounting_error"]["value"]
    checks["binding_sites"] = tr.sites
    checks["expected_moves"] = layers.EXPECTED_MOVES
    ok = (not tr.missing and not zero
          and metrics["trace.accounting_error"]["value"] <= 0.01)
    return metrics, attempted, failed, ok, {
        "untraced_wall_s": base_wall, "traced_wall_s": walls}


def _run_all(args) -> int:
    """Every workload, each in a fresh process, as one table."""
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print("%s: exit %d\n%s" % (workload, proc.returncode, proc.stderr[-2000:]))
            ok = False
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"]
        for name, m in res["metrics"].items():
            print("%-8s %-48s %14.6g %s" % (workload, name, m["value"], m["unit"]))
        print("%-8s %-48s %14.6g %s (%d of %d verdicts; correct: %s)" % (
            workload, "fail_ratio", res["failed"] / res["attempted"], "1",
            res["failed"], res["attempted"], res["correct"]))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    inherited_threads = os.environ.get("AIFS_THREADS")
    os.environ["AIFS_THREADS"] = "1"  # one thread: the closed loop's only caller
    _import_library()
    if args.setup_probe:
        return _setup_probe(args)
    import workloads

    checks = {}
    failures = []
    workdir = _workdir(args.workload)
    try:
        jobs = workloads.prepare(args.workload, args.seed, ROOT, workdir)
        job_digest = workloads.digest(jobs)
        setup = _measure_setup(args)
        checks["setup_digests_match"] = all(d == job_digest for _, d in setup)
        if args.trace:
            metrics, attempted, failed, layers_ok, extra = _traced(
                args, jobs, failures, checks)
        else:
            walls, per_job, attempted, failed = _untraced(args, jobs, failures)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            job_times = [statistics.median(samples) for samples in per_job]
            metrics = {
                "setup_s": {"value": statistics.median(s for s, _ in setup), "unit": "s"},
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "job_p50_s": {"value": statistics.median(job_times), "unit": "s"},
                "job_p90_s": {"value": _p90(job_times), "unit": "s"},
                "peak_rss_mb": {"value": peak, "unit": "MB"},
            }
            layers_ok = "tracer" not in sys.modules
            checks["tracer_not_imported"] = layers_ok
            extra = {"wall_s": walls, "job_s": {
                "%s#%d" % (job.label, i): t
                for i, (job, t) in enumerate(zip(jobs, per_job))}}
        held_out = workloads.prepare(args.workload, args.seed + 1, ROOT,
                                     workdir / "held-out")
        checks["held_out_seed_same_shape"] = (
            workloads.shape(held_out) == workloads.shape(jobs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = (failed == 0 and layers_ok and checks["setup_digests_match"]
               and checks["held_out_seed_same_shape"])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "jobs_per_pass": len(jobs),
        "passes": attempted // sum(job.verdicts for job in jobs),
        "fail_ratio": failed / attempted,
        "job_digest": job_digest,
        "job_shape": workloads.shape(jobs),
        "setup_samples_s": [s for s, _ in setup],
        "samples": extra,
        "checks": checks,
        "failures": failures,
        "environment": _environment(inherited_threads),
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / ("result-%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))).write_text(
        json.dumps({"info": info, "result": result}, indent=1, default=str))
    for name, m in metrics.items():
        print("%-48s %14.6g %s" % (name, m["value"], m["unit"]), file=sys.stderr)
    print("%-48s %14.6g %s" % ("fail_ratio", failed / attempted, "1"), file=sys.stderr)
    print(json.dumps({"info": info}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
