"""Seeded end-to-end benchmark of the groupcolour CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job calls ``groupcolour.cli.main(argv + ["--porcelain"])`` in this
process with stdout and stderr captured, so a job costs what a user pays:
groupspec resolution, file parsing, compute and formatting.  The timed loop
runs whole rounds of the workload's jobs (closed loop, one client) until
the next round would end more than half a round past ``--seconds``.

With ``--trace 0``, untimed slots run before the loop and after each round.
A slot times CAL_SAMPLES passes of a fixed pure-Python loop that uses
nothing from the package, then SETUP_PASSES set-up passes, each in a fresh
interpreter (see ``workloads.main``).  A shared host's speed drifts by 20%
within tens of seconds and by up to 40% over minutes, alike for the loop
and the jobs, so the end-to-end times are scaled to a host on which the
loop takes CAL_REF_S: a set-up pass by the slot's median loop time, and the
jobs by the run's fastest loop time, because a job's latency is its fastest
run in the run.  The jobs compute the same thing every time, so a slower
run only shows the host running slower.  Unscaled values are in the report.

``jobs_per_s`` is the number of jobs that pass their checks over the sum of
all job latencies: the throughput of one pass over the jobs.  Wall-clock
throughput is in the report.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` one untraced round is followed by traced rounds, and the
last line holds the per-layer metrics of one traced round.  The line before
it is a report: environment, failures with reasons, known failures, sample
counts and counters.  Inputs and span files go to ``bench/.work/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter_ns

from checks import Checker
from tracing import EXACT_COUNTERS, PER_LAYER, RoundStats, Tracer, round_value
from workloads import PACKAGE, WORKLOADS, import_package

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH, "golden")
WORK = os.path.join(BENCH, ".work")
DEFAULT_SEED = 0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_PASSES = 2
CAL_SAMPLES = 5
CAL_N = 120
CAL_REF_S = 0.007  # about the loop's fastest time on a 2-vCPU x86-64 VM

END_TO_END = (("jobs_per_s", "jobs/s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"))
# Reported, but not end-to-end metrics: failed_frac is 0 when all is well,
# and wall_jobs_per_s carries the host's drift unscaled.
REPORT_ONLY = ("failed_frac", "wall_jobs_per_s")


def ensure_environment() -> None:
    """Re-execute once with BLAS/OpenMP pools pinned to one thread and src/
    first on PYTHONPATH: the package is not installed, and the pins must be
    set before numpy loads."""
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if paths[:1] == [SRC] and all(os.environ.get(k) == v for k, v in PINNED.items()):
        return
    env = dict(os.environ, **PINNED, PYTHONPATH=os.pathsep.join([SRC, *paths]))
    os.execve(sys.executable, [sys.executable, os.path.abspath(sys.argv[0]), *sys.argv[1:]], env)


def calibrate() -> list[float]:
    """Seconds of each of CAL_SAMPLES passes of a fixed table walk with bit
    masks, the kind of loop the package's kernels run."""
    table = [[(x * 31 + y * 17) % CAL_N for y in range(CAL_N)] for x in range(CAL_N)]
    mask = int("10" * (CAL_N // 2), 2)
    times = []
    for _ in range(CAL_SAMPLES):
        start = perf_counter_ns()
        for _ in range(4):
            for x in range(CAL_N):
                row = table[x]
                bits = 0
                for y in range(CAL_N):
                    if (mask >> row[y]) & 1:
                        bits |= 1 << y
        times.append((perf_counter_ns() - start) / 1e9)
    return times


def time_setup(workload: str, seed: int, workdir: str) -> list[float]:
    """Wall seconds of SETUP_PASSES set-up passes, each a fresh interpreter
    that imports the package and writes the workload's seeded inputs."""
    argv = [sys.executable, os.path.join(BENCH, "workloads.py"), workload, str(seed),
            os.path.relpath(workdir, ROOT)]
    times = []
    for _ in range(SETUP_PASSES):
        start = perf_counter_ns()
        subprocess.run(argv, cwd=ROOT, check=True)
        times.append((perf_counter_ns() - start) / 1e9)
    return times


def execute(gc, argv) -> tuple[int | None, str, str, int]:
    """Run one job in-process: (exit code or None if it raised, stdout, stderr, ns)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter_ns()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = gc.cli.main([*argv, "--porcelain"])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue(), perf_counter_ns() - start


def run_rounds(gc, jobs, budget_s: float, elapsed_s: float = 0.0, tracer=None,
               after_round=None):
    """Whole rounds until the next would end more than half a round past the
    budget; ``after_round()`` runs untimed after each.  Returns a list of
    (round wall ns, [(job index, *execute result)])."""
    rounds = []
    spent = elapsed_s * 1e9
    while True:
        if tracer is not None:
            tracer.rounds.append(RoundStats())
        execs = []
        start = perf_counter_ns()
        for i, job in enumerate(jobs):
            for _ in range(job.repeat):
                if tracer is not None:
                    tracer.job = len(execs)
                execs.append((i, *execute(gc, job.argv)))
        wall = perf_counter_ns() - start
        if tracer is not None:
            tracer.round.wall_ns = wall
        rounds.append((wall, execs))
        spent += wall
        if after_round is not None:
            after_round()
        mean = sum(r[0] for r in rounds) / len(rounds)
        if spent + mean / 2 >= budget_s * 1e9:
            return rounds


def by_job(jobs, rounds) -> list[list[tuple]]:
    """Each job's (rc, out, err, ns) results over all rounds."""
    results = [[] for _ in jobs]
    for _, execs in rounds:
        for i, *result in execs:
            results[i].append(result)
    return results


def check_rounds(checker, jobs, rounds) -> list[str | None]:
    """Reason each job is wrong (None if right): its first output is checked,
    and every later run of it must repeat that output exactly."""
    reasons = []
    for job, results in zip(jobs, by_job(jobs, rounds)):
        rc, out, err, _ = results[0]
        reason = checker.check(job, rc, out, err)
        if reason is None and any(r[:2] != [rc, out] for r in results[1:]):
            reason = "output differs between runs of the job"
        reasons.append(reason)
    return reasons


def run_probes(gc, checker, probes) -> tuple[list[dict], list[str], list[dict]]:
    """Known-failing jobs, run once: (still failing, now passing, wrong)."""
    failing, fixed, wrong = [], [], []
    for job in probes:
        rc, out, err, _ = execute(gc, job.argv)
        if rc != 0:
            failing.append({"job": job.id, "reason": err.strip().splitlines()[-1] if err.strip()
                            else f"exit {rc}"})
            continue
        reason = checker.certify(job, out)
        if reason is None:
            fixed.append(job.id)
        else:
            wrong.append({"job": job.id, "reason": reason})
    return failing, fixed, wrong


def load_json(path: str) -> dict:
    """The JSON object in a file; {} if there is none."""
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed: int) -> dict:
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "commit": _git_commit(), "seed": seed, "threads": PINNED}


def quantile(values: list[float], q: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta(q(n+1), (1-q)(n+1)) density.  Job costs
    in a workload span three decades, so a single order statistic jumps by
    the gap between neighbouring jobs whenever two jobs swap ranks; this
    weighted mean moves smoothly instead."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):  # midpoint rule over [i/n, (i+1)/n]
        points = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                           for x in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def layer_metrics(tracer, untraced_wall_ns: int, job_walls: dict, seed: int,
                  workload: str) -> tuple[dict, dict]:
    """Per-layer metrics of one traced round, plus report details."""
    rounds = tracer.rounds
    traced_wall = statistics.fmean(r.wall_ns for r in rounds)
    drift = []
    reference = (load_json(os.path.join(GOLDEN, "counters.json")).get(workload, {})
                 if seed == DEFAULT_SEED else {})
    for name in EXACT_COUNTERS:
        values = [round_value(r, name) for r in rounds]
        if len(set(values)) > 1:
            drift.append(f"{name} differs between traced rounds: {values}")
        if name in reference and reference[name] != values[0]:
            drift.append(f"{name}={values[0]}, recorded {reference[name]} for seed {seed}")
    special = {
        "bench.traced_round_s": traced_wall / 1e9,
        "bench.trace_overhead_frac": (traced_wall - untraced_wall_ns) / untraced_wall_ns,
        "bench.count_drift": len(drift),
        "bench.span_errors": tracer.span_errors(job_walls),
    }
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            values = [round_value(r, name) for r in rounds]
            value = values[0] if len(set(values)) == 1 else statistics.fmean(values)
        metrics[name] = {"value": value, "unit": unit}
    by_self = sorted(((m, v["value"]) for m, v in metrics.items()
                      if v["unit"] == "ms" and m.count(".") == 2), key=lambda kv: -kv[1])
    by_layer = sorted(((m, v["value"]) for m, v in metrics.items()
                       if v["unit"] == "ms" and m.count(".") == 1), key=lambda kv: -kv[1])
    predicted = load_json(os.path.join(BENCH, "predictions.json")).get("dominant", {}).get(workload, [])
    dominant = [name.removesuffix(".self_ms") for name, _ in (by_self[:1] + by_layer[:1])]
    details = {"traced_rounds": len(rounds), "count_drift": drift,
               "top_functions_self_ms": by_self[:5], "layers_self_ms": by_layer,
               "dominant": dominant, "dominant_predicted": predicted,
               "dominant_as_predicted": any(name in predicted for name in dominant)}
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "cli.py")):
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    ensure_environment()
    os.chdir(ROOT)
    env = environment(args.seed)

    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    calibration: list[float] = []
    setup_raw: list[float] = []
    setup_scaled: list[float] = []

    def slot() -> None:
        samples = calibrate()
        passes = time_setup(args.workload, args.seed, workdir)
        calibration.extend(samples)
        setup_raw.extend(passes)
        setup_scaled.extend(t * CAL_REF_S / statistics.median(samples) for t in passes)

    if not args.trace:
        slot()
    gc = import_package()
    plan = WORKLOADS[args.workload](gc, os.path.relpath(workdir, ROOT), args.seed)
    golden = load_json(os.path.join(GOLDEN, f"{args.workload}.json")).get("outputs", {})
    checker = Checker(gc, golden, args.seed == DEFAULT_SEED)

    tracer = None
    if args.trace:
        untraced = run_rounds(gc, plan.jobs, 0)
        tracer = Tracer(PACKAGE)
        tracer.install()
        try:
            rounds = run_rounds(gc, plan.jobs, args.seconds, untraced[0][0] / 1e9, tracer)
        finally:
            tracer.uninstall()
        rounds = untraced + rounds
    else:
        rounds = run_rounds(gc, plan.jobs, args.seconds, after_round=slot)

    reasons = check_rounds(checker, plan.jobs, rounds)
    still_failing, fixed, wrong = run_probes(gc, checker, plan.probes)
    failures = [{"job": job.id, "reason": r} for job, r in zip(plan.jobs, reasons) if r]
    results = by_job(plan.jobs, rounds)
    attempted = sum(map(len, results))
    failed = sum(len(res) for res, r in zip(results, reasons) if r)
    # Percentiles are taken over the workload's jobs, so each job weighs the
    # same however often it ran.
    job_ms = [min(r[3] for r in res) / 1e6 for res in results]
    passed = sum(r is None for r in reasons)
    report = {
        "workload": args.workload, "trace": args.trace, "environment": env,
        "rounds": len(rounds), "jobs_per_round": len(plan.jobs),
        "runs_per_round": len(rounds[0][1]),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": failures,
        "known_failures": still_failing + checker.known_failures,
        "probes_fixed": fixed, "probes_wrong": wrong,
        "setup_passes": len(setup_raw),
        "wall_jobs_per_s": (attempted - failed) / (sum(r[0] for r in rounds) / 1e9),
        "job_ms": dict(zip((job.id for job in plan.jobs), job_ms)),
        "latency_samples": attempted,
        "counters_per_round": checker.counters,
    }
    if tracer is None:
        def timings(scale: float, setup: list[float]) -> dict:
            ms = [t * scale for t in job_ms]
            return {"jobs_per_s": passed / (sum(ms) / 1e3), "job_p50_ms": quantile(ms, 0.5),
                    "job_p90_ms": quantile(ms, 0.9), "setup_s": statistics.median(setup)}

        scale = CAL_REF_S / min(calibration)
        metrics = timings(scale, setup_scaled)
        report.update(unscaled=timings(1.0, setup_raw), scale=scale,
                      calibration_s={"min": min(calibration), "samples": len(calibration),
                                     "median": statistics.median(calibration)})
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    else:
        traced_from = len(rounds) - len(tracer.rounds)
        job_walls = {(r, k): ex[-1] for r, (_, execs) in enumerate(rounds[traced_from:])
                     for k, ex in enumerate(execs)}
        metrics, details = layer_metrics(tracer, rounds[0][0], job_walls, args.seed, args.workload)
        report.update(details)
        tracer.write_spans(os.path.join(workdir, f"spans-seed{args.seed}.csv"))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures and not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
