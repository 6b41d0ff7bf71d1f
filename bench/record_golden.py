"""Record golden outputs and exact counters for the default seed.

    python3 bench/record_golden.py [WORKLOAD ...]

Runs one untraced and one traced round of each workload on the default
seed.  Every job must succeed; its golden text (see checks.golden_text) goes
to bench/golden/<workload>.json and the round's exact counters to
bench/golden/counters.json.  Re-record only when an output is meant to
change.
"""

from __future__ import annotations

import json
import os
import sys

import run
from checks import golden_text


def record(workload: str) -> dict:
    workdir = os.path.join(run.WORK, workload)
    os.makedirs(workdir, exist_ok=True)
    gc = run.import_package()
    plan = run.WORKLOADS[workload](gc, os.path.relpath(workdir, run.ROOT), run.DEFAULT_SEED)
    outputs = {}
    rounds = run.run_rounds(gc, plan.jobs, 0)
    for job, ((rc, out, err, _), *_) in zip(plan.jobs, run.by_job(plan.jobs, rounds)):
        if rc != 0:
            raise SystemExit(f"{workload}: {job.id} failed: {err.strip()}")
        outputs[job.id] = golden_text(job.verb, out)
    with open(os.path.join(run.GOLDEN, f"{workload}.json"), "w", encoding="utf-8") as f:
        json.dump({"seed": run.DEFAULT_SEED, "outputs": outputs}, f, indent=1, sort_keys=True)
        f.write("\n")
    tracer = run.Tracer(run.PACKAGE)
    tracer.install()
    try:
        run.run_rounds(gc, plan.jobs, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    return {name: run.round_value(tracer.rounds[0], name) for name in run.EXACT_COUNTERS}


def main(names: list[str]) -> int:
    run.ensure_environment()
    os.chdir(run.ROOT)
    os.makedirs(run.GOLDEN, exist_ok=True)
    counters = run.load_json(os.path.join(run.GOLDEN, "counters.json"))
    for workload in names or sorted(run.WORKLOADS):
        counters[workload] = record(workload)
        print(f"recorded {workload}: {counters[workload]}", flush=True)
    with open(os.path.join(run.GOLDEN, "counters.json"), "w", encoding="utf-8") as f:
        json.dump(counters, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
