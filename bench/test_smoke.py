"""Smoke tests for the benchmark itself.

    python3 -m pytest -q bench/test_smoke.py

A tiny pass of each workload (two of its jobs) must pass its output checks
and report every per-layer metric of BENCHMARK.json with its unit; the
checker must flag corrupted outputs; and the runner must fail, without a
result line, where the package sources are missing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from checks import Checker  # noqa: E402
from tracing import EXACT_COUNTERS, PER_LAYER, Tracer, round_value  # noqa: E402
from workloads import WORKLOADS, Job, import_package  # noqa: E402

TINY = {
    "cover_lattice": ("cover-build dihedral:5", "cover-build dihedral:12"),
    "witness_corners": ("witness symmetric:4 k=2", "corners symmetric:4 density=1/2"),
    "schur_search": ("schur symmetric:4", "schur quaternion8xcyclic2.table"),
}


GIVE_UP = "success=false\nreason=no stage r accepted within 8 shift samples\n"


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture
def gc():
    return import_package()


def _tiny_plan(gc, workload, tmp_path):
    os.chdir(ROOT)
    workdir = os.path.relpath(str(tmp_path / workload), ROOT)
    os.makedirs(workdir)
    jobs = {job.id: job for job in WORKLOADS[workload](gc, workdir, run.DEFAULT_SEED).jobs}
    return [jobs[i] for i in TINY[workload]]


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_predictions_name_known_metrics_and_workloads():
    spec = _spec()
    with open(os.path.join(BENCH, "predictions.json"), encoding="utf-8") as f:
        pred = json.load(f)
    layer = {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]} | set(run.REPORT_ONLY)
    for claim in pred["claims"]:
        assert set(claim["layer_metrics"]) <= layer
        assert set(claim["end_to_end"]) <= e2e
        assert sorted(claim["moves_on"] + claim["flat_on"]) == sorted(WORKLOADS)
    assert sorted(pred["dominant"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_pass(gc, workload, tmp_path):
    jobs = _tiny_plan(gc, workload, tmp_path)
    golden = run.load_json(os.path.join(run.GOLDEN, f"{workload}.json"))["outputs"]
    checker = Checker(gc, golden, default_seed=True)
    untraced = run.run_rounds(gc, jobs, 0)
    tracer = Tracer(run.PACKAGE)
    tracer.install()
    try:
        traced = run.run_rounds(gc, jobs, 0, tracer=tracer)
        traced += run.run_rounds(gc, jobs, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert run.check_rounds(checker, jobs, untraced + traced) == [None, None]
    walls = {(r, k): ex[-1] for r in range(2) for k, ex in enumerate(traced[r][1])}
    metrics, details = run.layer_metrics(tracer, untraced[0][0], walls, 1, workload)
    assert [(name, m["unit"]) for name, m in metrics.items()] == [(n, u) for n, u, _ in PER_LAYER]
    assert metrics["bench.span_errors"]["value"] == 0
    assert details["count_drift"] == []
    assert metrics["cli.main.self_ms"]["value"] > 0
    exact = [[round_value(r, name) for name in EXACT_COUNTERS] for r in tracer.rounds]
    assert exact[0] == exact[1]


def test_slot_parts(monkeypatch, tmp_path):
    samples = run.calibrate()
    assert len(samples) == run.CAL_SAMPLES and all(t > 0 for t in samples)
    monkeypatch.setattr(run, "SETUP_PASSES", 2)
    workdir = tmp_path / "witness_corners"
    workdir.mkdir()
    times = run.time_setup("witness_corners", 5, str(workdir))
    assert len(times) == 2 and all(t > 0 for t in times)
    in_process = tmp_path / "in_process"
    in_process.mkdir()
    WORKLOADS["witness_corners"](import_package(), str(in_process), 5)
    names = sorted(os.listdir(in_process))
    assert sorted(os.listdir(workdir)) == names
    assert all((workdir / n).read_text() == (in_process / n).read_text() for n in names)


def test_tracer_restores_every_binding(gc):
    before = {name: dict(vars(mod)) for name, mod in vars(gc).items()}
    tracer = Tracer(run.PACKAGE)
    tracer.install()
    assert gc.cli.schur_number is not before["cli"]["schur_number"]
    assert gc.cli.schur_number is gc.colouring.schur_number
    tracer.uninstall()
    assert {name: dict(vars(mod)) for name, mod in vars(gc).items()} == before


def _output(gc, argv):
    rc, out, err, _ = run.execute(gc, argv)
    assert rc == 0, err
    return out


def test_checker_flags_corrupted_outputs(gc, tmp_path):
    os.chdir(ROOT)
    golden = {}
    checker = Checker(gc, golden, default_seed=False)
    cases = []
    job = Job("schur symmetric:3", ("schur", "symmetric:3"))
    out = _output(gc, job.argv)
    golden[job.id] = "k=1\ncomplete=true\n"
    cases.append((job, out, out.replace("k=1", "k=2")))
    cases.append((job, out, out.replace("members=0 ", "members=")))
    job = Job("cover-build dihedral:4", ("cover-build", "dihedral:4"))
    out = _output(gc, job.argv)
    golden[job.id] = out
    cases.append((job, out, out.replace("cover_size=", "cover_size=1")))
    assert checker.certify(job, out) is None
    one_class = out[:out.index("cover ")] + "cover 1 8\n0 1 2 3 4 5 6 7\n"
    assert "non-commuting" in checker.certify(job, one_class)
    pairs = tmp_path / "s3.pairs"
    pairs.write_text("pairs 6\n0 0\n1 2\n2 1\n3 3\n")
    job = Job("corners s3", ("corners", "symmetric:3", "--pairs", str(pairs)), seeded=True)
    out = _output(gc, job.argv)
    cases.append((job, out, out.replace("bijection=ok", "bijection=FAIL")))
    cover = tmp_path / "s4.cover"
    g = gc.catalog.resolve_groupspec("symmetric:4")
    cover.write_text(gc.colouring.dump_cover(gc.colouring.random_cover(g, 2, seed=3)))
    job = Job("witness s4", ("witness", "symmetric:4", "--cover", str(cover)), seeded=True)
    out = _output(gc, job.argv)
    bound = re.search(r"quad_lower_bound=(\d+)", out).group(1)
    cases.append((job, out, re.sub(r"verified_quads=\d+", f"verified_quads={int(bound) - 1}", out)))
    cases.append((job, out, out[:out.index("success=")] + GIVE_UP))
    for job, good, bad in cases:
        assert checker.check(job, 0, good, "") is None, job.id
        assert checker.check(job, 0, bad, "") is not None, (job.id, bad)
    assert checker.check(job, 1, "", "error: boom\n") == "exit 1: error: boom"


def test_witness_give_up_is_certified(gc, tmp_path):
    os.chdir(ROOT)
    g = gc.catalog.resolve_groupspec("symmetric:5")
    cover = tmp_path / "s5.cover"
    cover.write_text(gc.colouring.dump_cover(gc.colouring.random_cover(g, 2, seed=9)))
    job = Job("witness s5", ("witness", "symmetric:5", "--cover", str(cover), "--seed", "9",
                             "--trials", "8"), seeded=True)
    checker = Checker(gc, {}, default_seed=False)
    assert checker.check(job, 0, GIVE_UP, "") is None
    assert checker.known_failures == [
        {"job": job.id, "reason": "no stage r accepted within 8 shift samples"}]
    more_trials = Job(job.id, (*job.argv[:-1], "32"), seeded=True)
    assert checker.check(more_trials, 0, GIVE_UP, "") is not None


def test_trend_blank_cells_are_not_frozen(gc):
    checker = Checker(gc, {}, default_seed=True)
    job = Job("trend", ("trend", "--family", "dihedral", "--range", "3..4"))
    out = "n=3 order=6 c=1/2 cover_size=3 k=-\nn=4 order=8 c=5/8 cover_size=4 k=1\n"
    checker.golden[job.id] = "n=3 order=6 c=1/2 cover_size=3\nn=4 order=8 c=5/8 cover_size=4 k=1\n"
    assert checker.check(job, 0, out, "") is None
    assert checker.counters["trend_blank_cells"] == 1
    filled = out.replace("k=-", "k=1")
    assert checker.check(job, 0, filled, "") is None
    assert checker.check(job, 0, out.replace("cover_size=4", "cover_size=5"), "") is not None


def test_runner_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cover_lattice",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
