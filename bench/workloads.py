"""Seeded job lists for the benchmark's workloads.

A workload writes its inputs (group table files, cover files, pairs files)
under a work directory and returns the jobs of one round.  A job is a CLI
argument vector that the runner passes to ``groupcolour.cli.main``.  The
seed drives ``random_cover``, ``random_pairs`` and ``witness --seed``;
which groups are used is fixed.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``id`` is stable across seeds and keys the golden file."""

    id: str
    argv: tuple[str, ...]
    seeded: bool = False  # the output depends on the seed
    repeat: int = 1  # runs in a row per round

    @property
    def verb(self) -> str:
        return self.argv[0]

    @property
    def groupspec(self) -> str:
        return self.argv[1]


@dataclass
class Plan:
    """The jobs of one round, plus probes: jobs that fail at the time of
    writing.  Probes run once per run outside the timed loop, so a fix shows
    as a shorter known-failure list instead of a changed workload."""

    jobs: list[Job]
    probes: list[Job] = field(default_factory=list)


# Jobs on groups of order at most CHEAP_ORDER take a few milliseconds, where
# one noisy sample moves a percentile most; they run CHEAP_REPEAT times in a
# row, and a job's latency is the fastest of its runs.
CHEAP_ORDER = 32
CHEAP_REPEAT = 5


def _repeat(order: int) -> int:
    return CHEAP_REPEAT if order <= CHEAP_ORDER else 1


def _slug(spec: str) -> str:
    return spec.replace(":", "").replace("^", "p")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


# cover_lattice: dihedral groups have X^{s+1} != G, so build_cover enumerates
# the subgroup lattice.  The ladder stops at D32 (order 64) so that a round
# fits several times into one run; D40 alone takes about 3 s.
LATTICE_LADDER = (*range(3, 21), 24, 28, 32)
LATTICE_TREND = "3..24"
LATTICE_PROBES = (65, 70)  # above the order-128 subgroup cap


def cover_lattice(gc, workdir: str, seed: int) -> Plan:
    jobs = [Job(f"cover-build dihedral:{n}", ("cover-build", f"dihedral:{n}"),
                repeat=_repeat(2 * n)) for n in LATTICE_LADDER]
    jobs.append(Job(f"trend dihedral {LATTICE_TREND}",
                    ("trend", "--family", "dihedral", "--range", LATTICE_TREND)))
    probes = [Job(f"cover-build dihedral:{n}", ("cover-build", f"dihedral:{n}"))
              for n in LATTICE_PROBES]
    return Plan(jobs, probes)


# witness_corners: corner_counts_by_z dominates.  Densities and orders vary
# the row sparsity, the share of shift trials that pass the density filter
# and the working set.  --trials 8 keeps each witness job near 1 s; with the
# default 32 the r=1 stage alone costs S5 and Heis5 about 7 s per job.  S5
# and Heis5 get 3-covers only, so that a round stays near 6 s and every job
# runs at least five times in a 30 s run.
WITNESS_GROUPS = ("symmetric:4", "alternating:5", "symmetric:5",
                  "heisenberg:3", "heisenberg:5", "dihedral:30")
WITNESS_CLASSES = (2, 3)
WITNESS_CLASSES_LARGE = {"symmetric:5": (3,), "heisenberg:5": (3,)}
WITNESS_TRIALS = 8
CORNER_GROUPS = WITNESS_GROUPS
CORNER_DENSITIES = (("1/4", 0.25), ("1/2", 0.5), ("3/4", 0.75))
CORNER_LARGE = ("heisenberg:7", "1/4", 0.25)  # n=343


def witness_corners(gc, workdir: str, seed: int) -> Plan:
    jobs = []
    for spec in WITNESS_GROUPS:
        g = gc.catalog.resolve_groupspec(spec)
        for k in WITNESS_CLASSES_LARGE.get(spec, WITNESS_CLASSES):
            path = os.path.join(workdir, f"{_slug(spec)}.k{k}.cover")
            _write(path, gc.colouring.dump_cover(gc.colouring.random_cover(g, k, seed=seed)))
            jobs.append(Job(f"witness {spec} k={k}",
                            ("witness", spec, "--cover", path, "--seed", str(seed),
                             "--trials", str(WITNESS_TRIALS)), seeded=True,
                            repeat=_repeat(g.order)))
    pairs = [(spec, label, d) for spec in CORNER_GROUPS for label, d in CORNER_DENSITIES]
    pairs.append(CORNER_LARGE)
    for spec, label, density in pairs:
        n = gc.catalog.resolve_groupspec(spec).order
        path = os.path.join(workdir, f"{_slug(spec)}.d{label.replace('/', '-')}.pairs")
        _write(path, gc.corners.dump_pairs(gc.corners.random_pairs(n, seed=seed, density=density)))
        jobs.append(Job(f"corners {spec} density={label}",
                        ("corners", spec, "--pairs", path), seeded=True, repeat=_repeat(n)))
    return Plan(jobs)


# schur_search: complete searches only, so node counts repeat exactly.  The
# tiny groups settle at k=1 within 100 nodes and expose per-call set-up cost.
# S3 x D5 (275,589 nodes, about 8 s) is left out, so that a round stays near
# 5 s; S3^2 (397,838 nodes) is the large search.
SCHUR_BUILTINS = ("symmetric:4", "symmetric:3^2",
                  *(f"dihedral:{n}" for n in range(3, 17)),
                  "quaternion8", "alternating:4", "heisenberg:3")
SCHUR_TABLES = (("quaternion8", "cyclic:2"),
                ("heisenberg:3", "cyclic:2"))


def schur_search(gc, workdir: str, seed: int) -> Plan:
    jobs = [Job(f"schur {spec}", ("schur", spec),
                repeat=_repeat(gc.catalog.resolve_groupspec(spec).order))
            for spec in SCHUR_BUILTINS]
    for a, b in SCHUR_TABLES:
        g = gc.groups.direct_product(gc.catalog.resolve_groupspec(a),
                                     gc.catalog.resolve_groupspec(b))
        name = f"{_slug(a)}x{_slug(b)}"
        path = os.path.join(workdir, f"{name}.table")
        _write(path, gc.catalog.dump_group(g))
        jobs.append(Job(f"schur {name}.table", ("schur", path), repeat=_repeat(g.order)))
    return Plan(jobs)


WORKLOADS = {
    "cover_lattice": cover_lattice,
    "witness_corners": witness_corners,
    "schur_search": schur_search,
}

PACKAGE = "groupcolour"


def import_package() -> SimpleNamespace:
    """The package's modules that jobs and workloads use."""
    importlib.import_module(PACKAGE)
    return SimpleNamespace(**{layer: importlib.import_module(f"{PACKAGE}.{layer}")
                              for layer in ("cli", "catalog", "groups", "colouring", "corners")})


def main(argv: list[str]) -> int:
    """One set-up pass: import the package and write a workload's inputs.

        python3 bench/workloads.py WORKLOAD SEED WORKDIR

    The runner times passes of this script, each in a fresh interpreter, so
    the set-up time includes the imports a user's process pays (numpy too).
    """
    workload, seed, workdir = argv
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    WORKLOADS[workload](import_package(), workdir, int(seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
