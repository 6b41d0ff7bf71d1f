"""Spans and counters around the public functions of groupcolour's layers.

Tracing is installed from outside the package.  Every public function
defined in a layer module is replaced at its module attribute and at every
other name in the package bound to the same object (``cli.schur_number``,
``neumann.conjugacy``, ``stats.conjugacy`` ...), so calls between modules
are traced too.  A span records its name, start, end, parent and job; spans
stay in memory until the run writes them out.  Self time is a span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import csv
import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "catalog", "groups", "stats", "colouring", "neumann", "corners")

# Counters that must repeat exactly between runs on one seed.
EXACT_COUNTERS = ("colouring.schur_nodes", "groups.subgroup_closure.calls",
                  "groups.conjugacy.calls", "corners.corner_counts_by_z.calls",
                  "corners.shift_trials")


class RoundStats:
    """Totals over one traced pass through a workload's jobs."""

    def __init__(self) -> None:
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.wall_ns = 0


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


# Hooks read arguments and results at a layer boundary: (enter, leave).
# enter(tracer, args, kwargs) -> state; leave(tracer, state, result, exc).

def _table_cells(t, args, kwargs):
    t.count("groups.from_cayley_table.cells", len(_arg(args, kwargs, 0, "table")) ** 2)


def _corner_enter(t, args, kwargs):
    t.count("corners.corner_counts_by_z.cells", _arg(args, kwargs, 0, "g").order ** 3)
    if t.witness is not None:
        t.count("corners.witness_kernel_calls")


def _shift_enter(t, args, kwargs):
    # A shift trial starts with the shift of the densest class, whose bits
    # are those of the first shifted set in the witness_finder call.  The
    # classes of a partition are disjoint, so no other class has those bits.
    if t.witness is None:
        return
    bits = _arg(args, kwargs, 1, "a_bits")
    if t.witness["first"] is None:
        t.witness["first"] = bits
    if bits == t.witness["first"]:
        t.count("corners.shift_trials")


def _witness_enter(t, args, kwargs):
    t.witness = {"first": None}


def _witness_leave(t, state, result, exc):
    t.witness = None


def _schur_leave(t, state, result, exc):
    if result is not None:
        t.count("colouring.schur_nodes", result.nodes)
        t.count("colouring.schur_prunes", result.prunes)


def _cover_enter(t, args, kwargs):
    return t.round.calls["groups.all_subgroups"]


def _cover_leave(t, lattice_calls_before, result, exc):
    t.count("neumann.cover_builds")
    if t.round.calls["groups.all_subgroups"] == lattice_calls_before:
        t.count("neumann.lattice_bypassed")
    if type(exc).__name__ == "SizeLimitError":
        t.count("neumann.size_limit_failures")


def _trend_leave(t, state, result, exc):
    for row in result or ():
        blank = [row["cover_size"], row["size_bound"], row["k"] if row["k_complete"] else None]
        t.count("cli.trend_blank_cells", blank.count(None))


HOOKS = {
    "groups.from_cayley_table": (_table_cells, None),
    "corners.corner_counts_by_z": (_corner_enter, None),
    "corners.shifted_pair_set": (_shift_enter, None),
    "corners.witness_finder": (_witness_enter, _witness_leave),
    "colouring.schur_number": (None, _schur_leave),
    "neumann.build_cover": (_cover_enter, _cover_leave),
    "cli.trend_rows": (None, _trend_leave),
}


class Tracer:
    def __init__(self, package: str = "groupcolour") -> None:
        self.package = package
        self.spans: list[tuple] = []  # (round, job, span, parent, name, start_ns, end_ns)
        self.rounds: list[RoundStats] = []
        self.job = -1
        self.witness: dict | None = None
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._saved: list[tuple] = []

    @property
    def round(self) -> RoundStats:
        return self.rounds[-1]

    def count(self, name: str, value: int = 1) -> None:
        self.round.counters[name] += value

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != self.package and not name.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._saved.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, name: str, func):
        enter, leave = HOOKS.get(name, (None, None))

        @functools.wraps(func)
        def traced(*args, **kwargs):
            rnd = self.rounds[-1]
            state = enter(self, args, kwargs) if enter else None
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0]
            self._next_id += 1
            self._stack.append(frame)
            result = exc = None
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                dur = end - start
                rnd.incl_ns[name] += dur
                rnd.self_ns[name] += dur - frame[1]
                rnd.calls[name] += 1
                if parent is not None:
                    parent[1] += dur
                self.spans.append((len(self.rounds) - 1, self.job, frame[0],
                                   parent[0] if parent else -1, name, start, end))
                if leave:
                    leave(self, state, result, exc)

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(("round", "job", "span", "parent", "name", "start_ns", "end_ns"))
            w.writerows(self.spans)

    def span_errors(self, job_wall_ns: dict[tuple[int, int], int]) -> int:
        """Jobs whose spans do not nest, or whose self times do not sum to
        the job's traced wall time (1 ms plus 1% slack for the harness's own
        work around the call).  ``job_wall_ns`` maps (round, job) to it."""
        by_job = defaultdict(list)
        for s in self.spans:
            by_job[(s[0], s[1])].append(s)
        errors = 0
        for key, spans in by_job.items():
            ivl = {s[2]: (s[5], s[6]) for s in spans}
            children = defaultdict(list)
            roots = 0
            ok = True
            for _, _, sid, parent, _, start, end in spans:
                if parent < 0:
                    roots += 1
                    continue
                pstart, pend = ivl.get(parent, (end, start))
                ok &= pstart <= start <= end <= pend
                children[parent].append((start, end))
            for kids in children.values():
                kids.sort()
                ok &= all(a[1] <= b[0] for a, b in zip(kids, kids[1:]))
            self_total = sum(end - start for *_, start, end in spans) - sum(
                end - start for kids in children.values() for start, end in kids)
            wall = job_wall_ns.get(key, 0)
            ok &= roots == 1 and abs(wall - self_total) <= 1_000_000 + wall // 100
            errors += not ok
        return errors


# Per-layer metrics, per traced round.  "<layer>.<function>.calls" and
# "<layer>.<function>.self_ms" come from the spans; "<layer>.self_ms" sums a
# layer's functions; the rest are counters and ratios defined below.
PER_LAYER = (
    ("groups.subgroup_closure.calls", "count", "lower"),
    ("groups.subgroup_closure.self_ms", "ms", "lower"),
    ("groups.all_subgroups.calls", "count", "lower"),
    ("groups.all_subgroups.self_ms", "ms", "lower"),
    ("neumann.find_subgroup_in_product.self_ms", "ms", "lower"),
    ("neumann.build_cover.self_ms", "ms", "lower"),
    ("neumann.growth_index.self_ms", "ms", "lower"),
    ("groups.product_set.calls", "count", "lower"),
    ("groups.coset_action_kernel.self_ms", "ms", "lower"),
    ("neumann.lattice_bypass_ratio", "ratio", "higher"),
    ("neumann.size_limit_failures", "count", "lower"),
    ("corners.corner_counts_by_z.calls", "count", "lower"),
    ("corners.corner_counts_by_z.self_ms", "ms", "lower"),
    ("corners.corner_counts_by_z.cells", "cells", "lower"),
    ("corners.shifted_pair_set.calls", "count", "lower"),
    ("corners.shifted_pair_set.self_ms", "ms", "lower"),
    ("corners.shift_trials", "count", "lower"),
    ("corners.density_pass_ratio", "ratio", "higher"),
    ("corners.build_tripartite.self_ms", "ms", "lower"),
    ("corners.triangle_count.self_ms", "ms", "lower"),
    ("corners.load_pairs.self_ms", "ms", "lower"),
    ("corners.parse_pairs_text.self_ms", "ms", "lower"),
    ("colouring.schur_number.calls", "count", "lower"),
    ("colouring.schur_number.self_ms", "ms", "lower"),
    ("colouring.schur_nodes", "count", "lower"),
    ("colouring.schur_prunes", "count", "lower"),
    ("colouring.prune_ratio", "ratio", "higher"),
    ("colouring.schur_nodes_per_s", "nodes/s", "higher"),
    ("colouring.cover_avoids.self_ms", "ms", "lower"),
    ("colouring.class_witness.self_ms", "ms", "lower"),
    ("colouring.count_quadruples.self_ms", "ms", "lower"),
    ("colouring.load_cover.self_ms", "ms", "lower"),
    ("colouring.parse_cover_text.self_ms", "ms", "lower"),
    ("groups.from_cayley_table.self_ms", "ms", "lower"),
    ("groups.from_cayley_table.cells", "cells", "lower"),
    ("groups.from_permutations.self_ms", "ms", "lower"),
    ("groups.direct_product.self_ms", "ms", "lower"),
    ("catalog.resolve_groupspec.self_ms", "ms", "lower"),
    ("catalog.load_group.self_ms", "ms", "lower"),
    ("catalog.parse_group_text.self_ms", "ms", "lower"),
    ("groups.conjugacy.calls", "count", "lower"),
    ("groups.conjugacy.self_ms", "ms", "lower"),
    ("stats.commuting_probability.self_ms", "ms", "lower"),
    ("stats.is_abelian.self_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.trend_blank_cells", "count", "lower"),
    *((f"{layer}.self_ms", "ms", "lower") for layer in LAYERS),
    ("bench.traced_round_s", "s", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.count_drift", "count", "lower"),
    ("bench.span_errors", "count", "lower"),
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


DERIVED = {
    "neumann.lattice_bypass_ratio": lambda r: _ratio(r.counters["neumann.lattice_bypassed"],
                                                     r.counters["neumann.cover_builds"]),
    "corners.density_pass_ratio": lambda r: _ratio(r.counters["corners.witness_kernel_calls"],
                                                   r.counters["corners.shift_trials"]),
    "colouring.prune_ratio": lambda r: _ratio(r.counters["colouring.schur_prunes"],
                                              r.counters["colouring.schur_nodes"]),
    "colouring.schur_nodes_per_s": lambda r: _ratio(
        r.counters["colouring.schur_nodes"], r.incl_ns["colouring.schur_number"] / 1e9),
}


def round_value(r: RoundStats, name: str) -> float:
    """One per-layer metric over one traced round."""
    if name in DERIVED:
        return DERIVED[name](r)
    head, _, quantity = name.rpartition(".")
    if head in LAYERS and quantity == "self_ms":
        return sum(ns for fn, ns in r.self_ns.items() if fn.startswith(head + ".")) / 1e6
    if quantity == "calls":
        return r.calls[head]
    if quantity == "self_ms":
        return r.self_ns[head] / 1e6
    return r.counters[name]
