"""Output checks for benchmark jobs.

Two kinds of check apply.  A golden check compares porcelain output with
what was recorded for the default seed; it applies to every job whose
output does not depend on the seed, and to seeded jobs on the default seed.
A certificate check applies on every seed: built covers and Schur
colourings must avoid non-commuting quadruples, corner counts must match the
triangle count, and a witness bound must not exceed its verified count.  A
witness that gives up is right only if no shift trial of its last stage,
where any trial that passes the density filter is accepted, passes it.

Search counters (``nodes=``, ``prunes=``) and colouring members are checked
by certificate and returned as counters, never frozen.  Blank ``trend``
cells are not frozen either: a fix that fills one does not trip the check.
Blank cells and certified witness give-ups are listed as known failures.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


def fields(line: str) -> dict[str, str]:
    """key=value fields of one porcelain line."""
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def golden_text(verb: str, out: str) -> str:
    """The part of a job's output that is frozen as golden."""
    if verb == "schur":
        return "".join(line + "\n" for line in out.splitlines()
                       if line.startswith(("k=", "complete=")))
    if verb == "trend":
        return "".join(" ".join(f"{k}={v}" for k, v in fields(line).items() if v != "-") + "\n"
                       for line in out.splitlines())
    return out


def _trend_matches(golden: str, out: str) -> bool:
    got = [fields(line) for line in out.splitlines()]
    want = [fields(line) for line in golden.splitlines()]
    return len(got) == len(want) and all(
        all(g.get(k) == v for k, v in w.items()) for g, w in zip(got, want))


class Checker:
    """Checks job outputs and collects the counters they report.

    ``golden`` maps job ids to golden text; ``default_seed`` says whether the
    run uses the seed the golden outputs were recorded with.  ``gc`` gives
    access to the package for certificate checks.
    """

    def __init__(self, gc, golden: dict[str, str], default_seed: bool):
        self.gc = gc
        self.golden = golden
        self.default_seed = default_seed
        self.counters: dict[str, int] = {"schur_nodes": 0, "schur_prunes": 0,
                                         "trend_blank_cells": 0, "witness_unsuccessful": 0}
        self.known_failures: list[dict] = []

    def check(self, job, rc: int | None, out: str, err: str) -> str | None:
        """None if the output is right, else the reason it is not."""
        if rc != 0:
            return f"exit {rc}: {err.strip().splitlines()[-1] if err.strip() else 'no message'}"
        if not job.seeded or self.default_seed:
            want = self.golden.get(job.id)
            if want is None:
                return "no golden output recorded"
            if job.verb == "trend":
                if not _trend_matches(want, out):
                    return "trend output differs from golden"
            elif golden_text(job.verb, out) != want:
                return "output differs from golden"
        return self.certify(job, out)

    def certify(self, job, out: str) -> str | None:
        """None if the output passes its verb's certificate check."""
        certify = getattr(self, "_" + job.verb.replace("-", "_"), None)
        try:
            return certify(job, out) if certify else None
        except (KeyError, IndexError, ValueError) as exc:
            return f"malformed output: {exc!r}"

    def _group(self, job):
        return self.gc.catalog.resolve_groupspec(job.groupspec)

    def _cover_build(self, job, out: str) -> str | None:
        lines = out.splitlines()
        start = next((i for i, line in enumerate(lines) if line.startswith("cover ")), None)
        if start is None:
            return "no cover in output"
        text = "\n".join(lines[start:]) + "\n"
        g = self._group(job)
        cover = self.gc.colouring.parse_cover_text(text)
        ok, witness = self.gc.colouring.cover_avoids(g, cover)
        if not ok:
            return f"built cover has a non-commuting quadruple {witness}"
        if f"cover_size={cover.size}" not in out.splitlines():
            return "cover_size does not match the emitted cover"
        return None

    def _schur(self, job, out: str) -> str | None:
        lines = out.splitlines()
        head = {}
        for line in lines:
            if not line.startswith("class="):
                head.update(fields(line))
        if head.get("complete") != "true":
            return "search incomplete"
        self.counters["schur_nodes"] += int(head["nodes"])
        self.counters["schur_prunes"] += int(head["prunes"])
        g = self._group(job)
        classes = [[int(v) for v in line.split("members=", 1)[1].split()]
                   for line in lines if line.startswith("class=")]
        if len(classes) != int(head["k"]) + 1:
            return "colouring does not have k+1 classes"
        es = self.gc.groups.ElementSet
        cover = self.gc.colouring.Cover.of(g.order, [es.from_indices(g.order, c) for c in classes])
        if not cover.is_partition():
            return "colouring is not a partition"
        ok, witness = self.gc.colouring.cover_avoids(g, cover)
        return None if ok else f"colouring has a non-commuting quadruple {witness}"

    def _corners(self, job, out: str) -> str | None:
        f = fields(out)
        n = self._group(job).order
        s_num, s_den = (int(v) for v in f["S"].split("/"))
        if f.get("bijection") != "ok" or int(f["triangles"]) != s_num or s_den != n ** 3:
            return "corner count and triangle count disagree"
        return None

    def _witness(self, job, out: str) -> str | None:
        f = {}
        for line in out.splitlines():
            f.update(fields(line))
        if f.get("success") == "true":
            if int(f["verified_quads"]) < int(f["quad_lower_bound"]):
                return "verified quadruples below the claimed lower bound"
            return None
        if f.get("success") != "false":
            return "no success field"
        trial = self._last_stage_pass(job)
        if trial is not None:
            return f"gave up, but last-stage shift trial {trial} passes the density filter"
        self.counters["witness_unsuccessful"] += 1
        reason = next(line for line in out.splitlines() if line.startswith("reason="))
        self.known_failures.append({"job": job.id, "reason": reason.removeprefix("reason=")})
        return None

    def _last_stage_pass(self, job) -> int | None:
        """The first shift trial of the witness's last stage r = k whose
        shifted classes intersect in at least prod(|C_i|/n) n^2 pairs, or
        None.  The tail density there is 0, so such a trial is accepted."""
        opts = dict(zip(job.argv[2::2], job.argv[3::2]))
        g = self._group(job)
        n = g.order
        seed = int(opts.get("--seed", 0))
        trials = int(opts.get("--trials", self.gc.corners.DEFAULT_TRIALS))
        cover = self.gc.colouring.load_cover(opts["--cover"])
        classes = sorted(cover.classes, key=lambda c: -len(c))  # stable, as witness_finder
        k = len(classes)
        target = math.prod(Fraction(len(c), n) for c in classes) * n * n
        for trial in range(trials):
            rng = random.Random(seed * 1_000_003 + k * 8191 + trial)
            rows = [(1 << n) - 1] * n
            for c in classes:
                shifted = self.gc.corners.shifted_pair_set(g, c.bits, rng.randrange(n))
                rows = [a & b for a, b in zip(rows, shifted.rows)]
            if sum(row.bit_count() for row in rows) >= target:
                return trial
        return None

    def _trend(self, job, out: str) -> str | None:
        max_order = self.gc.cli.TREND_SCHUR_MAX_ORDER
        for line in out.splitlines():
            row = fields(line)
            for key, value in row.items():
                if value != "-":
                    continue
                self.counters["trend_blank_cells"] += 1
                if key == "k":
                    reason = (f"k(G) not searched above order {max_order}"
                              if int(row["order"]) > max_order else "k(G) search incomplete")
                else:
                    reason = "build_cover raised"
                self.known_failures.append({"job": job.id, "n": int(row["n"]), "cell": key,
                                         "reason": reason})
        return None
