"""Command-line front end.

Output is deterministic: seeds default to 0 and are never time-derived.
With --porcelain only stable key=value lines are printed; human mode prints
the same lines after a short "#" header, so both modes carry identical
numbers.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import catalog, colouring, corners, neumann
from .colouring import cover_avoids, count_quadruples, schur_number
from .errors import ConsistencyError, GroupColourError
from .groups import DEFAULT_MAX_ORDER
from .stats import commuting_probability, is_abelian

TREND_FAMILIES = ("cyclic", "dihedral", "symmetric", "heisenberg")
TREND_SCHUR_MAX_ORDER = 16
TREND_SCHUR_BUDGET = 2_000_000


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def _fmt(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


class _Out:
    def __init__(self, porcelain: bool):
        self.porcelain = porcelain

    def header(self, text: str) -> None:
        if not self.porcelain:
            print(f"# {text}")

    def kv(self, line: str) -> None:
        print(line)


def cmd_info(args, out: _Out) -> int:
    g = catalog.resolve_groupspec(args.groupspec)
    rep = commuting_probability(g)
    out.header(f"info {g.name}")
    out.kv(
        f"order={g.order} abelian={'true' if rep.c == 1 else 'false'} "
        f"classes={rep.num_classes} c={_fmt(rep.c)} c_decimal={float(rep.c):.6f}"
    )
    return 0


def cmd_cprob(args, out: _Out) -> int:
    g = catalog.resolve_groupspec(args.groupspec)
    rep = commuting_probability(g)
    out.header(f"commuting probability of {g.name}")
    out.kv(
        f"pairs_total={rep.pairs_total} pairs_commuting={rep.pairs_commuting} "
        f"classes={rep.num_classes} c={_fmt(rep.c)} c_decimal={float(rep.c):.6f}"
    )
    return 0


def cmd_quads(args, out: _Out) -> int:
    g = catalog.resolve_groupspec(args.groupspec)
    cover = colouring.load_cover(args.cover)
    counts = [count_quadruples(g, cls) for cls in cover.classes]
    out.header(f"quadruple counts for {g.name}")
    out.kv(f"classes={cover.size}")
    for i, (cls, (total, noncomm)) in enumerate(zip(cover.classes, counts)):
        out.kv(f"class={i} size={len(cls)} total={total} noncommuting={noncomm}")
    return 0


def cmd_schur(args, out: _Out) -> int:
    g = catalog.resolve_groupspec(args.groupspec)
    res = schur_number(g, k_max=args.kmax, budget=args.budget)
    out.header(f"non-commuting Schur number of {g.name}")
    out.kv(f"k={res.k_value}")
    out.kv(f"complete={'true' if res.complete else 'false'}")
    out.kv(f"nodes={res.nodes}")
    out.kv(f"prunes={res.prunes}")
    if res.avoiding_colouring is not None:
        for i, cls in enumerate(res.avoiding_colouring.classes):
            out.kv(f"class={i} members=" + " ".join(str(v) for v in cls))
    return 0


def cmd_cover_build(args, out: _Out) -> int:
    g = catalog.resolve_groupspec(args.groupspec)
    art = neumann.build_cover(g)
    out.header(f"avoiding cover for {g.name} (epsilon={_fmt(art.epsilon)})")
    for line in neumann.transcript_lines(art):
        out.kv(line)
    text = colouring.dump_cover(art.cover)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        out.kv(f"cover_file={args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_cover_check(args, out: _Out) -> int:
    g = catalog.resolve_groupspec(args.groupspec)
    cover = colouring.load_cover(args.cover)
    ok, witness = cover_avoids(g, cover)
    out.header(f"avoidance check for {g.name}")
    if witness is None:
        out.kv("avoids=true")
    else:
        ci, x, y = witness
        out.kv(f"avoids=false witness_class={ci} witness_x={x} witness_y={y}")
    return 0


def cmd_corners(args, out: _Out) -> int:
    g = catalog.resolve_groupspec(args.groupspec)
    pairs = corners.load_pairs(args.pairs)
    if pairs.n != g.order:
        raise GroupColourError(
            f"pairs file is for n={pairs.n}, group has order {g.order}"
        )
    n = g.order
    count = sum(corners.corner_counts_by_z(g, pairs))
    tri = corners.triangle_count(corners.build_tripartite(g, pairs))
    if tri != count:
        raise ConsistencyError(f"corner count mismatch: kernel={count} triangles={tri}")
    out.header(f"corner statistic for {g.name}")
    out.kv(
        f"S={count}/{n ** 3} S_decimal={count / n ** 3:.6f} "
        f"triangles={tri} bijection=ok"
    )
    return 0


def cmd_witness(args, out: _Out) -> int:
    g = catalog.resolve_groupspec(args.groupspec)
    cover = colouring.load_cover(args.cover)
    t = corners.witness_finder(g, cover, seed=args.seed, trials=args.trials)
    out.header(f"witness transcript for {g.name}")
    for line in corners.transcript_lines(t):
        out.kv(line)
    return 0


def trend_rows(family: str, lo: int, hi: int) -> list[dict]:
    """One row per family member: order, c(G), cover size/bound, k(G)."""
    if family not in TREND_FAMILIES:
        raise GroupColourError(f"unknown trend family {family!r}; choose from {TREND_FAMILIES}")
    rows = []
    # No parameter above the maximum order builds: no order is below its parameter.
    for n in range(lo, min(hi, DEFAULT_MAX_ORDER) + 1):
        if family == "heisenberg" and n not in catalog.HEISENBERG_PRIMES:
            continue
        try:
            g = catalog.builtin(family, [n])
        except GroupColourError:
            continue
        rep = commuting_probability(g)
        row = {"param": n, "order": g.order, "c": rep.c,
               "cover_size": None, "size_bound": None, "k": None, "k_complete": False}
        try:
            art = neumann.build_cover(g)
            row["cover_size"] = art.cover.size
            row["size_bound"] = art.size_bound
        except GroupColourError:
            pass
        if not is_abelian(g) and g.order <= TREND_SCHUR_MAX_ORDER:
            res = schur_number(g, k_max=4, budget=TREND_SCHUR_BUDGET)
            if res.complete:
                row["k"] = res.k_value
                row["k_complete"] = True
        rows.append(row)
    return rows


def cmd_trend(args, out: _Out) -> int:
    try:
        lo_s, hi_s = args.range.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise GroupColourError(f"range must look like 3..12, got {args.range!r}")
    rows = trend_rows(args.family, lo, hi)
    out.header(f"trend for family {args.family}, range {lo}..{hi}")
    for row in rows:
        k = row["k"] if row["k_complete"] else "-"
        cs = row["cover_size"] if row["cover_size"] is not None else "-"
        sb = row["size_bound"] if row["size_bound"] is not None else "-"
        out.kv(
            f"n={row['param']} order={row['order']} c={_fmt(row['c'])} "
            f"c_decimal={float(row['c']):.6f} cover_size={cs} size_bound={sb} k={k}"
        )
    return 0


def cmd_catalog(args, out: _Out) -> int:
    out.header("builtin groups")
    for name, (_, _, line) in catalog.FAMILIES.items():
        out.kv(f"{name} - {line}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupcolour",
        description="Colouring and Ramsey-type invariants of finite non-Abelian groups.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--porcelain", action="store_true",
                        help="stable machine-readable key=value output only")

    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("info", parents=[common], help="order, abelian flag, class count, c(G)")
    p.add_argument("groupspec")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("cprob", parents=[common], help="full commuting report")
    p.add_argument("groupspec")
    p.set_defaults(func=cmd_cprob)

    p = sub.add_parser("quads", parents=[common], help="per-class quadruple counts")
    p.add_argument("groupspec")
    p.add_argument("--cover", required=True)
    p.set_defaults(func=cmd_quads)

    p = sub.add_parser("schur", parents=[common], help="non-commuting Schur number k(G)")
    p.add_argument("groupspec")
    p.add_argument("--kmax", type=_positive_int, default=6)
    p.add_argument("--budget", type=_positive_int, default=colouring.DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("cover-build", parents=[common],
                       help="build a quadruple-avoiding cover")
    p.add_argument("groupspec")
    p.add_argument("--out", default=None, help="write the cover file here instead of stdout")
    p.set_defaults(func=cmd_cover_build)

    p = sub.add_parser("cover-check", parents=[common], help="avoidance verdict for a cover file")
    p.add_argument("groupspec")
    p.add_argument("--cover", required=True)
    p.set_defaults(func=cmd_cover_check)

    p = sub.add_parser("corners", parents=[common],
                       help="corner statistic and triangle bijection check")
    p.add_argument("groupspec")
    p.add_argument("--pairs", required=True)
    p.set_defaults(func=cmd_corners)

    p = sub.add_parser("witness", parents=[common], help="witness-finder transcript")
    p.add_argument("groupspec")
    p.add_argument("--cover", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=corners.DEFAULT_TRIALS)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("trend", parents=[common],
                       help="c(G), cover sizes and k(G) along a builtin family")
    p.add_argument("--family", required=True, choices=TREND_FAMILIES)
    p.add_argument("--range", required=True, help="like 3..12")
    p.set_defaults(func=cmd_trend)

    p = sub.add_parser("catalog", parents=[common], help="list builtin group names")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Out(porcelain=args.porcelain)
    try:
        return args.func(args, out)
    except GroupColourError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
