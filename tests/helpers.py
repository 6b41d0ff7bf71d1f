"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's optimised code paths: they
materialise tuples, loop naively, and enumerate exhaustively.
"""

import random
from itertools import product

from groupcolour.colouring import Cover, SchurResult, class_witness
from groupcolour.corners import PairSet
from groupcolour.groups import ElementSet, GroupTable


def naive_quadruples(g: GroupTable, a: ElementSet) -> list[tuple[int, int, int, int]]:
    """All (x, y, xy, yx) tuples fully inside A, materialised."""
    members = a.members()
    mset = set(members)
    out = []
    for x in members:
        for y in members:
            p = g.mul[x][y]
            q = g.mul[y][x]
            if p in mset and q in mset:
                out.append((x, y, p, q))
    return out


def naive_commuting_pairs(g: GroupTable) -> int:
    n = g.order
    return sum(
        1
        for x in range(n)
        for y in range(n)
        if g.mul[x][y] == g.mul[y][x]
    )


def naive_permutation_closure(generators, degree) -> set[tuple[int, ...]]:
    """Brute-force closure of permutations under composition."""
    gens = [tuple(p) for p in generators]
    found = {tuple(range(degree))}
    changed = True
    while changed:
        changed = False
        for p in list(found):
            for q in gens + list(found):
                r = tuple(p[q[i]] for i in range(degree))
                if r not in found:
                    found.add(r)
                    changed = True
    return found


def class_has_noncommuting_quadruple(g: GroupTable, members: set[int]) -> bool:
    for x in members:
        for y in members:
            p = g.mul[x][y]
            q = g.mul[y][x]
            if p != q and p in members and q in members:
                return True
    return False


def naive_avoiding_partitions(g: GroupTable, m: int) -> list[list[int]]:
    """All canonical partitions into at most m classes with no violating
    class, by complete enumeration (no pruning)."""
    n = g.order
    results = []
    for assign in product(*[range(min(v + 1, m)) for v in range(n)]):
        # canonical restricted-growth check
        used = 0
        ok = True
        for c in assign:
            if c > used:
                ok = False
                break
            if c == used:
                used += 1
        if not ok:
            continue
        classes = [set() for _ in range(used)]
        for v, c in enumerate(assign):
            classes[c].add(v)
        if any(class_has_noncommuting_quadruple(g, cls) for cls in classes):
            continue
        results.append(list(assign))
    return results


class _OutOfBudget(Exception):
    pass


def naive_schur_number(g: GroupTable, k_max: int = 6, budget: int = 10 ** 8) -> SchurResult:
    """The canonical partition search, rechecking the whole class with
    class_witness at every node; the oracle for the per-edge check."""
    n = g.order
    nodes = prunes = 0
    for m in range(2, k_max + 2):
        masks = [0] * m

        def extend(v: int, used: int) -> bool:
            nonlocal nodes, prunes, budget
            for c in range(min(used + 1, m)):
                nodes += 1
                budget -= 1
                if budget < 0:
                    raise _OutOfBudget
                new_mask = masks[c] | (1 << v)
                if class_witness(g, ElementSet(n, new_mask)) is not None:
                    prunes += 1
                    continue
                masks[c] = new_mask
                if v == n - 1 or extend(v + 1, max(used, c + 1)):
                    return True
                masks[c] ^= 1 << v
            return False

        try:
            found = extend(0, 0)
        except _OutOfBudget:
            return SchurResult(m - 1, None, nodes, prunes, complete=False)
        if found:
            cover = Cover.of(n, [ElementSet(n, b) for b in masks])
            return SchurResult(m - 1, cover, nodes, prunes, complete=True)
    return SchurResult(k_max, None, nodes, prunes, complete=False)


def naive_corner_count(g: GroupTable, a: PairSet) -> int:
    """Plain triple loop; the independent oracle for the bit-parallel path."""
    n = g.order
    mul = g.mul
    count = 0
    for x in range(n):
        for y in range(n):
            if (x, y) not in a:
                continue
            for z in range(n):
                if (mul[z][x], y) in a and (x, mul[y][z]) in a:
                    count += 1
    return count


def naive_corner_counts_by_z(g: GroupTable, a: PairSet) -> list[int]:
    """Per-z corner counts by a loop over the set bits of int row masks."""
    n = g.order
    mul = g.mul
    rows = a.rows
    counts = []
    for z in range(n):
        zrow = mul[z]
        ycol = [mul[y][z] for y in range(n)]
        total = 0
        for x in range(n):
            rx = rows[x]
            both = rx & rows[zrow[x]]
            while both:
                low = both & -both
                y = low.bit_length() - 1
                both ^= low
                if (rx >> ycol[y]) & 1:
                    total += 1
        counts.append(total)
    return counts


def naive_shifted_rows(g: GroupTable, a_bits: int, s: int) -> tuple[int, ...]:
    """Row bitmasks of {(x, y) : x s y in A}, one membership test per cell."""
    n = g.order
    mul = g.mul
    rows = []
    for x in range(n):
        row_base = mul[mul[x][s]]
        row = 0
        for y in range(n):
            if (a_bits >> row_base[y]) & 1:
                row |= 1 << y
        rows.append(row)
    return tuple(rows)


def naive_random_rows(n: int, seed: int, density: float) -> tuple[int, ...]:
    """Row bitmasks of a seeded random pair set: one draw per cell, row-major."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row = 0
        for y in range(n):
            if rng.random() < density:
                row |= 1 << y
        rows.append(row)
    return tuple(rows)


def naive_dump_pairs(n: int, rows: tuple[int, ...]) -> str:
    """The pairs file of the given row bitmasks, pairs in row-major order."""
    lines = [f"pairs {n}"]
    for x, row in enumerate(rows):
        for y in range(n):
            if (row >> y) & 1:
                lines.append(f"{x} {y}")
    return "\n".join(lines) + "\n"


def naive_is_associative(table) -> bool:
    """(ab)c == a(bc) for every triple, by exhaustive O(n^3) loop."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )
