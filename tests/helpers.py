"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's optimised code paths: they
materialise tuples, loop naively, and enumerate exhaustively.
"""

from itertools import product

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


def naive_is_associative(table) -> bool:
    """(ab)c == a(bc) for every triple, by exhaustive O(n^3) loop."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )
