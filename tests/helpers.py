"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's optimised code paths: they
materialise tuples, loop naively, and enumerate exhaustively.
"""

import operator
import random
from itertools import product

import numpy as np

from groupcolour.catalog import parse_cycles
from groupcolour.colouring import Cover, SchurResult
from groupcolour.corners import PairSet
from groupcolour.errors import SHORT_FIELD, ParseError, SizeLimitError, ValidationError, long_digits
from groupcolour.groups import DEFAULT_MAX_ORDER, ConjugacyData, ElementSet, GroupTable


def naive_quadruples(g: GroupTable, a: ElementSet) -> list[tuple[int, int, int, int]]:
    """All (x, y, xy, yx) tuples fully inside A, materialised."""
    mul = g.mul_array.tolist()
    members = a.members()
    mset = set(members)
    out = []
    for x in members:
        for y in members:
            p = mul[x][y]
            q = mul[y][x]
            if p in mset and q in mset:
                out.append((x, y, p, q))
    return out


def naive_commuting_pairs(g: GroupTable) -> int:
    n = g.order
    mul = g.mul_array.tolist()
    return sum(
        1
        for x in range(n)
        for y in range(n)
        if mul[x][y] == mul[y][x]
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
    mul = g.mul_array.tolist()
    for x in members:
        for y in members:
            p = mul[x][y]
            q = mul[y][x]
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
    naive_class_witness at every node; the oracle for the per-edge check."""
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
                if naive_class_witness(g, ElementSet(n, new_mask)) is not None:
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
    mul = g.mul_array.tolist()
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
    mul = g.mul_array.tolist()
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
    mul = g.mul_array.tolist()
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


def naive_dump_group(g: GroupTable) -> str:
    """The table file of g, with one str() per entry."""
    lines = [f"table {g.order}"]
    for row in g.mul_array.tolist():
        lines.append(" ".join(str(v) for v in row))
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


# The loop forms of the G x G kernels, kept as oracles for the array
# expressions over mul_array in the library.

def naive_is_abelian(g: GroupTable) -> bool:
    mul = g.mul_array.tolist()
    n = g.order
    for x in range(n):
        row = mul[x]
        for y in range(x + 1, n):
            if row[y] != mul[y][x]:
                return False
    return True


def naive_conjugacy(g: GroupTable) -> ConjugacyData:
    """Classes by conjugating each new element by every t, in element order;
    centralizers by a count per element."""
    n = g.order
    mul, inv = g.mul_array.tolist(), g.inv
    class_id = [-1] * n
    classes: list[ElementSet] = []
    for x in range(n):
        if class_id[x] >= 0:
            continue
        orbit = 0
        for t in range(n):
            orbit |= 1 << mul[mul[inv[t]][x]][t]
        for v in ElementSet(n, orbit):
            class_id[v] = len(classes)
        classes.append(ElementSet(n, orbit))
    centralizer = []
    for x in range(n):
        row = mul[x]
        centralizer.append(sum(1 for t in range(n) if row[t] == mul[t][x]))
    return ConjugacyData(
        class_id=tuple(class_id),
        classes=tuple(classes),
        class_sizes=tuple(len(c) for c in classes),
        centralizer_sizes=tuple(centralizer),
    )


def naive_is_subgroup(g: GroupTable, s: ElementSet) -> bool:
    if g.identity not in s:
        return False
    mem = s.members()
    bits = s.bits
    mul = g.mul_array.tolist()
    for a in mem:
        if not (bits >> g.inv[a]) & 1:
            return False
        row = mul[a]
        for b in mem:
            if not (bits >> row[b]) & 1:
                return False
    return True


def naive_coset_action_kernel(g: GroupTable, h: ElementSet) -> ElementSet:
    """The intersection of t H t^-1 over all t, one conjugate at a time."""
    n = g.order
    mul, inv = g.mul_array.tolist(), g.inv
    kernel = (1 << n) - 1
    for t in range(n):
        conj = 0
        for x in h:
            conj |= 1 << mul[mul[t][x]][inv[t]]
        kernel &= conj
    return ElementSet(n, kernel)


def naive_product_set(g: GroupTable, a: ElementSet, b: ElementSet) -> ElementSet:
    bits = 0
    mul = g.mul_array.tolist()
    for x in a:
        for y in b:
            bits |= 1 << mul[x][y]
    return ElementSet(g.order, bits)


def naive_left_cosets(g: GroupTable, k: ElementSet) -> list[ElementSet]:
    """xK for each x not in an earlier coset, in element order."""
    n = g.order
    mul = g.mul_array.tolist()
    seen = 0
    cosets = []
    for x in range(n):
        if (seen >> x) & 1:
            continue
        bits = 0
        for h in k:
            bits |= 1 << mul[x][h]
        seen |= bits
        cosets.append(ElementSet(n, bits))
    return cosets


def naive_count_quadruples(g: GroupTable, a: ElementSet) -> tuple[int, int]:
    """(total, noncommuting) quadruples in A^4, by row masks over y per x."""
    mul = g.mul_array.tolist()
    n = g.order
    abits = a.bits
    total = 0
    noncomm = 0
    for x in a:
        row = mul[x]
        mask_xy = 0
        mask_yx = 0
        mask_nc = 0
        for y in range(n):
            p = row[y]
            q = mul[y][x]
            if (abits >> p) & 1:
                mask_xy |= 1 << y
            if (abits >> q) & 1:
                mask_yx |= 1 << y
            if p != q:
                mask_nc |= 1 << y
        both = abits & mask_xy & mask_yx
        total += both.bit_count()
        noncomm += (both & mask_nc).bit_count()
    return total, noncomm


def naive_class_witness(g: GroupTable, a: ElementSet) -> tuple[int, int] | None:
    """The first (x, y) in A x A, in element order, with xy, yx in A and
    xy != yx."""
    mul = g.mul_array.tolist()
    abits = a.bits
    for x in a:
        row = mul[x]
        for y in a:
            p = row[y]
            q = mul[y][x]
            if p != q and (abits >> p) & 1 and (abits >> q) & 1:
                return (x, y)
    return None


def naive_edge_masks(g: GroupTable) -> tuple[tuple[int, ...], ...]:
    """Per element v, the sorted masks of the other three members of each
    hyperedge {x, y, xy, yx}, xy != yx, through v, over all pairs x < y."""
    mul = g.mul_array.tolist()
    n = g.order
    others: list[set[int]] = [set() for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            p = mul[x][y]
            q = mul[y][x]
            if p != q:
                edge = (1 << x) | (1 << y) | (1 << p) | (1 << q)
                for v in (x, y, p, q):
                    others[v].add(edge ^ (1 << v))
    return tuple(tuple(sorted(s)) for s in others)


def assert_top_edge_table(g: GroupTable, table, full) -> None:
    """table (from `_edge_masks`) stores each edge of the full per-element
    table `full` (from `naive_edge_masks`) once, at its largest member:
    table[v] is the sorted masks of full[v] with every member below v, every
    edge appears exactly once, and central elements have none."""
    assert len(table) == len(full) == g.order
    stored = []
    for v, (masks, through) in enumerate(zip(table, full)):
        assert masks == tuple(o for o in through if o >> v == 0)
        stored += (o | 1 << v for o in masks)
    assert len(stored) == len(set(stored))
    assert set(stored) == {o | 1 << v for v, through in enumerate(full) for o in through}
    m = g.mul_array
    for v in range(g.order):
        central = bool((m[v] == m[:, v]).all())
        assert bool(full[v]) != central
        if central:
            assert table[v] == ()


# The loop forms of group construction and of the line-oriented parsers,
# kept as oracles for the array and bulk versions in the library.

def naive_from_cayley_table(table, name: str = "G") -> GroupTable:
    """Validate a table cell by cell, in from_cayley_table's order of checks."""
    n = len(table)
    if n == 0:
        raise ValidationError("empty table")
    rows = []
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValidationError(f"row {i} has length {len(row)}, expected {n}")
        try:
            row = tuple(operator.index(v) for v in row)
        except TypeError:
            raise ValidationError(f"non-integer entry in row {i}")
        for v in row:
            if not 0 <= v < n:
                raise ValidationError(f"entry {v} in row {i} out of range 0..{n - 1}")
        rows.append(row)
    mul = tuple(rows)

    target = list(range(n))
    for i in range(n):
        if sorted(mul[i]) != target:
            raise ValidationError(f"not-Latin-square: row {i} is not a permutation")
    for j in range(n):
        if sorted(mul[i][j] for i in range(n)) != target:
            raise ValidationError(f"not-Latin-square: column {j} is not a permutation")

    identity = -1
    for e in range(n):
        if all(mul[e][x] == x for x in range(n)) and all(mul[x][e] == x for x in range(n)):
            identity = e
            break
    if identity < 0:
        raise ValidationError("no-identity: no two-sided identity element")

    inv = []
    for x in range(n):
        y = mul[x].index(identity)
        if mul[y][x] != identity:
            raise ValidationError(f"no-inverse: element {x} has no two-sided inverse")
        inv.append(y)

    m = np.array(mul, dtype=np.min_scalar_type(n))
    m.flags.writeable = False
    gens: list[int] = []
    reached = 1 << identity
    for b in range(n):
        if (reached >> b) & 1:
            continue
        left = m[m[:, b]]
        right = m[:, m[b]]
        if not np.array_equal(left, right):
            a, c = np.argwhere(left != right)[0]
            raise ValidationError(
                f"non-associative triple ({int(a)},{b},{int(c)}): "
                f"(ab)c={int(left[a, c])} but a(bc)={int(right[a, c])}"
            )
        gens.append(b)
        reached = naive_generated(mul, identity, gens)
    return GroupTable(order=n, inv=tuple(inv), identity=identity, name=name, mul_array=m)


def naive_generated(mul, identity: int, gens) -> int:
    """Bit set of all products of gens, by BFS from the identity."""
    queue = [identity]
    seen = {identity}
    for x in queue:
        for s in gens:
            y = mul[x][s]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return sum(1 << x for x in seen)


def naive_cyclic(n: int) -> GroupTable:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return naive_from_cayley_table(table, name=f"C{n}")


def naive_dihedral(n: int) -> GroupTable:
    size = 2 * n
    table = [[0] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            table[i][j] = (i + j) % n
            table[i][n + j] = n + (i + j) % n
            table[n + i][j] = n + (i - j) % n
            table[n + i][n + j] = (i - j) % n
    return naive_from_cayley_table(table, name=f"D{n}")


_QUAT_UNITS = {
    # (u1, u2) -> (u3, sign) with units 0=1, 1=i, 2=j, 3=k
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (2, 0): (2, 1), (3, 0): (3, 1),
    (1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1),
    (1, 2): (3, 1), (2, 1): (3, -1),
    (2, 3): (1, 1), (3, 2): (1, -1),
    (3, 1): (2, 1), (1, 3): (2, -1),
}


def naive_quaternion8() -> GroupTable:
    # Index 2u + s: element (-1)^s * unit u, units ordered 1, i, j, k.
    def mulq(a: int, b: int) -> int:
        u1, s1 = divmod(a, 2)
        u2, s2 = divmod(b, 2)
        u3, sign = _QUAT_UNITS[(u1, u2)]
        s3 = (s1 + s2 + (0 if sign > 0 else 1)) % 2
        return 2 * u3 + s3

    table = [[mulq(a, b) for b in range(8)] for a in range(8)]
    return naive_from_cayley_table(table, name="Q8")


def naive_heisenberg(p: int) -> GroupTable:
    n = p ** 3
    table = [[0] * n for _ in range(n)]
    for a1 in range(p):
        for b1 in range(p):
            for c1 in range(p):
                row = table[a1 * p * p + b1 * p + c1]
                for a2 in range(p):
                    for b2 in range(p):
                        cc = (c1 + a1 * b2) % p
                        base = ((a1 + a2) % p) * p * p + ((b1 + b2) % p) * p
                        for c2 in range(p):
                            row[a2 * p * p + b2 * p + c2] = base + (cc + c2) % p
    return naive_from_cayley_table(table, name=f"Heis{p}")


def _naive_compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def naive_from_permutations(generators, degree=None, name=None):
    """BFS closure, then every product looked up by its permutation."""
    gens = [tuple(int(v) for v in g) for g in generators]
    if degree is None:
        degree = len(gens[0]) if gens else 1
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise ValidationError(f"generator {g} is not a permutation of 0..{degree - 1}")
    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    i = 0
    while i < len(elements):
        p = elements[i]
        for g in gens:
            q = _naive_compose(p, g)
            if q not in index:
                if len(elements) >= DEFAULT_MAX_ORDER:
                    raise SizeLimitError(
                        f"closure exceeds maximum order {DEFAULT_MAX_ORDER} "
                        f"(found {len(elements)} elements so far)"
                    )
                index[q] = len(elements)
                elements.append(q)
        i += 1
    n = len(elements)
    table = [[index[_naive_compose(elements[a], elements[b])] for b in range(n)]
             for a in range(n)]
    return naive_from_cayley_table(table, name=name or f"perm{degree}<{n}>")


def naive_direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    n = g.order * h.order
    hn = h.order
    gmul, hmul = g.mul_array.tolist(), h.mul_array.tolist()
    table = [[0] * n for _ in range(n)]
    for a1 in range(g.order):
        for b1 in range(hn):
            row = table[a1 * hn + b1]
            for a2 in range(g.order):
                ga = gmul[a1][a2] * hn
                for b2 in range(hn):
                    row[a2 * hn + b2] = ga + hmul[b1][b2]
    return naive_from_cayley_table(table, name=f"{g.name}x{h.name}")


def naive_split_lines(text: str, kind: str, source: str):
    """Header line number and fields, then (line number, text) of each
    content line, by one loop over all lines."""
    items = []
    for no, raw in enumerate(text.splitlines(), 1):
        s = raw.split("#", 1)[0].strip()
        if s:
            items.append((no, s))
    if not items:
        raise ParseError(f"empty {kind} file", source, 1, 1)
    no, header = items[0]
    return no, header.split(), items[1:]


def naive_parse_pairs_text(text: str, source: str = "<input>") -> PairSet:
    """The pairs parser with one int() per field, line by line."""
    no, parts, body = naive_split_lines(text, "pairs", source)
    if len(parts) != 2 or parts[0] != "pairs":
        raise ParseError("expected header 'pairs <n>'", source, no, 1)
    if long_digits(parts[1]):
        raise ParseError(f"pairs size outside 1..{DEFAULT_MAX_ORDER}", source, no, 1)
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError("non-integer size in pairs header", source, no, 1)
    if not 1 <= n <= DEFAULT_MAX_ORDER:
        raise ParseError(f"pairs size {n} outside 1..{DEFAULT_MAX_ORDER}", source, no, 1)
    matrix = np.zeros((n, n), dtype=bool)
    for no, s in body:
        fields = s.split()
        if len(fields) != 2:
            raise ParseError("expected 'x y' pair line", source, no, 1)
        try:
            x, y = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError("non-integer pair entry", source, no, 1)
        if not (0 <= x < n and 0 <= y < n):
            raise ParseError(f"pair ({x},{y}) out of range 0..{n - 1}", source, no, 1)
        matrix[x, y] = True
    return PairSet(matrix)


def naive_parse_cover_text(text: str, source: str = "<input>") -> Cover:
    """The cover parser with one int() per field, line by line."""
    no, parts, body = naive_split_lines(text, "cover", source)
    if len(parts) != 3 or parts[0] != "cover":
        raise ParseError("expected header 'cover <k> <n>'", source, no, 1)
    if long_digits(parts[2]):
        raise ParseError(f"cover group order outside 1..{DEFAULT_MAX_ORDER}", source, no, 1)
    if long_digits(parts[1]):
        raise ParseError(f"cover class count longer than {SHORT_FIELD} digits", source, no, 1)
    try:
        k, n = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError("non-integer sizes in cover header", source, no, 1)
    if not 1 <= n <= DEFAULT_MAX_ORDER:
        raise ParseError(f"cover group order {n} outside 1..{DEFAULT_MAX_ORDER}", source, no, 1)
    if len(body) != k:
        raise ParseError(f"expected {k} class lines, found {len(body)}", source, no, 1)
    classes = []
    for no, s in body:
        try:
            idx = [int(v) for v in s.split()]
        except ValueError:
            raise ParseError("non-integer element index", source, no, 1)
        for v in idx:
            if not 0 <= v < n:
                raise ParseError(f"element index {v} out of range 0..{n - 1}", source, no, 1)
        classes.append(ElementSet.from_indices(n, idx))
    return Cover.of(n, classes)


def naive_parse_group_text(text: str, source: str = "<input>") -> GroupTable:
    """The group file parser with table rows read line by line."""
    no, parts, body = naive_split_lines(text, "group", source)
    if len(parts) != 2 or parts[0] not in ("perm", "table"):
        raise ParseError("expected header 'perm <degree>' or 'table <n>'", source, no, 1)
    if long_digits(parts[1]):
        raise ParseError(f"size exceeds maximum {DEFAULT_MAX_ORDER}", source, no, len(parts[0]) + 2)
    try:
        size = int(parts[1])
    except ValueError:
        raise ParseError(f"bad size {parts[1]!r} in header", source, no, len(parts[0]) + 2)
    if size < 1:
        raise ParseError("size must be >= 1", source, no, len(parts[0]) + 2)
    if size > DEFAULT_MAX_ORDER:
        raise ParseError(f"size {size} exceeds maximum {DEFAULT_MAX_ORDER}",
                         source, no, len(parts[0]) + 2)
    if parts[0] == "perm":
        gens = []
        for no, s in body:
            if not s.startswith("gen"):
                raise ParseError("expected 'gen <cycles>' line", source, no, 1)
            gens.append(parse_cycles(s[3:], size, source, no))
        return naive_from_permutations(gens, degree=size)
    if len(body) != size:
        raise ParseError(f"expected {size} table rows, found {len(body)}", source,
                         body[-1][0] if body else no, 1)
    table = []
    for no, s in body:
        try:
            row = [int(v) for v in s.split()]
        except ValueError:
            raise ParseError("non-integer table entry", source, no, 1)
        if len(row) != size:
            raise ParseError(f"row has {len(row)} entries, expected {size}", source, no, 1)
        table.append(row)
    return naive_from_cayley_table(table, name=f"table<{size}>")
