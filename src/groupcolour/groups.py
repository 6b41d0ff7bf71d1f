"""Finite groups as explicit Cayley tables over element indices 0..n-1.

A group stores its table once, as a read-only n x n NumPy array, and every
computation over G x G is an array expression over it.  Element sets are
fixed-width bit vectors, so set algebra (union, intersection, complement,
popcount) is exact and fast on Python ints; `ElementSet.mask` and
`ElementSet.from_mask` convert them to and from bool vectors for the array
kernels.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import SizeLimitError, ValidationError

DEFAULT_MAX_ORDER = 5040
DEFAULT_SUBGROUP_BOUND = 128

# The table checks, conjugate gathers and products over a set's members
# (from_cayley_table, coset_action_kernel, is_subgroup, class_witness...)
# run over blocks of rows with at most this many cells, so their temporaries
# stay a few MiB at any order.  Tables and sets of up to 1024 are one block.
_BLOCK_CELLS = 1 << 20


def _row_blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of range(n), each of at most _BLOCK_CELLS // n rows."""
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


@dataclass(frozen=True)
class ElementSet:
    """Subset of a group of order n, stored as an n-bit vector."""

    n: int
    bits: int

    @classmethod
    def empty(cls, n: int) -> "ElementSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "ElementSet":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "ElementSet":
        bits = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"element index {i} out of range 0..{n - 1}")
            bits |= 1 << i
        return cls(n, bits)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "ElementSet":
        """The indices at which a length-n bool vector is true."""
        packed = np.packbits(mask, bitorder="little")
        return cls(len(mask), int.from_bytes(packed.tobytes(), "little"))

    def mask(self) -> np.ndarray:
        """Membership as a length-n bool vector."""
        packed = np.frombuffer(self.bits.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(packed, count=self.n, bitorder="little").view(bool)

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("bit vector has bits outside 0..n-1")

    def __contains__(self, i: int) -> bool:
        return (self.bits >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    def members(self) -> list[int]:
        return list(self)

    def _check(self, other: "ElementSet") -> None:
        if self.n != other.n:
            raise ValueError("element sets belong to groups of different orders")

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.n, self.bits | other.bits)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.n, self.bits & other.bits)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.n, self.bits & ~other.bits)

    def complement(self) -> "ElementSet":
        return ElementSet(self.n, self.bits ^ ((1 << self.n) - 1))

    def issubset(self, other: "ElementSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group given by its full multiplication table.

    `mul_array` is the table as a read-only n x n array of dtype
    `np.min_scalar_type(n)`: `mul_array[a, b]` is the index of the product
    ab.  `inv[x]` is the inverse of x.  Two groups are equal when their
    tables and all other fields are.  Instances are immutable and safe to
    share across threads.
    """

    order: int
    inv: tuple[int, ...]
    identity: int
    name: str
    mul_array: np.ndarray = field(repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupTable):
            return NotImplemented
        return ((self.order, self.inv, self.identity, self.name, self.mul_array.dtype)
                == (other.order, other.inv, other.identity, other.name, other.mul_array.dtype)
                and np.array_equal(self.mul_array, other.mul_array))

    def __hash__(self) -> int:
        return hash((self.order, self.inv, self.identity, self.name, self.mul_array.tobytes()))

    @cached_property
    def _columns(self) -> list[list[int]]:
        """Column b lists x*b over all x, as Python ints, for the BFS of
        subgroup_closure.  Built on first use and kept."""
        return self.mul_array.T.tolist()

    def subset(self, indices: Iterable[int]) -> ElementSet:
        return ElementSet.from_indices(self.order, indices)

    def full_set(self) -> ElementSet:
        return ElementSet.full(self.order)

    def conjugate(self, g: int, x: int) -> int:
        """g^-1 x g."""
        m = self.mul_array
        return int(m[m[self.inv[g], x], g])

    def __repr__(self) -> str:
        return f"GroupTable({self.name!r}, order={self.order})"


@dataclass(frozen=True)
class ConjugacyData:
    """Conjugacy classes and centralizer sizes of a group."""

    class_id: tuple[int, ...]
    classes: tuple[ElementSet, ...]
    class_sizes: tuple[int, ...]
    centralizer_sizes: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def _entries(table, n: int) -> np.ndarray:
    """The entries of a table with n rows as an n x n array, range-checked.

    Rows are checked in order, each for its length, then for entries that
    are not integers (by operator.index: a float such as 1.5 or 1.0 is
    refused, not truncated), then for its range, so the first bad row
    decides the message.
    """
    short = next((i for i, row in enumerate(table) if len(row) != n), n)
    error = f"row {short} has length {len(table[short])}, expected {n}" if short < n else None
    cells = np.asarray(table[:short])
    if cells.dtype.kind not in "iu" or cells.ndim != 2:
        # Every entry as a Python int: exact at any size.
        cells = np.array(table[:short], dtype=object).reshape(short, n)
        for i, row in enumerate(cells):
            try:
                cells[i] = [operator.index(v) for v in row]
            except TypeError:
                cells, error = cells[:i], f"non-integer entry in row {i}"
                break
    for rows in _row_blocks(n):
        block = cells[rows]
        out = block >= n
        if cells.dtype.kind != "u":
            out |= block < 0
        if out.any():
            i, j = divmod(int(out.argmax()), n)
            raise ValidationError(
                f"entry {block[i, j]} in row {rows.start + i} out of range 0..{n - 1}")
    if error:
        raise ValidationError(error)
    return cells


def from_cayley_table(table: Sequence[Sequence[int]] | np.ndarray, name: str = "G") -> GroupTable:
    """Validate a multiplication table and return the group it defines.

    `table` is a sequence of rows or an n x n integer array; it is copied.
    Identity and inverses are discovered, not supplied.  Each check is one
    pass over the table as an array, in blocks of rows (`_row_blocks`), and
    reports the first failure in row order.  Every table is fully checked
    for associativity, at any size, by Light's test.
    """
    n = len(table)
    if n == 0:
        raise ValidationError("empty table")
    return _checked_table(np.array(_entries(table, n), dtype=np.min_scalar_type(n), order="C"),
                          name)


def _checked_table(m: np.ndarray, name: str) -> GroupTable:
    """`from_cayley_table` without the copy, for an array `m` that the
    caller built and hands over: an n x n C-order array of dtype
    min_scalar_type(n), entries in 0..n-1, which is frozen and kept."""
    n = len(m)
    m.flags.writeable = False
    ar = np.arange(n)

    # Latin square: every row and column is a permutation of 0..n-1.
    for lines, line in ((m, "row"), (m.T, "column")):
        for rows in _row_blocks(n):
            bad = (np.sort(lines[rows], axis=1) != ar).any(axis=1)
            if bad.any():
                raise ValidationError(f"not-Latin-square: {line} "
                                      f"{rows.start + int(bad.argmax())} is not a permutation")

    # Identity: two-sided.  Column 0 holds 0 once, in the only row that
    # can be the identity permutation.
    identity = int(m[:, 0].argmin())
    if not ((m[identity] == ar).all() and (m[:, identity] == ar).all()):
        raise ValidationError("no-identity: no two-sided identity element")

    # Inverses: two-sided.
    inv = np.concatenate([(m[rows] == identity).argmax(axis=1) for rows in _row_blocks(n)])
    bad = m[inv, ar] != identity
    if bad.any():
        raise ValidationError(f"no-inverse: element {int(bad.argmax())} has no two-sided inverse")

    # Associativity by Light's test.  The table is now a loop, and the
    # elements b with (ab)c = a(bc) for all a, c form a subloop of it, the
    # middle nucleus.  Every reached element is a product of checked
    # generators, so it lies in the subloop they generate, which lies
    # inside the middle nucleus; once every element is reached, all
    # triples associate.  The middle nucleus is a group, so the reached
    # set is a subgroup and each new generator at least doubles it: at
    # most log2(n) generators are checked, n^2 cells each.
    columns: list[list[int]] = []
    reached = 1 << identity
    for b in range(n):
        if (reached >> b) & 1:
            continue
        for rows in _row_blocks(n):
            differ = m[m[rows, b]] != m[rows][:, m[b]]     # (ab)c against a(bc)
            if differ.any():
                i, c = divmod(int(differ.argmax()), n)
                a = rows.start + i
                raise ValidationError(
                    f"non-associative triple ({a},{b},{c}): "
                    f"(ab)c={int(m[m[a, b], c])} but a(bc)={int(m[a, m[b, c]])}"
                )
        columns.append(m[:, b].tolist())
        reached = _closure(columns, identity)

    return GroupTable(order=n, inv=tuple(inv.tolist()), identity=identity, name=name, mul_array=m)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p after q: (p*q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def from_permutations(
    generators: Sequence[Sequence[int]],
    degree: int | None = None,
    name: str | None = None,
) -> GroupTable:
    """Group generated by permutations, elements in BFS-from-identity order.

    Generators are applied in input order on the right, so the element
    numbering is deterministic.  An empty generator list gives the trivial
    group.  The closure stops with SizeLimitError once it would pass
    DEFAULT_MAX_ORDER elements.
    """
    gens = [tuple(int(v) for v in g) for g in generators]
    if degree is None:
        if not gens:
            degree = 1
        else:
            degree = len(gens[0])
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise ValidationError(f"generator {g} is not a permutation of 0..{degree - 1}")

    # The BFS also records right[k][x], the index of element x times
    # generator k, and, for each element, the element and generator it was
    # first reached from.
    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    right: list[list[int]] = [[] for _ in gens]
    reached_from: list[tuple[int, int]] = [(0, 0)]
    i = 0
    while i < len(elements):
        p = elements[i]
        for k, g in enumerate(gens):
            q = _compose(p, g)
            j = index.get(q)
            if j is None:
                if len(elements) >= DEFAULT_MAX_ORDER:
                    raise SizeLimitError(
                        f"closure exceeds maximum order {DEFAULT_MAX_ORDER} "
                        f"(found {len(elements)} elements so far)"
                    )
                j = index[q] = len(elements)
                elements.append(q)
                reached_from.append((i, k))
            right[k].append(j)
        i += 1

    # columns[b] lists x*b over all x.  If b = p*g_k, then x*b = (x*p)*g_k,
    # so columns[b] is columns[p] mapped through right[k].
    n = len(elements)
    dtype = np.min_scalar_type(n)
    right_maps = np.array(right, dtype=dtype)
    columns = np.empty((n, n), dtype=dtype)
    columns[0] = np.arange(n)
    for b in range(1, n):
        p, k = reached_from[b]
        columns[b] = right_maps[k][columns[p]]
    return from_cayley_table(columns.T, name=name or f"perm{degree}<{n}>")


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Component-wise product; element (a, b) has index a*|H| + b.  Its
    order is checked against DEFAULT_MAX_ORDER before the table is built."""
    n = g.order * h.order
    if n > DEFAULT_MAX_ORDER:
        raise SizeLimitError(f"direct product order {n} exceeds maximum {DEFAULT_MAX_ORDER}")
    dtype = np.min_scalar_type(n)
    gpart = g.mul_array.astype(dtype) * h.order
    hpart = h.mul_array.astype(dtype)
    table = (gpart[:, None, :, None] + hpart[None, :, None, :]).reshape(n, n)
    return _checked_table(table, name=f"{g.name}x{h.name}")


def conjugacy(g: GroupTable) -> ConjugacyData:
    """Conjugacy classes by orbit computation, centralizers by direct count."""
    n = g.order
    m = g.mul_array
    ts, inv = np.arange(n), np.array(g.inv)
    class_id = np.full(n, -1)
    classes: list[ElementSet] = []
    for x in range(n):
        if class_id[x] >= 0:
            continue
        orbit = np.zeros(n, dtype=bool)
        orbit[m[m[inv, x], ts]] = True      # t^-1 x t over all t
        class_id[orbit] = len(classes)
        classes.append(ElementSet.from_mask(orbit))
    centralizer = np.count_nonzero(m == m.T, axis=1)
    return ConjugacyData(
        class_id=tuple(class_id.tolist()),
        classes=tuple(classes),
        class_sizes=tuple(len(c) for c in classes),
        centralizer_sizes=tuple(centralizer.tolist()),
    )


def _closure(columns: Sequence[Sequence[int]], identity: int) -> int:
    """Bit set of all products of the generators whose columns are given
    (columns[k][x] = x * gen_k), by BFS from the identity that multiplies on
    the right by one generator at a time: O(|H| * #gens)."""
    mask = 1 << identity
    queue = [identity]
    for x in queue:
        for col in columns:
            y = col[x]
            if not (mask >> y) & 1:
                mask |= 1 << y
                queue.append(y)
    return mask


def subgroup_closure(g: GroupTable, generators: Iterable[int]) -> ElementSet:
    """Subgroup generated by the given elements.

    In a finite group the products of generators already form the
    subgroup.  Elements that are products of earlier ones are skipped, so
    at most log2 |H| generators reach the BFS.
    """
    columns = []
    mask = 1 << g.identity
    for x in generators:
        if not (mask >> x) & 1:
            columns.append(g._columns[x])
            mask = _closure(columns, g.identity)
    return ElementSet(g.order, mask)


def is_subgroup(g: GroupTable, s: ElementSet) -> bool:
    """True iff S contains the identity and is closed under products (in a
    finite group, closure under products gives the inverses)."""
    if g.identity not in s:
        return False
    member = s.mask()
    idx = np.flatnonzero(member)
    return all(member[g.mul_array[np.ix_(idx[rows], idx)]].all() for rows in _row_blocks(len(idx)))


def all_subgroups(g: GroupTable) -> tuple[ElementSet, ...]:
    """All subgroups, ordered by size then bit pattern, by iterated
    one-element extensions.

    Every subgroup arises from a chain of one-generator extensions starting
    at the trivial subgroup, so growing the lattice level by level finds
    them all.  Groups above DEFAULT_SUBGROUP_BOUND raise SizeLimitError.
    """
    n = g.order
    if n > DEFAULT_SUBGROUP_BOUND:
        raise SizeLimitError(
            f"subgroup enumeration limited to order {DEFAULT_SUBGROUP_BOUND}, group has order {n}"
        )
    trivial = 1 << g.identity
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for bits in frontier:
            base = [i for i in range(n) if (bits >> i) & 1]
            for x in range(n):
                if (bits >> x) & 1:
                    continue
                ext = subgroup_closure(g, base + [x]).bits
                if ext not in found:
                    found.add(ext)
                    nxt.append(ext)
        frontier = nxt
    ordered = sorted(found, key=lambda b: (b.bit_count(), b))
    return tuple(ElementSet(n, b) for b in ordered)


def coset_action_kernel(g: GroupTable, h: ElementSet) -> ElementSet:
    """Normal core of H: intersection of all conjugates t H t^-1."""
    if not is_subgroup(g, h):
        raise ValidationError("H is not a subgroup")
    n = g.order
    m = g.mul_array
    members, inv = np.flatnonzero(h.mask()), np.array(g.inv)
    # Row t of conj is t H t^-1, whose |H| members are distinct, so x lies
    # in every conjugate iff it occurs n times over all t.
    count = np.zeros(n, dtype=np.int64)
    for rows in _row_blocks(n):
        conj = m[m[rows][:, members], inv[rows, None]]
        count += np.bincount(conj.ravel(), minlength=n)
    return ElementSet.from_mask(count == n)


def product_set(g: GroupTable, a: ElementSet, b: ElementSet) -> ElementSet:
    """{xy : x in A, y in B}, exact."""
    member = np.zeros(g.order, dtype=bool)
    member[g.mul_array[np.ix_(np.flatnonzero(a.mask()), np.flatnonzero(b.mask()))]] = True
    return ElementSet.from_mask(member)


def iterated_product(g: GroupTable, x: ElementSet, times: int) -> ElementSet:
    """X^times (times >= 1)."""
    if times < 1:
        raise ValueError("times must be >= 1")
    acc = x
    for _ in range(times - 1):
        nxt = product_set(g, acc, x)
        if nxt.bits == acc.bits:
            return acc
        acc = nxt
    return acc


def left_cosets(g: GroupTable, k: ElementSet) -> list[ElementSet]:
    """Left cosets xK of a subgroup K, ordered by minimum element index."""
    n = g.order
    cosets = g.mul_array[:, np.flatnonzero(k.mask())]     # row x is xK
    reps = np.flatnonzero(cosets.min(axis=1) == np.arange(n))
    member = np.zeros((len(reps), n), dtype=bool)
    member[np.arange(len(reps))[:, None], cosets[reps]] = True
    return [ElementSet.from_mask(row) for row in member]
