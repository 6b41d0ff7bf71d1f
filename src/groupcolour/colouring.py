"""Covers, monochromatic quadruple counts, and the non-commuting Schur number.

A quadruple is (x, y, xy, yx) with all four members in one class; it is
non-commuting when xy != yx.  Pairs are ordered and x = y is allowed.

k(G) is found by exhaustive search over partitions: any cover avoiding
non-commuting quadruples induces an avoiding partition of equal or smaller
size (assign each element to one containing class; subsets of avoiding
classes avoid), and every partition is a cover, so searching partitions
suffices.  The search is exhaustive up to class relabelling: element 0 is
in class 0, and each new class index first appears in element order.

Equivalently, k(G) + 1 is the chromatic number of the 4-uniform hypergraph
whose edges are the sets {x, y, xy, yx} with xy != yx.  The search builds
that edge table once and, since every class it keeps already avoids, checks
only the quadruples whose largest member is the newly placed element:
elements are placed in order, so every other quadruple through it still has
a member that no class holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import (SHORT_FIELD, CoverError, ParseError, SizeLimitError, ValidationError,
                     long_digits, read_header, read_ints)
from .groups import DEFAULT_MAX_ORDER, ElementSet, GroupTable, _row_blocks
from .stats import is_abelian

DEFAULT_NODE_BUDGET = 10 ** 8
# The search recurses once per element and its edge table grows about as
# |G|^3 (each edge stored once, at its largest member), so it is refused
# past 6!, where S6 still searches: 254,100 edges, and `schur symmetric:6
# --budget 100000` takes about 0.4 s at 103 MiB max RSS.
SCHUR_MAX_ORDER = 720


@dataclass(frozen=True)
class Cover:
    """Ordered list of element sets whose union is the whole group.

    Empty classes are dropped on construction; overlaps are permitted.
    """

    classes: tuple[ElementSet, ...]
    group_order: int

    @classmethod
    def of(cls, group_order: int, classes: Iterable[ElementSet]) -> "Cover":
        kept = tuple(c for c in classes if len(c) > 0)
        for c in kept:
            if c.n != group_order:
                raise CoverError("cover class has wrong group order")
        return cls(kept, group_order)

    @property
    def size(self) -> int:
        return len(self.classes)

    def covers_group(self) -> bool:
        bits = 0
        for c in self.classes:
            bits |= c.bits
        return bits == (1 << self.group_order) - 1

    def is_partition(self) -> bool:
        total = 0
        for c in self.classes:
            if total & c.bits:
                return False
            total |= c.bits
        return total == (1 << self.group_order) - 1


def _same_order(n: int, g: GroupTable) -> None:
    """Refuse a cover class of group order n for g, naming both orders."""
    if n != g.order:
        raise CoverError(f"cover class has group order {n}, group has order {g.order}")


def check_cover(g: GroupTable, cover: Cover) -> None:
    """Refuse a cover of another group order, then one that misses an
    element of G."""
    _same_order(cover.group_order, g)
    if not cover.covers_group():
        raise CoverError("classes do not cover G")


def _pair_blocks(g: GroupTable, a: ElementSet) -> Iterator[tuple[np.ndarray, ...]]:
    """Over consecutive blocks of A's members x (`_row_blocks`): the block's
    members, all of A's members y in increasing order, and for each (x, y)
    whether xy and yx both lie in A and whether xy != yx."""
    _same_order(a.n, g)
    member = a.mask()
    idx = np.flatnonzero(member)
    for rows in _row_blocks(len(idx)):
        xy = g.mul_array[np.ix_(idx[rows], idx)]
        # A single block is the whole square table, whose transpose is yx.
        yx = xy.T if len(xy) == len(idx) else g.mul_array[np.ix_(idx, idx[rows])].T
        yield idx[rows], idx, member[xy] & member[yx], xy != yx


def count_quadruples(g: GroupTable, a: ElementSet) -> tuple[int, int]:
    """(total, noncommuting) quadruples (x, y, xy, yx) in A^4, ordered pairs."""
    total = noncommuting = 0
    for _, _, both, differ in _pair_blocks(g, a):
        total += int(np.count_nonzero(both))
        noncommuting += int(np.count_nonzero(both & differ))
    return total, noncommuting


def class_witness(g: GroupTable, a: ElementSet) -> tuple[int, int] | None:
    """The lexicographically first pair (x, y) with x, y, xy, yx in A and
    xy != yx, or None."""
    for xs, ys, both, differ in _pair_blocks(g, a):
        hit = both & differ
        if hit.any():
            i, j = divmod(int(hit.argmax()), len(ys))
            return int(xs[i]), int(ys[j])
    return None


def cover_avoids(g: GroupTable, cover: Cover) -> tuple[bool, tuple[int, int, int] | None]:
    """True iff no class has a non-commuting quadruple; else a witness
    (class index, x, y)."""
    check_cover(g, cover)
    for i, a in enumerate(cover.classes):
        w = class_witness(g, a)
        if w is not None:
            return False, (i, w[0], w[1])
    return True, None


@dataclass(frozen=True)
class SchurResult:
    k_value: int
    avoiding_colouring: Cover | None
    nodes: int
    prunes: int
    complete: bool


class _Budget(Exception):
    pass


def _edge_masks(g: GroupTable) -> tuple[tuple[int, ...], ...]:
    """Per element v, the sorted distinct masks of the other three members of
    every hyperedge {x, y, xy, yx} with xy != yx whose largest member is v.

    Each edge is stored once, so every mask stored for v lies below 1 << v.
    The four members of an edge are distinct, and central elements lie in
    no edge.  The pair (y, x) gives the same edge as (x, y), so x < y
    suffices.
    """
    m = g.mul_array
    xs, ys = np.nonzero(np.triu(m != m.T, 1))
    others: list[set[int]] = [set() for _ in range(g.order)]
    for x, y, p, q in zip(xs.tolist(), ys.tolist(), m[xs, ys].tolist(), m[ys, xs].tolist()):
        edge = (1 << x) | (1 << y) | (1 << p) | (1 << q)
        top = edge.bit_length() - 1
        others[top].add(edge ^ (1 << top))
    return tuple(tuple(sorted(s)) for s in others)


def _search_partition(others: tuple[tuple[int, ...], ...], m: int,
                      budget: list[int], stats: list[int]) -> list[int] | None:
    """First avoiding partition into at most m classes, canonical order.

    others is the edge table of _edge_masks.  Every stored class mask
    avoids and holds only elements below v, so v may join a class iff no
    edge whose largest member is v has its other three members in the
    class; an edge with a member above v cannot lie in any class yet.
    budget is a single-element list counting remaining partition
    extensions; raises _Budget when exhausted.  stats accumulates
    [nodes, prunes].
    """
    n = len(others)
    masks = [0] * m
    assign = [0] * n

    def extend(v: int, used: int) -> bool:
        limit = min(used + 1, m)
        edges = others[v]
        bit = 1 << v
        for c in range(limit):
            stats[0] += 1
            budget[0] -= 1
            if budget[0] < 0:
                raise _Budget()
            mask = masks[c]
            for o in edges:
                if mask & o == o:
                    stats[1] += 1
                    break
            else:
                masks[c] = mask | bit
                assign[v] = c
                if v == n - 1:
                    return True
                if extend(v + 1, max(used, c + 1)):
                    return True
                masks[c] = mask
        return False

    if extend(0, 0):
        return list(assign)
    return None


def schur_number(g: GroupTable, k_max: int = 6, budget: int = DEFAULT_NODE_BUDGET) -> SchurResult:
    """k(G) by exhaustive canonical-partition search.

    Returns the largest k such that every partition into k classes has a
    monochromatic non-commuting quadruple, together with an avoiding
    (k+1)-partition.  A result past the node budget or k_max is a lower
    bound, flagged incomplete.  The node that exceeds the budget is
    counted, so a budget-limited result reports nodes = budget + 1.  A
    group of order above SCHUR_MAX_ORDER is refused before the edge table
    is built.
    """
    if is_abelian(g):
        raise ValidationError("k(G) is defined for non-Abelian groups only")
    n = g.order
    if n > SCHUR_MAX_ORDER:
        raise SizeLimitError(
            f"Schur search limited to order {SCHUR_MAX_ORDER}, group has order {n}")
    others = _edge_masks(g)
    stats = [0, 0]
    remaining = [budget]
    for m in range(2, k_max + 2):
        try:
            found = _search_partition(others, m, remaining, stats)
        except _Budget:
            return SchurResult(m - 1, None, stats[0], stats[1], complete=False)
        if found is not None:
            masks = [0] * m
            for v, c in enumerate(found):
                masks[c] |= 1 << v
            cover = Cover.of(n, [ElementSet(n, b) for b in masks])
            return SchurResult(m - 1, cover, stats[0], stats[1], complete=True)
    return SchurResult(k_max, None, stats[0], stats[1], complete=False)


def random_cover(g: GroupTable, k: int, seed: int = 0, overlap: float = 0.0) -> Cover:
    """Seeded random cover: one class per element, plus overlap extras.

    Each element gets one uniformly random class; it additionally joins each
    other class with probability `overlap`.  Classes left empty are refilled
    with one random element, so the result is always a valid cover of size k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = g.order
    rng = random.Random(seed)
    masks = [0] * k
    for x in range(n):
        masks[rng.randrange(k)] |= 1 << x
    if overlap > 0:
        for x in range(n):
            for c in range(k):
                if not (masks[c] >> x) & 1 and rng.random() < overlap:
                    masks[c] |= 1 << x
    for c in range(k):
        if masks[c] == 0:
            masks[c] |= 1 << rng.randrange(n)
    return Cover.of(n, [ElementSet(n, b) for b in masks])


def parse_cover_text(text: str, source: str = "<input>") -> Cover:
    """Parse the cover format: "cover <k> <n>" then k index-list lines.

    The group order n must lie in 1..DEFAULT_MAX_ORDER and the class count k
    may have at most SHORT_FIELD digits; both are checked at the header,
    before any class is read.
    """
    no, parts, rest = read_header(text, "cover", source)
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
    # The class count is checked before any entry, so the first entry error
    # is kept until every block is counted.
    classes: list[ElementSet] = []
    found, error = 0, None
    for body in read_ints(text, rest, no + 1):
        found += len(body.lines)
        if error is not None or found > k:
            continue
        # Every content line has a field, so reduceat sees no empty line, and
        # the first stray field from a failing line's start lies on that line.
        stray = (body.values < 0) | (body.values >= n)
        first = body.firsts
        error = body.failure(source, [
            (~body.ok, "non-integer element index"),
            (np.logical_or.reduceat(stray, first),
             lambda i: f"element index {body.values[first[i] + np.argmax(stray[first[i]:])]} "
                       f"out of range 0..{n - 1}"),
        ])
        if error is None:
            classes += (ElementSet.from_indices(n, body.values[a:a + c].tolist())
                        for a, c in zip(first, body.counts))
    if found != k:
        raise ParseError(f"expected {k} class lines, found {found}", source, no, 1)
    if error is not None:
        raise error
    return Cover.of(n, classes)


def load_cover(path: str) -> Cover:
    with open(path, "r", encoding="utf-8") as f:
        return parse_cover_text(f.read(), source=path)


def dump_cover(cover: Cover) -> str:
    lines = [f"cover {cover.size} {cover.group_order}"]
    for c in cover.classes:
        lines.append(" ".join(str(v) for v in c))
    return "\n".join(lines) + "\n"
