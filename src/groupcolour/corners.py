"""Corner counting over G x G and the witness-finder for rich colour classes.

The corner statistic S(A) is the density of triples (x, y, z) with
(x, y), (zx, y), (x, yz) all in A.  Such triples biject with triangles in a
tripartite graph on three copies of G, which gives an independent counting
path used for cross-checks.

The witness-finder follows the averaging argument that extracts, from any
cover, one class containing many quadruples (a, b, ab, ba).  The
non-effective corner-density lower bound of the underlying theorem is
replaced throughout by the measured statistic of the sampled intersection,
which keeps every inequality in the chain intact and makes the procedure
fully constructive; runs that find no admissible stage r report failure
instead of asserting anything.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .colouring import Cover, check_cover, count_quadruples
from .errors import ParseError, long_digits, read_header, read_ints
from .groups import DEFAULT_MAX_ORDER, ElementSet, GroupTable

DEFAULT_TRIALS = 32


@dataclass(frozen=True, eq=False)
class PairSet:
    """Subset of G x G as a read-only n x n bool matrix: matrix[x, y] is
    the membership of (x, y)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.dtype != bool or self.matrix.ndim != 2 or (
                self.matrix.shape[0] != self.matrix.shape[1]):
            raise ValueError("pair set needs a square bool matrix")
        self.matrix.flags.writeable = False

    @classmethod
    def empty(cls, n: int) -> "PairSet":
        return cls(np.zeros((n, n), dtype=bool))

    @classmethod
    def full(cls, n: int) -> "PairSet":
        return cls(np.ones((n, n), dtype=bool))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "PairSet":
        matrix = np.zeros((n, n), dtype=bool)
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x},{y}) out of range for n={n}")
            matrix[x, y] = True
        return cls(matrix)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def rows(self) -> tuple[int, ...]:
        """Row x as an int bitmask over y, the exact integer export."""
        packed = np.packbits(self.matrix, axis=1, bitorder="little")
        return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairSet):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash((self.n, self.matrix.tobytes()))

    def __and__(self, other: "PairSet") -> "PairSet":
        return PairSet(self.matrix & other.matrix)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        x, y = pair
        return bool(self.matrix[x, y])

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.matrix))

    @property
    def density(self) -> Fraction:
        return Fraction(self.size, self.n * self.n)

    def pairs(self):
        """Member pairs in row-major order."""
        xs, ys = np.nonzero(self.matrix)
        return zip(xs.tolist(), ys.tolist())


# random_pairs draws about this many cells at a time, in whole rows.
_DRAW_CELLS = 1 << 14


def random_pairs(n: int, seed: int = 0, density: float = 0.5) -> PairSet:
    # One rng.random() per cell in row-major order, so seeded sets are fixed.
    # random() builds its double from two Mersenne Twister words, and
    # getrandbits hands out the same words in order, lowest first, so a
    # block of rows takes its doubles from one getrandbits call.
    rng = random.Random(seed)
    matrix = np.empty((n, n), dtype=bool)
    step = max(1, _DRAW_CELLS // max(n, 1))
    for start in range(0, n, step):
        block = matrix[start:start + step]
        k = block.size
        w = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u4")
        doubles = ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) * (1.0 / 9007199254740992.0)
        block[:] = (doubles < density).reshape(block.shape)
    return PairSet(matrix)


def corner_counts_by_z(g: GroupTable, a: PairSet) -> list[int]:
    """For each z, the number of (x, y) with (x,y), (zx,y), (x,yz) in A."""
    m = g.mul_array
    cells = a.matrix
    return [int(np.count_nonzero(cells & cells[m[z]] & cells[:, m[:, z]]))
            for z in range(g.order)]


def corner_statistic(g: GroupTable, a: PairSet) -> Fraction:
    n = g.order
    return Fraction(sum(corner_counts_by_z(g, a)), n ** 3)


@dataclass(frozen=True, eq=False)
class TripartiteGraph:
    """Three copies of G with bipartite adjacencies derived from a PairSet,
    as n x n bool matrices."""

    e12: np.ndarray  # [x, y]
    e23: np.ndarray  # [y, w]
    e13: np.ndarray  # [x, w]

    def __post_init__(self) -> None:
        for e in (self.e12, self.e23, self.e13):
            e.flags.writeable = False

    @property
    def n(self) -> int:
        return self.e12.shape[0]

    def edge_counts(self) -> tuple[int, int, int]:
        return tuple(int(np.count_nonzero(e)) for e in (self.e12, self.e23, self.e13))


def build_tripartite(g: GroupTable, a: PairSet) -> TripartiteGraph:
    """Adjacency rules: (x,y) iff A(x,y); (y,w) iff A(y^-1 w, y);
    (x,w) iff A(x, w x^-1)."""
    m = g.mul_array
    inv = np.array(g.inv)
    idx = np.arange(g.order)[:, None]
    cells = a.matrix
    e23 = cells[m[inv], idx]        # m[inv[y], w] = y^-1 w
    e13 = cells[idx, m[:, inv].T]   # m[w, inv[x]] = w x^-1
    return TripartiteGraph(cells, e23, e13)


def triangle_count(t: TripartiteGraph) -> int:
    """Triangles (x, y, w): for each x, the edges of e23 from the
    neighbours y of x in e12 to the neighbours w of x in e13."""
    return sum(int(np.count_nonzero(t.e23[ys] & ws)) for ys, ws in zip(t.e12, t.e13))


def shifted_pair_set(g: GroupTable, a_bits: int, s: int) -> PairSet:
    """{(x, y) : x s y in A} for a colour class A given as a bitmask."""
    m = g.mul_array
    return PairSet(ElementSet(g.order, a_bits).mask()[m[m[:, s]]])


@dataclass(frozen=True)
class WitnessTranscript:
    """Audit trail of one witness-finder run.

    densities are sorted descending; r, chosen_class are 1-based positions
    in that sorted order (class_order maps them back to the input cover).
    """

    densities: tuple[Fraction, ...]
    class_order: tuple[int, ...]
    success: bool
    failure_reason: str = ""
    r: int | None = None
    shifts: tuple[int, ...] = ()
    intersection_density: Fraction | None = None
    s_measured: Fraction | None = None
    z_size: int | None = None
    z_prime_size: int | None = None
    chosen_class: int | None = None
    quad_lower_bound: int | None = None
    verified_quads: int | None = None


def _trial_shifts(seed: int, r: int, trial: int, n: int) -> tuple[int, ...]:
    rng = random.Random(seed * 1_000_003 + r * 8191 + trial)
    return tuple(rng.randrange(n) for _ in range(r))


def witness_finder(
    g: GroupTable,
    cover: Cover,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
) -> WitnessTranscript:
    """Locate a colour class rich in quadruples (a, b, ab, ba).

    For each stage r (classes sorted by density): sample shift vectors until
    the intersection of the shifted classes reaches the product-density
    target, measure its corner statistic S, and accept r once S/3 covers the
    density tail of the remaining classes.  The returned lower bound is
    certified against an independent brute-force quadruple count.
    """
    check_cover(g, cover)
    n = g.order
    k = cover.size
    order = sorted(range(k), key=lambda i: (-len(cover.classes[i]), i))
    alphas = tuple(Fraction(len(cover.classes[i]), n) for i in order)

    accepted = None
    for r in range(1, k + 1):
        tail = sum(alphas[r:], Fraction(0))
        target = math.prod(alphas[:r]) * n * n
        # One deterministic stream per (seed, r, trial index); the accepted
        # trial is the lowest-index success.
        for t in range(trials):
            shifts = _trial_shifts(seed, r, t, n)
            inter = shifted_pair_set(g, cover.classes[order[0]].bits, shifts[0])
            for i in range(1, r):
                inter = inter & shifted_pair_set(g, cover.classes[order[i]].bits, shifts[i])
            if Fraction(inter.size) < target:
                continue
            counts = corner_counts_by_z(g, inter)
            s_measured = Fraction(sum(counts), n ** 3)
            if s_measured / 3 >= tail:
                accepted = (r, tuple(shifts), inter, counts, s_measured)
                break
        if accepted:
            break

    if accepted is None:
        return WitnessTranscript(
            densities=alphas,
            class_order=tuple(order),
            success=False,
            failure_reason=(
                f"no stage r accepted within {trials} shift samples; "
                "the group is likely too small for concentration"
            ),
        )

    r, shifts, inter, counts, s_measured = accepted
    # Z: shifts z whose per-z corner density reaches S/3 (exact rationals:
    # count_z / n^2 >= S/3  <=>  3 n count_z >= total).
    total = sum(counts)
    z_bits = 0
    for z, cz in enumerate(counts):
        if 3 * n * cz >= total:
            z_bits |= 1 << z
    z_size = z_bits.bit_count()

    tail_bits = 0
    for i in range(r, k):
        tail_bits |= cover.classes[order[i]].bits
    z_minus = z_bits & ~tail_bits

    best_i = None
    best_size = -1
    for i in range(r):
        sz = (z_minus & cover.classes[order[i]].bits).bit_count()
        if sz > best_size:
            best_i, best_size = i, sz
    z_prime = best_size

    # Each z in Z' yields >= (S/3) n^2 corner triples; the map
    # (x, y, z) -> (x s_i y, z) has fibres of size n, so the class holds at
    # least |Z'| * total / (3 n^2) quadruple pairs.
    lower = -(-(z_prime * total) // (3 * n * n))
    chosen = cover.classes[order[best_i]]
    verified, _ = count_quadruples(g, chosen)

    return WitnessTranscript(
        densities=alphas,
        class_order=tuple(order),
        success=True,
        r=r,
        shifts=shifts,
        intersection_density=inter.density,
        s_measured=s_measured,
        z_size=z_size,
        z_prime_size=z_prime,
        chosen_class=best_i + 1,
        quad_lower_bound=lower,
        verified_quads=verified,
    )


def transcript_lines(t: WitnessTranscript) -> list[str]:
    lines = [
        "densities=" + ",".join(f"{a.numerator}/{a.denominator}" for a in t.densities),
        f"success={'true' if t.success else 'false'}",
    ]
    if not t.success:
        lines.append(f"reason={t.failure_reason}")
        return lines
    s = t.s_measured
    d = t.intersection_density
    lines += [
        f"r={t.r}",
        "shifts=" + ",".join(str(v) for v in t.shifts),
        f"intersection_density={d.numerator}/{d.denominator}",
        f"S={s.numerator}/{s.denominator}",
        f"Z_size={t.z_size}",
        f"Z_prime_size={t.z_prime_size}",
        f"chosen_class={t.chosen_class}",
        f"quad_lower_bound={t.quad_lower_bound}",
        f"verified_quads={t.verified_quads}",
    ]
    return lines


def parse_pairs_text(text: str, source: str = "<input>") -> PairSet:
    """Parse the pairs format: "pairs <n>" then one "x y" line per pair."""
    no, parts, rest = read_header(text, "pairs", source)
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
    # Blocks come in line order, so the first failing block holds the first
    # failing line.
    for body in read_ints(text, rest, no + 1):
        x, y = body.field(0), body.field(1)
        error = body.failure(source, [
            (body.counts != 2, "expected 'x y' pair line"),
            (~body.ok, "non-integer pair entry"),
            ((x < 0) | (x >= n) | (y < 0) | (y >= n),
             lambda i: f"pair ({x[i]},{y[i]}) out of range 0..{n - 1}"),
        ])
        if error is not None:
            raise error
        matrix[x, y] = True
    return PairSet(matrix)


def load_pairs(path: str) -> PairSet:
    with open(path, "r", encoding="utf-8") as f:
        return parse_pairs_text(f.read(), source=path)


def dump_pairs(a: PairSet) -> str:
    """The pairs format, written one row x at a time from a table of labels."""
    labels = np.array([str(y) for y in range(a.n)], dtype=object)
    rows = [f"pairs {a.n}\n"]
    for x, row in enumerate(a.matrix):
        ys = labels[row].tolist()
        if ys:
            rows.append(f"{x} " + f"\n{x} ".join(ys) + "\n")
    return "".join(rows)
