import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupcolour import catalog, corners
from groupcolour.colouring import Cover, count_quadruples, random_cover
from groupcolour.corners import (
    PairSet,
    build_tripartite,
    corner_counts_by_z,
    corner_statistic,
    dump_pairs,
    load_pairs,
    parse_pairs_text,
    random_pairs,
    shifted_pair_set,
    triangle_count,
    witness_finder,
)
from groupcolour.errors import CoverError, ParseError
from groupcolour.groups import ElementSet

from helpers import (
    naive_corner_count,
    naive_corner_counts_by_z,
    naive_dump_pairs,
    naive_random_rows,
    naive_shifted_rows,
)

GROUPS = catalog.catalog_groups(64)


def s3():
    return catalog.builtin("symmetric", [3])


class TestPairSet:
    def test_basics(self):
        a = PairSet.from_pairs(4, [(0, 1), (2, 3), (2, 0)])
        assert a.size == 3
        assert (0, 1) in a and (1, 0) not in a
        assert a.density == Fraction(3, 16)
        assert list(a.pairs()) == [(0, 1), (2, 0), (2, 3)]
        assert a.rows == (0b10, 0, 0b1001, 0)

    def test_read_only(self):
        a = PairSet.full(3)
        with pytest.raises(ValueError):
            a.matrix[0, 0] = False

    def test_full_empty(self):
        assert PairSet.full(3).size == 9
        assert PairSet.empty(3).size == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            PairSet.from_pairs(2, [(0, 2)])

    def test_random_deterministic(self):
        assert random_pairs(8, seed=5).rows == random_pairs(8, seed=5).rows


class TestCornerCounts:
    def test_empty_and_full(self):
        g = s3()
        assert corner_statistic(g, PairSet.empty(6)) == 0
        assert corner_statistic(g, PairSet.full(6)) == 1

    def test_single_pair_one_corner(self):
        # only z = e keeps (zx, y) and (x, yz) at the same pair
        g = s3()
        a = PairSet.from_pairs(6, [(2, 4)])
        assert sum(corner_counts_by_z(g, a)) == 1
        assert corner_counts_by_z(g, a)[g.identity] == 1

    def test_row_x_equals_identity(self):
        # A = {e} x G: x = e is forced, then zx = e forces z = e, and
        # (e, yz) = (e, y) is present; exactly n triples
        g = s3()
        a = PairSet.from_pairs(6, [(g.identity, y) for y in range(6)])
        assert corner_statistic(g, a) == Fraction(1, 36)

    def test_matches_naive(self):
        for spec in ("symmetric:3", "dihedral:4", "cyclic:7"):
            g = catalog.resolve_groupspec(spec)
            for seed in range(15):
                a = random_pairs(g.order, seed=seed, density=0.4)
                assert sum(corner_counts_by_z(g, a)) == naive_corner_count(g, a)

    def test_memory_no_cube(self):
        # One n x n pass per z: the peak stays a few n^2 bytes, far below
        # the n^3 of a kernel that broadcasts over all z at once.
        g = catalog.builtin("heisenberg", [5])
        n = g.order
        a = random_pairs(n, seed=1, density=0.5)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            corner_counts_by_z(g, a)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 32 * n * n


# Blocks of 1..64 cells: one row or several, the last block partial.
@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 64),
    st.integers(1, 40),
    st.sampled_from([0, -3, 2 ** 32, 2 ** 64 + 5]),
    st.sampled_from([0, 1, 1.1, -0.5, float("nan")]) | st.floats(0, 1),
)
@example(64, 5, 0, 0.5)
@example(1, 40, 2 ** 64 + 5, 0.5)
@example(3, 1, 0, 0)            # n = 1, empty and full
@example(3, 1, 0, 1)
@example(7, 6, -3, 0)
@example(7, 6, -3, 1)
def test_blocked_draws_match_cell_loop(cells, n, seed, density):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corners, "_DRAW_CELLS", cells)
        a = random_pairs(n, seed=seed, density=density)
    assert a.rows == naive_random_rows(n, seed, density)
    assert dump_pairs(a) == naive_dump_pairs(n, a.rows)


# The first 16 hex digits of the sha256 of each seeded pairs file, as the
# one-draw-per-call writer made them.
@pytest.mark.parametrize("n, seed, density, digest", [
    (343, 0, 0.25, "b16018c53ca7e71c"),
    (120, 3, 0.5, "55916c7b139a65e2"),
    (5040, 1, 0.01, "bd4d19505c08ca97"),
])
def test_seeded_pair_files_are_fixed(n, seed, density, digest):
    text = dump_pairs(random_pairs(n, seed=seed, density=density))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# GROUPS[0] is the trivial group; density 1 fills every cell.
@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, len(GROUPS) - 1),
    st.integers(0, 2 ** 32),
    st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
)
@example(0, 0, 1.0)
@example(0, 0, 0.0)
def test_kernels_match_bit_loop_oracles(gi, seed, density):
    g = GROUPS[gi]
    n = g.order
    a = random_pairs(n, seed=seed, density=density)
    assert a.rows == naive_random_rows(n, seed, density)
    assert dump_pairs(a) == naive_dump_pairs(n, a.rows)

    counts = corner_counts_by_z(g, a)
    assert counts == naive_corner_counts_by_z(g, a)
    assert triangle_count(build_tripartite(g, a)) == sum(counts)

    rng = random.Random(seed)
    a_bits = rng.getrandbits(n)
    s = rng.randrange(n)
    assert shifted_pair_set(g, a_bits, s).rows == naive_shifted_rows(g, a_bits, s)


class TestTripartite:
    def test_edge_counts_equal_size(self):
        g = catalog.builtin("dihedral", [5])
        a = random_pairs(10, seed=2, density=0.3)
        t = build_tripartite(g, a)
        assert t.edge_counts() == (a.size, a.size, a.size)

    def test_triangle_bijection(self):
        for spec in ("symmetric:3", "quaternion8", "cyclic:9"):
            g = catalog.resolve_groupspec(spec)
            for seed in range(10):
                a = random_pairs(g.order, seed=seed, density=0.5)
                t = build_tripartite(g, a)
                assert triangle_count(t) == sum(corner_counts_by_z(g, a))

    def test_one_pair_one_triangle(self):
        g = s3()
        a = PairSet.from_pairs(6, [(2, 4)])
        t = build_tripartite(g, a)
        assert triangle_count(t) == 1


class TestShiftedPairSet:
    def test_density_preserved_exactly(self):
        # y -> x s y is a bijection per row, so every shift has density
        # |A| / n regardless of s
        for g in (s3(), catalog.builtin("dihedral", [4])):
            n = g.order
            rng = random.Random(3)
            for _ in range(20):
                a_bits = rng.getrandbits(n)
                a = ElementSet(n, a_bits)
                for shift in range(n):
                    ps = shifted_pair_set(g, a_bits, shift)
                    assert ps.size == n * len(a)

    def test_membership_rule(self):
        g = s3()
        a_bits = 0b100101
        ps = shifted_pair_set(g, a_bits, 3)
        for x in range(6):
            for y in range(6):
                expected = (a_bits >> int(g.mul_array[g.mul_array[x, 3], y])) & 1 == 1
                assert ((x, y) in ps) == expected

    def test_fibre_size(self):
        # the map (x, y) -> x s y hits each element of A exactly n times
        g = catalog.builtin("dihedral", [4])
        a_bits = 0b01101001
        for shift in range(8):
            hits = [0] * 8
            for x in range(8):
                for y in range(8):
                    hits[g.mul_array[g.mul_array[x, shift], y]] += 1
            assert all(h == 8 for h in hits)


class TestWitnessFinder:
    def test_rejects_non_cover(self):
        g = s3()
        with pytest.raises(CoverError):
            witness_finder(g, Cover.of(6, [g.subset([0, 1])]))

    def test_single_class(self):
        g = s3()
        t = witness_finder(g, Cover.of(6, [g.full_set()]))
        assert t.success
        assert t.r == 1
        assert t.chosen_class == 1
        assert t.verified_quads >= t.quad_lower_bound >= 1

    def test_s3_two_classes(self):
        g = s3()
        a3 = g.subset([0, 2, 5])
        cover = Cover.of(6, [a3, a3.complement()])
        t = witness_finder(g, cover, seed=0)
        if t.success:
            chosen = cover.classes[t.class_order[t.chosen_class - 1]]
            total, _ = count_quadruples(g, chosen)
            assert total == t.verified_quads
            assert t.verified_quads >= t.quad_lower_bound

    def test_soundness_random_covers(self):
        g = catalog.builtin("heisenberg", [3])
        successes = 0
        for seed in range(8):
            cover = random_cover(g, 2, seed=seed, overlap=0.1)
            t = witness_finder(g, cover, seed=seed)
            if not t.success:
                continue
            successes += 1
            chosen = cover.classes[t.class_order[t.chosen_class - 1]]
            total, _ = count_quadruples(g, chosen)
            assert total == t.verified_quads
            assert t.quad_lower_bound <= total
        assert successes >= 5

    def test_deterministic(self):
        g = catalog.builtin("symmetric", [4])
        cover = random_cover(g, 3, seed=7, overlap=0.15)
        t1 = witness_finder(g, cover, seed=11)
        t2 = witness_finder(g, cover, seed=11)
        assert t1 == t2

    def test_failure_reported_not_raised(self):
        # zero sampling trials cannot accept any stage
        g = s3()
        t = witness_finder(g, Cover.of(6, [g.full_set()]), trials=0)
        assert not t.success
        assert t.failure_reason


class TestPairsFiles:
    def test_round_trip(self, tmp_path):
        a = random_pairs(7, seed=4, density=0.5)
        path = tmp_path / "a.pairs"
        path.write_text(dump_pairs(a))
        assert load_pairs(str(path)).rows == a.rows

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="header"):
            parse_pairs_text("pair 4\n")
        with pytest.raises(ParseError, match="out of range"):
            parse_pairs_text("pairs 4\n0 4\n")
        with pytest.raises(ParseError, match="pair line"):
            parse_pairs_text("pairs 4\n0 1 2\n")
        for size in ("0", "-1", "5041"):
            with pytest.raises(ParseError, match=r"<input>:1:1: pairs size"):
                parse_pairs_text(f"pairs {size}\n")

    def test_comments(self):
        a = parse_pairs_text("# header comment\npairs 3\n0 1 # trailing\n\n2 2\n")
        assert sorted(a.pairs()) == [(0, 1), (2, 2)]
