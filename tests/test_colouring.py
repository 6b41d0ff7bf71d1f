import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcolour import catalog
from groupcolour.colouring import (
    Cover,
    _edge_masks,
    class_witness,
    count_quadruples,
    cover_avoids,
    dump_cover,
    load_cover,
    parse_cover_text,
    random_cover,
    schur_number,
)
from groupcolour.errors import CoverError, ParseError, ValidationError
from groupcolour.groups import ElementSet, all_subgroups, conjugacy
from groupcolour.stats import commuting_probability, is_abelian

from helpers import (
    assert_top_edge_table,
    class_has_noncommuting_quadruple,
    naive_avoiding_partitions,
    naive_edge_masks,
    naive_quadruples,
    naive_schur_number,
)

# Non-Abelian groups small enough for the whole-class oracle search; S3^2
# (order 36) is left out, since one full oracle run there takes seconds.
SCHUR_GROUPS = [g for g in catalog.catalog_groups(24) if not is_abelian(g)]


def s3():
    return catalog.builtin("symmetric", [3])


def a3_set(g):
    return next(h for h in all_subgroups(g) if len(h) == 3)


class TestCountQuadruples:
    def test_full_group(self):
        for spec in ("symmetric:3", "quaternion8", "dihedral:5"):
            g = catalog.resolve_groupspec(spec)
            rep = commuting_probability(g)
            total, noncomm = count_quadruples(g, g.full_set())
            assert total == g.order ** 2
            assert noncomm == g.order ** 2 - rep.pairs_commuting

    def test_empty(self):
        g = s3()
        assert count_quadruples(g, ElementSet.empty(6)) == (0, 0)

    def test_a3_closed_abelian(self):
        g = s3()
        assert count_quadruples(g, a3_set(g)) == (9, 0)

    def test_matches_naive_oracle(self):
        rng = random.Random(11)
        for g in catalog.catalog_groups(16):
            for _ in range(20):
                bits = rng.getrandbits(g.order)
                a = ElementSet(g.order, bits)
                tuples = naive_quadruples(g, a)
                total, noncomm = count_quadruples(g, a)
                assert total == len(tuples)
                assert noncomm == sum(1 for (_, _, p, q) in tuples if p != q)

    def test_monotone_in_subset(self):
        g = catalog.builtin("dihedral", [4])
        rng = random.Random(5)
        for _ in range(30):
            b_bits = rng.getrandbits(g.order)
            a_bits = b_bits & rng.getrandbits(g.order)
            ta, _ = count_quadruples(g, ElementSet(g.order, a_bits))
            tb, _ = count_quadruples(g, ElementSet(g.order, b_bits))
            assert ta <= tb

    def test_conjugation_invariance(self):
        g = s3()
        rng = random.Random(7)
        for _ in range(20):
            a = ElementSet(g.order, rng.getrandbits(g.order))
            base = count_quadruples(g, a)
            for t in range(g.order):
                conj = ElementSet.from_indices(g.order, (g.conjugate(t, x) for x in a))
                assert count_quadruples(g, conj) == base


class TestCoverAvoids:
    def test_abelian_any_cover(self):
        g = catalog.builtin("cyclic", [6])
        cover = random_cover(g, 3, seed=1, overlap=0.3)
        ok, witness = cover_avoids(g, cover)
        assert ok and witness is None

    def test_whole_group_class_fails(self):
        g = s3()
        ok, witness = cover_avoids(g, Cover.of(6, [g.full_set()]))
        assert not ok
        ci, x, y = witness
        assert ci == 0
        assert g.mul_array[x, y] != g.mul_array[y, x]

    def test_a3_complement_avoids(self):
        g = s3()
        a3 = a3_set(g)
        ok, _ = cover_avoids(g, Cover.of(6, [a3, a3.complement()]))
        assert ok

    def test_nonabelian_subgroup_class_fails(self):
        g = catalog.builtin("symmetric", [4])
        s3_sub = next(h for h in all_subgroups(g) if len(h) == 6)
        cover = Cover.of(g.order, [s3_sub, s3_sub.complement()])
        ok, witness = cover_avoids(g, cover)
        assert not ok

    def test_incomplete_cover_rejected(self):
        g = s3()
        with pytest.raises(CoverError):
            cover_avoids(g, Cover.of(6, [a3_set(g)]))

    def test_witness_is_checked(self):
        g = catalog.builtin("quaternion8")
        ok, witness = cover_avoids(g, Cover.of(8, [g.full_set()]))
        assert not ok
        _, x, y = witness
        a = g.full_set()
        assert g.mul_array[x, y] in a and g.mul_array[y, x] in a


class TestSchurNumber:
    def test_rejects_abelian(self):
        with pytest.raises(ValidationError):
            schur_number(catalog.builtin("cyclic", [4]))

    def test_s3(self):
        res = schur_number(s3())
        assert res.k_value == 1
        assert res.complete
        assert res.avoiding_colouring.is_partition()
        ok, _ = cover_avoids(s3(), res.avoiding_colouring)
        assert ok

    @pytest.mark.parametrize("spec", ["quaternion8", "dihedral:4"])
    def test_order8_exhaustive(self, spec):
        g = catalog.resolve_groupspec(spec)
        res = schur_number(g)
        assert res.complete
        ok, _ = cover_avoids(g, res.avoiding_colouring)
        assert ok
        # independent full scan: no avoiding partition with k classes,
        # at least one with k+1
        assert naive_avoiding_partitions(g, res.k_value) == []
        assert naive_avoiding_partitions(g, res.k_value + 1)

    def test_budget_exhaustion_flags_incomplete(self):
        res = schur_number(s3(), budget=3)
        assert not res.complete
        assert res.k_value >= 1

    def test_kmax_exceeded_is_lower_bound(self):
        # with k_max=0 the search may only use one class, which always fails
        res = schur_number(s3(), k_max=0)
        assert not res.complete
        assert res.k_value == 0

    def test_s4_counters(self):
        res = schur_number(catalog.resolve_groupspec("symmetric:4"))
        assert (res.k_value, res.complete, res.nodes, res.prunes) == (2, True, 8329, 4160)

    def test_s3_squared_budget_counters(self):
        # values of the whole-class search, which stops at node budget + 1
        res = schur_number(catalog.resolve_groupspec("symmetric:3^2"), budget=50_000)
        assert (res.k_value, res.complete, res.nodes, res.prunes) == (1, False, 50_001, 24_995)
        assert res.avoiding_colouring is None

    @pytest.mark.parametrize("spec,budget,prunes", [
        ("symmetric:5", 2_000_000, 999_993),
        ("symmetric:6", 100_000, 49_987),
    ])
    def test_large_budget_counters(self, spec, budget, prunes):
        # Values of a search that checks every edge through each placed
        # element, which stops at node budget + 1.
        res = schur_number(catalog.resolve_groupspec(spec), budget=budget)
        assert (res.k_value, res.complete, res.nodes, res.prunes) == (1, False, budget + 1, prunes)
        assert res.avoiding_colouring is None


class TestEdgeMasks:
    @pytest.mark.parametrize(
        "g", [g for g in catalog.catalog_groups(27) if not is_abelian(g)],
        ids=lambda g: g.name)
    def test_matches_brute_force(self, g):
        expected = [set() for _ in range(g.order)]
        for x, y, p, q in naive_quadruples(g, g.full_set()):
            if p != q:
                for v in (x, y, p, q):
                    expected[v].add(sum(1 << u for u in {x, y, p, q} - {v}))
        full = naive_edge_masks(g)
        assert full == tuple(tuple(sorted(s)) for s in expected)
        others = _edge_masks(g)
        assert_top_edge_table(g, others, full)
        for masks in others:
            for o in masks:
                assert o.bit_count() == 3


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, len(SCHUR_GROUPS) - 1),
    st.integers(0, 3),
    st.integers(1, 20_000),
)
def test_schur_matches_whole_class_oracle(gi, k_max, budget):
    g = SCHUR_GROUPS[gi]
    # SchurResult equality covers k_value, complete, nodes, prunes and the
    # class bits of the colouring
    assert schur_number(g, k_max=k_max, budget=budget) == naive_schur_number(
        g, k_max=k_max, budget=budget)


class TestRandomCover:
    def test_k1_is_whole_group(self):
        g = s3()
        cover = random_cover(g, 1, seed=0)
        assert cover.size == 1
        assert cover.classes[0].bits == g.full_set().bits

    def test_deterministic(self):
        g = catalog.builtin("dihedral", [6])
        c1 = random_cover(g, 3, seed=42, overlap=0.2)
        c2 = random_cover(g, 3, seed=42, overlap=0.2)
        assert [c.bits for c in c1.classes] == [c.bits for c in c2.classes]

    def test_zero_overlap_is_partition(self):
        g = s3()
        cover = random_cover(g, 2, seed=3, overlap=0.0)
        assert cover.covers_group()
        assert cover.is_partition()

    def test_classes_nonempty(self):
        g = s3()
        for seed in range(10):
            cover = random_cover(g, 5, seed=seed)
            assert all(len(c) >= 1 for c in cover.classes)


class TestCoverFiles:
    def test_round_trip(self, tmp_path):
        g = catalog.builtin("dihedral", [4])
        cover = random_cover(g, 3, seed=9, overlap=0.25)
        path = tmp_path / "c.cover"
        path.write_text(dump_cover(cover))
        again = load_cover(str(path))
        assert [c.bits for c in again.classes] == [c.bits for c in cover.classes]

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="expected header"):
            parse_cover_text("covr 1 6\n0 1 2 3 4 5\n")
        with pytest.raises(ParseError, match="out of range"):
            parse_cover_text("cover 1 4\n0 9\n")
        with pytest.raises(ParseError, match="class lines"):
            parse_cover_text("cover 2 4\n0 1 2 3\n")


def test_class_witness_agrees_with_naive():
    g = catalog.builtin("dihedral", [5])
    rng = random.Random(13)
    for _ in range(40):
        a = ElementSet(g.order, rng.getrandbits(g.order))
        has = class_has_noncommuting_quadruple(g, set(a.members()))
        assert (class_witness(g, a) is not None) == has
