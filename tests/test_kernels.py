"""The array kernels over mul_array against their loop oracles."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcolour import catalog, groups
from groupcolour.colouring import _edge_masks, class_witness, count_quadruples
from groupcolour.groups import (
    ElementSet,
    conjugacy,
    coset_action_kernel,
    is_subgroup,
    left_cosets,
    product_set,
    subgroup_closure,
)
from groupcolour.stats import commuting_probability, is_abelian

from helpers import (
    assert_top_edge_table,
    naive_class_witness,
    naive_commuting_pairs,
    naive_conjugacy,
    naive_coset_action_kernel,
    naive_count_quadruples,
    naive_edge_masks,
    naive_is_abelian,
    naive_is_subgroup,
    naive_left_cosets,
    naive_product_set,
)

GROUPS = catalog.catalog_groups(64)


@st.composite
def group_and_sets(draw):
    """A catalog group, two drawn element sets and a drawn subgroup."""
    g = draw(st.sampled_from(GROUPS))
    n = g.order
    sets = st.integers(0, (1 << n) - 1).map(lambda bits: ElementSet(n, bits))
    h = subgroup_closure(g, draw(st.lists(st.integers(0, n - 1), max_size=3)))
    return g, draw(sets), draw(sets), h


def all_ints(values) -> bool:
    return all(type(v) is int for v in values)


@settings(max_examples=120, deadline=None)
@given(group_and_sets())
def test_kernels_match_loop_oracles(case):
    g, a, b, h = case
    conj = conjugacy(g)
    assert conj == naive_conjugacy(g)
    assert all_ints(conj.class_id + conj.centralizer_sizes)
    report = commuting_probability(g, conj)
    assert report.pairs_commuting == naive_commuting_pairs(g)
    assert type(report.pairs_commuting) is int
    assert is_abelian(g) == naive_is_abelian(g)
    assert_top_edge_table(g, _edge_masks(g), naive_edge_masks(g))
    for s in (a, b, h, g.full_set()):
        counts = count_quadruples(g, s)
        assert counts == naive_count_quadruples(g, s) and all_ints(counts)
        witness = class_witness(g, s)
        assert witness == naive_class_witness(g, s) and all_ints(witness or ())
        assert is_subgroup(g, s) == naive_is_subgroup(g, s)
    assert is_subgroup(g, h)
    assert product_set(g, a, b) == naive_product_set(g, a, b)
    assert left_cosets(g, h) == naive_left_cosets(g, h)
    assert coset_action_kernel(g, h) == naive_coset_action_kernel(g, h)


@settings(max_examples=40, deadline=None)
@given(group_and_sets(), st.integers(1, 200))
def test_coset_action_kernel_in_row_blocks(case, cells):
    # Conjugates t H t^-1 counted over blocks of t, not all n rows at once,
    # and products xy over blocks of a set's members x.
    g, a, b, h = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_BLOCK_CELLS", cells)
        assert coset_action_kernel(g, h) == naive_coset_action_kernel(g, h)
        for s in (a, b, h, g.full_set()):
            assert count_quadruples(g, s) == naive_count_quadruples(g, s)
            assert class_witness(g, s) == naive_class_witness(g, s)
            assert is_subgroup(g, s) == naive_is_subgroup(g, s)


def test_pair_kernels_peak_on_order_5040():
    g = catalog.builtin("dihedral", [2520])
    full = g.full_set()
    for kernel, expected in ((is_subgroup, True), (class_witness, (1, 2520)),
                             (count_quadruples, (25401600, 19036080))):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert kernel(g, full) == expected
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, kernel.__name__
