"""The array builders and the array validator against their loop oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupcolour import catalog, groups
from groupcolour.errors import GroupColourError, ValidationError
from groupcolour.groups import direct_product, from_cayley_table, from_permutations
from groupcolour.stats import commuting_probability

from helpers import (
    naive_cyclic,
    naive_dihedral,
    naive_direct_product,
    naive_from_cayley_table,
    naive_from_permutations,
    naive_heisenberg,
    naive_quaternion8,
)
from test_groups import LOOP5, loops, relabel

GROUPS = catalog.catalog_groups(64)
LARGE = (("symmetric", 5), ("alternating", 5), ("heisenberg", 5), ("heisenberg", 7))


def assert_same_group(g, h):
    assert (g.order, g.inv, g.identity, g.name) == (h.order, h.inv, h.identity, h.name)
    assert g.mul_array.dtype == h.mul_array.dtype
    assert np.array_equal(g.mul_array, h.mul_array)
    assert not g.mul_array.flags.writeable
    assert g.mul_array.flags.c_contiguous


def test_catalog_matches_loop_builders(monkeypatch):
    built = [*GROUPS, *(catalog.builtin(name, [p]) for name, p in LARGE)]
    # Route every catalog builder through its loop oracle; the permutation
    # families go through naive_from_permutations.
    loop_builders = {"cyclic": naive_cyclic, "dihedral": naive_dihedral,
                     "quaternion8": naive_quaternion8, "heisenberg": naive_heisenberg}
    assert set(catalog.FAMILIES) == {*loop_builders, "symmetric", "alternating"}
    for name, oracle in loop_builders.items():
        monkeypatch.setitem(catalog.FAMILIES, name, (oracle, *catalog.FAMILIES[name][1:]))
    monkeypatch.setattr(groups, "from_permutations", naive_from_permutations)
    monkeypatch.setattr(groups, "from_cayley_table", naive_from_cayley_table)
    monkeypatch.setattr(groups, "direct_product", naive_direct_product)
    oracles = [*catalog.catalog_groups(64), *(catalog.builtin(name, [p]) for name, p in LARGE)]
    assert len(built) == len(oracles)
    for g, h in zip(built, oracles):
        assert_same_group(g, h)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["cyclic", "dihedral"]), st.integers(1, 300))
@example("cyclic", 256)
@example("dihedral", 128)
def test_cyclic_dihedral_match_loops(family, n):
    # Orders past 255 need a two-byte mul_array.
    oracle = naive_cyclic if family == "cyclic" else naive_dihedral
    assert_same_group(catalog.builtin(family, [n]), oracle(n))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, len(GROUPS) - 1), st.integers(0, len(GROUPS) - 1))
def test_direct_product_matches_loops(gi, hi):
    g, h = GROUPS[gi], GROUPS[hi]
    if g.order * h.order > 300:
        g = GROUPS[gi % 12]  # a cyclic factor keeps the product small
    assert_same_group(direct_product(g, h), naive_direct_product(g, h))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda d: st.lists(st.permutations(range(d)), max_size=3).map(lambda gens: (d, gens))))
@example((8, [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]))  # S8, past the maximum
def test_from_permutations_matches_loops(case):
    degree, gens = case
    try:
        expected = naive_from_permutations(gens, degree=degree)
    except GroupColourError as exc:
        with pytest.raises(type(exc)) as info:
            from_permutations(gens, degree=degree)
        assert str(info.value) == str(exc)
        return
    assert_same_group(from_permutations(gens, degree=degree), expected)


@st.composite
def drawn_tables(draw):
    """Catalog tables, relabelled and then damaged: changed cells (some out
    of range), swapped cells and rows, permuted rows, ragged rows."""
    g = draw(st.sampled_from(GROUPS[:40]))
    n = g.order
    table = relabel(g.mul_array.tolist(), draw(st.permutations(range(n))))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["set", "swap", "rows", "shuffle", "ragged"]))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if j >= len(table[i]):
            continue
        if op == "set":
            table[i][j] = draw(st.integers(-3, n + 3) | st.integers(-2 ** 70, 2 ** 70))
        elif op == "swap":
            k = draw(st.integers(0, len(table[i]) - 1))
            table[i][j], table[i][k] = table[i][k], table[i][j]
        elif op == "rows":
            table[i], table[j] = table[j], table[i]
        elif op == "shuffle":
            order = draw(st.permutations(range(n)))
            table = [table[r] for r in order]
        else:
            table[i] = table[i][:j] if draw(st.booleans()) else table[i] + [0] * (j + 1)
    return table


def outcome(build, table):
    try:
        g = build(table)
    except ValidationError as exc:
        return "error", str(exc)
    return "group", (g.mul_array.tolist(), g.inv, g.identity, g.name)


@settings(max_examples=150, deadline=None)
@given(drawn_tables() | loops())
@example(LOOP5)
@example([[0, 1], [1, 0], [0, 1]])
@example([[0, 5], [1]])         # a bad entry in row 0 beats a short row 1
@example([[0], [1, 0]])
@example([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
@example([[0, 1.5], [1.5, 0]])  # refused, not truncated to C2
def test_validator_matches_loop_validator(table):
    expected = outcome(naive_from_cayley_table, table)
    assert outcome(from_cayley_table, table) == expected
    if len({len(row) for row in table}) == 1 and table[0]:
        # The same table as an array: int64 if every entry is an int, else
        # numpy's own dtype (float64 for a float entry), never truncated.
        ints = all(type(v) is int for row in table for v in row)
        try:
            cells = np.array(table, dtype=np.int64 if ints else None)
        except OverflowError:
            return
        assert outcome(from_cayley_table, cells) == expected


@settings(max_examples=80, deadline=None)
@given(drawn_tables() | loops(), st.integers(1, 40))
@example([[0, 1, 2], [2, 0, 1], [1, 2, 1]], 3)  # the bad row lies in the third block
@example(LOOP5, 1)                                 # one row per block
def test_validator_in_row_blocks(table, cells):
    # A budget of a few cells splits every check into many row blocks; the
    # first failure, its message and the group stay those of the loops.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_BLOCK_CELLS", cells)
        assert outcome(from_cayley_table, table) == outcome(naive_from_cayley_table, table)


def test_array_input_is_copied():
    cells = np.array(catalog.builtin("cyclic", [4]).mul_array)
    g = from_cayley_table(cells)
    assert cells.flags.writeable
    cells[0, 0] = 3
    assert g.mul_array[0, 0] == 0


def traced_peak(build) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_memory_one_table():
    # One 2-byte cell per product, plus bool temporaries, stays near 12
    # bytes a cell; a Python-int copy of the table takes about 50.
    n = 2000
    peak = traced_peak(lambda: commuting_probability(catalog.builtin("dihedral", [n // 2])))
    assert peak < 16 * n * n


@pytest.mark.parametrize("name,param", [("heisenberg", 7), ("symmetric", 5)])
def test_memory_build(name, param):
    # The tuple mul and the array checks need a few dozen bytes a cell;
    # an int64 broadcast or an n^2 x degree temporary would break the bound.
    n = catalog.builtin(name, [param]).order
    assert traced_peak(lambda: catalog.builtin(name, [param])) < 64 * n * n


@pytest.mark.parametrize("spec,mib", [("cyclic:2000", 18), ("dihedral:1000", 20),
                                      ("symmetric:3^4", 11)])
def test_builders_keep_their_table(spec, mib):
    # The builders hand their own array to the checks: one 7.6 MiB uint16
    # table at order 2000 (3.2 MiB for S3^4) plus the check temporaries, and
    # no second copy of it.
    assert traced_peak(lambda: catalog.resolve_groupspec(spec)) < mib * 2 ** 20
