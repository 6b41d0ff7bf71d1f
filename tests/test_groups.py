import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcolour import catalog
from groupcolour.errors import SizeLimitError, ValidationError
from groupcolour.groups import (
    ElementSet,
    all_subgroups,
    conjugacy,
    coset_action_kernel,
    direct_product,
    from_cayley_table,
    from_permutations,
    is_subgroup,
    iterated_product,
    product_set,
)

from helpers import naive_is_associative, naive_permutation_closure

# Order-5 Latin square with an identity that is not a group.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

TRIPLE_RE = re.compile(r"non-associative triple \((\d+),(\d+),(\d+)\): \(ab\)c=(\d+) but a\(bc\)=(\d+)")


def assert_reported_triple_fails(table, exc):
    """The triple named in a non-associative error really fails, as stated."""
    a, b, c, left, right = (int(v) for v in TRIPLE_RE.search(str(exc)).groups())
    assert table[table[a][b]][c] == left
    assert table[a][table[b][c]] == right
    assert left != right


def relabel(table, perm):
    """The isomorphic table in which element x is called perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


@st.composite
def loops(draw, max_order=7):
    """Latin squares with a two-sided identity, relabelled at random."""
    n = draw(st.integers(1, max_order))
    rng = draw(st.randoms(use_true_random=False))
    table = [list(range(n))] + [[i] + [-1] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for v in options:
            table[i][j] = v
            if fill(k + 1):
                return True
        table[i][j] = -1
        return False

    assert fill(0)
    return relabel(table, draw(st.permutations(range(n))))


def validator_verdict(table) -> bool:
    """Whether from_cayley_table accepts a Latin square with an identity.

    Such a square is rejected either for a one-sided inverse, which a
    group cannot have, or for a located non-associative triple.
    """
    try:
        from_cayley_table(table)
    except ValidationError as exc:
        if "no-inverse" not in str(exc):
            assert_reported_triple_fails(table, exc)
        return False
    return True


def s3():
    return catalog.builtin("symmetric", [3])


def q8():
    return catalog.builtin("quaternion8")


class TestElementSet:
    def test_basic_algebra(self):
        a = ElementSet.from_indices(8, [0, 2, 5])
        b = ElementSet.from_indices(8, [2, 3])
        assert len(a) == 3
        assert 2 in a and 1 not in a
        assert (a | b).members() == [0, 2, 3, 5]
        assert (a & b).members() == [2]
        assert (a - b).members() == [0, 5]
        assert a.complement().members() == [1, 3, 4, 6, 7]
        assert b.issubset(a | b)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ElementSet.from_indices(4, [4])


    @given(st.integers(1, 70).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
    def test_mask_round_trip(self, case):
        n, bits = case
        s = ElementSet(n, bits)
        mask = s.mask()
        assert mask.dtype == bool and mask.tolist() == [i in s for i in range(n)]
        assert ElementSet.from_mask(mask) == s


class TestFromCayleyTable:
    def test_equality_reads_the_table(self):
        c5 = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        # Relabel 1<->2, 3<->4: inverse pairs {1,4}, {2,3} are kept, but
        # 1+1 = 2 becomes 2*2 = 1, so the products differ.
        swapped = relabel(c5, [0, 2, 1, 4, 3])
        g, h = from_cayley_table(c5), from_cayley_table(swapped)
        assert (g.order, g.inv, g.identity, g.name) == (h.order, h.inv, h.identity, h.name)
        assert g != h
        rows, cells = from_cayley_table(c5), from_cayley_table(np.array(c5))
        assert rows == g and cells == g
        assert hash(rows) == hash(cells) == hash(g)

    def test_trivial(self):
        g = from_cayley_table([[0]])
        assert g.order == 1 and g.identity == 0

    def test_c2(self):
        g = from_cayley_table([[0, 1], [1, 0]])
        assert g.order == 2
        assert g.inv == (0, 1)

    def test_s3_table_accepted(self):
        g = s3()
        rebuilt = from_cayley_table(g.mul_array.tolist(), name="S3'")
        assert rebuilt.order == 6
        # oracle: the closure of the two generators has exactly 6 elements
        closure = naive_permutation_closure([(1, 0, 2), (1, 2, 0)], 3)
        assert len(closure) == 6

    def test_rejects_non_latin(self):
        with pytest.raises(ValidationError, match="not-Latin-square"):
            from_cayley_table([[0, 0], [1, 1]])

    def test_rejects_no_identity(self):
        # Latin square with a left identity (row 0) but no right identity
        with pytest.raises(ValidationError, match="no-identity"):
            from_cayley_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])

    def test_rejects_non_associative(self):
        with pytest.raises(ValidationError, match="non-associative"):
            from_cayley_table(LOOP5)

    def test_rejects_large_non_associative(self):
        # LOOP5 x C103, order 515: large tables get the same full check.
        m = 103
        table = [
            [LOOP5[a1][a2] * m + (b1 + b2) % m for a2 in range(5) for b2 in range(m)]
            for a1 in range(5)
            for b1 in range(m)
        ]
        with pytest.raises(ValidationError, match="non-associative") as exc:
            from_cayley_table(table)
        assert_reported_triple_fails(table, exc.value)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(catalog.catalog_groups(64)), st.data())
    def test_relabelled_groups_accepted(self, g, data):
        table = relabel(g.mul_array.tolist(), data.draw(st.permutations(range(g.order))))
        assert naive_is_associative(table)
        assert validator_verdict(table)

    @settings(max_examples=60, deadline=None)
    @given(loops())
    def test_verdict_matches_oracle_on_loops(self, table):
        assert validator_verdict(table) == naive_is_associative(table)


class TestFromPermutations:
    def test_single_transposition(self):
        g = from_permutations([[1, 0]])
        assert g.order == 2

    def test_s3_generators(self):
        g = from_permutations([[1, 0, 2], [1, 2, 0]])
        assert g.order == 6
        assert len(naive_permutation_closure([(1, 0, 2), (1, 2, 0)], 3)) == 6

    def test_empty_generators(self):
        g = from_permutations([], degree=4)
        assert g.order == 1

    def test_deterministic_bfs_order(self):
        g1 = from_permutations([[1, 0, 2], [1, 2, 0]])
        g2 = from_permutations([[1, 0, 2], [1, 2, 0]])
        assert np.array_equal(g1.mul_array, g2.mul_array)

    def test_size_limit(self):
        # S8 has order 40320; the closure stops at DEFAULT_MAX_ORDER.
        with pytest.raises(SizeLimitError, match=r"^closure exceeds maximum order 5040 "
                                                 r"\(found 5040 elements so far\)$"):
            from_permutations([[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]])


class TestDirectProduct:
    def test_trivial_factor(self):
        g = s3()
        triv = from_cayley_table([[0]])
        prod = direct_product(triv, g)
        assert np.array_equal(prod.mul_array, g.mul_array)

    def test_klein_four(self):
        c2 = catalog.builtin("cyclic", [2])
        v4 = direct_product(c2, c2)
        assert v4.order == 4
        for x in range(1, 4):
            assert v4.mul_array[x, x] == v4.identity

    def test_commuting_probability_multiplicative(self):
        # c(S3 x S3) = 1/4 via brute force over all 36^2 pairs
        g = direct_product(s3(), s3())
        n = g.order
        count = sum(
            1 for x in range(n) for y in range(n) if g.mul_array[x, y] == g.mul_array[y, x]
        )
        assert count * 4 == n * n


class TestConjugacy:
    def test_abelian_all_singletons(self):
        g = catalog.builtin("cyclic", [7])
        cj = conjugacy(g)
        assert cj.class_sizes == (1,) * 7

    def test_s3_classes(self):
        assert sorted(conjugacy(s3()).class_sizes) == [1, 2, 3]

    def test_q8_classes(self):
        assert sorted(conjugacy(q8()).class_sizes) == [1, 1, 2, 2, 2]

    def test_orbit_stabiliser(self):
        for g in (s3(), q8(), catalog.builtin("dihedral", [6])):
            cj = conjugacy(g)
            for x in range(g.order):
                assert cj.class_sizes[cj.class_id[x]] * cj.centralizer_sizes[x] == g.order

    def test_centralizer_sum_identity(self):
        for g in (s3(), q8()):
            cj = conjugacy(g)
            assert sum(cj.centralizer_sizes) == g.order * cj.num_classes

    def test_class_size_submultiplicative(self):
        for g in catalog.catalog_groups(27):
            cj = conjugacy(g)
            size = lambda v: cj.class_sizes[cj.class_id[v]]
            for x in range(g.order):
                for y in range(g.order):
                    assert size(g.mul_array[x, y]) <= size(x) * size(y)


class TestSubgroups:
    def test_prime_cyclic(self):
        subs = all_subgroups(catalog.builtin("cyclic", [7]))
        assert len(subs) == 2

    def test_s3_has_six(self):
        subs = all_subgroups(s3())
        assert len(subs) == 6
        assert sorted(len(h) for h in subs) == [1, 2, 2, 2, 3, 6]

    def test_q8_proper_contain_minus_one(self):
        g = q8()
        subs = all_subgroups(g)
        assert len(subs) == 6
        minus_one = 1  # index of -1 in the 1,-1,i,-i,j,-j,k,-k ordering
        for h in subs:
            if 1 < len(h) < 8:
                assert minus_one in h

    def test_lagrange_and_validity(self):
        for g in (s3(), q8(), catalog.builtin("dihedral", [4])):
            subs = list(all_subgroups(g))
            bitsets = {h.bits for h in subs}
            assert len(bitsets) == len(subs)
            for h in subs:
                assert g.order % len(h) == 0
                assert is_subgroup(g, h)


class TestCosetActionKernel:
    def test_normal_subgroup_is_its_own_core(self):
        g = s3()
        a3 = next(h for h in all_subgroups(g) if len(h) == 3)
        assert coset_action_kernel(g, a3).bits == a3.bits

    def test_trivial(self):
        g = s3()
        k = coset_action_kernel(g, g.subset([g.identity]))
        assert k.members() == [g.identity]

    def test_s3_order_two_core_trivial(self):
        g = s3()
        h2 = next(h for h in all_subgroups(g) if len(h) == 2)
        assert coset_action_kernel(g, h2).members() == [g.identity]

    def test_matches_conjugate_intersection(self):
        for g in (s3(), q8(), catalog.builtin("dihedral", [6])):
            for h in all_subgroups(g):
                expected = (1 << g.order) - 1
                for t in range(g.order):
                    conj = 0
                    for x in h:
                        conj |= 1 << int(g.mul_array[g.mul_array[t, x], g.inv[t]])
                    expected &= conj
                assert coset_action_kernel(g, h).bits == expected


class TestProductSet:
    def test_identity_factor(self):
        g = s3()
        b = g.subset([1, 4])
        assert product_set(g, g.subset([g.identity]), b).bits == b.bits

    def test_full_times_full(self):
        g = s3()
        assert product_set(g, g.full_set(), g.full_set()).bits == g.full_set().bits

    def test_s3_transpositions_squared(self):
        g = s3()
        cj = conjugacy(g)
        transpositions = next(c for c in cj.classes if len(c) == 3)
        sq = product_set(g, transpositions, transpositions)
        cycles = next(c for c in cj.classes if len(c) == 2)
        assert sq.bits == (1 << g.identity) | cycles.bits
        assert len(sq) == 3

    def test_associative(self):
        g = catalog.builtin("dihedral", [4])
        a = g.subset([0, 3])
        b = g.subset([1, 5])
        c = g.subset([2, 6, 7])
        left = product_set(g, product_set(g, a, b), c)
        right = product_set(g, a, product_set(g, b, c))
        assert left.bits == right.bits

    def test_iterated_product_stabilises(self):
        g = s3()
        a3 = next(h for h in all_subgroups(g) if len(h) == 3)
        assert iterated_product(g, a3, 5).bits == a3.bits
