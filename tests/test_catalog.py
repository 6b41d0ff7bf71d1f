import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from groupcolour import catalog
from groupcolour.catalog import (
    builtin,
    dump_group,
    load_group,
    parse_group_text,
    resolve_groupspec,
)
from groupcolour.errors import ParseError, SizeLimitError, ValidationError
from groupcolour.groups import conjugacy
from groupcolour.stats import commuting_probability, is_abelian

from helpers import naive_commuting_pairs, naive_permutation_closure


@functools.cache
def built(name: str, n: int):
    """Builtin groups, each built once: S7 takes most of a second."""
    return builtin(name, [n])


class TestBuiltins:
    def test_cyclic(self):
        g = builtin("cyclic", [5])
        assert g.order == 5
        assert is_abelian(g)

    @pytest.mark.parametrize("n,order", [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120), (6, 720),
                                         (7, 5040)])
    def test_symmetric_orders(self, n, order):
        assert built("symmetric", n).order == order

    @pytest.mark.parametrize("n,order", [(3, 3), (4, 12), (5, 60), (6, 360), (7, 2520)])
    def test_alternating_orders(self, n, order):
        assert built("alternating", n).order == order

    @pytest.mark.parametrize("name,classes,c", [("symmetric", 15, Fraction(1, 336)),
                                                ("alternating", 9, Fraction(1, 280))])
    def test_degree7_commuting_probability(self, name, classes, c):
        rep = commuting_probability(built(name, 7))
        assert (rep.num_classes, rep.c) == (classes, c)

    @pytest.mark.parametrize("name", ["symmetric", "alternating"])
    def test_catalog_bound(self, name):
        # The catalog line states n <= 7: 7! = 5040 is the maximum order.
        assert "n <= 7 " in catalog.FAMILIES[name][2]
        assert built(name, 7).order <= 5040
        with pytest.raises(SizeLimitError, match="exceeds maximum 5040"):
            builtin(name, [8])

    def test_symmetric3_classes(self):
        assert conjugacy(builtin("symmetric", [3])).num_classes == 3

    @pytest.mark.parametrize("n", [1, 3, 4, 7, 12])
    def test_dihedral_order(self, n):
        assert builtin("dihedral", [n]).order == 2 * n

    def test_quaternion8(self):
        g = builtin("quaternion8")
        assert g.order == 8
        # exactly one involution (-1)
        assert sum(1 for x in range(8) if x != g.identity and g.mul_array[x, x] == g.identity) == 1

    @pytest.mark.parametrize("p", [3, 5])
    def test_heisenberg_order(self, p):
        assert builtin("heisenberg", [p]).order == p ** 3

    def test_heisenberg3_classes(self):
        assert conjugacy(builtin("heisenberg", [3])).num_classes == 11

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown builtin"):
            builtin("sporadic", [1])

    def test_dihedral_commuting_probability_odd(self):
        # c(D_n) = (n+3)/(4n) for odd n, checked against brute-force counts
        for n in (3, 5, 7, 9):
            g = builtin("dihedral", [n])
            count = naive_commuting_pairs(g)
            assert Fraction(count, g.order ** 2) == Fraction(n + 3, 4 * n)


class TestGroupspec:
    def test_builtin_with_param(self):
        assert resolve_groupspec("cyclic:5").order == 5

    def test_power(self):
        g = resolve_groupspec("symmetric:3^2")
        assert g.order == 36

    def test_no_param(self):
        assert resolve_groupspec("quaternion8").order == 8

    def test_file_path(self, tmp_path):
        path = tmp_path / "g.grp"
        path.write_text("perm 3\ngen (0 1)\ngen (0 1 2)\n")
        assert resolve_groupspec(str(path)).order == 6

    def test_garbage(self):
        with pytest.raises(ValidationError):
            resolve_groupspec("no such group")


class TestGroupFiles:
    def test_perm_file_s3(self):
        g = parse_group_text("perm 3\ngen (0 1)\ngen (0 1 2)\n")
        assert g.order == 6
        assert len(naive_permutation_closure([(1, 0, 2), (1, 2, 0)], 3)) == 6

    def test_trivial_table(self):
        g = parse_group_text("table 1\n0\n")
        assert g.order == 1

    def test_perm_no_generators(self):
        g = parse_group_text("perm 2\n")
        assert g.order == 1

    def test_comments_and_blanks(self):
        g = parse_group_text("# a comment\n\ntable 2 # inline\n0 1\n1 0\n")
        assert g.order == 2

    def test_round_trip(self, tmp_path):
        g = parse_group_text("perm 3\ngen (0 1)\ngen (0 1 2)\n")
        path = tmp_path / "dump.grp"
        path.write_text(dump_group(g))
        again = load_group(str(path))
        assert np.array_equal(again.mul_array, g.mul_array)
        assert dump_group(again) == dump_group(g)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="expected header"):
            parse_group_text("group 3\n")

    def test_parse_error_has_location(self):
        with pytest.raises(ParseError, match=":3:"):
            parse_group_text("table 2\n0 1\n1 x\n")

    def test_cycle_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_group_text("perm 2\ngen (0 3)\n")

    def test_multi_cycle_generator(self):
        g = parse_group_text("perm 5\ngen (0 1)(2 3 4)\n")
        assert g.order == 6  # lcm(2, 3)


class TestCatalogRoster:
    def test_orders_bounded(self):
        for g in catalog.catalog_groups(64):
            assert g.order <= 64

    def test_contains_key_groups(self):
        names = {g.name for g in catalog.catalog_groups(64)}
        for want in ("S3", "S4", "Q8", "D4", "Heis3", "A5"):
            assert want in names

    def test_all_valid(self):
        for g in catalog.catalog_groups(32):
            rep = commuting_probability(g)
            assert 0 < rep.c <= 1
