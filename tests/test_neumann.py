import functools
from fractions import Fraction

import pytest

from groupcolour import catalog
from groupcolour.colouring import cover_avoids
from groupcolour.errors import ValidationError
from groupcolour.groups import (all_subgroups, conjugacy, direct_product, is_subgroup,
                                iterated_product)
from groupcolour.neumann import (
    NU,
    _floor_rational_power,
    build_cover,
    class_size_cap,
    default_eta,
    find_subgroup_in_product,
    growth_index,
    small_class_set,
    transcript_lines,
)
from groupcolour.stats import commuting_probability, is_abelian


def s3():
    return catalog.builtin("symmetric", [3])


class TestParams:
    def test_default_eta_clamped(self):
        for eps in (Fraction(1, 2), Fraction(5, 8), Fraction(11, 27), Fraction(99, 100)):
            eta = default_eta(eps)
            assert 0 < eta < eps
            assert eta <= eps / 2


class TestSmallClassSet:
    def test_eta_one_gives_centre(self):
        g = catalog.builtin("dihedral", [4])
        x = small_class_set(g, Fraction(1))
        # centre of D4 is {e, r^2}
        centre = [v for v in range(8) if (g.mul_array[v] == g.mul_array[:, v]).all()]
        assert x.members() == centre

    def test_abelian_everything(self):
        g = catalog.builtin("cyclic", [6])
        assert small_class_set(g, Fraction(1, 5)).members() == list(range(6))

    def test_s3_half(self):
        g = s3()
        # class sizes 1, 2, 3: bound 2 keeps identity and the 3-cycles
        x = small_class_set(g, Fraction(1, 2))
        cj = conjugacy(g)
        expected = {v for v in range(6) if cj.class_sizes[cj.class_id[v]] <= 2}
        assert set(x.members()) == expected
        assert len(x) == 3

    def test_contains_identity(self):
        for g in catalog.catalog_groups(27):
            assert g.identity in small_class_set(g, Fraction(1, 3))


class TestGrowthIndex:
    def test_full_set(self):
        g = s3()
        # X = G: cap is (1 - nu)/(1 - nu) = 1
        assert growth_index(g, g.full_set()) == 1

    def test_subgroup_stops_growing(self):
        g = s3()
        a3 = next(h for h in all_subgroups(g) if len(h) == 3)
        # |A3^s| = 3 for all s; 3 >= (1 + s/2 - 1/2)*3 only at s = 1
        assert growth_index(g, a3) == 1

    def test_requires_identity(self):
        g = s3()
        with pytest.raises(ValidationError):
            growth_index(g, g.subset([1, 2]))

    def test_definition_holds(self):
        g = catalog.builtin("dihedral", [6])
        for eta in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)):
            x = small_class_set(g, eta)
            s = growth_index(g, x)
            grown = iterated_product(g, x, s)
            assert Fraction(len(grown)) >= (1 + (1 - NU) * (s - 1)) * len(x)


class TestFindSubgroup:
    def test_s3_small_set(self):
        g = s3()
        x = small_class_set(g, Fraction(1, 2))  # {e} + 3-cycles = A3
        s = growth_index(g, x)
        h = find_subgroup_in_product(g, x, s)
        assert is_subgroup(g, h)
        assert Fraction(len(h)) > Fraction(1, 2) * len(x)
        assert h.issubset(iterated_product(g, x, s + 1))

    def test_full_product_shortcut(self):
        g = catalog.builtin("heisenberg", [3])
        x = g.full_set()
        h = find_subgroup_in_product(g, x, 1)
        assert h.bits == g.full_set().bits


class TestFloorRationalPower:
    def test_integers(self):
        assert _floor_rational_power(Fraction(2), Fraction(10)) == 1024
        assert _floor_rational_power(Fraction(1), Fraction(7, 3)) == 1

    def test_roots(self):
        assert _floor_rational_power(Fraction(2), Fraction(1, 2)) == 1
        assert _floor_rational_power(Fraction(9), Fraction(1, 2)) == 3
        assert _floor_rational_power(Fraction(10), Fraction(3, 2)) == 31

    def test_against_float(self):
        for base_n in (2, 3, 7, 10):
            for p, q in ((1, 1), (3, 2), (5, 3), (7, 4)):
                got = _floor_rational_power(Fraction(base_n), Fraction(p, q))
                approx = float(base_n) ** (p / q)
                assert abs(got - int(approx)) <= 1
                assert Fraction(got) ** q <= Fraction(base_n) ** p
                assert Fraction(got + 1) ** q > Fraction(base_n) ** p


# The 40 non-Abelian groups of catalog_groups(64), each named by the
# groupspecs of its direct factors, joined by " x ".
NONABELIAN_SPECS = [f"dihedral:{n}" for n in range(3, 33)] + [
    "symmetric:3", "symmetric:4", "alternating:4", "alternating:5", "quaternion8",
    "heisenberg:3", "quaternion8 x cyclic:2", "dihedral:4 x cyclic:2",
    "symmetric:3 x symmetric:3", "symmetric:3 x cyclic:2",
]


def resolve(spec):
    return functools.reduce(direct_product, map(catalog.resolve_groupspec, spec.split(" x ")))


class TestBuildCover:
    def test_specs_are_the_nonabelian_catalog_groups(self):
        names = [g.name for g in catalog.catalog_groups(64) if not is_abelian(g)]
        assert [resolve(spec).name for spec in NONABELIAN_SPECS] == names

    @pytest.mark.parametrize("spec", NONABELIAN_SPECS)
    def test_pipeline_invariants(self, spec):
        g = resolve(spec)
        art = build_cover(g)
        # kappa bound
        assert art.kappa >= (art.epsilon - art.eta) / (1 - art.eta)
        # subgroup chain
        assert is_subgroup(g, art.H)
        assert is_subgroup(g, art.K)
        assert art.K.issubset(art.H)
        assert Fraction(len(art.H)) > NU * len(art.X)
        # index bounds
        index_h = g.order // len(art.H)
        assert Fraction(index_h) < 1 / (NU * art.kappa)
        # cover is valid and avoiding
        assert art.cover.covers_group()
        ok, _ = cover_avoids(g, art.cover)
        assert ok
        assert art.cover.size <= art.size_bound

    def test_abelian_single_slice_family(self):
        # abelian groups: X = G, H = K = G, cover is one slice per element
        g = catalog.builtin("cyclic", [5])
        art = build_cover(g)
        assert len(art.K) == g.order
        assert art.cover.is_partition()

    def test_r_cap_formula(self):
        # eta = 1/4, kappa = 1/2: exponent (2 + 1 - 1)/(1/2) = 4, R = 4^4
        assert class_size_cap(Fraction(1, 4), Fraction(1, 2)) == 256

    def test_transcript_keys(self):
        art = build_cover(s3())
        lines = transcript_lines(art)
        keys = [ln.split("=")[0] for ln in lines]
        assert keys == ["kappa", "s", "H_size", "K_size", "R", "cover_size", "size_bound"]


def test_known_cover_sizes_monotone_with_c():
    rows = []
    for n in (3, 4, 5, 6, 8):
        g = catalog.builtin("dihedral", [n])
        art = build_cover(g)
        rows.append((commuting_probability(g).c, art.size_bound))
    for c1, b1 in rows:
        for c2, b2 in rows:
            if c1 > c2:
                assert b1 <= b2
