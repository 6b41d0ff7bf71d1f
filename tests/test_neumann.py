from fractions import Fraction

import pytest

from groupcolour import catalog
from groupcolour.colouring import cover_avoids
from groupcolour.errors import ValidationError
from groupcolour.groups import all_subgroups, conjugacy, is_subgroup, iterated_product
from groupcolour.neumann import (
    NeumannParams,
    _floor_rational_power,
    build_cover,
    class_size_cap,
    default_eta,
    find_subgroup_in_product,
    growth_index,
    make_params,
    small_class_set,
    transcript_lines,
)
from groupcolour.stats import commuting_probability


def s3():
    return catalog.builtin("symmetric", [3])


class TestParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            NeumannParams(Fraction(0), Fraction(1, 4))
        with pytest.raises(ValidationError):
            NeumannParams(Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValidationError):
            NeumannParams(Fraction(1, 2), Fraction(1, 4), Fraction(1))

    def test_default_eta_clamped(self):
        for eps in (Fraction(1, 2), Fraction(5, 8), Fraction(11, 27), Fraction(99, 100)):
            eta = default_eta(eps)
            assert 0 < eta < eps
            assert eta <= eps / 2

    def test_make_params_defaults(self):
        p = make_params(Fraction(1, 2))
        assert p.nu == Fraction(1, 2)
        assert 0 < p.eta < p.epsilon


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
        assert growth_index(g, g.full_set(), Fraction(1, 2)) == 1

    def test_subgroup_stops_growing(self):
        g = s3()
        a3 = next(h for h in all_subgroups(g) if len(h) == 3)
        # |A3^s| = 3 for all s; 3 >= (1 + s/2 - 1/2)*3 only at s = 1
        assert growth_index(g, a3, Fraction(1, 2)) == 1

    def test_requires_identity(self):
        g = s3()
        with pytest.raises(ValidationError):
            growth_index(g, g.subset([1, 2]), Fraction(1, 2))

    def test_definition_holds(self):
        g = catalog.builtin("dihedral", [6])
        nu = Fraction(1, 2)
        for eta in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)):
            x = small_class_set(g, eta)
            s = growth_index(g, x, nu)
            grown = iterated_product(g, x, s)
            assert Fraction(len(grown)) >= (1 + (1 - nu) * (s - 1)) * len(x)


class TestFindSubgroup:
    def test_s3_small_set(self):
        g = s3()
        x = small_class_set(g, Fraction(1, 2))  # {e} + 3-cycles = A3
        s = growth_index(g, x, Fraction(1, 2))
        h = find_subgroup_in_product(g, x, s, Fraction(1, 2))
        assert is_subgroup(g, h)
        assert Fraction(len(h)) > Fraction(1, 2) * len(x)
        assert h.issubset(iterated_product(g, x, s + 1))

    def test_full_product_shortcut(self):
        g = catalog.builtin("heisenberg", [3])
        x = g.full_set()
        h = find_subgroup_in_product(g, x, 1, Fraction(1, 2))
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


class TestBuildCover:
    @pytest.mark.parametrize("spec", ["symmetric:3", "dihedral:4", "quaternion8", "heisenberg:3"])
    def test_pipeline_invariants(self, spec):
        g = catalog.resolve_groupspec(spec)
        art = build_cover(g)
        p = art.params
        # kappa bound
        assert art.kappa >= (p.epsilon - p.eta) / (1 - p.eta)
        # subgroup chain
        assert is_subgroup(g, art.H)
        assert is_subgroup(g, art.K)
        assert art.K.issubset(art.H)
        assert Fraction(len(art.H)) > p.nu * len(art.X)
        # index bounds
        index_h = g.order // len(art.H)
        assert Fraction(index_h) < 1 / (p.nu * art.kappa)
        # cover is valid and avoiding
        assert art.cover.covers_group()
        ok, _ = cover_avoids(g, art.cover)
        assert ok
        assert art.cover.size <= art.size_bound

    def test_epsilon_above_c_rejected(self):
        g = s3()
        with pytest.raises(ValidationError, match="exceeds"):
            build_cover(g, epsilon=Fraction(3, 4))

    def test_explicit_eta(self):
        g = s3()
        art = build_cover(g, eta=Fraction(1, 3))
        assert art.params.eta == Fraction(1, 3)
        ok, _ = cover_avoids(g, art.cover)
        assert ok

    def test_abelian_single_slice_family(self):
        # abelian groups: X = G, H = K = G, cover is one slice per element
        g = catalog.builtin("cyclic", [5])
        art = build_cover(g)
        assert len(art.K) == g.order
        assert art.cover.is_partition()

    def test_r_cap_formula(self):
        p = make_params(Fraction(1, 2), eta=Fraction(1, 4))
        # kappa = 1/2: exponent (2 + 1 - 1)/(1/2) = 4, R = 4^4
        assert class_size_cap(p, Fraction(1, 2)) == 256

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
