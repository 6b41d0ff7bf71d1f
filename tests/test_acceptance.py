"""End-to-end acceptance checks.

Each test covers one numbered criterion and reports a single PASS line on
the real stdout (capture temporarily disabled) so the suite log doubles as
an acceptance transcript.  Criteria are exact unless a runtime budget or
failure-rate tolerance is stated inline.
"""

import math
import time
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

from groupcolour import catalog
from groupcolour.cli import main as cli_main
from groupcolour.colouring import (
    Cover,
    count_quadruples,
    cover_avoids,
    dump_cover,
    random_cover,
    schur_number,
)
from groupcolour.corners import (
    build_tripartite,
    corner_counts_by_z,
    random_pairs,
    shifted_pair_set,
    triangle_count,
    witness_finder,
)
from groupcolour.groups import (
    ElementSet,
    all_subgroups,
    conjugacy,
    is_subgroup,
    iterated_product,
)
from groupcolour.neumann import NU, build_cover, growth_index
from groupcolour.stats import commuting_probability

from helpers import (
    naive_avoiding_partitions,
    naive_commuting_pairs,
    naive_corner_count,
    naive_quadruples,
)

import random


def _report(capfd, number: int, label: str) -> None:
    with capfd.disabled():
        print(f"ACCEPTANCE {number} {label}: PASS", flush=True)


def test_acceptance_1_exact_statistics(capfd):
    start = time.perf_counter()
    expected = {
        "symmetric:3": Fraction(1, 2),
        "quaternion8": Fraction(5, 8),
        "dihedral:4": Fraction(5, 8),
        "heisenberg:3": Fraction(11, 27),
    }
    for spec, want in expected.items():
        t0 = time.perf_counter()
        g = catalog.resolve_groupspec(spec)
        n = g.order
        by_pairs = Fraction(naive_commuting_pairs(g), n * n)
        by_classes = Fraction(conjugacy(g).num_classes, n)
        assert by_pairs == by_classes == want
        assert time.perf_counter() - t0 < 1.0
    for g in catalog.catalog_groups(64):
        c = commuting_probability(g).c
        if c < 1:
            assert c <= Fraction(5, 8)
    assert time.perf_counter() - start < 60.0
    _report(capfd, 1, "exact statistics")


def test_acceptance_2_quadruple_oracle_equivalence(capfd):
    start = time.perf_counter()
    for g in catalog.catalog_groups(27):
        rng = random.Random(hash(g.name) & 0xFFFF)
        for _ in range(100):
            a = ElementSet(g.order, rng.getrandbits(g.order))
            tuples = naive_quadruples(g, a)
            total, noncomm = count_quadruples(g, a)
            assert total == len(tuples)
            assert noncomm == sum(1 for (_, _, p, q) in tuples if p != q)
    assert time.perf_counter() - start < 30.0
    _report(capfd, 2, "quadruple oracle equivalence")


def test_acceptance_3_schur_numbers(capfd):
    start = time.perf_counter()
    s3 = catalog.builtin("symmetric", [3])
    res = schur_number(s3)
    assert res.complete and res.k_value == 1
    ok, _ = cover_avoids(s3, res.avoiding_colouring)
    assert ok
    # the canonical avoiding 2-colouring into A_3 and its complement is
    # itself verified avoiding (several avoiding 2-partitions exist; the
    # search may emit a different one)
    a3 = next(h for h in all_subgroups(s3) if len(h) == 3)
    ok, _ = cover_avoids(s3, Cover.of(6, [a3, a3.complement()]))
    assert ok

    for spec in ("quaternion8", "dihedral:4"):
        g = catalog.resolve_groupspec(spec)
        res = schur_number(g)
        assert res.complete
        ok, _ = cover_avoids(g, res.avoiding_colouring)
        assert ok
        # certification by complete unpruned enumeration at k and k+1
        assert naive_avoiding_partitions(g, res.k_value) == []
        assert naive_avoiding_partitions(g, res.k_value + 1)
    assert time.perf_counter() - start < 300.0
    _report(capfd, 3, "Schur numbers exhaustive and certified")


def test_acceptance_4_cover_pipeline_invariants(capfd):
    start = time.perf_counter()
    for spec in ("symmetric:3", "dihedral:4", "quaternion8", "heisenberg:3"):
        g = catalog.resolve_groupspec(spec)
        art = build_cover(g)
        assert art.epsilon == commuting_probability(g).c
        conj = conjugacy(g)

        # 1. kappa bound
        assert art.kappa == Fraction(len(art.X), g.order)
        assert art.kappa >= (art.epsilon - art.eta) / (1 - art.eta)
        # 2. growth maximality at the returned stage
        assert art.s == growth_index(g, art.X)
        grown = iterated_product(g, art.X, art.s)
        assert Fraction(len(grown)) >= (1 + (1 - NU) * (art.s - 1)) * len(art.X)
        # 3. H containment and size
        assert is_subgroup(g, art.H)
        assert art.H.issubset(iterated_product(g, art.X, art.s + 1))
        assert Fraction(len(art.H)) > NU * len(art.X)
        # 4. K normal and inside H
        assert is_subgroup(g, art.K)
        assert art.K.issubset(art.H)
        for t in range(g.order):
            for v in art.K:
                assert g.conjugate(t, v) in art.K
        # 5. class sizes inside K capped by R
        for v in art.K:
            assert conj.class_sizes[conj.class_id[v]] <= art.R
        # 6. factorial size bound
        bound = math.factorial(int(1 / (NU * art.kappa))) - 1 + art.R
        assert art.size_bound == bound
        assert art.cover.size <= bound

        ok, _ = cover_avoids(g, art.cover)
        assert ok
    assert time.perf_counter() - start < 60.0
    _report(capfd, 4, "cover pipeline invariants")


def test_acceptance_5_corners_bijection(capfd):
    start = time.perf_counter()
    small = ("cyclic:6", "symmetric:3", "dihedral:4", "cyclic:3^2")
    for spec in small:
        g = catalog.resolve_groupspec(spec)
        for seed in range(50):
            a = random_pairs(g.order, seed=seed, density=0.35)
            count = sum(corner_counts_by_z(g, a))
            t = build_tripartite(g, a)
            assert triangle_count(t) == count
            assert t.edge_counts() == (a.size, a.size, a.size)
    s4 = catalog.builtin("symmetric", [4])
    for seed in range(8):
        a = random_pairs(24, seed=seed, density=0.2)
        t = build_tripartite(s4, a)
        count = sum(corner_counts_by_z(s4, a))
        assert triangle_count(t) == count
        assert naive_corner_count(s4, a) == count
    for spec in small:
        g = catalog.resolve_groupspec(spec)
        a = random_pairs(g.order, seed=99, density=0.5)
        assert naive_corner_count(g, a) == sum(corner_counts_by_z(g, a))
    assert time.perf_counter() - start < 120.0
    _report(capfd, 5, "corners triangle bijection")


def test_acceptance_6_shift_average_identity(capfd):
    start = time.perf_counter()
    for spec in ("symmetric:3", "dihedral:4"):
        g = catalog.resolve_groupspec(spec)
        n = g.order
        rng = random.Random(21)
        for _ in range(20):
            a_bits = rng.getrandbits(n)
            alpha = Fraction(bin(a_bits).count("1"), n)
            sizes = [shifted_pair_set(g, a_bits, s).size for s in range(n)]
            assert Fraction(sum(sizes), n) == alpha * n * n
    assert time.perf_counter() - start < 30.0
    _report(capfd, 6, "shift-average identity")


def test_acceptance_7_witness_soundness(capfd):
    start = time.perf_counter()
    runs = 0
    failures = 0
    for spec in ("heisenberg:3", "symmetric:4"):
        g = catalog.resolve_groupspec(spec)
        for seed in range(25):
            k = 2 + seed % 2
            cover = random_cover(g, k, seed=seed, overlap=0.1)
            t = witness_finder(g, cover, seed=seed)
            runs += 1
            if not t.success:
                failures += 1
                continue
            chosen = cover.classes[t.class_order[t.chosen_class - 1]]
            total, _ = count_quadruples(g, chosen)
            assert total == t.verified_quads
            assert total >= t.quad_lower_bound
    assert failures < 0.4 * runs, f"{failures}/{runs} witness runs failed"
    assert time.perf_counter() - start < 600.0
    _report(capfd, 7, "witness-finder soundness")


def test_acceptance_8_trend_monotone_consistent(capfd):
    from groupcolour.cli import trend_rows

    families = [trend_rows("dihedral", 3, 12), trend_rows("heisenberg", 3, 7)]
    for rows in families:
        stats = [(r["c"], r["size_bound"], r["k"] if r["k_complete"] else None) for r in rows]
        assert all(sb is not None for _, sb, _ in stats)
        for c1, b1, k1 in stats:
            for c2, b2, k2 in stats:
                if c1 > c2:
                    # within a family, smaller commuting probability never
                    # shrinks the bound
                    assert b1 <= b2
                    if k1 is not None and k2 is not None:
                        assert k1 <= k2
    # evidence is reported, not asserted as a theorem
    for r in families[0] + families[1]:
        print(
            f"trend n={r['param']} order={r['order']} c={r['c']} "
            f"size_bound={r['size_bound']} k={r['k'] if r['k_complete'] else '-'}"
        )
    _report(capfd, 8, "trend table monotone-consistent")


def _capture(argv: list[str]) -> str:
    buf = StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    assert code == 0, f"{argv} exited {code}"
    return buf.getvalue()


def test_acceptance_9_cli_determinism(tmp_path, capfd):
    g = catalog.builtin("symmetric", [4])
    cover_path = tmp_path / "s4.cover"
    cover_path.write_text(dump_cover(random_cover(g, 3, seed=5, overlap=0.2)))
    commands = [
        ["info", "heisenberg:3", "--porcelain"],
        ["cprob", "quaternion8", "--porcelain"],
        ["schur", "dihedral:4", "--porcelain"],
        ["cover-build", "heisenberg:3", "--porcelain"],
        ["witness", "symmetric:4", "--cover", str(cover_path), "--porcelain", "--seed", "7"],
        ["trend", "--family", "dihedral", "--range", "3..8", "--porcelain"],
    ]
    for argv in commands:
        base = _capture(argv)
        assert _capture(argv) == base
    _report(capfd, 9, "CLI determinism")
