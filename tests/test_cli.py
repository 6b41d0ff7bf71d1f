import time

import pytest

from groupcolour import catalog, corners
from groupcolour.cli import main, trend_rows
from groupcolour.colouring import dump_cover, random_cover
from groupcolour.corners import dump_pairs, random_pairs
from groupcolour.errors import GroupColourError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def s3_cover_file(tmp_path):
    path = tmp_path / "s3.cover"
    path.write_text("cover 2 6\n0 2 5\n1 3 4\n")
    return str(path)


class TestInfo:
    def test_s3(self, capsys):
        code, out, _ = run(capsys, "info", "symmetric:3", "--porcelain")
        assert code == 0
        assert out == "order=6 abelian=false classes=3 c=1/2 c_decimal=0.500000\n"

    def test_human_mode_header(self, capsys):
        code, out, _ = run(capsys, "info", "symmetric:3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "order=6 abelian=false classes=3 c=1/2 c_decimal=0.500000"

    def test_abelian(self, capsys):
        code, out, _ = run(capsys, "info", "cyclic:5", "--porcelain")
        assert code == 0
        assert "abelian=true" in out and "c=1/1" in out


class TestCprob:
    def test_q8(self, capsys):
        code, out, _ = run(capsys, "cprob", "quaternion8", "--porcelain")
        assert code == 0
        assert "pairs_total=64 pairs_commuting=40" in out
        assert "c=5/8" in out


class TestQuads:
    def test_per_class(self, capsys, s3_cover_file):
        code, out, _ = run(capsys, "quads", "symmetric:3", "--cover", s3_cover_file, "--porcelain")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "classes=2"
        assert lines[1] == "class=0 size=3 total=9 noncommuting=0"
        assert lines[2] == "class=1 size=3 total=0 noncommuting=0"

    @pytest.mark.parametrize("spec,text,orders", [
        ("symmetric:4", "cover 1 3\n0 1 2\n", (3, 24)),
        ("symmetric:3", "cover 2 24\n" + " ".join(map(str, range(12))) + "\n"
         + " ".join(map(str, range(12, 24))) + "\n", (24, 6)),
        ("symmetric:3", "cover 1 24\n0 1 2\n", (24, 6)),  # indices all below |S3|
    ], ids=["smaller", "larger", "larger-low-indices"])
    def test_cover_of_another_order_refused(self, capsys, tmp_path, spec, text, orders):
        path = tmp_path / "c.cover"
        path.write_text(text)
        code, out, err = run(capsys, "quads", spec, "--cover", str(path), "--porcelain")
        assert (code, out) == (1, "")
        assert err == f"error: cover class has group order {orders[0]}, group has order {orders[1]}\n"


class TestSchur:
    def test_s3(self, capsys):
        code, out, _ = run(capsys, "schur", "symmetric:3", "--porcelain")
        assert code == 0
        lines = out.splitlines()
        assert "k=1" in lines
        assert "complete=true" in lines
        # emitted colouring has exactly two classes covering all six elements
        members = [ln for ln in lines if ln.startswith("class=")]
        assert len(members) == 2
        seen = sorted(v for ln in members for v in map(int, ln.split("members=")[1].split()))
        assert seen == list(range(6))

    def test_abelian_rejected(self, capsys):
        code, out, err = run(capsys, "schur", "cyclic:4", "--porcelain")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestCoverBuild:
    def test_stdout_cover(self, capsys):
        code, out, _ = run(capsys, "cover-build", "symmetric:3", "--porcelain")
        assert code == 0
        assert "cover_size=" in out
        assert "\ncover " in out  # cover file follows the transcript

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "built.cover"
        code, out, _ = run(capsys, "cover-build", "quaternion8", "--porcelain",
                           "--out", str(target))
        assert code == 0
        assert f"cover_file={target}" in out
        assert target.read_text().startswith("cover ")
        # the emitted file passes its own avoidance check
        code2, out2, _ = run(capsys, "cover-check", "quaternion8",
                             "--cover", str(target), "--porcelain")
        assert code2 == 0
        assert out2 == "avoids=true\n"


class TestCoverCheck:
    def test_avoiding(self, capsys, s3_cover_file):
        code, out, _ = run(capsys, "cover-check", "symmetric:3",
                           "--cover", s3_cover_file, "--porcelain")
        assert code == 0
        assert out == "avoids=true\n"

    def test_violating(self, capsys, tmp_path):
        path = tmp_path / "bad.cover"
        path.write_text("cover 1 6\n0 1 2 3 4 5\n")
        code, out, _ = run(capsys, "cover-check", "symmetric:3",
                           "--cover", str(path), "--porcelain")
        assert code == 0
        assert out.startswith("avoids=false witness_class=0")

    def test_cover_of_another_order_refused(self, capsys, tmp_path):
        path = tmp_path / "c.cover"
        for text, err_line in (("cover 1 24\n0 1 2\n", "cover class has group order 24, "
                                "group has order 6"),
                               ("cover 1 6\n0 1 2\n", "classes do not cover G")):
            path.write_text(text)
            code, out, err = run(capsys, "cover-check", "symmetric:3",
                                 "--cover", str(path), "--porcelain")
            assert (code, out, err) == (1, "", f"error: {err_line}\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "cover-check", "symmetric:3",
                           "--cover", "/nonexistent.cover", "--porcelain")
        assert code == 1
        assert err.startswith("error:")


class TestCorners:
    def test_empty(self, capsys, tmp_path):
        path = tmp_path / "e.pairs"
        path.write_text("pairs 6\n")
        code, out, _ = run(capsys, "corners", "symmetric:3", "--pairs", str(path), "--porcelain")
        assert code == 0
        assert out == "S=0/216 S_decimal=0.000000 triangles=0 bijection=ok\n"

    def test_full(self, capsys, tmp_path):
        path = tmp_path / "f.pairs"
        path.write_text(dump_pairs(random_pairs(6, seed=0, density=1.1)))
        code, out, _ = run(capsys, "corners", "symmetric:3", "--pairs", str(path), "--porcelain")
        assert code == 0
        assert out.startswith("S=216/216 ")
        assert "bijection=ok" in out

    def test_size_mismatch(self, capsys, tmp_path):
        path = tmp_path / "m.pairs"
        path.write_text("pairs 4\n0 0\n")
        code, _, err = run(capsys, "corners", "symmetric:3", "--pairs", str(path), "--porcelain")
        assert code == 1
        assert "order" in err

    @pytest.mark.parametrize("size", ["5041", "-1"])
    def test_header_size_bounded(self, capsys, tmp_path, size):
        path = tmp_path / "big.pairs"
        path.write_text(f"pairs {size}\n")
        code, out, err = run(capsys, "corners", "symmetric:3", "--pairs", str(path), "--porcelain")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and f"{path}:1:1:" in err

    def test_triangle_mismatch_fails(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "f.pairs"
        path.write_text(dump_pairs(random_pairs(6, seed=0, density=0.5)))
        real = corners.triangle_count
        monkeypatch.setattr(corners, "triangle_count", lambda t: real(t) + 1)
        code, out, err = run(capsys, "corners", "symmetric:3", "--pairs", str(path), "--porcelain")
        assert code == 1
        assert out == ""
        assert err.startswith("error: corner count mismatch: kernel=")


class TestWitness:
    def test_transcript(self, capsys, tmp_path):
        g = catalog.builtin("heisenberg", [3])
        path = tmp_path / "h.cover"
        path.write_text(dump_cover(random_cover(g, 2, seed=1, overlap=0.1)))
        code, out, _ = run(capsys, "witness", "heisenberg:3",
                           "--cover", str(path), "--porcelain", "--seed", "3")
        assert code == 0
        assert out.startswith("densities=")
        assert "success=" in out

    def test_cover_of_another_order_refused(self, capsys, tmp_path):
        path = tmp_path / "c.cover"
        for text, err_line in (("cover 1 3\n0 1 2\n", "cover class has group order 3, "
                                "group has order 6"),
                               ("cover 1 6\n0 1 2\n", "classes do not cover G")):
            path.write_text(text)
            code, out, err = run(capsys, "witness", "symmetric:3",
                                 "--cover", str(path), "--porcelain")
            assert (code, out, err) == (1, "", f"error: {err_line}\n")


class TestTrend:
    def test_dihedral_rows(self, capsys):
        code, out, _ = run(capsys, "trend", "--family", "dihedral",
                           "--range", "3..5", "--porcelain")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("n=3 order=6 c=1/2")
        for ln in lines:
            assert "size_bound=" in ln and "k=" in ln

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "trend", "--family", "dihedral",
                           "--range", "3-5", "--porcelain")
        assert code == 1
        assert "range" in err

    def test_rows_helper_skips_non_primes(self):
        rows = trend_rows("heisenberg", 3, 7)
        assert [r["param"] for r in rows] == [3, 5, 7]

    def test_rows_helper_unknown_family(self):
        with pytest.raises(GroupColourError):
            trend_rows("simple", 1, 2)

    @pytest.mark.parametrize("family,lo", [("cyclic", 5041), ("heisenberg", 8)])
    def test_range_past_the_maximum_order(self, family, lo):
        # No parameter above 5040 builds, so the walk stops there.
        start = time.perf_counter()
        assert trend_rows(family, lo, 10 ** 9) == []
        assert time.perf_counter() - start < 0.05


class TestCatalogVerb:
    def test_lists_names(self, capsys):
        code, out, _ = run(capsys, "catalog", "--porcelain")
        assert code == 0
        assert "quaternion8" in out


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["schur"])  # missing groupspec
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_verb_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_domain_error_is_one(self, capsys):
        code, _, err = run(capsys, "info", "nosuchgroup:3", "--porcelain")
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("spec", ["cyclic:100000", "dihedral:50000"])
    def test_oversized_builtin_is_one(self, capsys, spec):
        code, out, err = run(capsys, "info", spec, "--porcelain")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "exceeds maximum" in err

    @pytest.mark.parametrize("text", ["perm 200000\ngen (0 1)\n", "perm 5041\ngen (0 1)\n",
                                      "table 5041\n0\n"])
    def test_oversized_group_file_is_one(self, capsys, tmp_path, text):
        # Rejected at the header, before a permutation or table is read.
        path = tmp_path / "big.grp"
        path.write_text(text)
        code, out, err = run(capsys, "info", str(path), "--porcelain")
        assert code == 1
        assert out == ""
        col = len(text.split()[0]) + 2
        assert err.startswith(f"error: {path}:1:{col}:") and "exceeds maximum 5040" in err


class TestSearchOptionBounds:
    @pytest.mark.parametrize("argv", [
        ["schur", "symmetric:3", "--kmax", "0"],
        ["schur", "symmetric:3", "--kmax", "-1"],
        ["schur", "symmetric:3", "--budget", "0"],
        ["schur", "symmetric:3", "--budget", "-5"],
        ["schur", "symmetric:3", "--budget", "many"],
        ["witness", "symmetric:3", "--cover", "unused.cover", "--trials", "0"],
        ["witness", "symmetric:3", "--cover", "unused.cover", "--trials", "-3"],
    ])
    def test_below_one_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--porcelain"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --" in captured.err

    def test_one_is_accepted(self, capsys, s3_cover_file):
        code, out, _ = run(capsys, "schur", "symmetric:3", "--kmax", "1",
                           "--budget", "1", "--porcelain")
        assert code == 0
        assert out.splitlines()[:4] == ["k=1", "complete=false", "nodes=2", "prunes=0"]
        code, out, _ = run(capsys, "witness", "symmetric:3", "--cover", s3_cover_file,
                           "--trials", "1", "--porcelain")
        assert code == 0
        assert "success=" in out


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys, tmp_path):
        g = catalog.builtin("symmetric", [4])
        path = tmp_path / "s4.cover"
        path.write_text(dump_cover(random_cover(g, 3, seed=5, overlap=0.2)))
        argv = ["witness", "symmetric:4", "--cover", str(path), "--porcelain"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
