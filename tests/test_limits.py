"""Every size an input can state is bounded where it is read.

Each case names a size outside its bound: a builtin parameter, the order
n! or n!/2 of `symmetric` and `alternating`, a `^k` exponent, a digit
string too long for int(), the size in a group, pairs or cover file
header, the class count in a cover file header, or the order of a group
given to the Schur search.  Each must exit 1 with one located `error:`
line and no traceback, fast and in a few MiB.
"""

import time
import tracemalloc

import pytest

from groupcolour import catalog
from groupcolour.cli import main
from groupcolour.errors import SizeLimitError

LONG = "9" * 5000  # past int()'s 4300-digit limit

SPECS = [
    ("cyclic:6000", "cyclic order 6000 exceeds maximum 5040"),
    ("dihedral:2521", "dihedral order 5042 exceeds maximum 5040"),
    ("cyclic:0", "cyclic order must be >= 1"),
    ("cyclic:99999", "cyclic parameter exceeds maximum 5040"),
    ("cyclic:" + LONG, "cyclic parameter exceeds maximum 5040"),
    ("dihedral:" + LONG, "dihedral parameter exceeds maximum 5040"),
    ("heisenberg:" + LONG, "heisenberg parameter exceeds maximum 5040"),
    ("symmetric:8", "symmetric order 40320 exceeds maximum 5040"),
    ("symmetric:9999", "symmetric order 9999! exceeds maximum 5040"),
    ("symmetric:1000000000", "symmetric parameter exceeds maximum 5040"),
    ("symmetric:0", "symmetric n must be >= 1"),
    ("alternating:8", "alternating order 20160 exceeds maximum 5040"),
    ("alternating:9999", "alternating order 9999!/2 exceeds maximum 5040"),
    ("alternating:2", "alternating n must be >= 3"),
    ("cyclic:1^5041", "direct power exponent exceeds maximum 5040"),
    ("cyclic:1^" + LONG, "direct power exponent exceeds maximum 5040"),
    ("cyclic:2^13", "direct product order 8192 exceeds maximum 5040"),
    ("cyclic:2^" + LONG, "direct product order 8192 exceeds maximum 5040"),
    ("symmetric:3^5", "direct product order 7776 exceeds maximum 5040"),
    ("quaternion8^" + LONG, "direct product order 32768 exceeds maximum 5040"),
]

FILES = [
    (["info", "g.grp"], "table 5041\n", "g.grp:1:7: size 5041 exceeds maximum 5040"),
    (["info", "g.grp"], "perm 5041\ngen (0 1)\n", "g.grp:1:6: size 5041 exceeds maximum 5040"),
    (["info", "g.grp"], "# header below\ntable 0\n", "g.grp:2:7: size must be >= 1"),
    (["info", "g.grp"], f"perm {LONG}\ngen (0 1)\n", "g.grp:1:6: size exceeds maximum 5040"),
    (["info", "g.grp"], f"table {LONG}\n", "g.grp:1:7: size exceeds maximum 5040"),
    (["corners", "symmetric:3", "--pairs", "a.pairs"], "pairs 5041\n0 0\n",
     "a.pairs:1:1: pairs size 5041 outside 1..5040"),
    (["corners", "symmetric:3", "--pairs", "a.pairs"], "pairs 0\n",
     "a.pairs:1:1: pairs size 0 outside 1..5040"),
    (["corners", "symmetric:3", "--pairs", "a.pairs"], f"pairs {LONG}\n0 0\n",
     "a.pairs:1:1: pairs size outside 1..5040"),
    (["cover-check", "symmetric:3", "--cover", "c.cover"], "cover 1 4000000000\n3999999999\n",
     "c.cover:1:1: cover group order 4000000000 outside 1..5040"),
    (["quads", "symmetric:3", "--cover", "c.cover"], "cover 1 5041\n0\n",
     "c.cover:1:1: cover group order 5041 outside 1..5040"),
    (["witness", "symmetric:3", "--cover", "c.cover"], "\ncover 1 0\n",
     "c.cover:2:1: cover group order 0 outside 1..5040"),
    (["cover-check", "symmetric:3", "--cover", "c.cover"], f"cover 1 {LONG}\n0\n",
     "c.cover:1:1: cover group order outside 1..5040"),
    (["quads", "symmetric:3", "--cover", "c.cover"], f"cover {'9' * 100} 3\n",
     "c.cover:1:1: cover class count longer than 18 digits"),
    (["cover-check", "symmetric:3", "--cover", "c.cover"], f"cover {LONG} 3\n",
     "c.cover:1:1: cover class count longer than 18 digits"),
]


def run_bounded(capsys, argv):
    """Exit code, stdout, stderr, seconds and tracemalloc peak of one run."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    return code, captured.out, captured.err, seconds, peak


def check_refused(capsys, argv, message):
    code, out, err, seconds, peak = run_bounded(capsys, argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert seconds < 1.0
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("spec,message", SPECS, ids=[s[:24] for s, _ in SPECS])
def test_groupspec_refused(capsys, spec, message):
    check_refused(capsys, ["info", spec, "--porcelain"], message)


@pytest.mark.parametrize("argv,text,message", FILES,
                         ids=[f"{a[0]}-{' '.join(t.split())[:16]}" for a, t, _ in FILES])
def test_file_header_refused(capsys, tmp_path, monkeypatch, argv, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / argv[-1]).write_text(text)
    check_refused(capsys, argv, message)


def test_schur_order_refused(capsys):
    # D361 (order 722) builds in a few MiB; its search would not.
    check_refused(capsys, ["schur", "dihedral:361", "--porcelain"],
                  "Schur search limited to order 720, group has order 722")


@pytest.mark.parametrize("name", ["symmetric", "alternating"])
def test_factorial_order_is_not_computed(name):
    # n! for n = 10**9 has billions of digits; the check stops at 8!.
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match=rf"^{name} order 1000000000!(/2)? exceeds"):
        catalog.builtin(name, [10 ** 9])
    assert time.perf_counter() - start < 0.1


def test_trivial_power_up_to_the_maximum():
    g = catalog.resolve_groupspec("cyclic:1^5040")
    assert (g.order, g.name) == (1, "x".join(["C1"] * 5040))
