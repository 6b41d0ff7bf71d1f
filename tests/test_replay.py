"""Replay CLI commands against their recorded stdout, stderr and exit code.

`cli_replay.json` holds the output of every command in CASES, run in a
directory that holds FILES.  Any change to a printed byte fails here.  After
a deliberate change, record the file again and review its diff:

    PYTHONPATH=src python tests/test_replay.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from groupcolour.cli import main

RECORD = Path(__file__).with_name("cli_replay.json")

FILES = {
    "s3.perm": "perm 3\ngen (0 1)\ngen (0 1 2)\n",
    "c3.table": "# cyclic of order 3\ntable 3\n0 1 2\n1 2 0\n2 0 1\n",
    "bad.table": "table 2\n0 1\n1 x\n",
    "s3.cover": "cover 2 6\n0 2 5\n1 3 4\n",
    "bad.cover": "cover 2 6\n0 2 5\n1 3 9\n",
    "huge.cover": "cover 1 4000000000\n3999999999\n",
    "s4.cover": ("cover 3 24\n0 3 6 9 12 15 18 21\n1 4 7 10 13 16 19 22\n"
                 "2 5 8 11 14 17 20 23\n"),
    "s3.pairs": "pairs 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n1 1\n2 4\n",
    "big.pairs": "pairs 5041\n0 0\n",
}

CASES = [
    ["catalog"],
    ["catalog", "--porcelain"],
    ["info", "symmetric:3"],
    ["info", "dihedral:4^2", "--porcelain"],
    ["info", "s3.perm", "--porcelain"],
    ["info", "c3.table"],
    ["info", "bad.table"],
    ["info", "alternating:7", "--porcelain"],
    ["info", "symmetric:8"],
    ["info", "alternating:2"],
    ["info", "cyclic:6000"],
    ["info", "cyclic:2^13"],
    ["info", "cyclic:1^5041"],
    ["info", "nosuchgroup:3"],
    ["cprob", "quaternion8", "--porcelain"],
    ["quads", "symmetric:3", "--cover", "s3.cover"],
    ["quads", "symmetric:3", "--cover", "missing.cover"],
    ["schur", "symmetric:3", "--porcelain"],
    ["schur", "dihedral:5", "--budget", "50"],
    ["schur", "cyclic:5"],
    ["schur", "symmetric:3", "--kmax", "0"],
    ["cover-build", "symmetric:3"],
    ["cover-build", "heisenberg:3", "--porcelain"],
    ["cover-build", "dihedral:65", "--porcelain"],
    ["cover-build", "dihedral:8", "--nu", "1/1000000000"],
    ["cover-check", "symmetric:3", "--cover", "s3.cover"],
    ["cover-check", "symmetric:3", "--cover", "bad.cover"],
    ["cover-check", "symmetric:3", "--cover", "huge.cover"],
    ["corners", "symmetric:3", "--pairs", "s3.pairs"],
    ["corners", "symmetric:3", "--pairs", "big.pairs"],
    ["witness", "symmetric:4", "--cover", "s4.cover", "--seed", "7"],
    ["trend", "--family", "dihedral", "--range", "3..8"],
    ["trend", "--family", "symmetric", "--range", "3..5", "--porcelain"],
]


def run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process CLI run.

    argparse wraps its usage text to the terminal width, which it reads
    from COLUMNS, so the run fixes the width at 80 columns.
    """
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, {"COLUMNS": "80"}),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


def recorded() -> dict[str, dict]:
    with open(RECORD, encoding="utf-8") as f:
        return {" ".join(entry["argv"]): entry for entry in json.load(f)}


def test_record_lists_every_case():
    assert list(recorded()) == [" ".join(argv) for argv in CASES]


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a) for a in CASES])
def test_replay(tmp_path, monkeypatch, argv):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    want = recorded()[" ".join(argv)]
    assert run(argv) == {k: want[k] for k in ("exit", "stdout", "stderr")}


def record(path: Path) -> None:
    """Run every case in a temporary directory and write the outputs to path."""
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        write_files(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in CASES:
                entries.append({"argv": argv, **run(argv)})
        finally:
            os.chdir(cwd)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(entries, f, indent=1, ensure_ascii=False)
        f.write("\n")


if __name__ == "__main__":
    record(Path(sys.argv[1]) if len(sys.argv) > 1 else RECORD)
