"""The line-oriented parsers: the block integer reader against the per-line
oracles at any block size, fuzzing, dump/parse round trips and parse peaks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupcolour import catalog, errors
from groupcolour.catalog import dump_group, parse_group_text
from groupcolour.colouring import Cover, dump_cover, parse_cover_text, random_cover
from groupcolour.corners import dump_pairs, parse_pairs_text, random_pairs
from groupcolour.errors import (GroupColourError, IntLines, content_lines, read_header,
                                read_ints)

from helpers import (naive_dump_group, naive_parse_cover_text, naive_parse_group_text,
                     naive_parse_pairs_text, naive_split_lines)

GROUPS = catalog.catalog_groups(64)
SMALL = [g for g in GROUPS if g.order <= 6]

# What str.split() and str.splitlines() treat as a separator or a line end,
# ASCII and not.
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\x1f", "\xa0", "\u3000"])
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
# Fields int() reads, fields it rejects, and fields out of any range here.
ODD_FIELDS = st.sampled_from([
    "x", "1.0", "+", "-", "1__0", "_1", "1_", "--1", "+-1", "1-2", "1x", "٣x", "0x1", "١_", "½", "\x00",
    "-1", "99", "9" * 25, "-" + "9" * 19, "0" * 25 + "1", "1" + "_0" * 10,
])


def spelled(v: int):
    """Ways int() can read the value v."""
    sign, s = ("-", str(-v)) if v < 0 else ("", str(v))
    arabic = "".join(chr(ord("\u0660") + int(c)) for c in s)
    return st.sampled_from([sign + s, (sign or "+") + s, sign + "0" + s, sign + "00" * 10 + s,
                            sign + "_".join(s), sign + arabic])


@st.composite
def line_of(draw, fields):
    sep = draw(SEPARATORS)
    text = draw(st.sampled_from(["", " ", "\t"])) + sep.join(fields)
    if draw(st.integers(0, 3)) == 3:
        text += draw(st.sampled_from(["#", " # note", "#1 2"]))
    return text


@st.composite
def file_of(draw, header, rows):
    """A header line and body lines, with comments and blank lines between
    them and a choice of line ends."""
    lines = []
    for line in [header, *rows]:
        while draw(st.integers(0, 4)) == 4:
            lines.append(draw(st.sampled_from(["", "  ", "# comment", "\t# 1 2"])))
        lines.append(line)
    ends = [draw(LINE_ENDS) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def field(draw, v: int) -> str:
    return draw(ODD_FIELDS) if draw(st.integers(0, 12)) == 12 else draw(spelled(v))


@st.composite
def pairs_texts(draw):
    n = draw(st.integers(1, 5))
    header = draw(st.sampled_from([f"pairs {n}"] * 6 + [
        "pairs", "pair 3", f"pairs {n} {n}", "pairs x", "pairs 0", "pairs -1", "pairs 5041",
        f"pairs\xa0{n}", "pairs ٣"]))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        arity = draw(st.sampled_from([2] * 8 + [1, 3]))
        rows.append(draw(line_of([field(draw, draw(st.integers(0, n - 1) | st.integers(-1, n)))
                                  for _ in range(arity)])))
    return draw(file_of(f"{header}", rows))


@st.composite
def table_texts(draw):
    g = draw(st.sampled_from(SMALL))
    n = g.order
    header = draw(st.sampled_from([f"table {n}"] * 6 + [
        "table", f"table {n + 1}", "table 0", "table x", "tables 2", f"table ٠{n}"]))
    rows = g.mul_array.tolist()
    if draw(st.integers(0, 2)) == 2:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(0, n))
    lines = []
    for row in rows:
        fields = [field(draw, v) for v in row]
        if draw(st.integers(0, 15)) == 15:
            fields = fields[:-1] if draw(st.booleans()) else fields + ["0"]
        lines.append(draw(line_of(fields)))
    if draw(st.integers(0, 10)) == 10:
        del lines[draw(st.integers(0, n - 1))]
    return draw(file_of(header, lines))


@st.composite
def cover_texts(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, 4))
    header = draw(st.sampled_from([f"cover {k} {n}"] * 6 + [
        f"cover {k + 1} {n}", f"cover {k} 0", f"cover {k} 5041", f"cover x {n}", f"cover {k}",
        "cover " + "9" * 19 + f" {n}", f"covers {k} {n}"]))
    rows = []
    for _ in range(k):
        size = draw(st.integers(1, 4))
        rows.append(draw(line_of([field(draw, draw(st.integers(0, n - 1) | st.integers(-1, n)))
                                  for _ in range(size)])))
    return draw(file_of(header, rows))


def outcome(parse, text):
    try:
        result = parse(text)
    except GroupColourError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, Cover):
        return "cover", result
    if hasattr(result, "matrix"):
        return "pairs", result.matrix.tobytes(), result.n
    return "group", result.mul_array.tolist(), result.inv, result.identity, result.name


@settings(max_examples=150, deadline=None)
@given(pairs_texts())
@example("pairs 3\r\n0 1\r\n\r\n2 2 # c\r\n")
@example("pairs 4\n1 2\n0 9\n0 x\n")                      # out of range on the earlier line wins
@example("pairs 4\n1 2 3\n0 x\n")
@example("pairs 4\n0 " + "9" * 30 + "\n")
def test_pairs_reader_matches_line_parser(text):
    assert outcome(parse_pairs_text, text) == outcome(naive_parse_pairs_text, text)


@settings(max_examples=150, deadline=None)
@given(table_texts())
@example("table 2\n0 1\n1 x\n")
@example("table 2\n0 1 1\n1 x\n")
@example("table 2\n0 " + "9" * 30 + "\n1 0\n")
@example("perm 3\r\ngen (0 1)\r\n# c\r\ngen (0 1 2)\r\n")
def test_table_reader_matches_line_parser(text):
    assert outcome(parse_group_text, text) == outcome(naive_parse_group_text, text)


@settings(max_examples=200, deadline=None)
@given(st.text())
@example("\r\n# a\r\nh 1 # b\r\n\r\nx\x0by\x85z ")
def test_split_lines_matches_line_loop(text):
    # read_header and content_lines, the line split of every reader.
    try:
        expected = naive_split_lines(text, "t", "f")
    except GroupColourError as exc:
        with pytest.raises(type(exc)) as info:
            read_header(text, "t", "f")
        assert str(info.value) == str(exc)
        return
    no, fields, rest = read_header(text, "t", "f")
    assert (no, fields, content_lines(text, rest, no + 1)) == expected


PARSERS_AND_ORACLES = [(parse_pairs_text, naive_parse_pairs_text),
                       (parse_group_text, naive_parse_group_text),
                       (parse_cover_text, naive_parse_cover_text)]
PLAIN_PAIRS = "pairs 9\n" + "".join(f"{x} {y}\n" for x in range(9) for y in range(0, 9, 4))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 64), st.one_of(pairs_texts(), table_texts(), cover_texts()))
@example(5, "pairs 3\r\n0 1\r\n2 2\r\n")                  # a CRLF at each block end
@example(4, "pairs 3\n0 1\r\n2 2\r\n1 1\n")
@example(3, "table 2\n# c\n\n  # d\n0 1\n#\n1 0\n# e")    # comment-only lines
@example(2, "cover 2 3\n#\n0 1\n# x y\n2\n")
@example(16, PLAIN_PAIRS + "+5 1\n0 0\n9 1\n")            # a fallback after plain blocks
@example(16, PLAIN_PAIRS + "0 1\r2 2\n3 9\n")
@example(16, PLAIN_PAIRS.replace("\n", "\r\n") + "\r" + "1 2\x0b3 x\n")
@example(8, "cover 3 9\n0 1 2\n3 4 5\n6 +7 8\n9 0\n")
@example(8, "table 2\n0 " + "9" * 30 + "\n1 0\n")         # an entry past int64
@example(1, "table 2\n0 5\n1 x\n")                        # a line error beats a range error
@example(1, "table 2\n0 x\n1 0\n0 1\n")                   # the row count beats a line error
@example(1, "cover 1 3\n0 x\n1 2\n")                      # the class count beats an entry error
@example(1, "cover 2 3\n0 1\n3 x\n")
@example(1, "cover 1 3\n0 1 5 9 -1\n")
@example(64, "pairs 3\n")                                 # an empty body
@example(1, "table 1\n")
@example(1, "cover 0 2\n")
def test_blocks_match_line_parsers(block, text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(errors, "_BLOCK_CHARS", block)
        for parse, naive in PARSERS_AND_ORACLES:
            assert outcome(parse, text) == outcome(naive, text), parse.__name__


def joined(blocks) -> IntLines:
    """The blocks of `read_ints` as one IntLines."""
    parts = [next(read_ints(" ", 0, 1)), *blocks]
    counts = np.concatenate([p.counts for p in parts])
    return IntLines(lines=np.concatenate([p.lines for p in parts]),
                    firsts=np.cumsum(counts) - counts, counts=counts,
                    ok=np.concatenate([p.ok for p in parts]),
                    values=np.concatenate([p.values for p in parts]))


def same_int_lines(a, b) -> bool:
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               and getattr(a, f.name).dtype == getattr(b, f.name).dtype
               for f in dataclasses.fields(a))


@st.composite
def plain_bodies(draw):
    """A plain body, and a copy with one field or separator respelled so
    that it is read line by line."""
    values = st.integers(0, 10 ** 18 - 1) | st.integers(0, 99)
    lines = draw(st.lists(st.lists(values.map(str), max_size=4), max_size=6))
    seps = [[draw(st.sampled_from([" ", "\t", "  "])) for _ in line] for line in lines]
    ends = [draw(st.sampled_from(["\n", "\r\n", " # c\n"])) for _ in lines]

    def text():
        return "".join("".join(sep + f for sep, f in zip(line_seps, line)) + end
                       for line, line_seps, end in zip(lines, seps, ends))
    plain = text()
    fields = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
    if not fields:
        return plain, "\u3000" + plain
    i, j = draw(st.sampled_from(fields))
    f = lines[i][j]
    how = draw(st.sampled_from(["+", "\xa0"] + ["_"] * (len(f) > 1)))
    if how == "+":
        lines[i][j] = "+" + f
    elif how == "_":
        lines[i][j] = f[0] + "_" + f[1:]
    else:
        seps[i][j] = "\xa0"
    return plain, text()


@settings(max_examples=150, deadline=None)
@given(plain_bodies())
@example(("", "\u3000"))
@example(("\n", "\xa0\n"))
@example(("1 " + "9" * 18 + "\n", "+1 " + "9" * 18 + "\n"))
@example(("1 " + "9" * 19 + "\n", "+1 " + "9" * 19 + "\n"))
def test_plain_body_reads_as_line_loop(bodies):
    plain, respelled = bodies
    by_line = joined(read_ints(respelled, 0, 1))
    with pytest.MonkeyPatch.context() as mp:
        if max(map(len, plain.split()), default=0) <= 18:
            mp.setattr(errors, "content_lines", no_line_loop)
        assert same_int_lines(joined(read_ints(plain, 0, 1)), by_line)


def no_line_loop(*args):
    raise AssertionError("read line by line")


def test_written_files_are_plain(monkeypatch):
    # Every file the package writes is read by the array path.
    monkeypatch.setattr(errors, "content_lines", no_line_loop)
    for g in GROUPS:
        assert parse_group_text(dump_group(g)).mul_array.tolist() == g.mul_array.tolist()
        for density in (0.0, 0.5, 1.0):
            a = random_pairs(g.order, seed=g.order, density=density)
            assert parse_pairs_text(dump_pairs(a)) == a
        cover = random_cover(g, 3, seed=g.order, overlap=0.25)
        assert parse_cover_text(dump_cover(cover)) == cover
    a = random_pairs(343, seed=0, density=0.25)
    assert parse_pairs_text(dump_pairs(a)) == a


GRAMMAR = ["0", "+1", "-0", "007", "1_0", "0_1", "٣", "+٣", "١_٢", "1٣", "0" * 30 + "2",
           "_1", "1_", "1__0", "+_1", "-_1", "+-1", "--1", "1-2", "0+1", "+", "-",
           "x", "1x", "1.0", "½", "²",
           "-" + "9" * 30, "9" * 30, "1" + "_0" * 20]


@pytest.mark.parametrize("field", GRAMMAR)
def test_field_grammar_is_int(field):
    for text in (f"pairs 9\n{field} 0\n", f"pairs 9\n1 1\n0 {field}\n8 9\n"):
        assert outcome(parse_pairs_text, text) == outcome(naive_parse_pairs_text, text)
    text = f"table 1\n{field}\n"
    assert outcome(parse_group_text, text) == outcome(naive_parse_group_text, text)


HEADERS = st.sampled_from(["", "pairs 3\n", "table 2\n", "perm 3\n", "cover 2 3\n", "cover 1 4\n"])
PARSERS = [parse_pairs_text, parse_group_text, parse_cover_text]


@settings(max_examples=200, deadline=None)
@given(HEADERS, st.text() | st.text(alphabet="0123 \n#-+_x()gen\r"))
def test_parsers_raise_only_domain_errors(header, body):
    for parse in PARSERS:
        try:
            parse(header + body)
        except GroupColourError:
            pass


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: g.name)
def test_group_round_trip(g):
    assert dump_group(g) == naive_dump_group(g)
    h = parse_group_text(dump_group(g))
    assert np.array_equal(h.mul_array, g.mul_array)
    assert (h.inv, h.identity, h.name) == (g.inv, g.identity, f"table<{g.order}>")


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GROUPS), st.integers(0, 2 ** 32), st.sampled_from([0.0, 0.25, 0.5, 1.0]),
       st.integers(1, 4))
def test_pairs_and_cover_round_trip(g, seed, density, k):
    a = random_pairs(g.order, seed=seed, density=density)
    assert parse_pairs_text(dump_pairs(a)) == a
    cover = random_cover(g, k, seed=seed)
    assert parse_cover_text(dump_cover(cover)) == cover


def test_memory_parse_pairs():
    text = dump_pairs(random_pairs(343, seed=0, density=0.25))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        a = parse_pairs_text(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert a.size == np.count_nonzero(random_pairs(343, seed=0, density=0.25).matrix)
    assert peak < 6 * 2 ** 20


def parse_peak(parse, text):
    """The parse of `text` and its tracemalloc peak in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = parse(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak / 2 ** 20


def test_pairs_parse_peak_on_order_2000():
    # A 17 MB file: the parse holds the n x n matrix and one block.
    a = random_pairs(2000, seed=0, density=0.5)
    result, peak = parse_peak(parse_pairs_text, dump_pairs(a))
    assert result == a
    assert peak < 16


def test_pairs_parse_peak_with_cr_line_ends():
    # Lines that end in "\r" are cut into blocks as lines that end in "\n" are.
    a = random_pairs(500, seed=0, density=0.5)
    result, peak = parse_peak(parse_pairs_text, dump_pairs(a).replace("\n", "\r"))
    assert result == a
    assert peak < 4


def test_table_parse_peak_on_order_2000():
    # A 17 MB file: the parse holds one uint16 table (the group keeps the
    # parser's own), a validation block and one read block.
    g = catalog.resolve_groupspec("cyclic:2000")
    result, peak = parse_peak(parse_group_text, dump_group(g))
    assert np.array_equal(result.mul_array, g.mul_array)
    assert peak < 16
