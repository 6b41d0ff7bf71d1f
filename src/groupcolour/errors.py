"""Exception types shared across the package, and the readers of its
line-oriented file formats."""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Iterator

import numpy as np


class GroupColourError(Exception):
    """Base class for all domain errors raised by this package."""


class ValidationError(GroupColourError):
    """A group axiom or structural invariant failed during construction."""


class SizeLimitError(GroupColourError):
    """An enumeration or construction exceeded its configured bound."""


class ParseError(GroupColourError):
    """A text input (group / cover / pairs file) is malformed."""

    def __init__(self, message: str, source: str = "<input>", line: int = 0, col: int = 0):
        super().__init__(f"{source}:{line}:{col}: {message}")
        self.source = source
        self.line = line
        self.col = col


# The line boundaries content_lines splits at; "\r\n" counts as one.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_BREAK = re.compile("\r\n|[" + _BREAKS + "]")
_COMMENT = re.compile("#[^" + _BREAKS + "]*")
_BLANK_OR_COMMENT = re.compile("(?:\\s|#[^" + _BREAKS + "]*)*")


def read_header(text: str, kind: str, source: str) -> tuple[int, list[str], int]:
    """The first content line of a line-oriented file.

    "#" starts a comment; blank lines are skipped.  Returns the header's
    line number, its whitespace-separated fields, and the offset in `text`
    at which the next line starts.  A file with no content raises
    "empty <kind> file".
    """
    start = _BLANK_OR_COMMENT.match(text).end()
    if start == len(text):
        raise ParseError(f"empty {kind} file", source, 1, 1)
    no = 1 + len(_BREAK.findall(text, 0, start))
    brk = _BREAK.search(text, start)
    end, rest = (brk.start(), brk.end()) if brk else (len(text), len(text))
    return no, text[start:end].split("#", 1)[0].split(), rest


def content_lines(text: str, start: int, line: int) -> list[tuple[int, str]]:
    """(line number, stripped text) of each line of `text[start:]` that is
    not blank once its comment is cut; the first line has number `line`."""
    items = []
    for k, raw in enumerate(text[start:].splitlines(), line):
        s = raw.split("#", 1)[0].strip()
        if s:
            items.append((k, s))
    return items


# Fields of at most this many digits have values below 10**18.
SHORT_FIELD = 18
_DIGITS = re.compile(r"\d+")


def long_digits(digits: str, places: int = SHORT_FIELD) -> bool:
    """Whether `digits` is a string of decimal digits with more than `places`
    significant digits.  A file header size longer than a short field is
    refused by this before it is converted; so is a groupspec integer with
    more digits than DEFAULT_MAX_ORDER."""
    return _DIGITS.fullmatch(digits) is not None and any(map(unicodedata.digit, digits[:-places]))


@dataclass(frozen=True)
class IntLines:
    """The content lines of a file body, as whitespace-separated integers.

    Content line i is line number `lines[i]`.  Its `counts[i]` fields are
    `values[firsts[i]:firsts[i] + counts[i]]`, and `ok[i]` says whether
    every one of them is an integer by int()'s rules; a field that is not
    has value 0.  `values` is int64, or object when a field overflows it.
    """

    lines: np.ndarray
    firsts: np.ndarray
    counts: np.ndarray
    ok: np.ndarray
    values: np.ndarray

    def field(self, j: int) -> np.ndarray:
        """Field j of every line; 0 on lines with fewer fields."""
        out = np.zeros(len(self.lines), self.values.dtype)
        has = self.counts > j
        out[has] = self.values[self.firsts[has] + j]
        return out

    def failure(self, source: str, checks) -> ParseError | None:
        """The ParseError at the first line that fails a check, or None.

        `checks` are (failed, message) pairs, in the order each line is
        checked: `failed` is a bool per line, `message` a string or a
        function of the line's index.
        """
        failures = [(int(np.argmax(failed)), k) for k, (failed, _) in enumerate(checks)
                    if failed.any()]
        if not failures:
            return None
        i, k = min(failures)
        message = checks[k][1]
        return ParseError(message(i) if callable(message) else message,
                          source, int(self.lines[i]), 1)


# read_ints reads a body in blocks of about this many characters, each cut
# just after a line break, so a parse holds the text, its result and one block.
_BLOCK_CHARS = 1 << 14


def read_ints(text: str, start: int, line: int) -> Iterator[IntLines]:
    """Read `text[start:]`, whose first line has number `line`, as lines of
    integers, with `content_lines`' comments and blank lines.

    The body is read in consecutive blocks of whole lines (`_BLOCK_CHARS`),
    one IntLines each.  A plain block, one whose content holds only ASCII
    digits, spaces, tabs and newlines ("\r\n" counts as one) in fields of at
    most 18 digits, is read by array operations over all its characters at
    once; every file that `dump_pairs`, `dump_group` and `dump_cover` write
    is plain.  Every other block is read by `content_lines` with one int()
    per field.  A block ends just after a line break ("\r\n" is never
    split), which ends a line either way, so both readers see the same lines
    as a read of the whole body.
    """
    while start < len(text):
        brk = _BREAK.search(text, start + _BLOCK_CHARS - 1)
        stop = brk.end() if brk else len(text)
        raw = text[start:stop]
        body = raw.replace("\r\n", "\n")
        if "#" in body:
            body = _COMMENT.sub("", body)
        ints = _read_plain(body, line)
        # A plain block breaks lines only at "\n".
        breaks = raw.count("\n")
        if ints is None:
            ints = _read_by_line(content_lines(raw, 0, line))
            breaks = len(_BREAK.findall(raw))
        yield ints
        start, line = stop, line + breaks


def _read_plain(body: str, line: int) -> IntLines | None:
    """`read_ints` of a plain block by field starts, newline counts and
    Horner's rule; None if the body is not plain."""
    raw = body.encode("ascii", "replace")   # "?" for every other character
    if raw.translate(None, b"0123456789 \t\n"):
        return None
    codes = np.frombuffer(raw, np.uint8)
    digit = codes - np.uint8(ord("0"))      # wraps above 9 at non-digits
    is_digit = np.zeros(len(codes) + 2, bool)
    is_digit[1:-1] = digit < 10
    edges = np.flatnonzero(is_digit[1:] != is_digit[:-1])
    starts, lengths = edges[0::2], edges[1::2] - edges[0::2]
    longest = int(lengths.max(initial=0))
    if longest > SHORT_FIELD:
        return None
    row = np.cumsum(codes == ord("\n"))[starts]     # newlines before each field
    fields = np.bincount(row)                       # fields on each line
    counts = fields[fields > 0]

    # Horner's rule over the first j digits of every field at once.
    digit = np.concatenate((digit, np.zeros(SHORT_FIELD, np.uint8)))
    values = np.zeros(len(starts), np.int64)
    for j in range(longest):
        more = lengths > j
        values *= np.where(more, 10, 1)
        values += digit[starts + j] * more
    return IntLines(lines=np.flatnonzero(fields) + line, firsts=np.cumsum(counts) - counts,
                    counts=counts, ok=np.ones(len(counts), bool), values=values)


def _read_by_line(items: list[tuple[int, str]]) -> IntLines:
    """`read_ints` of any block's content lines, with one int() per field."""
    rows = [[_int_or_none(f) for f in s.split()] for _, s in items]
    counts = np.array([len(row) for row in rows], np.intp)
    values = [0 if v is None else v for row in rows for v in row]
    try:
        values = np.array(values, np.int64)
    except OverflowError:
        values = np.array(values, object)
    return IntLines(lines=np.array([no for no, _ in items], np.intp),
                    firsts=np.cumsum(counts) - counts, counts=counts,
                    ok=np.array([None not in row for row in rows], bool), values=values)


def _int_or_none(field: str) -> int | None:
    try:
        return int(field)
    except ValueError:
        return None


class CoverError(GroupColourError):
    """A cover is invalid (e.g. its classes do not cover the group)."""


class ConsistencyError(GroupColourError):
    """An internal guarantee failed; indicates an implementation bug."""
