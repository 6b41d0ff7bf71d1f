"""Exception types shared across the package, and the readers of its
line-oriented file formats."""

from __future__ import annotations

import re
from dataclasses import dataclass

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


# The line boundaries of str.splitlines(); "\r\n" counts as one.
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


def split_lines(text: str, kind: str, source: str) -> tuple[int, list[str], list[tuple[int, str]]]:
    """Read a line-oriented file line by line.

    Returns `read_header`'s line number and fields, and the remaining
    (line number, stripped text) pairs of the content lines.
    """
    no, fields, rest = read_header(text, kind, source)
    items = []
    for k, raw in enumerate(text[rest:].splitlines(), no + 1):
        s = raw.split("#", 1)[0].strip()
        if s:
            items.append((k, s))
    return no, fields, items


_NL, _SPACE, _DIGIT, _PLUS, _MINUS, _UNDERSCORE, _OTHER = range(7)


def _char_class(ch: str) -> tuple[int, int]:
    """Class of one character, and its decimal value (10 if not a digit)."""
    if ch in _BREAKS:
        return _NL, 10
    if ch.isspace():
        return _SPACE, 10
    if ch.isdecimal():  # what int() reads as a digit
        return _DIGIT, int(ch)
    return {"+": _PLUS, "-": _MINUS, "_": _UNDERSCORE}.get(ch, _OTHER), 10


_ASCII_CLASSES = np.array([_char_class(chr(c))[0] for c in range(256)], dtype=np.uint8)

# Fields of at most this many characters have values below 10**18.
_SHORT_FIELD = 18


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

    def check(self, source: str, checks) -> None:
        """Raise a ParseError at the first line that fails a check.

        `checks` are (failed, message) pairs, in the order each line is
        checked: `failed` is a bool per line, `message` a string or a
        function of the line's index.
        """
        failures = [(int(np.argmax(failed)), k) for k, (failed, _) in enumerate(checks)
                    if failed.any()]
        if failures:
            i, k = min(failures)
            message = checks[k][1]
            raise ParseError(message(i) if callable(message) else message,
                             source, int(self.lines[i]), 1)


def read_ints(text: str, start: int, line: int) -> IntLines:
    """Read `text[start:]`, whose first line has number `line`, as lines of
    integers, with `split_lines`' comments and blank lines.

    Array operations over all characters at once classify them, find the
    fields and their lines, check each field against int()'s grammar (an
    optional sign, then digits with single underscores between them), and
    convert the fields by Horner's rule; no step loops over lines.
    """
    body = text[start:].replace("\r\n", "\n")
    if "#" in body:
        body = _COMMENT.sub("", body)
    if body.isascii():
        codes = np.frombuffer(body.encode("ascii"), np.uint8)
        kind = np.take(_ASCII_CLASSES, codes)
        digit = np.minimum(codes - ord("0"), 10)   # 10 where not a digit
    else:
        chars, at = np.unique(np.frombuffer(body.encode("utf-32-le"), np.uint32),
                              return_inverse=True)
        kind, digit = np.array([_char_class(chr(c)) for c in chars.tolist()],
                               dtype=np.uint8).T[:, at]
    size = len(kind)

    field = np.zeros(size + 2, bool)
    field[1:-1] = kind > _SPACE
    starts = np.flatnonzero(field[1:] > field[:-1])
    lengths = np.flatnonzero(field[:-1] > field[1:]) - starts
    nfields = len(starts)

    # A field is an integer when each of its characters is a digit, a sign
    # at its start before a digit, or an underscore between two digits.
    is_digit = np.zeros(size + 2, bool)
    is_digit[1:-1] = digit < 10
    digit_after, digit_before = is_digit[2:], is_digit[:-2]
    at_start = np.zeros(size, bool)
    at_start[starts] = True
    good = is_digit[1:-1] | (digit_after & (
        (at_start & ((kind == _PLUS) | (kind == _MINUS))) | (digit_before & (kind == _UNDERSCORE))))
    bad = np.flatnonzero(field[1:-1] & ~good)
    del field, is_digit, at_start, good

    row = np.cumsum(kind == _NL, dtype=np.int32)[starts]
    new_line = np.ones(nfields, bool)
    new_line[1:] = row[1:] != row[:-1]
    firsts = np.flatnonzero(new_line)

    def line_of(fields: np.ndarray) -> np.ndarray:
        return np.searchsorted(firsts, fields, "right") - 1

    ok = np.ones(len(firsts), bool)
    ok[line_of(np.searchsorted(starts, bad, "right") - 1)] = False

    # Horner's rule over the first characters of every field at once.
    digit = np.concatenate((digit, np.full(_SHORT_FIELD, 10, np.uint8)))
    values = np.zeros(nfields, np.int64)
    for j in range(min(int(lengths.max(initial=0)), _SHORT_FIELD)):
        d = digit[starts + j]
        values = np.where((d < 10) & (lengths > j), values * 10 + d, values)
    values[kind[starts] == _MINUS] *= -1
    long_fields = np.flatnonzero(lengths > _SHORT_FIELD)
    long_fields = long_fields[ok[line_of(long_fields)]].tolist()
    if long_fields:
        exact = [int(body[s:s + k]) for s, k in
                 zip(starts[long_fields].tolist(), lengths[long_fields].tolist())]
        if not all(-2 ** 63 <= v < 2 ** 63 for v in exact):
            values = values.astype(object)
        values[long_fields] = exact
    return IntLines(lines=row[firsts] + line, firsts=firsts,
                    counts=np.diff(firsts, append=nfields), ok=ok, values=values)


class CoverError(GroupColourError):
    """A cover is invalid (e.g. its classes do not cover the group)."""


class ConsistencyError(GroupColourError):
    """An internal guarantee failed; indicates an implementation bug."""
