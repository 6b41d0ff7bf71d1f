"""Exception types shared across the package."""


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


def split_lines(text: str, kind: str, source: str) -> tuple[int, list[str], list[tuple[int, str]]]:
    """Read a line-oriented file: "#" starts a comment, blank lines are skipped.

    Returns the header's line number, its whitespace-separated fields, and
    the remaining (line number, stripped text) pairs.  A file with no
    content raises "empty <kind> file".
    """
    items = []
    for no, raw in enumerate(text.splitlines(), 1):
        s = raw.split("#", 1)[0].strip()
        if s:
            items.append((no, s))
    if not items:
        raise ParseError(f"empty {kind} file", source, 1, 1)
    no, header = items[0]
    return no, header.split(), items[1:]


class CoverError(GroupColourError):
    """A cover is invalid (e.g. its classes do not cover the group)."""


class ConsistencyError(GroupColourError):
    """An internal guarantee failed; indicates an implementation bug."""
