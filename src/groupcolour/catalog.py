"""Built-in small groups and the line-oriented group file format.

Group file grammar (UTF-8):
    line 1: "perm <degree>"  or  "table <n>", degree and n in 1..5040
    perm mode:  lines "gen <cycles>", cycles like "(0 1)(2 3 4)" (0-indexed,
                fixed points omitted)
    table mode: n lines of n whitespace-separated element indices
    "#" starts a comment; blank lines are ignored.
"""

from __future__ import annotations

import os
import re
from typing import Sequence

import numpy as np

from . import groups
from .errors import (ParseError, SizeLimitError, ValidationError, content_lines, long_digits,
                     read_header, read_ints)
from .groups import GroupTable

HEISENBERG_PRIMES = (3, 5, 7)


def _check_order(family: str, order: int) -> None:
    # Checked before the order^2 table is allocated.
    if order > groups.DEFAULT_MAX_ORDER:
        raise SizeLimitError(f"{family} order {order} exceeds maximum {groups.DEFAULT_MAX_ORDER}")


def _check_factorial_order(family: str, n: int, first: int) -> None:
    """_check_order for the order first * (first + 1) * ... * n: n! from
    first = 2, n!/2 from first = 3.  The product is taken one factor at a
    time and stops once it passes the maximum, so a huge n costs a few
    multiplications; the message then names the order as a formula."""
    order = 1
    for k in range(first, n + 1):
        order *= k
        if order > groups.DEFAULT_MAX_ORDER and k < n:
            raise SizeLimitError(f"{family} order {n}!{'/2' if first == 3 else ''} "
                                 f"exceeds maximum {groups.DEFAULT_MAX_ORDER}")
    _check_order(family, order)


def _cyclic(n: int) -> GroupTable:
    if n < 1:
        raise ValidationError("cyclic order must be >= 1")
    _check_order("cyclic", n)
    # _add_mod's dtype is wider than min_scalar_type(n) for n = 128..255.
    table = _add_mod(n, 1).astype(np.min_scalar_type(n), copy=False)
    return groups._checked_table(table, name=f"C{n}")


def _add_mod(n: int, sign: int) -> np.ndarray:
    """The n x n array of (i + sign*j) mod n, sign = 1 or -1, in dtype
    min_scalar_type(2n)."""
    ar = np.arange(n, dtype=np.min_scalar_type(2 * n))
    table = ar[:, None] + (ar if sign > 0 else n - ar)
    table %= n
    return table


def _dihedral(n: int) -> GroupTable:
    # Element f*n + i encodes r^i s^f; r^i s * r^j = r^(i-j) s.
    if n < 1:
        raise ValidationError("dihedral parameter must be >= 1")
    size = 2 * n
    _check_order("dihedral", size)
    add, sub = _add_mod(n, 1), _add_mod(n, -1)
    table = np.empty((size, size), dtype=add.dtype)
    table[:n, :n] = add              # r^i * r^j
    table[:n, n:] = add + n          # r^i * r^j s
    table[n:, :n] = sub + n          # r^i s * r^j
    table[n:, n:] = sub              # r^i s * r^j s
    return groups._checked_table(table, name=f"D{n}")


def _symmetric(n: int) -> GroupTable:
    if n < 1:
        raise ValidationError("symmetric n must be >= 1")
    _check_factorial_order("symmetric", n, 2)
    if n == 1:
        return groups.from_permutations([], degree=1, name="S1")
    gens: list[list[int]] = [[1, 0] + list(range(2, n))]
    if n > 2:
        gens.append(list(range(1, n)) + [0])
    return groups.from_permutations(gens, degree=n, name=f"S{n}")


def _alternating(n: int) -> GroupTable:
    if n < 3:
        raise ValidationError("alternating n must be >= 3")
    _check_factorial_order("alternating", n, 3)
    three = [1, 2, 0] + list(range(3, n))
    gens = [three]
    if n > 3:
        if n % 2 == 1:
            gens.append(list(range(1, n)) + [0])
        else:
            gens.append([0] + list(range(2, n)) + [1])
    return groups.from_permutations(gens, degree=n, name=f"A{n}")


# NEG[u1, u2] is 1 iff the product of units u1 u2 is negative: i*i = -1, j*i = -k ...
_Q8_NEG = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]], dtype=np.uint8)


def _quaternion8() -> GroupTable:
    # Index 2u + s: element (-1)^s * unit u, units ordered 1, i, j, k.  The
    # product's unit is u1 XOR u2 and its sign bit s1 ^ s2 ^ NEG[u1, u2].
    x = np.arange(8, dtype=np.uint8)
    u, s = x[:, None] >> 1, x[:, None] & 1
    table = 2 * (u ^ u.T) + (s ^ s.T ^ _Q8_NEG[u, u.T])
    return groups._checked_table(table, name="Q8")


def _heisenberg(p: int) -> GroupTable:
    # Upper unitriangular 3x3 matrices over F_p, encoded (a, b, c) ->
    # a*p^2 + b*p + c: (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b').
    if p not in HEISENBERG_PRIMES:
        raise ValidationError(f"heisenberg p supported for p in {HEISENBERG_PRIMES}")
    n = p ** 3
    # Axes (a, b, c, a', b', c'); each part has p^4 cells at most.
    a, b, c, a2, b2, c2 = np.ix_(*[np.arange(p)] * 6)
    dtype = np.min_scalar_type(n)
    table = (((a + a2) % p * p * p).astype(dtype) + ((b + b2) % p * p).astype(dtype)
             + ((c + c2 + a * b2) % p).astype(dtype))
    return groups._checked_table(table.reshape(n, n), name=f"Heis{p}")


# name -> (builder, number of integer parameters, `catalog` line)
FAMILIES = {
    "cyclic": (_cyclic, 1, "cyclic n (order n)"),
    "dihedral": (_dihedral, 1, "dihedral n (order 2n)"),
    "symmetric": (_symmetric, 1, "symmetric n, n <= 7 (order n!)"),
    "alternating": (_alternating, 1, "alternating n, 3 <= n <= 7 (order n!/2)"),
    "quaternion8": (_quaternion8, 0, "quaternion group (order 8)"),
    "heisenberg": (_heisenberg, 1, "heisenberg p, p in {3,5,7} (order p^3)"),
}


def builtin(name: str, params: Sequence[int] = ()) -> GroupTable:
    """Construct a built-in group by name and integer parameters."""
    params = tuple(int(v) for v in params)
    if name not in FAMILIES:
        raise ValidationError(f"unknown builtin group {name!r}; see `catalog` for names")
    build, arity, _ = FAMILIES[name]
    if len(params) != arity:
        takes = "no parameters" if arity == 0 else "exactly one integer parameter"
        raise ValidationError(f"{name} takes {takes}")
    return build(*params)


_SPEC_RE = re.compile(r"^([a-z]+[a-z0-9]*)(?::(\d+(?:,\d+)*))?(?:\^(\d+))?$")


# A groupspec integer with more digits than the maximum exceeds it.
_SPEC_DIGITS = len(str(groups.DEFAULT_MAX_ORDER))


def resolve_groupspec(spec: str) -> GroupTable:
    """Resolve a groupspec: a path to a group file, or a builtin spec.

    Builtin specs look like "cyclic:5", "quaternion8", "dihedral:4^2"
    (the ^k suffix takes the k-th direct power).  Every order is checked
    against DEFAULT_MAX_ORDER before its table is built: a parameter with
    more digits than the maximum is refused unread, each family checks its
    order, and |G|^k is checked before the first product.  The trivial
    group's powers never grow, so its exponent is bounded by the maximum.
    """
    if os.path.sep in spec or os.path.isfile(spec):
        return load_group(spec)
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValidationError(f"cannot parse groupspec {spec!r} (and no such file)")
    name, params, power = m.group(1), m.group(2), m.group(3)
    values = params.split(",") if params else []
    if any(long_digits(v, _SPEC_DIGITS) for v in values):
        raise SizeLimitError(f"{name} parameter exceeds maximum {groups.DEFAULT_MAX_ORDER}")
    g = builtin(name, [int(v) for v in values])
    k = 1
    if power:
        # A longer exponent need only be known to exceed the maximum.
        k = groups.DEFAULT_MAX_ORDER + 1 if long_digits(power, _SPEC_DIGITS) else int(power)
    if k < 1:
        raise ValidationError("direct power exponent must be >= 1")
    if g.order == 1 and k > groups.DEFAULT_MAX_ORDER:
        raise SizeLimitError(f"direct power exponent exceeds maximum {groups.DEFAULT_MAX_ORDER}")
    # The first power past the maximum, named as direct_product names it.
    order = g.order
    for _ in range(k - 1):
        order *= g.order
        if order > groups.DEFAULT_MAX_ORDER:
            raise SizeLimitError(
                f"direct product order {order} exceeds maximum {groups.DEFAULT_MAX_ORDER}")
    result = g
    for _ in range(k - 1):
        result = groups.direct_product(result, g)
    return result


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int, source: str = "<input>", line: int = 0) -> list[int]:
    """Parse a product of parenthesised cycles into a permutation list."""
    stripped = _CYCLE_RE.sub("", text).strip()
    if stripped:
        col = text.find(stripped[0]) + 1
        raise ParseError(f"unexpected text {stripped!r} in cycles", source, line, col)
    perm = list(range(degree))
    for m in _CYCLE_RE.finditer(text):
        body = m.group(1).split()
        try:
            cyc = [int(v) for v in body]
        except ValueError:
            raise ParseError(f"non-integer entry in cycle {m.group(0)!r}", source, line, m.start() + 1)
        if len(cyc) != len(set(cyc)):
            raise ParseError(f"repeated index in cycle {m.group(0)!r}", source, line, m.start() + 1)
        for v in cyc:
            if not 0 <= v < degree:
                raise ParseError(f"index {v} out of range for degree {degree}", source, line, m.start() + 1)
        # Compose left to right: the rightmost cycle is applied first.
        cyc_perm = list(range(degree))
        for i, v in enumerate(cyc):
            cyc_perm[v] = cyc[(i + 1) % len(cyc)]
        perm = [perm[cyc_perm[i]] for i in range(degree)]
    return perm


def parse_group_text(text: str, source: str = "<input>") -> GroupTable:
    no, parts, rest = read_header(text, "group", source)
    if len(parts) != 2 or parts[0] not in ("perm", "table"):
        raise ParseError("expected header 'perm <degree>' or 'table <n>'", source, no, 1)
    if long_digits(parts[1]):
        raise ParseError(f"size exceeds maximum {groups.DEFAULT_MAX_ORDER}",
                         source, no, len(parts[0]) + 2)
    try:
        size = int(parts[1])
    except ValueError:
        raise ParseError(f"bad size {parts[1]!r} in header", source, no, len(parts[0]) + 2)
    if size < 1:
        raise ParseError("size must be >= 1", source, no, len(parts[0]) + 2)
    # Every group of order <= DEFAULT_MAX_ORDER acts faithfully on that many
    # points, so no larger degree is needed.
    if size > groups.DEFAULT_MAX_ORDER:
        raise ParseError(f"size {size} exceeds maximum {groups.DEFAULT_MAX_ORDER}",
                         source, no, len(parts[0]) + 2)

    if parts[0] == "perm":
        gens = []
        for no, s in content_lines(text, rest, no + 1):
            if not s.startswith("gen"):
                raise ParseError("expected 'gen <cycles>' line", source, no, 1)
            gens.append(parse_cycles(s[3:], size, source, no))
        return groups.from_permutations(gens, degree=size)

    # The row count is checked before any entry and every line before any
    # entry's range, as at a read of the whole body, so the first error of
    # each kind is kept until every block is counted.  An entry out of range
    # is kept out of the table, which the group keeps without a copy.
    table = np.zeros((size, size), np.min_scalar_type(size))
    rows, last, error, stray = 0, no, None, None
    for body in read_ints(text, rest, no + 1):
        if len(body.lines):
            last = int(body.lines[-1])
        block = slice(rows, rows + len(body.lines))
        rows = block.stop
        if error is not None or rows > size:
            continue
        error = body.failure(source, [
            (~body.ok, "non-integer table entry"),
            (body.counts != size, lambda i: f"row has {body.counts[i]} entries, expected {size}"),
        ])
        if error is None and stray is None:
            entries = body.values.reshape(-1, size)
            out = (entries < 0) | (entries >= size)
            if out.any():
                i, j = divmod(int(out.argmax()), size)
                stray = ValidationError(f"entry {entries[i, j]} in row {block.start + i} "
                                        f"out of range 0..{size - 1}")
            else:
                table[block] = entries
    if rows != size:
        raise ParseError(f"expected {size} table rows, found {rows}", source, last, 1)
    if error is not None or stray is not None:
        raise error or stray
    return groups._checked_table(table, name=f"table<{size}>")


def load_group(path: str) -> GroupTable:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    g = parse_group_text(text, source=path)
    return g


def dump_group(g: GroupTable) -> str:
    """The table format, written one row at a time from a table of labels."""
    labels = np.array([str(v) for v in range(g.order)], dtype=object)
    lines = [f"table {g.order}"]
    for row in g.mul_array:
        lines.append(" ".join(labels[row].tolist()))
    return "\n".join(lines) + "\n"


def catalog_groups(max_order: int = 64) -> list[GroupTable]:
    """A fixed roster of catalog groups for property tests."""
    specs = [*(f"cyclic:{n}" for n in range(1, 13)),
             *(f"dihedral:{n}" for n in range(3, min(32, max_order // 2) + 1)),
             "symmetric:3", "symmetric:4", "alternating:4", "alternating:5", "quaternion8",
             "heisenberg:3"]
    roster = [resolve_groupspec(spec) for spec in specs]
    q8, d4, s3, c2 = (resolve_groupspec(spec)
                      for spec in ("quaternion8", "dihedral:4", "symmetric:3", "cyclic:2"))
    roster += [groups.direct_product(q8, c2), groups.direct_product(d4, c2),
               resolve_groupspec("symmetric:3^2"), groups.direct_product(s3, c2)]
    return [g for g in roster if g.order <= max_order]
