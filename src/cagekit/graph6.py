"""graph6 codec: 6-bit packed upper triangle, one graph per ASCII line."""
from __future__ import annotations

import os
from itertools import compress, count
from typing import Iterable, Iterator

from .errors import MalformedGraph6, OrderTooLarge
from .graph import Graph

_HEADER = ">>graph6<<"
_MAX_ORDER = 2 ** 18


def _encode_order(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))


# The payload is the upper triangle in column order: bit p stands for the
# pair (i, j), i < j, with p = j(j-1)/2 + i, six bits to a byte, high bit first.
_OFFSETS = tuple(tuple(k for k in range(6) if v & (32 >> k)) for v in range(64))
_IN_RANGE = bytes(range(63, 127))
_PLUS_63 = _IN_RANGE + bytes(192)
_MINUS_63 = bytes(63) + bytes(range(64)) + bytes(129)


def encode(g: Graph) -> str:
    """Encode one graph as a graph6 line (without newline)."""
    n = g.order
    if n > _MAX_ORDER:
        raise OrderTooLarge(f"order {n} exceeds graph6 cap {_MAX_ORDER}")
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for j, row in enumerate(g.adjacency):
        base = j * (j - 1) >> 1
        for i in row:  # sorted, so the entries below the diagonal come first
            if i >= j:
                break
            p = base + i
            body[p // 6] |= 32 >> (p % 6)
    return _encode_order(n) + body.translate(_PLUS_63).decode("ascii")


def _out_of_range(ch: str) -> MalformedGraph6:
    return MalformedGraph6(f"byte {ord(ch)} out of graph6 range")


def decode(line: str) -> Graph:
    """Decode one graph6 line.

    Costs O(n + m) beyond one pass over the line: only payload bytes other
    than '?' (no bit set) are visited. The byte checks are the only ones:
    the Graph returned is built from rows they make valid.
    """
    # before str.strip(), which would remove some non-ASCII characters (\x85, \xa0)
    if not line.isascii():
        raise _out_of_range(next(c for c in line if not c.isascii()))
    s = line.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise MalformedGraph6("empty line")
    data = s.encode("ascii")
    if data.translate(None, _IN_RANGE):
        raise _out_of_range(next(c for c in s if not "?" <= c <= "~"))
    if data[0] < 126:
        n, off = data[0] - 63, 1
    elif len(data) >= 2 and data[1] < 126:
        if len(data) < 4:
            raise MalformedGraph6("truncated order field")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        off = 4
    else:
        if len(data) < 8:
            raise MalformedGraph6("truncated order field")
        n = 0
        for v in data[2:8]:
            n = (n << 6) | (v - 63)
        off = 8
    if n > _MAX_ORDER:
        raise OrderTooLarge(f"order {n} exceeds graph6 cap {_MAX_ORDER}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - off != need:
        raise MalformedGraph6(f"expected {need} payload bytes, got {len(data) - off}")
    if need and (data[-1] - 63) & ((1 << (6 * need - nbits)) - 1):
        raise MalformedGraph6("nonzero padding bits")
    rows: list[list[int]] = [[] for _ in range(n)]
    j, start, end = 1, 0, 1  # bit p lies in column j while start <= p < end = start + j
    # each payload byte's six bits; compress skips the bytes with none ('?') in C
    vals = data[off:].translate(_MINUS_63)
    for base, v in compress(zip(count(0, 6), vals), vals):
        for p in _OFFSETS[v]:
            p += base
            while p >= end:
                j += 1
                start = end
                end += j
            i = p - start
            rows[i].append(j)
            rows[j].append(i)
    # Each bit p < n(n-1)/2 (the padding is zero) added i < j < n once to
    # both rows, in ascending order: the rows are valid, so build unchecked.
    return Graph._from_valid_rows(rows)


def iter_lines(path: str | os.PathLike) -> Iterator[tuple[int, Graph]]:
    """Stream (line number, graph) from a file, one graph per line; blank
    lines are skipped but counted. A malformed line raises its error with
    the path and line number in front of the message."""
    # latin-1 reads each byte as one character, so a non-ASCII byte is
    # reported like any other out-of-range byte; a line of non-ASCII
    # whitespace is not blank.
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                g = decode(line) if line.strip() or not line.isascii() else None
            except (MalformedGraph6, OrderTooLarge) as err:
                raise type(err)(f"{os.fspath(path)}:{lineno}: {err}") from None
            if g is not None:
                yield lineno, g


def read_file(path: str | os.PathLike) -> list[Graph]:
    return [g for _, g in iter_lines(path)]


def write_file(path: str | os.PathLike, graphs: Iterable[Graph]) -> int:
    """Write graphs one per line; returns the count."""
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(encode(g) + "\n")
            count += 1
    return count
