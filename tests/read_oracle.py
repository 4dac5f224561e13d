"""Reference codec and read path for tests: the edge-list graph6 encoder, the
plain bit-by-bit decoder and the all-roots girth BFS.

`encode` sets one payload bit per pair of `g.edges()`; the library's encoder
walks the rows instead and must give the same line for every graph.

`decode` walks every bit of the upper triangle through one big integer, and
`girth` runs a full BFS from every root over the whole graph. The library's
sparse decoder and its restricted girth search must agree with these: the same
graph for every valid line, the same exception type for every malformed one,
and the same girth for every graph.
"""
from __future__ import annotations

from collections import deque

from cagekit.errors import MalformedGraph6, OrderTooLarge
from cagekit.graph import ACYCLIC, Graph

_HEADER = ">>graph6<<"
_MAX_ORDER = 2 ** 18


def _encode_order(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))


def encode(g: Graph) -> str:
    """Encode one graph as a graph6 line from its edge list: bit p stands for
    the pair (i, j), i < j, with p = j(j-1)/2 + i, six bits to a byte."""
    n = g.order
    if n > _MAX_ORDER:
        raise OrderTooLarge(f"order {n} exceeds graph6 cap {_MAX_ORDER}")
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for i, j in g.edges():
        p = (j * (j - 1) >> 1) + i
        body[p // 6] |= 32 >> (p % 6)
    return _encode_order(n) + "".join(chr(v + 63) for v in body)


def decode(line: str) -> Graph:
    """Decode one graph6 line, one Python step per bit of the triangle."""
    s = line.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise MalformedGraph6("empty line")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise MalformedGraph6(f"byte {ord(ch)} out of graph6 range")
    vals = [ord(ch) - 63 for ch in s]
    if vals[0] < 63:
        n = vals[0]
        body = vals[1:]
    elif len(vals) >= 2 and vals[1] < 63:
        if len(vals) < 4:
            raise MalformedGraph6("truncated order field")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    else:
        if len(vals) < 8:
            raise MalformedGraph6("truncated order field")
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        body = vals[8:]
    if n > _MAX_ORDER:
        raise OrderTooLarge(f"order {n} exceeds graph6 cap {_MAX_ORDER}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise MalformedGraph6(f"expected {need} payload bytes, got {len(body)}")
    bits = 0
    for v in body:
        bits = (bits << 6) | v
    total = 6 * need
    if need and bits & ((1 << (total - nbits)) - 1):
        raise MalformedGraph6("nonzero padding bits")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if (bits >> (total - 1 - pos)) & 1:
                edges.append((i, j))
            pos += 1
    return Graph.from_edges(n, edges)


def girth(g: Graph):
    """Shortest cycle length, ACYCLIC for forests: a full BFS from every root
    with parent tracking, cut once no deeper vertex can close a shorter cycle."""
    n = g.order
    adj = g.adjacency
    best: int | None = None
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            du = dist[u]
            if best is not None and 2 * du >= best:
                break
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    parent[w] = u
                    q.append(w)
                elif w != parent[u]:
                    c = du + dist[w] + 1
                    if best is None or c < best:
                        best = c
        if best == 3:
            break
    return ACYCLIC if best is None else best
