"""Reference family builders for tests: each rule written as an edge set.

Each builder collects its edges as min/max-normalised pairs, sorts them and
builds through `Graph.from_edges`, with the checks of the library's builders
in the same order. The library builds each vertex's row from its rule; it
must give the same graph, label for label, and raise the same exception with
the same message.
"""
from __future__ import annotations

from cagekit.errors import InvalidConnectingSet, OddOrder, OrderTooSmall, SpecViolation
from cagekit.families import CirculantSpec, GdgpSpec
from cagekit.graph import Graph


def circulant(spec: CirculantSpec) -> Graph:
    n, S = spec.n, set(spec.S)
    if 0 in S:
        raise InvalidConnectingSet("connecting set may not contain 0")
    if any((-s) % n not in S for s in S):
        raise InvalidConnectingSet("connecting set must be inverse-closed")
    edges = {(min(i, j), max(i, j)) for i in range(n) for s in S
             for j in [(i + s) % n]}
    g = Graph.from_edges(n, sorted(edges))
    if not g.is_connected():
        raise InvalidConnectingSet("connecting set does not generate Z_n")
    return g


def circulant44(n: int) -> Graph:
    if n < 8:
        raise OrderTooSmall("jumps 1 and 3 need at least 8 vertices")
    return circulant(CirculantSpec(n, (1, 3, n - 3, n - 1)))


def quartic_parity_graph(n: int) -> Graph:
    if n % 2 != 0:
        raise OddOrder("the parity rule needs an even order")
    if n < 26:
        raise OrderTooSmall("the parity rule needs order at least 26")
    edges = set()
    for i in range(n):
        edges.add((min(i, (i + 1) % n), max(i, (i + 1) % n)))
        if i % 2 == 1:
            for jump in (7, 11):
                j = (i + jump) % n
                edges.add((min(i, j), max(i, j)))
    return Graph.from_edges(n, sorted(edges))


def gdgp(spec: GdgpSpec) -> Graph:
    m, n, K = spec.m, spec.n, spec.K
    if m < 2:
        raise SpecViolation("need at least 2 blocks")
    if n < 3 or n % m != 0:
        raise SpecViolation(f"block count {m} must divide the half-order {n}")
    if len(K) != m:
        raise SpecViolation(f"need exactly {m} chord offsets, got {len(K)}")
    a = K[0] % m
    if a == 0:
        raise SpecViolation("chord offsets must be nonzero mod the block count")
    if any(k % m != a for k in K):
        raise SpecViolation("all chord offsets must agree mod the block count")
    for j in range(m):
        if (K[j] + K[(j - a) % m]) % n == 0:
            raise SpecViolation(
                f"offsets at blocks {j} and {(j - a) % m} cancel mod {n}"
            )
    edges = [(i, (i + 1) % n) for i in range(n - 1)] + [(0, n - 1)]
    edges += [(i, n + i) for i in range(n)]
    inner = set()
    for x in range(n):
        y = (x + K[x % m]) % n
        if y == x:
            raise SpecViolation("chord offset of 0 mod the half-order")
        inner.add((n + min(x, y), n + max(x, y)))
    return Graph.from_edges(2 * n, edges + sorted(inner))
