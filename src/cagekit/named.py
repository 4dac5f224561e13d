"""Small standard graphs used as construction seeds and test fixtures."""
from __future__ import annotations

from itertools import combinations

from .errors import ParameterOutOfRange
from .graph import Graph


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def lcf_graph(n: int, pattern: list[int], repeats: int) -> Graph:
    """Hamiltonian cycle 0..n-1 plus chords i -> i + shift (pattern cycled)."""
    if len(pattern) * repeats != n:
        raise ParameterOutOfRange("pattern length times repeats must equal order")
    shifts = pattern * repeats
    edges = {(i, (i + 1) % n) for i in range(n)}
    chords = set()
    for i, s in enumerate(shifts):
        j = (i + s) % n
        chords.add((min(i, j), max(i, j)))
    if len(chords) != n // 2 or chords & {(min(u, v), max(u, v)) for u, v in edges}:
        raise ParameterOutOfRange("shift pattern does not describe a cubic graph")
    return Graph.from_edges(n, sorted(edges | chords))


def petersen() -> Graph:
    """Outer 5-cycle, inner pentagram, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, edges)


def heawood() -> Graph:
    return lcf_graph(14, [5, -5], 7)


def mcgee() -> Graph:
    return lcf_graph(24, [12, 7, -7], 8)


def tutte_coxeter() -> Graph:
    return lcf_graph(30, [-13, -9, 7, -7, 9, 13], 5)
