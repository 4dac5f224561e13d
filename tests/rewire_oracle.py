"""Reference orbit pruning and partial graphs for the rewiring searches.

These are the plain forms the library's index-tuple orbits, bare rows and
induced-tree growth replaced: orbit keys are sets of vertices or of edges
(each edge a frozenset of its ends), each partial is a built `Graph`, and
induced trees are the connected vertex sets with one edge fewer than
vertices. The library must agree with them: the same representatives and
trees in the same order, and partial rows equal to the adjacency of these
graphs.
"""
from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator

from cagekit.canon import automorphism_generators
from cagekit.errors import SpecViolation
from cagekit.graph import Graph, edit, remove_vertices


def vertex_set(p, vertices) -> frozenset:
    """The image of a vertex set under the vertex map p."""
    return frozenset([p[v] for v in vertices])


def edge_set(p, edges) -> frozenset:
    """The image of an edge set under the vertex map p."""
    return frozenset([frozenset((p[u], p[v])) for u, v in edges])


def one_per_orbit(g: Graph, items: Iterable, image: Callable) -> Iterator:
    """The items whose orbit under Aut(g) holds no earlier item, keyed by
    `image(p, item)`, the set the item becomes under the vertex map p."""
    gens = None
    pending: set = set()
    identity = range(g.order)
    for item in items:
        key = image(identity, item)
        if key in pending:
            pending.discard(key)
            continue
        yield item
        if gens is None:
            gens = automorphism_generators(g)
            edges = edge_set(identity, g.edges())
            for p in gens:
                if sorted(p) != list(identity) or edge_set(p, edges) != edges:
                    raise SpecViolation(f"generator {list(p)!r} is not an automorphism")
        stack = [key]
        orbit = {key}
        while stack:
            x = stack.pop()
            for p in gens:
                y = image(p, x)
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        orbit.discard(key)
        pending |= orbit


def vertex_partials(g: Graph, sets: Iterable, key: str) -> Iterator[tuple[dict, Graph]]:
    """(params, partial Graph) for the first vertex set of each orbit."""
    for gone in one_per_orbit(g, sets, vertex_set):
        yield {key: list(gone)}, remove_vertices(g, gone)[0]


def edge_partials(
    g: Graph, num_edges: int, num_vertices: int
) -> Iterator[tuple[dict, Graph]]:
    """(params, partial Graph) for the first edge set of each orbit."""
    for combo in one_per_orbit(g, combinations(g.edges(), num_edges), edge_set):
        yield ({"removed": [list(e) for e in combo], "added": num_vertices},
               edit(g, remove=combo, new_vertices=num_vertices))


def connected_subsets(g: Graph, root: int, size: int) -> Iterator[list[int]]:
    """Connected vertex sets of the given size whose minimum is root."""

    def grow(chosen: list[int], banned: frozenset[int]) -> Iterator[list[int]]:
        if len(chosen) == size:
            yield sorted(chosen)
            return
        members = set(chosen)
        ext = sorted(
            w
            for v in chosen
            for w in g.neighbors(v)
            if w > root and w not in members and w not in banned
        )
        seen: set[int] = set()
        for c in ext:
            if c in seen:
                continue
            seen.add(c)
            yield from grow(chosen + [c], banned | frozenset(seen - {c}) | frozenset([c]))

    yield from grow([root], frozenset())


def induced_trees(g: Graph, size: int) -> Iterator[list[int]]:
    """The connected sets of each root in turn that induce size - 1 edges."""
    for root in range(g.order):
        for subset in connected_subsets(g, root, size):
            members = set(subset)
            inner = sum(
                1 for v in subset for w in g.neighbors(v) if w in members
            )
            if inner == 2 * (size - 1):
                yield subset
