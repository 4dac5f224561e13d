"""Reference construction scans for tests.

The subdivision scans make one `Graph.edge_distance` call per endpoint pair
of each candidate: the plain loops the library's bit-row scans replaced. The
library must agree with them: the same (params, graph) list in the same
order, the same budget steps spent, and `BudgetExhausted` after the same
prefix. `find_double_matching` reads every leaf distance from a full BFS;
the library's search, which cuts each BFS short, must return the same
bijection and joined graph after the same budget steps.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator

from cagekit.constructions import (
    _join_copies,
    apply_subdivide_merge,
    apply_subdivide_pair,
    apply_subdivide_triple,
)
from cagekit.errors import NotCubic, NotTetravalent, ParameterOutOfRange
from cagekit.graph import ACYCLIC, UNREACHABLE, Graph
from cagekit.limits import Budget, coerce_budget


def _required_girth(g: Graph, target_girth: int | None) -> int:
    gg = g.girth()
    if gg is ACYCLIC:
        raise ParameterOutOfRange("input graph has no cycle")
    if target_girth is None:
        return gg
    if target_girth < 3 or target_girth > gg:
        raise ParameterOutOfRange(f"target girth {target_girth} outside 3..girth {gg}")
    return target_girth


def _edge_distance_at_least(g: Graph, e1, e2, floor: int) -> bool:
    d = g.edge_distance(e1, e2)
    return d is UNREACHABLE or d >= floor


def iter_subdivide_two(
    g: Graph, target_girth: int | None = None, budget: Budget | int | None = None
) -> Iterator[tuple[dict, Graph]]:
    if g.regularity() != 3:
        raise NotCubic("two-edge subdivision needs a cubic input")
    floor = _required_girth(g, target_girth) - 2
    budget = coerce_budget(budget)
    for e1, e2 in combinations(g.edges(), 2):
        budget.spend()
        if not _edge_distance_at_least(g, e1, e2, floor):
            continue
        yield {"e1": list(e1), "e2": list(e2)}, apply_subdivide_pair(g, e1, e2)


def iter_subdivide_three(
    g: Graph, target_girth: int | None = None, budget: Budget | int | None = None
) -> Iterator[tuple[dict, Graph]]:
    if g.regularity() != 3:
        raise NotCubic("three-edge subdivision needs a cubic input")
    floor = _required_girth(g, target_girth) - 3
    budget = coerce_budget(budget)
    for e1, e2, e3 in combinations(g.edges(), 3):
        budget.spend()
        if not (
            _edge_distance_at_least(g, e1, e2, floor)
            and _edge_distance_at_least(g, e1, e3, floor)
            and _edge_distance_at_least(g, e2, e3, floor)
        ):
            continue
        params = {"e1": list(e1), "e2": list(e2), "e3": list(e3)}
        yield params, apply_subdivide_triple(g, e1, e2, e3)


def iter_subdivide_merge(
    g: Graph, target_girth: int | None = None, budget: Budget | int | None = None
) -> Iterator[tuple[dict, Graph]]:
    if g.regularity() != 4:
        raise NotTetravalent("subdivide-and-merge needs a 4-regular input")
    required = _required_girth(g, target_girth)
    floor = required - 2
    budget = coerce_budget(budget)
    for e1, e2 in combinations(g.edges(), 2):
        budget.spend()
        if set(e1) & set(e2):
            continue
        if not _edge_distance_at_least(g, e1, e2, floor):
            continue
        h = apply_subdivide_merge(g, e1, e2)
        hg = h.girth()
        if hg is ACYCLIC or hg < required:
            continue
        yield {"e1": list(e1), "e2": list(e2)}, h


def find_double_matching(
    h: Graph, leaves: list[int], girth_floor: int, budget: Budget
) -> tuple[list[int], Graph] | None:
    """Leaf bijection search over the full distances between leaves of h."""
    t = len(leaves)
    dist = [[0] * t for _ in range(t)]
    for i in range(t):
        row = h.distances_from(leaves[i])
        for j in range(t):
            d = row[leaves[j]]
            dist[i][j] = 10**9 if d is UNREACHABLE else d
    perm = [-1] * t
    used = [False] * t

    def search(i: int) -> tuple[list[int], Graph] | None:
        if i == t:
            built = _join_copies(h, leaves, perm)
            bg = built.girth()
            if bg is not ACYCLIC and bg >= girth_floor:
                return list(perm), built
            return None
        for c in [i] + [c for c in range(t) if c != i]:
            if used[c]:
                continue
            budget.spend()
            if any(dist[i][j] + dist[perm[j]][c] + 2 < girth_floor for j in range(i)):
                continue
            perm[i] = c
            used[c] = True
            found = search(i + 1)
            if found is not None:
                return found
            perm[i] = -1
            used[c] = False
        return None

    return search(0)
