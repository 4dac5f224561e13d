"""Reference subdivision scans for tests: one `Graph.edge_distance` call per
endpoint pair of each candidate.

These are the plain loops the library's bit-row scans replaced. The library
must agree with them: the same (params, graph) list in the same order, the
same budget steps spent, and `BudgetExhausted` after the same prefix.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator

from cagekit.constructions import (
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
