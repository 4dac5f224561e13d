"""Rewiring searches: delete edges or vertices, then reconnect deficient
vertices without creating short cycles.

Each search tries deletions in a fixed order and stops at the first that
admits a completion. Deletions in one orbit of the parent's automorphism
group leave isomorphic partial graphs, and whether a partial admits an
accepted completion is an isomorphism invariant, so only the first deletion
met in each orbit is tried (Meringer, J. Graph Theory 30, 1999). The first
admitting deletion is the first of its orbit, so the output is unchanged.
"""
from __future__ import annotations

from itertools import combinations, islice
from typing import Callable, Iterable, Iterator

from .canon import automorphism_generators
from .constructions import Emitted, Params
from .errors import (
    DegreeImbalance,
    DegreeMismatch,
    NoCompletion,
    NotCubic,
    ParameterOutOfRange,
    SpecViolation,
    TooManyVertices,
)
from .graph import ACYCLIC, Graph, bfs_distances, edit, remove_vertices
from .limits import Budget, coerce_budget


def iter_completions(
    h: Graph, k: int, target_girth: int, budget: Budget
) -> Iterator[list[tuple[int, int]]]:
    """Edge sets completing h to k-regular with no added cycle below target.

    Branches on the smallest deficient vertex with ascending partners, so
    each completion set is produced exactly once. A partner is admissible
    when it is deficient, non-adjacent, and at distance >= target_girth - 1
    in the partially completed graph (re-checked as edges accumulate, since
    additions shrink distances).
    """
    n = h.order
    deficit = [k - len(row) for row in h.adjacency]
    if any(d < 0 for d in deficit):
        raise DegreeMismatch(f"a vertex already exceeds degree {k}")
    if sum(deficit) % 2 != 0:
        return
    adj = [set(row) for row in h.adjacency]
    chosen: list[tuple[int, int]] = []

    def search() -> Iterator[list[tuple[int, int]]]:
        budget.spend()
        u = next((v for v in range(n) if deficit[v] > 0), None)
        if u is None:
            yield list(chosen)
            return
        lo = chosen[-1][1] + 1 if chosen and chosen[-1][0] == u else u + 1
        near = bfs_distances(adj, u, target_girth - 2)
        for v in range(lo, n):
            if deficit[v] == 0 or v in adj[u] or near[v] >= 0:
                continue
            adj[u].add(v)
            adj[v].add(u)
            deficit[u] -= 1
            deficit[v] -= 1
            chosen.append((u, v))
            yield from search()
            chosen.pop()
            deficit[u] += 1
            deficit[v] += 1
            adj[u].discard(v)
            adj[v].discard(u)

    yield from search()


def _vertex_set(p, vertices) -> frozenset:
    """The image of a vertex set under the vertex map p."""
    return frozenset([p[v] for v in vertices])


def _edge_set(p, edges) -> frozenset:
    """The image of an edge set under the vertex map p."""
    return frozenset([frozenset((p[u], p[v])) for u, v in edges])


def _one_per_orbit(g: Graph, items: Iterable, image: Callable) -> Iterator:
    """The items whose orbit under Aut(g) holds no earlier item.

    `image(p, item)` is the set the item becomes under the vertex map p.
    The generators are fetched only when a second item is asked for, so a
    search whose first deletion succeeds never needs them. Each is checked
    to map edges onto edges, so a wrong one fails loudly instead of pruning
    real candidates.
    """
    gens = None
    pending: set = set()  # orbit members not met yet
    identity = range(g.order)
    for item in items:
        key = image(identity, item)
        if key in pending:
            pending.discard(key)  # each item is met once; free its slot
            continue
        yield item
        if gens is None:
            gens = automorphism_generators(g)
            edges = _edge_set(identity, g.edges())
            for p in gens:
                if sorted(p) != list(identity) or _edge_set(p, edges) != edges:
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


def _target_girth(g: Graph, target_girth: int | None) -> int:
    """The target girth, by default the parent's, which a forest lacks."""
    if target_girth is None and g.girth() is ACYCLIC:
        raise ParameterOutOfRange("input graph has no cycle")
    return g.girth() if target_girth is None else target_girth


def _girth_at_least(g: Graph, floor: int) -> bool:
    gg = g.girth()
    return gg is ACYCLIC or gg >= floor


def _rewire(
    partials: Iterable[tuple[Params, Graph]],
    k: int,
    target_girth: int,
    accept: Callable[[Graph], bool],
    budget: Budget | int | None,
    failure: NoCompletion,
) -> Iterator[Emitted]:
    """Accepted completions of the first partial graph that has any.

    Each partial comes with the params that rebuild it; a completion adds
    its edge list as "edges". Raises failure when no partial has one.
    """
    budget = coerce_budget(budget)
    for head, h in partials:
        found = False
        for completion in iter_completions(h, k, target_girth, budget):
            out = edit(h, add=completion)
            if accept(out):
                found = True
                yield {**head, "edges": [list(e) for e in completion]}, out
        if found:
            return
    raise failure


def iter_delete_edges_add_vertices(
    g: Graph,
    num_edges: int,
    num_vertices: int,
    target_girth: int | None = None,
    budget: Budget | int | None = None,
) -> Iterator[Emitted]:
    """Completions for the first edge-deletion combination that admits any."""
    target_girth = _target_girth(g, target_girth)
    k = g.regularity()
    if k is None:
        raise DegreeMismatch("input must be regular")
    if num_edges < 0 or num_vertices < 0 or target_girth < 3:
        raise ParameterOutOfRange("counts must be nonnegative, girth at least 3")
    if (2 * num_edges + k * num_vertices) % 2 != 0:
        raise DegreeImbalance(
            f"{num_edges} deleted edges and {num_vertices} added vertices of "
            f"degree {k} leave an odd number of open slots"
        )
    partials = (
        ({"removed": [list(e) for e in combo], "added": num_vertices},
         edit(g, remove=combo, new_vertices=num_vertices))
        for combo in _one_per_orbit(g, combinations(g.edges(), num_edges), _edge_set)
    )
    yield from _rewire(
        partials, k, target_girth, lambda out: _girth_at_least(out, target_girth),
        budget,
        NoCompletion(
            f"no {num_edges}-edge deletion admits a girth-{target_girth} completion"
        ),
    )


def iter_delete_vertices(
    g: Graph,
    num_vertices: int,
    target_girth: int | None = None,
    budget: Budget | int | None = None,
) -> Iterator[Emitted]:
    """Completions for the first vertex-deletion combination that admits any."""
    target_girth = _target_girth(g, target_girth)
    k = g.regularity()
    if k is None:
        raise DegreeMismatch("input must be regular")
    if not 1 <= num_vertices <= 4:
        raise TooManyVertices("vertex deletion is limited to 1..4 vertices")
    if target_girth < 3:
        raise ParameterOutOfRange("target girth must be at least 3")
    rest = g.order - num_vertices
    if k * rest % 2 != 0:
        raise NoCompletion(
            f"{k}-regular graphs of order {rest} fail the parity condition"
        )
    partials = (
        ({"removed": list(combo)}, remove_vertices(g, combo)[0])
        for combo in _one_per_orbit(
            g, combinations(range(g.order), num_vertices), _vertex_set
        )
    )
    yield from _rewire(
        partials, k, target_girth, lambda out: _girth_at_least(out, target_girth),
        budget,
        NoCompletion(
            f"no {num_vertices}-vertex deletion admits a girth-{target_girth} completion"
        ),
    )


def biggs_excision_size(girth: int) -> int:
    """Subtree size whose removal drops the girth by exactly one."""
    if girth < 4:
        raise ParameterOutOfRange("excision needs girth at least 4")
    r = girth // 4
    if girth % 4 in (0, 1):
        return 2 ** (r + 1) - 2
    return 3 * 2**r - 2


def _connected_subsets(g: Graph, root: int, size: int) -> Iterator[list[int]]:
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


def _induced_trees(g: Graph, size: int) -> Iterator[list[int]]:
    for root in range(g.order):
        for subset in _connected_subsets(g, root, size):
            members = set(subset)
            inner = sum(
                1 for v in subset for w in g.neighbors(v) if w in members
            )
            if inner == 2 * (size - 1):
                yield subset


def iter_remove_biggs_tree(
    g: Graph, budget: Budget | int | None = None
) -> Iterator[Emitted]:
    """First rewiring that excises an induced tree and drops girth by one."""
    if g.regularity() != 3:
        raise NotCubic("tree excision needs a cubic input")
    gg = g.girth()
    if gg is ACYCLIC or gg < 4:
        raise ParameterOutOfRange("tree excision needs girth at least 4")
    size = biggs_excision_size(gg)
    partials = (
        ({"tree": list(tree)}, remove_vertices(g, tree)[0])
        for tree in _one_per_orbit(g, _induced_trees(g, size), _vertex_set)
    )
    yield from islice(
        _rewire(
            partials, 3, gg - 1, lambda out: out.girth() == gg - 1, budget,
            NoCompletion(f"no induced {size}-vertex tree admits a rewiring"),
        ),
        1,
    )
