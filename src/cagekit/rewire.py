"""Rewiring searches: delete edges or vertices, then reconnect deficient
vertices without creating short cycles.

Each search tries deletions in a fixed order and stops at the first that
admits a completion. Deletions in one orbit of the parent's automorphism
group leave isomorphic partial graphs, and whether a partial admits an
accepted completion is an isomorphism invariant, so only the first deletion
met in each orbit is tried (Meringer, J. Graph Theory 30, 1999). The first
admitting deletion is the first of its orbit, so the output is unchanged.

A partial graph is a view of the parent's adjacency rows, from the row
helpers that `graph.remove_vertices` and `graph.edit` build on: a deleted
vertex's row is None, the rows next to a deletion are new tuples, and every
other row is the parent's own, so a candidate deletion costs the rows it
touches, not a copy. Labels stay the parent's until a completion is found;
only then are the rows compacted and a `Graph` built, and validated.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator, Sequence

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
from .graph import (
    ACYCLIC,
    Graph,
    _build,
    bfs_distances,
    compacted,
    rows_without_edges,
    rows_without_vertices,
)
from .limits import Budget, coerce_budget


def iter_completions(
    rows: Sequence[Sequence[int] | None], k: int, target_girth: int, budget: Budget
) -> Iterator[list[tuple[int, int]]]:
    """Edge sets completing the adjacency rows (a Graph's `adjacency`, or a
    view from `rows_without_vertices` or `rows_without_edges`) to k-regular
    with no added cycle below target.

    A None row is an absent vertex: it has deficit 0 and no row reaches it,
    so a view keeps its parent's labels and needs no compaction. The rows
    are never written: an added edge replaces the two rows it joins in a
    private copy of the list by new tuples, and backtracking puts the old
    ones back.

    Branches on the smallest deficient vertex with ascending partners, so
    each completion set is produced exactly once. A child only adds edges
    (u, v) with v > u, so its smallest deficient vertex is at least u, and
    the scan for it resumes there. A partner is admissible when it is
    deficient, non-adjacent, and at distance >= target_girth - 1 in the
    partially completed graph (re-checked as edges accumulate, since
    additions shrink distances).
    """
    n = len(rows)
    deficit = [0 if row is None else k - len(row) for row in rows]
    if min(deficit, default=0) < 0:
        raise DegreeMismatch(f"a vertex already exceeds degree {k}")
    if sum(deficit) % 2 != 0:
        return
    adj = list(rows)
    chosen: list[tuple[int, int]] = []

    def search(start: int) -> Iterator[list[tuple[int, int]]]:
        budget.spend()
        u = next((v for v in range(start, n) if deficit[v] > 0), None)
        if u is None:
            yield list(chosen)
            return
        lo = chosen[-1][1] + 1 if chosen and chosen[-1][0] == u else u + 1
        near = bfs_distances(adj, u, target_girth - 2)
        row_u = adj[u]
        for v in range(lo, n):
            if deficit[v] == 0 or v in row_u or near[v] >= 0:
                continue
            row_v = adj[v]
            adj[u] = (*row_u, v)
            adj[v] = (*row_v, u)
            deficit[u] -= 1
            deficit[v] -= 1
            chosen.append((u, v))
            yield from search(u)
            chosen.pop()
            deficit[u] += 1
            deficit[v] += 1
            adj[u] = row_u
            adj[v] = row_v

    yield from search(0)


def _edge_map(g: Graph, p: Sequence[int]) -> list[int]:
    """The index in g.edges() of each edge's image under the vertex map p.

    Raises SpecViolation unless p is an automorphism of g, so a wrong
    generator fails loudly instead of pruning real candidates.
    """
    index = {e: i for i, e in enumerate(g.edges())}
    if sorted(p) == list(range(g.order)):
        q = [index.get((p[u], p[v]) if p[u] < p[v] else (p[v], p[u]))
             for u, v in g.edges()]
        if None not in q:
            return q
    raise SpecViolation(f"generator {list(p)!r} is not an automorphism")


def _on_vertices(g: Graph, p: Sequence[int]) -> Sequence[int]:
    """The checked generator p as an index map on the vertices."""
    _edge_map(g, p)
    return p


def _one_per_orbit(
    g: Graph,
    items: Iterable[tuple[int, ...]],
    action: Callable[[Graph, Sequence[int]], Sequence[int]],
) -> Iterator[tuple[int, ...]]:
    """The items whose orbit under Aut(g) holds no earlier item.

    Items are sorted index tuples into a ground set, the vertices or the
    edges of g, as `combinations` yields them, and an orbit member is keyed
    by the bit mask of its indices. The generators are read once, before
    the first item; `action(g, p)` checks each generator p and turns it into
    an index map q on that ground set, kept with its row of bits 1 << q[i].
    A member is expanded as an unsorted index list x: its image has the mask
    summed from that row over x, and the list [q[i] for i in x].
    """
    maps = []
    for p in automorphism_generators(g):
        q = action(g, p)
        maps.append((q, [1 << j for j in q].__getitem__))
    pending: set[int] = set()  # masks of orbit members not met yet
    for item in items:
        key = sum([1 << i for i in item])
        if key in pending:
            pending.discard(key)  # each item is met once; free its slot
            continue
        yield item
        stack = [item]
        orbit = {key}
        while stack:
            x = stack.pop()
            for q, bit in maps:
                y = sum(map(bit, x))
                if y not in orbit:
                    orbit.add(y)
                    stack.append([q[i] for i in x])
        orbit.discard(key)
        pending |= orbit


def _vertex_partials(
    g: Graph, sets: Iterable[tuple[int, ...]], key: str
) -> Iterator[tuple[Params, list]]:
    """For one vertex set per orbit, in order: its params and the view of
    g's rows without it, labels kept, from `rows_without_vertices`."""
    for gone in _one_per_orbit(g, sets, _on_vertices):
        yield {key: list(gone)}, rows_without_vertices(g, gone)


def _edge_partials(
    g: Graph, num_edges: int, num_vertices: int
) -> Iterator[tuple[Params, list]]:
    """For one set of num_edges edges per orbit, in order: its params and the
    view of g's rows without them, plus num_vertices empty rows, from
    `rows_without_edges`."""
    edges = g.edges()
    picks = combinations(range(len(edges)), num_edges)
    for picked in _one_per_orbit(g, picks, _edge_map):
        combo = [edges[i] for i in picked]
        yield ({"removed": [list(e) for e in combo], "added": num_vertices},
               rows_without_edges(g, combo, num_vertices))


def _target_girth(g: Graph, target_girth: int | None) -> tuple[int, int]:
    """The parent's degree k and the target girth, by default the parent's,
    which a forest lacks; a parent that is not regular has no k."""
    if target_girth is None and g.girth() is ACYCLIC:
        raise ParameterOutOfRange("input graph has no cycle")
    k = g.regularity()
    if k is None:
        raise DegreeMismatch("input must be regular")
    return k, g.girth() if target_girth is None else target_girth


def _girth_at_least(g: Graph, floor: int) -> bool:
    gg = g.girth()
    return gg is ACYCLIC or gg >= floor


def _rewire(
    partials: Iterable[tuple[Params, list]],
    k: int,
    target_girth: int,
    accept: Callable[[Graph], bool],
    budget: Budget | int | None,
    failure: NoCompletion,
) -> Iterator[Emitted]:
    """Accepted completions of the first partial graph that has any.

    Each partial is a view of the parent's rows with the params that
    rebuild it. A completion is the one place the view is compacted: its
    edges are relabeled as `remove_vertices` labels the partial, added as
    "edges", and the Graph on them is the one built. Raises failure when no
    partial has one.
    """
    budget = coerce_budget(budget)
    for head, rows in partials:
        found = False
        for completion in iter_completions(rows, k, target_girth, budget):
            kept, relab = compacted(rows)
            edges = [[relab[u], relab[v]] for u, v in completion]
            out = _build(kept, edges)
            if accept(out):
                found = True
                yield {**head, "edges": edges}, out
        if found:
            return
    raise failure


def apply_delete_vertices(
    g: Graph, removed: Iterable[int], edges: Iterable[tuple[int, int]]
) -> Graph:
    """g without the vertices `removed`, relabeled by `compacted`, plus the
    edges `edges` in the new labels: a vertex deletion's completion, built
    once, as `_rewire` builds it."""
    return _build(compacted(rows_without_vertices(g, removed))[0], edges)


def iter_delete_edges_add_vertices(
    g: Graph,
    num_edges: int,
    num_vertices: int,
    target_girth: int | None = None,
    budget: Budget | int | None = None,
) -> Iterator[Emitted]:
    """Completions for the first edge-deletion combination that admits any."""
    k, target_girth = _target_girth(g, target_girth)
    if num_edges < 0 or num_vertices < 0 or target_girth < 3:
        raise ParameterOutOfRange("counts must be nonnegative, girth at least 3")
    if (2 * num_edges + k * num_vertices) % 2 != 0:
        raise DegreeImbalance(
            f"{num_edges} deleted edges and {num_vertices} added vertices of "
            f"degree {k} leave an odd number of open slots"
        )
    yield from _rewire(
        _edge_partials(g, num_edges, num_vertices), k, target_girth,
        lambda out: _girth_at_least(out, target_girth), budget,
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
    k, target_girth = _target_girth(g, target_girth)
    if not 1 <= num_vertices <= 4:
        raise TooManyVertices("vertex deletion is limited to 1..4 vertices")
    if target_girth < 3:
        raise ParameterOutOfRange("target girth must be at least 3")
    rest = g.order - num_vertices
    if rest <= k:
        raise NoCompletion(f"no {k}-regular graph has only {rest} vertices")
    if k * rest % 2 != 0:
        raise NoCompletion(
            f"{k}-regular graphs of order {rest} fail the parity condition"
        )
    yield from _rewire(
        _vertex_partials(g, combinations(range(g.order), num_vertices), "removed"),
        k, target_girth, lambda out: _girth_at_least(out, target_girth), budget,
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


def _induced_trees(g: Graph, size: int) -> Iterator[tuple[int, ...]]:
    """Vertex sets of the given size that induce a tree, each sorted.

    Sets grow from their least vertex, one neighbour at a time, in
    ascending order; each branch bans its own vertex and those its earlier
    siblings took, so each set is met once. A neighbour of two members
    closes a cycle that every larger set keeps, so it is banned but not
    grown into.
    """

    def grow(chosen: list[int], banned: frozenset[int]) -> Iterator[tuple[int, ...]]:
        if len(chosen) == size:
            yield tuple(sorted(chosen))
            return
        links = Counter(
            w for v in chosen for w in g.adjacency[v]
            if w > chosen[0] and w not in banned
        )
        for c in sorted(links):
            banned |= {c}
            if links[c] == 1:
                yield from grow(chosen + [c], banned)

    for root in range(g.order):
        yield from grow([root], frozenset())


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
    yield from islice(
        _rewire(
            _vertex_partials(g, _induced_trees(g, size), "tree"),
            3, gg - 1, lambda out: out.girth() == gg - 1, budget,
            NoCompletion(f"no induced {size}-vertex tree admits a rewiring"),
        ),
        1,
    )
