"""Splice constructions: amalgamation, subdivisions, Moore-tree doubling,
matching removal, and the canonical double cover."""
from __future__ import annotations

from math import comb
from typing import Callable, Iterator

from .errors import (
    DegreeMismatch,
    NoCompletion,
    NoPerfectMatching,
    NotCubic,
    NotTetravalent,
    OddOrder,
    OrderTooLarge,
    ParameterOutOfRange,
    RadiusTooLarge,
    TreeNotInduced,
)
from .graph import (
    ACYCLIC,
    Graph,
    _check_vertex,
    bfs_distances,
    bipartition,
    disjoint_union,
    edit,
    remove_vertices,
)
from .limits import Budget, coerce_budget

AMALGAMATE_MODES = ("cross", "parallel")

_FAR = 10**9

Params = dict
Emitted = tuple[Params, Graph]


def _required_girth(g: Graph, target_girth: int | None) -> int:
    # every caller requires a 3- or 4-regular input, which has a cycle
    gg = g.girth()
    if target_girth is None:
        return gg
    if type(target_girth) is not int:
        raise ParameterOutOfRange(f"target_girth must be an integer, got {target_girth!r}")
    if target_girth < 3 or target_girth > gg:
        raise ParameterOutOfRange(
            f"target girth {target_girth} outside 3..girth {gg}"
        )
    return target_girth


def _far_rows(g: Graph, floor: int) -> Callable[[int], int]:
    """Compatibility rows over g.edges(), built on first use.

    Bit j of row(i) is set exactly when edges i and j are at edge distance
    at least floor, or in different components. The edge distance of two
    distinct edges is the distance of their closest endpoint pair plus one,
    so that holds when no endpoint of edge j lies within floor - 2 of an
    endpoint of edge i: row(i) is every edge that touches neither
    endpoint's ball of that radius.
    """
    edges = g.edges()
    radius = floor - 2
    full = (1 << len(edges)) - 1
    at_vertex = [0] * g.order
    for j, (u, v) in enumerate(edges):
        at_vertex[u] |= 1 << j
        at_vertex[v] |= 1 << j
    near: list[int | None] = [None] * g.order  # edges touching each vertex's ball
    rows: list[int | None] = [None] * len(edges)

    def touching_ball(v: int) -> int:
        mask = near[v]
        if mask is None:
            mask = 0
            if radius >= 0:
                for w, d in enumerate(bfs_distances(g.adjacency, v, radius)):
                    if d >= 0:
                        mask |= at_vertex[w]
            near[v] = mask
        return mask

    def row(i: int) -> int:
        mask = rows[i]
        if mask is None:
            a, b = edges[i]
            mask = rows[i] = full & ~(touching_ball(a) | touching_ball(b))
        return mask

    return row


def _far_tuples(g: Graph, floor: int, size: int, budget: Budget) -> Iterator[tuple]:
    """size-tuples of edges pairwise at edge distance at least floor (or in
    different components), in combinations order; one budget step per tuple
    tested. A prefix that already holds a close pair spends the steps of
    every tuple it starts at once, as none of them can yield."""
    edges = g.edges()
    m = len(edges)
    row = _far_rows(g, floor)

    def extend(prefix: tuple, far: int, start: int) -> Iterator[tuple]:
        left = size - len(prefix)
        for j in range(start, m - left + 1):
            if left == 1:
                budget.spend()
                if far >> j & 1:
                    yield (*prefix, edges[j])
            elif far >> j & 1:
                yield from extend((*prefix, edges[j]), far & row(j), j + 1)
            else:
                budget.spend(comb(m - 1 - j, left - 1))

    return extend((), (1 << m) - 1, 0)


def amalgamate(g1: Graph, g2: Graph, e1, e2, mode: str = "cross") -> Graph:
    """Join two k-regular graphs by swapping one edge from each."""
    if mode not in AMALGAMATE_MODES:
        raise ParameterOutOfRange(f"mode must be one of {AMALGAMATE_MODES}")
    k = g1.regularity()
    if k is None or g2.regularity() != k:
        raise DegreeMismatch("amalgamation needs two k-regular inputs, same k")
    u1, v1 = g1.as_edge(e1)
    shift = g1.order
    u2, v2 = (w + shift for w in g2.as_edge(e2))
    joins = [(u1, v2), (v1, u2)] if mode == "cross" else [(u1, u2), (v1, v2)]
    return edit(disjoint_union(g1, g2), remove=[(u1, v1), (u2, v2)], add=joins)


def apply_subdivide_pair(g: Graph, e1, e2) -> Graph:
    """Subdivide two edges and join the two new vertices."""
    a, b = g.as_edge(e1)
    c, d = g.as_edge(e2)
    x, y = g.order, g.order + 1
    joins = [(a, x), (b, x), (c, y), (d, y), (x, y)]
    return edit(g, remove=[(a, b), (c, d)], new_vertices=2, add=joins)


def apply_subdivide_triple(g: Graph, e1, e2, e3) -> Graph:
    """Subdivide three edges and join the new vertices through a hub."""
    a, b = g.as_edge(e1)
    c, d = g.as_edge(e2)
    e, f = g.as_edge(e3)
    x, y, z, hub = g.order, g.order + 1, g.order + 2, g.order + 3
    joins = [(a, x), (b, x), (c, y), (d, y), (e, z), (f, z), (x, hub), (y, hub), (z, hub)]
    return edit(g, remove=[(a, b), (c, d), (e, f)], new_vertices=4, add=joins)


def apply_subdivide_merge(g: Graph, e1, e2) -> Graph:
    """Subdivide two edges and identify the two new vertices."""
    a, b = g.as_edge(e1)
    c, d = g.as_edge(e2)
    w = g.order
    joins = [(a, w), (b, w), (c, w), (d, w)]
    return edit(g, remove=[(a, b), (c, d)], new_vertices=1, add=joins)


def iter_subdivide_two(
    g: Graph, target_girth: int | None = None, budget: Budget | int | None = None
) -> Iterator[Emitted]:
    if g.regularity() != 3:
        raise NotCubic("two-edge subdivision needs a cubic input")
    floor = _required_girth(g, target_girth) - 2
    for e1, e2 in _far_tuples(g, floor, 2, coerce_budget(budget)):
        yield {"e1": list(e1), "e2": list(e2)}, apply_subdivide_pair(g, e1, e2)


def iter_subdivide_three(
    g: Graph, target_girth: int | None = None, budget: Budget | int | None = None
) -> Iterator[Emitted]:
    if g.regularity() != 3:
        raise NotCubic("three-edge subdivision needs a cubic input")
    floor = _required_girth(g, target_girth) - 3
    for e1, e2, e3 in _far_tuples(g, floor, 3, coerce_budget(budget)):
        params = {"e1": list(e1), "e2": list(e2), "e3": list(e3)}
        yield params, apply_subdivide_triple(g, e1, e2, e3)


def iter_subdivide_merge(
    g: Graph, target_girth: int | None = None, budget: Budget | int | None = None
) -> Iterator[Emitted]:
    if g.regularity() != 4:
        raise NotTetravalent("subdivide-and-merge needs a 4-regular input")
    # a cycle through the merged vertex runs between ends of the two edges,
    # so it is at least one longer than their edge distance
    floor = _required_girth(g, target_girth) - 1
    for e1, e2 in _far_tuples(g, floor, 2, coerce_budget(budget)):
        yield {"e1": list(e1), "e2": list(e2)}, apply_subdivide_merge(g, e1, e2)


def moore_tree_layers(g: Graph, root: int, depth: int) -> list[list[int]]:
    """Breadth-first layers around root, validated as a Moore tree.

    Layer i must have exactly k(k-1)^(i-1) vertices. That alone forces the
    tree shape up to the leaf layer (leaves may be adjacent to each other):
    the root has k edges down and every other vertex at most k-1, so a full
    layer i-1 sends at most k(k-1)^(i-1) edges down, and each vertex of a
    full layer i has exactly one parent.
    """
    _check_vertex(root, g.order)
    if type(depth) is not int:
        raise ParameterOutOfRange(f"depth must be an integer, got {depth!r}")
    if depth < 0:
        raise ParameterOutOfRange(f"depth must not be negative, got {depth}")
    k = g.regularity()
    if k is None:
        raise DegreeMismatch("Moore tree layers need a regular graph")
    dist = bfs_distances(g.adjacency, root, depth)
    layers = [[root]]
    expected = k
    for i in range(1, depth + 1):
        layer = [v for v, d in enumerate(dist) if d == i]
        if len(layer) != expected:
            raise TreeNotInduced(
                f"layer {i} around {root} has {len(layer)} vertices, wanted {expected}"
            )
        layers.append(layer)
        expected *= k - 1
    return layers


def _join_copies(h: Graph, leaves: list[int], matching: list[int]) -> Graph:
    """Two copies of h, leaf i of the first joined to leaf matching[i] of the second."""
    shift = h.order
    joins = [(leaves[i], leaves[matching[i]] + shift) for i in range(len(leaves))]
    return edit(disjoint_union(h, h), add=joins)


def find_double_matching(
    h: Graph, leaves: list[int], girth_floor: int, budget: Budget
) -> tuple[list[int], Graph] | None:
    """Bijection between leaf sets of two copies of h keeping girth high.

    Returns (pi, joined) or None: pi as a list (copy-one leaf index i pairs
    with copy-two leaf index pi[i]) and the two copies joined by it. A new
    cycle through two join edges has length d(a,b) + d(a',b') + 2, which is
    required to reach girth_floor; as d(a',b') >= 1, a pair beyond the
    radius girth_floor - 3 of each leaf's BFS is _FAR and passes. Full
    assignments are re-checked on the assembled graph. The identity
    bijection is explored first.
    """
    t = len(leaves)
    dist = []
    for leaf in leaves:
        row = bfs_distances(h.adjacency, leaf, girth_floor - 3)
        dist.append([_FAR if row[b] < 0 else row[b] for b in leaves])
    perm = [-1] * t
    used = [False] * t

    def search(i: int) -> tuple[list[int], Graph] | None:
        if i == t:
            built = _join_copies(h, leaves, perm)
            bg = built.girth()
            if bg is not ACYCLIC and bg >= girth_floor:
                return list(perm), built
            return None
        candidates = [i] + [c for c in range(t) if c != i]
        for c in candidates:
            if used[c]:
                continue
            budget.spend()
            ok = True
            for j in range(i):
                if dist[i][j] + dist[perm[j]][c] + 2 < girth_floor:
                    ok = False
                    break
            if not ok:
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


def _doubling_parts(g: Graph, r: int, root: int):
    """Deleted copy plus sorted leaf labels for Moore-tree doubling."""
    if r < 0:
        raise RadiusTooLarge(f"radius {r} is negative")
    layers = moore_tree_layers(g, root, r + 1)
    ball = [v for layer in layers[: r + 1] for v in layer]
    h, relabel = remove_vertices(g, ball)
    leaves = sorted(relabel[v] for v in layers[r + 1])
    return h, leaves


def apply_moore_double(g: Graph, r: int, root: int, matching: list[int]) -> Graph:
    """Assemble the doubled graph from a recorded leaf bijection."""
    h, leaves = _doubling_parts(g, r, root)
    if sorted(matching) != list(range(len(leaves))):
        raise ParameterOutOfRange(f"matching is not a permutation of the {len(leaves)} leaves")
    return _join_copies(h, leaves, matching)


def iter_moore_double(
    g: Graph, r: int, budget: Budget | int | None = None, root: int | None = None
) -> Iterator[Emitted]:
    """Radius-r doublings of g, one per root in order (or at root alone).

    Each deletes the radius-r Moore tree from two copies of g and joins the
    leaves: k-regular of order 2(n - moore_tree_size(k, r)) with girth at
    least girth(g). The leaf bijection is searched so that every pair of
    join edges closes only long cycles.

    A root whose Moore tree is not induced, or whose leaves admit no
    bijection, is skipped; its error is raised only when no root yields.
    """
    if type(r) is not int:
        raise ParameterOutOfRange(f"r must be an integer, got {r!r}")
    gg = g.girth()
    if gg is ACYCLIC or gg < 4:
        raise ParameterOutOfRange("Moore-tree doubling needs girth at least 4")
    if r < 0 or r > gg // 4:
        raise RadiusTooLarge(f"radius {r} outside 0..{gg // 4} for girth {gg}")
    if g.regularity() is None:
        raise DegreeMismatch("Moore-tree doubling needs a regular graph")
    budget = coerce_budget(budget)
    failure: TreeNotInduced | NoCompletion | None = None
    yielded = False
    for v in range(g.order) if root is None else (root,):
        try:
            h, leaves = _doubling_parts(g, r, v)
        except TreeNotInduced as err:
            failure = err
            continue
        found = find_double_matching(h, leaves, gg, budget)
        if found is None:
            failure = NoCompletion(f"no leaf bijection keeps girth {gg} (root {v}, radius {r})")
            continue
        yielded = True
        yield {"r": r, "root": v, "matching": found[0]}, found[1]
    # a graph with a girth has a root, and each root yields or sets failure
    if not yielded:
        raise failure


def find_perfect_matching(
    g: Graph, budget: Budget | int | None = None
) -> list[tuple[int, int]]:
    """A perfect matching: augmenting paths when bipartite, else backtracking."""
    if g.order % 2 != 0:
        raise OddOrder("perfect matchings need an even order")
    budget = coerce_budget(budget)
    sides = bipartition(g)
    if sides is not None:
        return _bipartite_matching(g, sides, budget)
    if g.order > 64:
        raise OrderTooLarge(
            "general matching search is capped at order 64; input is larger"
        )
    return _backtracking_matching(g, budget)


def _bipartite_matching(g, sides, budget) -> list[tuple[int, int]]:
    adj = g.adjacency
    match: dict[int, int] = {}
    for root in sorted(sides[0]):
        # A depth-first search for an augmenting path, one budget step per
        # vertex v it reaches, on an explicit stack: a frame is the matched v
        # it came through, its left vertex and the neighbours not yet tried.
        seen: set[int] = set()
        stack = [(None, root, iter(adj[root]))]
        while stack:
            _, u, nbrs = stack[-1]
            v = next((w for w in nbrs if w not in seen), None)
            if v is None:
                stack.pop()
                continue
            seen.add(v)
            budget.spend()
            if v not in match:
                break
            stack.append((v, match[v], iter(adj[match[v]])))
        else:
            raise NoPerfectMatching(f"no matching saturates vertex {root}")
        match[v] = u
        for (_, w, _), (x, _, _) in zip(stack, stack[1:]):
            match[x] = w
    if 2 * len(match) != g.order:
        raise NoPerfectMatching("matching does not cover every vertex")
    return sorted((u, v) if u < v else (v, u) for v, u in match.items())


def _backtracking_matching(g, budget) -> list[tuple[int, int]]:
    free = set(range(g.order))
    chosen: list[tuple[int, int]] = []

    def extend() -> bool:
        if not free:
            return True
        u = min(free)
        free.discard(u)
        for v in g.neighbors(u):
            if v not in free:
                continue
            budget.spend()
            free.discard(v)
            chosen.append((u, v))
            if extend():
                return True
            chosen.pop()
            free.add(v)
        free.add(u)
        return False

    if not extend():
        raise NoPerfectMatching("backtracking found no perfect matching")
    return sorted(chosen)


def canonical_double_cover(g: Graph) -> Graph:
    """Bipartite double: each vertex splits in two, edges cross the halves."""
    n = g.order
    return Graph([[w + n for w in row] for row in g.adjacency] + list(g.adjacency))
