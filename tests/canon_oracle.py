"""Reference canonizer for tests: the plain form of the library's search.

It refines every vertex from scratch at every search node and prunes with at
most 64 automorphisms, one step at a time. The search is rooted at a given
coloring: the certificate roots it at the distance profiles, found with a
BFS of its own, as the library does, and canonizes each component on its
own; all-zero colors give the certificates of the library before it used
profiles or split components. The library's certificates and refinements
must equal these exactly.
"""
from __future__ import annotations

from collections import deque

from cagekit import graph6
from cagekit.graph import Graph, disjoint_union, relabeled

_MAX_AUTOS = 64


def refine(adj: tuple[tuple[int, ...], ...], colors: list[int]) -> list[int]:
    """Neighborhood-color refinement, every vertex re-signed every round."""
    n = len(adj)
    colors = list(colors)
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)]
        remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [remap[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _leaf_key(adj, colors):
    n = len(adj)
    pos = colors
    orig_at = [0] * n
    for v in range(n):
        orig_at[pos[v]] = v
    rows = []
    for i in range(n):
        r = 0
        for w in adj[orig_at[i]]:
            r |= 1 << pos[w]
        rows.append(r)
    return tuple(rows), pos


def _individualize(adj, colors, v):
    split = [2 * c for c in colors]
    split[v] -= 1
    return refine(adj, split)


def distance_profiles(g: Graph) -> list[tuple[int, ...]]:
    """Per vertex: the number of vertices at distance 0, 1, ..., n-1, then
    the number unreachable."""
    n = g.order
    profiles = []
    for v in range(n):
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        count = [0] * (n + 1)
        for d in dist.values():
            count[d] += 1
        count[n] = n - len(dist)
        profiles.append(tuple(count))
    return profiles


def canonical_perm(g: Graph, colors=None) -> list[int]:
    """Permutation old->new giving the least leaf of the search rooted at
    `colors` (all zero by default)."""
    n = g.order
    if n == 0:
        return []
    adj = g.adjacency
    base = refine(adj, [0] * n if colors is None else colors)

    best: dict = {"key": None, "pos": None}
    autos: list[tuple[list[int], list[int]]] = []

    def record_auto(pos_a, pos_b):
        if len(autos) >= _MAX_AUTOS:
            return
        inv_b = [0] * n
        for v in range(n):
            inv_b[pos_b[v]] = v
        gamma = [inv_b[pos_a[v]] for v in range(n)]
        if gamma == list(range(n)):
            return
        inv_g = [0] * n
        for v in range(n):
            inv_g[gamma[v]] = v
        autos.append((gamma, inv_g))

    def rec(colors, prefix):
        cell_color = -1
        count = [0] * (max(colors) + 1)
        for c in colors:
            count[c] += 1
        for c, k in enumerate(count):
            if k > 1:
                cell_color = c
                break
        if cell_color < 0:
            key, pos = _leaf_key(adj, colors)
            if best["key"] is None or key < best["key"]:
                best["key"] = key
                best["pos"] = pos
            elif key == best["key"]:
                record_auto(pos, best["pos"])
            return
        cell = [v for v in range(n) if colors[v] == cell_color]
        tried: list[int] = []
        for v in cell:
            skip = False
            for gamma, inv_g in autos:
                if inv_g[v] in tried and all(gamma[p] == p for p in prefix):
                    skip = True
                    break
            if skip:
                continue
            tried.append(v)
            prefix.append(v)
            rec(_individualize(adj, colors, v), prefix)
            prefix.pop()

    rec(base, [])
    return best["pos"]


def components(g: Graph) -> list[list[int]]:
    """The vertex sets of g's components, each sorted, by least vertex."""
    seen: set[int] = set()
    comps = []
    for root in range(g.order):
        if root not in seen:
            comp, queue = {root}, deque([root])
            while queue:
                for w in g.neighbors(queue.popleft()):
                    if w not in comp:
                        comp.add(w)
                        queue.append(w)
            seen |= comp
            comps.append(sorted(comp))
    return comps


def certificate(g: Graph, colors=None) -> str:
    """graph6 line of the canonical form from the root `colors`, by default
    the distance profiles.

    By default each component is canonized alone, rooted at its own
    profiles, and the canonical components are laid side by side in order
    of (order, adjacency rows). Given colors, the whole graph is searched
    at once."""
    if colors is not None:
        return graph6.encode(relabeled(g, canonical_perm(g, colors)))
    parts = []
    for comp in components(g):
        local = {v: i for i, v in enumerate(comp)}
        h = Graph([[local[w] for w in g.neighbors(v)] for v in comp])
        form = relabeled(h, canonical_perm(h, distance_profiles(h)))
        rows = tuple(sum(1 << w for w in form.neighbors(v)) for v in range(form.order))
        parts.append((form.order, rows, form))
    parts.sort(key=lambda part: part[:2])
    whole = Graph([])
    for _, _, form in parts:
        whole = disjoint_union(whole, form)
    return graph6.encode(whole)
