"""Reference canonizer for tests: the plain form of the library's search.

It refines every vertex from scratch at every search node and prunes with at
most 64 automorphisms, one step at a time. The library's certificates and
refinements must equal these exactly.
"""
from __future__ import annotations

from cagekit import graph6
from cagekit.graph import Graph, relabeled

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


def canonical_perm(g: Graph) -> list[int]:
    """Permutation old->new giving the canonical labeling."""
    n = g.order
    if n == 0:
        return []
    adj = g.adjacency
    base = refine(adj, [0] * n)

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


def certificate(g: Graph) -> str:
    """graph6 line of the canonical form."""
    return graph6.encode(relabeled(g, canonical_perm(g)))
