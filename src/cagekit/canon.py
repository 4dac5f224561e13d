"""Exact isomorphism via color refinement plus individualization backtracking.

Certificates are the graph6 encoding of a canonical relabeling, so equal
certificates hold exactly for isomorphic graphs and the certificate doubles
as a replayable description of the graph.

A coloring is an ordered partition: each class fills a run of positions and
is named by its first position, so names grow with the class ids `refine`
returns. Refinement is round-synchronous: each round splits every class by
the sorted names of its members' neighbors and orders the pieces by that
signature, exactly as a full round over all vertices would. But a round
signs only the members next to a vertex that moved in the previous round,
plus one member standing for the rest of its class, which all share a
signature; classes with no such member cannot split. A class of two is
split by comparing its two signatures, with no grouping. When a class
splits, every piece but the largest counts as moved (Hopcroft's rule). A
search node starts from its parent's stable partition, and only the
neighbors of the individualized vertex are signed in its first round.

The root of the search is the stable partition of the vertices by their
distance profiles: how many vertices lie at each distance from a vertex,
and how many it cannot reach, from one pass that grows the distance balls
of all vertices together, level by level, as bit masks. Isomorphisms map
profiles onto profiles, so the tree of an isomorphic copy is the same tree
relabeled; automorphisms preserve them, so the leaves still reveal the
whole group. The profiles of a graph with little symmetry split at the
root what refinement alone cannot split in a regular graph, where each
root vertex would cost a refinement of its own. Most graphs certified while
growing spectra are construction outputs with a nontrivial group (77 of the
79 in the five small cubic and (4,4) runs), so most certificates also run a
search below the root.

The search individualizes each vertex of the first non-singleton class in
increasing label order, and the canonical labeling is the leaf with the
least tuple of adjacency bit rows. A leaf equal to the first or best leaf
gives an automorphism; the search backs up to where the two paths part, and
skips every candidate in the orbit of one already tried under the group
generated by the automorphisms found that fix the node's prefix. A node
names the orbits on its cell by ids, and each such automorphism that joins
two orbits relabels the members of one with the id of the other. This is
the design of McKay & Piperno, "Practical graph isomorphism II" (2014), and
of bliss (Junttila & Kaski, 2007), with the distance profile as the one
vertex invariant, applied at the root; no invariant prunes a node below it,
so the least leaf, and with it the certificate, is that of the full tree
under that root.

A disconnected graph is canonized one component at a time: the profile of
vertex 0 counts the vertices it cannot reach, and the pass that grows the
balls also yields each vertex's component. Each component runs the search
on its own rows, rooted at its own profiles, and the canonical components
are laid out in order of (order, least leaf's rows), so that order defines
the certificate of a disconnected graph. A search of the whole graph
would also explore every interchange of isomorphic components (about half
a minute for 200 isolated vertices on a 2-core VM). Each component's
automorphisms, lifted to the graph, and one swap of each two neighboring
components with equal rows, position for position, generate the graph's
automorphism group.

The automorphisms found are kept on the graph; they generate its
automorphism group, which the rewiring searches use to skip isomorphic
deletions. The canonical form moves the graph's rows to their canonical
places and is built with no further check, so a certificate costs the
search, one row permutation and one graph6 encoding.
"""
from __future__ import annotations

from .graph import Graph, relabeled
from . import graph6


def _split(adj, cell_of, order, size, moved) -> None:
    """Refine an ordered partition in place until it is stable.

    `cell_of[v]` is the name (first position) of v's class, `order` lists
    the vertices by position and `size[s]` is the size of the class named
    s. `moved` holds the vertices whose class just changed. Each round
    signs, in every non-singleton class next to a moved vertex, the members
    next to one; the other members of that class share one signature, so
    one of them stands for all. A class of two is decided by comparing its
    two signatures.
    """
    sig = cell_of.__getitem__
    while moved:
        touched: dict[int, set[int]] = {}
        for v in moved:
            for w in adj[v]:
                c = cell_of[w]
                if size[c] > 1:
                    hit = touched.get(c)
                    if hit is None:
                        touched[c] = {w}
                    else:
                        hit.add(w)
        splits = []
        for s, hit in touched.items():
            k = size[s]
            if k == 2:
                u, w = order[s], order[s + 1]
                a, b = sorted(map(sig, adj[u])), sorted(map(sig, adj[w]))
                if a != b:
                    splits.append((s, [[u], [w]] if a < b else [[w], [u]]))
                continue
            groups: dict = {}
            rest = None
            if len(hit) < k:
                for u in order[s : s + k]:
                    if u not in hit:
                        break
                rest = groups[tuple(sorted(map(sig, adj[u])))] = []
            for v in hit:
                key = tuple(sorted(map(sig, adj[v])))
                piece = groups.get(key)
                if piece is None:
                    groups[key] = [v]
                else:
                    piece.append(v)
            if len(groups) > 1:
                if rest is not None:
                    rest += [u for u in order[s : s + k] if u not in hit]
                splits.append((s, [groups[key] for key in sorted(groups)]))
        moved = []
        for s, pieces in splits:
            largest = max(pieces, key=len)
            pos = s
            for piece in pieces:
                m = len(piece)
                order[pos : pos + m] = piece
                size[pos] = m
                if pos != s:
                    for v in piece:
                        cell_of[v] = pos
                if piece is not largest:
                    moved += piece
                pos += m


def _stable_partition(adj, colors):
    """Ordered partition by color, refined until stable."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: colors[v])
    cell_of, size = [0] * n, [0] * n
    s = 0
    for pos, v in enumerate(order):
        if colors[v] != colors[order[s]]:
            s = pos
        cell_of[v] = s
        size[s] += 1
    # every vertex counts as moved, so the first round signs every class
    _split(adj, cell_of, order, size, range(n))
    return cell_of, order, size


def refine(adj: tuple[tuple[int, ...], ...], colors: list[int]) -> list[int]:
    """Neighborhood-color refinement to a stable, label-independent coloring.

    Class ids are the ranks of the classes in the order that sorting by
    (color, neighbor-color multiset) signature gives round after round, so
    the ids depend only on the isomorphism type of the colored graph.
    """
    cell_of, _, _ = _stable_partition(adj, colors)
    rank = {s: i for i, s in enumerate(sorted(set(cell_of)))}
    return [rank[s] for s in cell_of]


def _distance_profiles(adj) -> tuple[list[tuple[int, ...]], list[int]]:
    """For each vertex v, how many vertices lie at distance 0, 1, ..., n-1
    from v, then how many v cannot reach; and the bit mask of v's component.
    Isomorphisms preserve the profiles.

    All distance balls grow at once, as bit masks: the ball of radius d
    about v is v's ball of radius d-1 joined with its neighbors' balls of
    radius d-1. Every new ball is computed before any is stored. A vertex
    whose ball stops growing holds its whole component and drops out.
    """
    n = len(adj)
    ball = [1 << v for v in range(n)]
    size = [1] * n
    counts = [[1] for _ in range(n)]
    live = range(n)
    while live:
        grown = []
        for v in live:
            b = ball[v]
            for w in adj[v]:
                b |= ball[w]
            grown.append(b)
        still = []
        for v, b in zip(live, grown):
            s = b.bit_count()
            if s > size[v]:
                ball[v] = b
                counts[v].append(s - size[v])
                size[v] = s
                still.append(v)
        live = still
    profiles = [tuple(c) + (0,) * (n - len(c)) + (n - s,) for c, s in zip(counts, size)]
    return profiles, ball


def _search(adj, colors):
    """The least leaf of the search rooted at the stable partition of
    `colors`: its adjacency bit rows, the vertex at each position and the
    position of each vertex; and the automorphisms found."""
    n = len(adj)
    cell_of, order, size = _stable_partition(adj, colors)

    first = best = None  # (key, vertex at each position, position of each vertex, path)
    autos: list[list[int]] = []

    def leaf(pos, at, path):
        """Record a leaf; return the depth to back up to, or None."""
        nonlocal first, best
        bit = [1 << p for p in pos]
        bit_of = bit.__getitem__
        key = [sum(map(bit_of, adj[v])) for v in at]
        if first is None:
            first = best = (key, at, pos, path[:])
            return None
        for other in (first, best):
            if key == other[0]:
                autos.append(list(map(other[1].__getitem__, pos)))
                depth = 0
                while path[depth] == other[3][depth]:
                    depth += 1
                return depth
        if key < best[0]:
            best = (key, at, pos, path[:])
        return None

    def search(cell_of, order, size, start, path):
        while start < n and size[start] == 1:
            start += 1
        if start == n:
            return leaf(cell_of, order, path)
        depth = len(path)
        k = size[start]
        cell = order[start : start + k]
        orbit = None  # cell member -> orbit id, once an automorphism fixes the path
        tried: set[int] = set()  # orbit ids holding a tried vertex
        seen = 0
        for v in sorted(cell):
            for gamma in autos[seen:]:
                if list(map(gamma.__getitem__, path)) == path:
                    if orbit is None:
                        orbit = {u: u for u in cell}
                    for u in cell:
                        a, b = orbit[u], orbit[gamma[u]]
                        if a != b:
                            for w in cell:
                                if orbit[w] == b:
                                    orbit[w] = a
                            if b in tried:
                                tried.add(a)
            seen = len(autos)
            r = v if orbit is None else orbit[v]
            if r in tried:
                continue
            tried.add(r)
            c, o, s = cell_of[:], order[:], size[:]
            i = o.index(v, start, start + k)
            o[i], o[start] = o[start], v
            s[start], s[start + 1] = 1, k - 1
            for u in o[start + 1 : start + k]:
                c[u] = start + 1
            _split(adj, c, o, s, [v])
            path.append(v)
            back = search(c, o, s, start + 1, path)
            path.pop()
            if back is not None and back < depth:
                return back
        return None

    search(cell_of, order, size, 0, [])
    return best[0], best[1], best[2], autos


def _canonical_perm(g: Graph) -> list[int]:
    """Permutation old->new giving the canonical labeling; stores the
    automorphisms the search finds in `g._autos`. A disconnected graph is
    searched one component at a time (see the module docstring)."""
    n = g.order
    adj = g.adjacency
    profiles, ball = _distance_profiles(adj)
    if n == 0 or profiles[0][-1] == 0:
        _, _, perm, g._autos = _search(adj, profiles)
        return perm
    members: dict[int, list[int]] = {}
    for v, b in enumerate(ball):
        members.setdefault(b, []).append(v)
    parts = []
    for comp in members.values():
        local = {v: i for i, v in enumerate(comp)}
        rows = [[local[w] for w in adj[v]] for v in comp]
        parts.append((comp, *_search(rows, [profiles[v] for v in comp])))
    parts.sort(key=lambda part: (len(part[0]), part[1]))
    perm = [0] * n
    g._autos = []
    offset = 0
    last_key = last_at = None  # rows, and vertex at each position, of the last component
    for comp, key, at, pos, autos in parts:
        for gamma in autos:
            lift = list(range(n))
            for v, i in zip(comp, gamma):
                lift[v] = comp[i]
            g._autos.append(lift)
        for v, p in zip(comp, pos):
            perm[v] = offset + p
        at = [comp[i] for i in at]
        if key == last_key:
            swap = list(range(n))
            for u, v in zip(last_at, at):
                swap[u], swap[v] = v, u
            g._autos.append(swap)
        last_key, last_at = key, at
        offset += len(comp)
    return perm


def certificate(g: Graph) -> str:
    """graph6 line of g under its canonical labelling; equal iff isomorphic."""
    if g._cert is None:
        g._cert = graph6.encode(relabeled(g, _canonical_perm(g)))
    return g._cert


def automorphism_generators(g: Graph) -> list[list[int]]:
    """Automorphisms (vertex v -> gamma[v]) that generate the automorphism
    group of g; empty when the group is trivial.

    They are the ones the canonical search found, with the swaps of equal
    components of a disconnected graph, so a graph whose certificate is
    known has them already; otherwise the search runs once.
    """
    if g._autos is None:
        _canonical_perm(g)
    return g._autos


def is_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test: order, size and degrees, then certificates."""
    if a.order != b.order or a.size != b.size:
        return False
    if a.degree_sequence() != b.degree_sequence():
        return False
    return certificate(a) == certificate(b)
