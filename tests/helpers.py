"""Brute-force oracles kept deliberately independent of the library internals."""
from __future__ import annotations

from itertools import combinations, permutations

from cagekit.graph import Graph, relabeled


def brute_girth(g: Graph) -> int | None:
    """Shortest cycle by DFS over all simple cycles; None for forests."""
    n = g.order
    adj = g.adjacency
    best: int | None = None

    def extend(start: int, path: list[int], seen: set[int]) -> None:
        nonlocal best
        u = path[-1]
        for w in adj[u]:
            if w == start and len(path) >= 3:
                if best is None or len(path) < best:
                    best = len(path)
            elif w > start and w not in seen:
                if best is not None and len(path) + 1 >= best:
                    continue
                seen.add(w)
                path.append(w)
                extend(start, path, seen)
                path.pop()
                seen.remove(w)

    for s in range(n):
        extend(s, [s], {s})
    return best


def brute_isomorphic(a: Graph, b: Graph) -> bool:
    """Exhaustive permutation search (use only for order <= 8)."""
    if a.order != b.order or a.size != b.size:
        return False
    if a.degree_sequence() != b.degree_sequence():
        return False
    ea = set(a.edges())
    for p in permutations(range(a.order)):
        ok = True
        for u, v in b.edges():
            x, y = p[u], p[v]
            if ((x, y) if x < y else (y, x)) not in ea:
                ok = False
                break
        if ok:
            return True
    return False


def pack_graph6(n: int, edges) -> str:
    """Independent graph6 writer for n <= 258047 (1- and 4-byte order fields)."""
    assert n <= 258047
    es = {(min(u, v), max(u, v)) for u, v in edges}
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in es else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(n + 63)] if n <= 62 else ["~"] + [chr((n >> s) % 64 + 63) for s in (12, 6, 0)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val * 2 + b
        chars.append(chr(val + 63))
    return "".join(chars)


def cycle_graph(n: int) -> Graph:
    assert n >= 3, "a cycle needs at least 3 vertices"
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def kneser_petersen() -> Graph:
    """Disjointness graph of the 2-subsets of a 5-set (isomorphic to petersen())."""
    pairs = list(combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [(idx[p], idx[q]) for p, q in combinations(pairs, 2) if not set(p) & set(q)]
    return Graph.from_edges(10, edges)


def all_labeled_graphs(n: int):
    """Every labeled simple graph on n vertices (2^(n(n-1)/2) of them)."""
    slots = list(combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        yield Graph.from_edges(n, [e for i, e in enumerate(slots) if mask >> i & 1])


def labeled_regular_graphs(n: int, k: int):
    """All labeled k-regular graphs on n vertices, no symmetry shortcuts."""
    adj: list[set[int]] = [set() for _ in range(n)]
    out: list[Graph] = []

    def rec(u: int) -> None:
        if u == n:
            out.append(Graph.from_edges(n, [(a, b) for a in range(n) for b in adj[a] if a < b]))
            return
        need = k - len(adj[u])
        if need == 0:
            rec(u + 1)
            return
        cands = [v for v in range(u + 1, n) if len(adj[v]) < k and v not in adj[u]]
        for combo in combinations(cands, need):
            for v in combo:
                adj[u].add(v)
                adj[v].add(u)
            rec(u + 1)
            for v in combo:
                adj[u].remove(v)
                adj[v].remove(u)

    rec(0)
    return out


def random_graph(n: int, p: float, rng) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def shuffled(g: Graph, rng) -> Graph:
    perm = list(range(g.order))
    rng.shuffle(perm)
    return relabeled(g, perm)


def hypercube(d: int) -> Graph:
    """The d-cube Q_d: vertices are d-bit words, edges flip one bit."""
    n = 1 << d
    return Graph.from_edges(n, [(v, v ^ (1 << i)) for v in range(n) for i in range(d) if v < v ^ (1 << i)])


def cartesian_product(a: Graph, b: Graph) -> Graph:
    """a □ b: vertex (i, j) is i * b.order + j; one coordinate moves per edge."""
    m = b.order
    edges = [(u * m + j, v * m + j) for u, v in a.edges() for j in range(m)]
    edges += [(i * m + u, i * m + v) for i in range(a.order) for u, v in b.edges()]
    return Graph.from_edges(a.order * m, edges)


def brute_automorphism_count(g: Graph) -> int:
    """Number of automorphisms, by extending a partial map one vertex at a
    time (in breadth-first order) and checking adjacency to every vertex
    already mapped."""
    n = g.order
    adj = [set(row) for row in g.adjacency]
    order: list[int] = []
    seen: set[int] = set()
    for root in range(n):
        if root not in seen:
            seen.add(root)
            order.append(root)
            i = len(order) - 1
            while i < len(order):
                for w in sorted(adj[order[i]]):
                    if w not in seen:
                        seen.add(w)
                        order.append(w)
                i += 1
    image = [-1] * n
    used = [False] * n

    def extend(i: int) -> int:
        if i == n:
            return 1
        v = order[i]
        total = 0
        for x in range(n):
            if used[x] or len(adj[x]) != len(adj[v]):
                continue
            if all((image[u] in adj[x]) == (u in adj[v]) for u in order[:i]):
                image[v], used[x] = x, True
                total += extend(i + 1)
                image[v], used[x] = -1, False
        return total

    return extend(0)


def group_order(n: int, generators) -> int:
    """Order of the permutation group on range(n) that the generators span,
    by listing its elements."""
    identity = tuple(range(n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for gamma in generators:
                q = tuple([gamma[p[v]] for v in range(n)])
                if q not in elements:
                    elements.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(elements)
