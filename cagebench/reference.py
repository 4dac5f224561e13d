"""Independent oracles for the benchmark's output checks.

Nothing here imports cagekit: inputs are plain edge lists, girth and
connectivity come from a separate BFS, and the expected lines of
`cagekit verify` / `cagekit girth` are derived from those alone.
"""
from __future__ import annotations

import random
from collections import deque


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def relabel(n, edges, rng):
    """Apply a seeded random permutation to an edge list."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def splice_two(n, edges, rng):
    """Two adjacent new vertices n and n+1, spliced into two disjoint edges
    drawn from `rng`: n into (a, b), n+1 into (c, d). Returns (n + 2, edges)."""
    edges = [tuple(e) for e in edges]
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if not {a, b} & {c, d}:
            break
    kept = [e for e in edges if e not in ((a, b), (c, d))]
    return n + 2, kept + [(a, n), (b, n), (c, n + 1), (d, n + 1), (n, n + 1)]


def random_regular(n, k, rng):
    """Uniform simple k-regular graph on n vertices (pairing model, rejection)."""
    while True:
        points = [v for v in range(n) for _ in range(k)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = points[i], points[i + 1]
            e = (min(u, v), max(u, v))
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            return sorted(edges)


def girth(adj):
    """Shortest cycle length, or None for a forest."""
    n = len(adj)
    best = None
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= best:
                break
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cycle = dist[u] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def connected(adj):
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def kg_reason(adj, k, g):
    """Why the graph is not a connected k-regular graph of girth g; None if it is."""
    if not adj:
        return "empty graph"
    if any(len(row) != k for row in adj):
        return f"not {k}-regular"
    if not connected(adj):
        return "not connected"
    actual = girth(adj)
    if actual is None:
        return "acyclic"
    if actual != g:
        return f"girth {actual}, expected {g}"
    return None


def verify_lines(graphs, k, g):
    """Expected stdout and exit code of `cagekit verify --k K --g G FILE`."""
    lines = []
    failed = 0
    for i, adj in enumerate(graphs, start=1):
        reason = kg_reason(adj, k, g)
        if reason is None:
            lines.append(f"line {i}: PASS")
        else:
            lines.append(f"line {i}: FAIL {reason}")
            failed += 1
    return lines, 1 if failed else 0


def girth_lines(graphs):
    """Expected stdout of `cagekit girth FILE`."""
    lines = []
    for adj in graphs:
        degrees = sorted(len(row) for row in adj)
        if not degrees:
            profile = "none"
        elif degrees[0] == degrees[-1]:
            profile = str(degrees[0])
        else:
            profile = f"{degrees[0]}..{degrees[-1]}"
        gg = girth(adj)
        lines.append(f"order={len(adj)} degrees={profile} girth={'acyclic' if gg is None else gg}")
    return lines


def seeded_rng(workload, seed):
    """One random stream per (workload, seed); string seeds hash stably."""
    return random.Random(f"{workload}:{seed}")
