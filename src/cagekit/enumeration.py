"""Exhaustive generation of small connected k-regular graphs with a girth
floor, used as the ground-truth oracle for spectrum holes."""
from __future__ import annotations

from .canon import certificate
from .errors import CapExceeded, ParameterOutOfRange
from .graph import Graph
from .limits import DEFAULT_BUDGET, Budget

_ORDER_CAPS = {2: 16, 3: 16, 4: 11}
_FALLBACK_CAP = 10


def order_cap(k: int) -> int:
    return _ORDER_CAPS.get(k, _FALLBACK_CAP)


def enumerate_regular(
    k: int, n: int, min_girth: int = 3, cap: int = DEFAULT_BUDGET
) -> list[Graph]:
    """All connected k-regular graphs of order n with girth >= min_girth.

    Backtracks vertex by vertex over neighbor sets in lexicographic order;
    vertex 0 always takes the k smallest labels, which loses no isomorphism
    class. Girth pruning rejects an edge whenever its endpoints are already
    close; completeness comes from the final certificate dedup.
    """
    for name, value in (("k", k), ("n", n), ("min_girth", min_girth)):
        if type(value) is not int:
            raise ParameterOutOfRange(f"{name} must be an integer, got {value!r}")
    if k < 2 or min_girth < 3:
        raise ParameterOutOfRange("need degree >= 2 and girth floor >= 3")
    if n < k + 1 or k * n % 2 != 0:
        raise ParameterOutOfRange(
            f"no {k}-regular graph on {n} vertices (parity or order)"
        )
    if n > order_cap(k):
        raise CapExceeded(f"order {n} above the enforced cap {order_cap(k)} for k={k}")
    budget = Budget(cap)
    adj = [0] * n
    deg = [0] * n
    full = (1 << n) - 1
    found: dict[str, Graph] = {}

    # Bitset BFS of its own: the oracle stays independent of graph's BFS.
    def grow(mask: int) -> int:
        # union of the neighbourhoods of the vertices in mask
        out = 0
        while mask:
            low = mask & -mask
            out |= adj[low.bit_length() - 1]
            mask ^= low
        return out

    def too_close(u: int, w: int) -> bool:
        # True when dist(u, w) <= min_girth - 2, so edge uw would close a short cycle
        frontier = 1 << u
        seen = frontier
        for _ in range(min_girth - 2):
            nxt = grow(frontier) & ~seen
            if nxt >> w & 1:
                return True
            if not nxt:
                return False
            seen |= nxt
            frontier = nxt
        return False

    def sealed() -> bool:
        # component of vertex 0 is saturated but does not span the graph
        comp = 1
        frontier = 1
        while frontier:
            frontier = grow(frontier) & ~comp
            comp |= frontier
        if comp == full:
            return False
        m = comp
        while m:
            low = m & -m
            if deg[low.bit_length() - 1] < k:
                return False
            m ^= low
        return True

    def link(u: int, w: int) -> None:
        adj[u] |= 1 << w
        adj[w] |= 1 << u
        deg[u] += 1
        deg[w] += 1

    def unlink(u: int, w: int) -> None:
        adj[u] &= ~(1 << w)
        adj[w] &= ~(1 << u)
        deg[u] -= 1
        deg[w] -= 1

    def record() -> None:
        g = Graph(
            [[w for w in range(n) if adj[v] >> w & 1] for v in range(n)]
        )
        cert = certificate(g)
        if cert not in found:
            found[cert] = g

    def fill(u: int) -> None:
        budget.spend()
        if u == n:
            record()
            return
        need = k - deg[u]
        if need == 0:
            if not sealed():
                fill(u + 1)
            return

        def pick(start: int, left: int) -> None:
            if left == 0:
                if not sealed():
                    fill(u + 1)
                return
            tried_isolated = False
            for w in range(start, n - left + 1):
                if deg[w] >= k or adj[u] >> w & 1:
                    continue
                if deg[w] == 0:
                    # isolated vertices are interchangeable: trying the
                    # smallest one loses no isomorphism class
                    if tried_isolated:
                        continue
                    tried_isolated = True
                if too_close(u, w):
                    continue
                budget.spend()
                link(u, w)
                pick(w + 1, left - 1)
                unlink(u, w)

        pick(u + 1, need)

    for w in range(1, k + 1):
        link(0, w)
    fill(1)
    return [found[cert] for cert in sorted(found)]
