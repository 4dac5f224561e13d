"""Immutable simple graphs, their distance/girth primitives, and `Record`, the records' base."""
from __future__ import annotations

from typing import Iterable, Sequence

from .errors import IndexOutOfRange, MultiEdge, NotAnEdge, ParameterOutOfRange, SameEdge, ZeroOrder


class _Sentinel:
    """Named sentinel; deliberately unordered so `sentinel >= 3` fails loudly."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


class Record:
    """Immutable value record: a subclass lists its fields in `__slots__`, in
    the order its `__init__` takes them, and sets them through `_set`. Equal
    by type and fields; pickle and copy rebuild through `__init__`."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


#: girth() result for forests.
ACYCLIC = _Sentinel("Acyclic")


def _check_vertex(v: int, n: int) -> None:
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
        raise IndexOutOfRange(f"vertex {v!r} not in 0..{n - 1}")


def bfs_distances(
    adj: Sequence, src: int, radius: int | None = None, dist: list[int] | None = None
) -> list[int]:
    """Distances from src over adjacency rows (a Graph's tuples, or the view
    of a search in progress, whose None rows are deleted vertices that no
    row reaches); -1 where unreachable or beyond `radius`.

    Given `dist`, fills that list in place and treats its non-negative
    entries as visited, so one list can collect several components at the
    cost of the vertices reached. The package's one distance BFS.
    """
    if dist is None:
        dist = [-1] * len(adj)
    dist[src] = 0
    limit = len(adj) if radius is None else radius
    frontier = [src]
    d = 0
    while frontier and d < limit:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


class Graph:
    """Simple undirected graph on vertices 0..n-1, immutable after construction.

    Girth, certificate and automorphism generators are cached on the
    instance; methods are pure, so instances are safe to share.
    """

    __slots__ = ("_adj", "_girth", "_cert", "_autos")

    def __init__(self, adjacency: Iterable[Iterable[int]]):
        adj = [tuple(sorted(nbrs)) for nbrs in adjacency]
        n = len(adj)
        # One pass checks every entry and counts the u < v ones, noting the
        # first whose v-u entry is missing; asymmetry is raised only after
        # every range, loop and repeat check has passed.
        half = 0
        missing = None
        for u, row in enumerate(adj):
            prev = -1
            for v in row:
                if type(v) is not int or not 0 <= v < n:
                    _check_vertex(v, n)  # raises unless v is an int subclass in range
                if v == u:
                    raise SameEdge(f"loop at vertex {u}")
                if v == prev:
                    raise MultiEdge(f"repeated edge {u}-{v}")
                prev = v
                if u < v:
                    half += 1
                    if missing is None and u not in adj[v]:
                        missing = (u, v)
        if missing is not None:
            raise NotAnEdge("asymmetric adjacency {}-{}".format(*missing))
        # each u < v entry has its v-u entry, so a v-u entry without its
        # u < v one is all that can make the counts differ
        if 2 * half != sum(map(len, adj)):
            raise NotAnEdge("asymmetric adjacency")
        self._set(tuple(adj))

    def _set(self, adj: tuple) -> None:
        self._adj: tuple[tuple[int, ...], ...] = adj
        self._girth: int | _Sentinel | None = None
        self._cert: str | None = None
        self._autos: list[list[int]] | None = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return _build([[] for _ in range(n)], edges)

    @classmethod
    def _from_valid_rows(cls, rows: list[list[int]]) -> "Graph":
        """A Graph on rows that are already valid: ints in range, sorted,
        symmetric, with no loop and no repeat. Nothing is checked, so only
        `graph6.decode`, whose byte checks make its rows valid, and
        `relabeled`, whose rows are a valid graph's renamed by a checked
        permutation, call this."""
        g = cls.__new__(cls)
        g._set(tuple(map(tuple, rows)))
        return g

    # -- basic accessors ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._adj)

    @property
    def size(self) -> int:
        return sum(map(len, self._adj)) // 2

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        _check_vertex(v, self.order)
        return self._adj[v]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """The (u, v) pairs with u < v, in lexicographic order (rows are sorted)."""
        return tuple([(u, v) for u, row in enumerate(self._adj) for v in row if u < v])

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(map(len, self._adj)))

    def regularity(self) -> int | None:
        """Common degree if regular, else None; None for the empty graph."""
        degrees = set(map(len, self._adj))
        return degrees.pop() if len(degrees) == 1 else None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, size={self.size})"

    # -- distances ------------------------------------------------------------

    def is_connected(self) -> bool:
        if self.order == 0:
            raise ZeroOrder("connectivity of the empty graph is undefined")
        return -1 not in bfs_distances(self._adj, 0)

    # -- girth ----------------------------------------------------------------

    def girth(self):
        """Length of a shortest cycle; ACYCLIC for forests.

        One BFS per root with two neighbours above it, over the vertices
        >= root, each cut at the depth where it can no longer find a
        shorter cycle.
        """
        if self._girth is None:
            self._girth = self._compute_girth()
        return self._girth

    def _compute_girth(self):
        # A cycle search with depth cuts, not a distance query. An edge from
        # depth du to a vertex already at depth dw = du or du+1 is not a tree
        # edge and closes a walk of length du+dw+1 holding a cycle; an edge
        # back to depth du-1 is the tree edge or was met from its other end.
        # Every such walk is at least the girth, and a shortest cycle lies
        # among the vertices >= its smallest vertex r, where the BFS from r
        # finds it. The cycle leaves r through two neighbours above r, so a
        # root without two such neighbours (rows are sorted) is skipped: the
        # minimum over the other roots is still exact.
        n = self.order
        adj = self._adj
        best = n + 1  # longer than any cycle
        # seen[v] = n*root + depth of v; an entry below n*root is left from
        # an earlier root and means unvisited, so nothing is ever reset
        seen = [-1] * n
        for root, row in enumerate(adj):
            if len(row) < 2 or row[-2] < root:
                continue
            base = n * root
            seen[root] = base
            level = [root]
            du = 0
            while level and 2 * du < best:  # deeper levels cannot improve
                lo = base + du  # the entry of depth du, so dw - du = seen[w] - lo
                if 2 * du + 2 >= best:
                    # no vertex at depth du+1 can improve: only an edge
                    # inside this level can still close a shorter cycle
                    for u in level:
                        for w in adj[u]:
                            if seen[w] == lo:
                                best = 2 * du + 1
                    break
                nxt = []
                for u in level:
                    for w in adj[u]:
                        sw = seen[w]
                        if sw < base:
                            if w > root:
                                seen[w] = lo + 1
                                nxt.append(w)
                        elif sw >= lo and sw - lo + 2 * du + 1 < best:
                            best = sw - lo + 2 * du + 1
                level = nxt
                du += 1
            if best == 3:
                break
        return ACYCLIC if best > n else best

    # -- edge utilities ---------------------------------------------------------

    def as_edge(self, e: tuple[int, int]) -> tuple[int, int]:
        """Normalize e to (min,max) and require it to be present."""
        u, v = e
        _check_vertex(u, self.order)
        _check_vertex(v, self.order)
        if u == v:
            raise SameEdge(f"loop at vertex {u}")
        if u > v:
            u, v = v, u
        if v not in self._adj[u]:
            raise NotAnEdge(f"{u}-{v} is not an edge")
        return (u, v)


# -- surgery (all return new graphs) ------------------------------------------


def _build(rows: list[list[int]], edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on rows plus edges. Endpoints are range-checked to index rows;
    loops, repeated edges and asymmetry are left to the constructor."""
    n = len(rows)
    for u, v in edges:
        if type(u) is not int or not 0 <= u < n:
            _check_vertex(u, n)
        if type(v) is not int or not 0 <= v < n:
            _check_vertex(v, n)
        rows[u].append(v)
        rows[v].append(u)
    return Graph(rows)


def edit(
    g: Graph,
    remove: Iterable[tuple[int, int]] = (),
    add: Iterable[tuple[int, int]] = (),
    new_vertices: int = 0,
) -> Graph:
    """g with the edges `remove` deleted, `new_vertices` isolated vertices
    appended, then the edges `add` inserted, built once.

    A removed edge may be added back. Raises NotAnEdge for a removal g does
    not have or one named twice, MultiEdge for an addition already present or
    repeated, SameEdge for a loop and IndexOutOfRange for an endpoint outside
    the new order.
    """
    return _build([list(r) for r in rows_without_edges(g, remove, new_vertices)], add)


def rows_without_edges(
    g: Graph, remove: Iterable[tuple[int, int]], new_vertices: int
) -> list[tuple[int, ...]]:
    """A view of g's rows with the edges `remove` deleted and `new_vertices`
    empty rows appended: the rows `edit` builds on. The two rows of each
    removed edge are new tuples; every other row is g's own."""
    if type(new_vertices) is not int or new_vertices < 0:
        raise ParameterOutOfRange(f"cannot add {new_vertices!r} vertices")
    rows = list(g.adjacency)
    for e in remove:
        u, v = g.as_edge(e)
        if v not in rows[u]:
            raise NotAnEdge(f"edge {u}-{v} is removed twice")
        rows[u] = tuple([w for w in rows[u] if w != v])
        rows[v] = tuple([w for w in rows[v] if w != u])
    rows.extend(() for _ in range(new_vertices))
    return rows


def rows_without_vertices(g: Graph, gone: Iterable[int]) -> list[tuple[int, ...] | None]:
    """A view of g's rows with the vertices `gone` deleted and labels kept: a
    deleted vertex's row is None, each row next to one is a new tuple without
    it, and every other row is g's own. `compacted` relabels it."""
    rows: list = list(g.adjacency)
    n = len(rows)
    gone = list(gone)
    for v in gone:
        if type(v) is not int or not 0 <= v < n:
            _check_vertex(v, n)
        if rows[v] is None:
            raise IndexOutOfRange(f"vertex {v} is removed twice")
        rows[v] = None
    for v in gone:
        for w in g.adjacency[v]:
            if rows[w] is not None:
                rows[w] = tuple([x for x in rows[w] if rows[x] is not None])
    return rows


def compacted(rows: Sequence[Sequence[int] | None]) -> tuple[list[list[int]], list]:
    """The rows that are not None as lists, relabeled in order; and the
    old->new map, None for a deleted vertex. No row may reach a None row."""
    relab: list = []
    nxt = 0
    for row in rows:
        if row is None:
            relab.append(None)
        else:
            relab.append(nxt)
            nxt += 1
    return [[relab[w] for w in row] for row in rows if row is not None], relab


def remove_vertices(g: Graph, gone: Iterable[int]) -> tuple[Graph, list]:
    """Delete vertices, compact labels; returns (graph, old->new map with None
    holes). Raises IndexOutOfRange for a vertex g lacks or one named twice."""
    rows, relab = compacted(rows_without_vertices(g, gone))
    return Graph(rows), relab


def relabeled(g: Graph, perm: Iterable[int]) -> Graph:
    """Relabel so vertex v becomes perm[v]."""
    p = list(perm)
    n = g.order
    if sorted(p) != list(range(n)):
        raise IndexOutOfRange("not a permutation of the vertex set")
    if set(map(type, p)) - {int}:  # a bool or a float passes the sorted check
        for v in p:
            _check_vertex(v, n)
    # rows of g moved to their new places, with their entries renamed, are
    # symmetric and in range with no loop or repeat, as g's were
    rows: list = [None] * n
    new = p.__getitem__
    for v, row in zip(p, g.adjacency):
        rows[v] = sorted(map(new, row))
    return Graph._from_valid_rows(rows)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    off = g1.order
    return Graph(g1.adjacency + tuple([[w + off for w in row] for row in g2.adjacency]))


def bipartition(g: Graph) -> tuple[set, set] | None:
    """2-coloring as (side0, side1), or None if an odd cycle exists.

    Colors each component by distance parity from its smallest vertex.
    """
    n = g.order
    dist = [-1] * n
    for s in range(n):
        if dist[s] < 0:
            bfs_distances(g.adjacency, s, dist=dist)
    if any((dist[u] - dist[v]) % 2 == 0 for u, v in g.edges()):
        return None
    return ({v for v in range(n) if dist[v] % 2 == 0},
            {v for v in range(n) if dist[v] % 2 == 1})


def check_kg(g: Graph, k: int, girth: int) -> str | None:
    """Why g is not a connected k-regular graph of girth exactly `girth`; None if it is."""
    if g.order == 0:
        return "empty graph"
    if g.regularity() != k:
        return f"not {k}-regular"
    if not g.is_connected():
        return "not connected"
    actual = g.girth()
    if actual is ACYCLIC:
        return "acyclic"
    if actual != girth:
        return f"girth {actual}, expected {girth}"
    return None
