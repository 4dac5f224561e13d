"""Graph primitives against brute-force oracles and hand values."""
from __future__ import annotations

import random
import time

import pytest

from cagekit.graph import (
    ACYCLIC,
    Graph,
    bfs_distances,
    bipartition,
    check_kg,
    disjoint_union,
    edit,
    relabeled,
    remove_vertices,
)
from cagekit.errors import (
    IndexOutOfRange,
    MultiEdge,
    NotAnEdge,
    ParameterOutOfRange,
    SameEdge,
    ZeroOrder,
)
from cagekit.named import (
    complete_bipartite,
    complete_graph,
    heawood,
    mcgee,
    petersen,
    tutte_coxeter,
)

from cagekit import graph6
from cagekit.constructions import canonical_double_cover

import read_oracle
from helpers import (
    all_labeled_graphs,
    brute_girth,
    cycle_graph,
    hypercube,
    path_graph,
    random_graph,
    shuffled,
)


def test_girth_matches_brute_force_exhaustively_to_order_5():
    for n in range(6):
        for g in all_labeled_graphs(n):
            expect = brute_girth(g)
            got = g.girth()
            if expect is None:
                assert got is ACYCLIC
            else:
                assert got == expect


def test_girth_matches_brute_force_on_random_graphs():
    rng = random.Random(20260815)
    for _ in range(300):
        n = rng.randint(6, 8)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.7]), rng)
        expect = brute_girth(g)
        got = g.girth()
        if expect is None:
            assert got is ACYCLIC
        else:
            assert got == expect


def test_girth_hand_values():
    assert complete_graph(4).girth() == 3
    assert complete_bipartite(3, 3).girth() == 4
    assert cycle_graph(9).girth() == 9
    assert petersen().girth() == 5
    assert path_graph(5).girth() is ACYCLIC
    assert Graph.from_edges(0, []).girth() is ACYCLIC


def _random_forest(n, rng):
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.9])


def _roots_searched(g):
    """The roots the girth search starts from: those with two neighbours above."""
    return [v for v, row in enumerate(g.adjacency) if len(row) >= 2 and row[-2] > v]


def test_girth_matches_the_all_roots_oracle():
    rng = random.Random(9)
    cases = []
    for _ in range(60):
        n = rng.randint(20, 130)
        cases.append(random_graph(n, rng.choice([1.2, 2.0, 3.0, 6.0]) / n, rng))
    named = (tutte_coxeter(), mcgee(), hypercube(5), heawood())
    cases += [shuffled(g, rng) for g in named for _ in range(3)]
    for _ in range(10):
        a, b = _random_forest(rng.randint(1, 40), rng), _random_forest(rng.randint(1, 40), rng)
        cases += [a, disjoint_union(a, b), disjoint_union(a, cycle_graph(rng.randint(3, 30))),
                  disjoint_union(cycle_graph(rng.randint(3, 30)), shuffled(petersen(), rng))]
    # the only shortest cycle is a square, or a triangle, on the highest labels
    nine = [(v, (v + 1) % 9) for v in range(9)]
    cases.append(Graph.from_edges(13, nine + [(8, 9), (9, 10), (10, 11), (11, 12), (12, 9)]))
    cases.append(Graph.from_edges(12, nine + [(8, 9), (9, 10), (10, 11), (11, 9)]))
    # The search skips a root with fewer than two neighbours above it. The
    # only shortest cycle is the square 2-5-7-6, whose least vertex 2 also
    # has the neighbours 0 and 1 below it.
    square = Graph.from_edges(8, [(2, 5), (5, 7), (7, 6), (6, 2), (0, 2), (1, 2),
                                  (0, 3), (3, 4), (1, 4)])
    assert square.girth() == 4 and square.neighbors(2) == (0, 1, 5, 6)
    # one hexagon with trees hung on it, relabeled so that every vertex but
    # the hexagon's least one, 4, has at most one neighbour above it
    hexagon = relabeled(Graph.from_edges(12, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                                              (0, 6), (6, 7), (2, 8), (8, 9), (3, 10),
                                              (10, 11)]),
                        [4, 5, 7, 9, 8, 6, 3, 2, 1, 0, 10, 11])
    assert _roots_searched(hexagon) == [4]
    # a forest relabeled so that each vertex's one neighbour above it is its parent
    forest = _random_forest(40, rng)
    forest = relabeled(forest, [forest.order - 1 - v for v in range(forest.order)])
    assert _roots_searched(forest) == [] and forest.size > 30
    cases += [square, hexagon, forest]
    for g in cases:
        assert g.girth() == read_oracle.girth(g), g
    assert {read_oracle.girth(g) for g in cases} >= {ACYCLIC, 3, 4, 5, 6, 7, 8}


def _random_bipartite(n, p, rng):
    side = [rng.random() < 0.5 for _ in range(n)]
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if side[u] != side[v] and rng.random() < p])


def test_girth_matches_the_all_roots_oracle_on_bipartite_and_odd_components():
    # The search skips odd-cycle scans when the graph is bipartite, so a
    # bipartite component beside a non-bipartite one must not hide the odd
    # cycle, in either order.
    pairs = [(cycle_graph(4), cycle_graph(5)), (heawood(), petersen()),
             (complete_bipartite(3, 3), cycle_graph(7)), (cycle_graph(6), cycle_graph(5)),
             (tutte_coxeter(), cycle_graph(7))]
    cases = [disjoint_union(a, b) for pair in pairs for a, b in (pair, pair[::-1])]
    assert [g.girth() for g in cases] == [4, 4, 5, 5, 4, 4, 5, 5, 7, 7]
    rng = random.Random(37)
    cases += [_random_forest(rng.randint(1, 30), rng) for _ in range(10)]
    cases += [Graph.from_edges(0, []), Graph.from_edges(3, [])]
    cases += [cycle_graph(n) for n in range(3, 15)]
    cases += [mcgee(), tutte_coxeter(), shuffled(mcgee(), rng), shuffled(tutte_coxeter(), rng)]
    bipartite = 0
    for i in range(2000):
        n = rng.randint(2, 30)
        p = rng.choice([1.5, 2.5, 4.0]) / n
        if i % 3 == 0:
            g = _random_bipartite(n, 2 * p, rng)
            assert bipartition(g) is not None
        else:
            g = random_graph(n, p, rng)
        bipartite += bipartition(g) is not None
        cases.append(g)
    assert bipartite > 800
    for g in cases:
        assert g.girth() == read_oracle.girth(g), g
    assert {read_oracle.girth(g) for g in cases} >= {ACYCLIC, *range(3, 15)}


def test_acyclic_sentinel_refuses_comparison():
    with pytest.raises(TypeError):
        _ = path_graph(3).girth() >= 3


def test_distance_and_unreachable():
    assert bfs_distances(cycle_graph(6).adjacency, 0) == [0, 1, 2, 3, 2, 1]
    two = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert bfs_distances(two.adjacency, 0) == [0, 1, 1, -1, -1, -1]


def test_connectivity():
    assert cycle_graph(5).is_connected()
    assert not disjoint_union(cycle_graph(3), cycle_graph(3)).is_connected()
    with pytest.raises(ZeroOrder):
        Graph.from_edges(0, []).is_connected()


def test_as_edge_normalizes_a_present_edge():
    p = petersen()
    assert p.as_edge((1, 0)) == (0, 1)
    with pytest.raises(SameEdge):
        p.as_edge((3, 3))
    with pytest.raises(NotAnEdge):
        p.as_edge((0, 2))


def test_equal_graphs_hash_alike_and_show_their_counts():
    g, twin = petersen(), graph6.decode(graph6.encode(petersen()))
    assert g == twin and g is not twin and hash(g) == hash(twin)
    assert repr(g) == "Graph(order=10, size=15)"


def test_constructor_validation():
    with pytest.raises(MultiEdge):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(SameEdge):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(IndexOutOfRange):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(NotAnEdge):
        Graph([(1,), ()])  # asymmetric adjacency
    with pytest.raises(NotAnEdge, match="^asymmetric adjacency$"):
        Graph([[], [0]])  # the entry lies only in the higher row
    # a range, loop or repeat error comes before asymmetry
    with pytest.raises(IndexOutOfRange):
        Graph([(1,), (5,)])  # 0-1 lacks 1-0, and 5 is out of range
    with pytest.raises(SameEdge):
        Graph([(1,), (1,)])  # 0-1 lacks 1-0, and 1-1 is a loop
    with pytest.raises(MultiEdge):
        Graph([(1,), (), (0, 0)])
    with pytest.raises(NotAnEdge, match="^asymmetric adjacency 0-1$"):
        Graph([(1, 2), (), (0,)])  # the first u < v entry without its match


_BUILT = {
    "Graph": lambda: Graph([(1, 2), (0, 2), (0, 1), ()]),
    "from_edges": lambda: Graph.from_edges(6, [(4, 1), (0, 5), (3, 2), (1, 0), (5, 3)]),
    "graph6.decode": lambda: graph6.decode(graph6.encode(petersen())),
    "edit": lambda: edit(heawood(), remove=[(0, 1)], new_vertices=2, add=[(0, 14), (1, 15)]),
    "remove_vertices": lambda: remove_vertices(mcgee(), [3, 0, 17])[0],
    "relabeled": lambda: relabeled(petersen(), [(7 * v) % 10 for v in range(10)]),
    "disjoint_union": lambda: disjoint_union(path_graph(4), cycle_graph(5)),
    "canonical_double_cover": lambda: canonical_double_cover(petersen()),
}


@pytest.mark.parametrize("build", list(_BUILT.values()), ids=list(_BUILT))
def test_edges_and_size_are_derived_from_the_rows(build):
    g = build()
    rows = g.adjacency
    assert g.edges() == tuple(sorted((u, v) for u, row in enumerate(rows) for v in row if u < v))
    assert g.size == len(g.edges()) == sum(g.degree_sequence()) // 2
    assert g.size > 0 and all(list(row) == sorted(row) for row in rows)


@pytest.mark.parametrize("bad, shown", [(True, "True"), (1.0, "1.0"), (-1, "-1"), (2, "2")])
def test_constructor_rejects_entries_that_are_not_vertices(bad, shown):
    with pytest.raises(IndexOutOfRange, match=rf"^vertex {shown} not in 0\.\.1$"):
        Graph([(bad,), (0,)])
    with pytest.raises(IndexOutOfRange, match=rf"^vertex {shown} not in 0\.\.1$"):
        Graph.from_edges(2, [(0, bad)])


def test_constructor_accepts_int_subclasses():
    class Label(int):
        pass

    g = Graph([(Label(1),), (Label(0),)])
    assert g == Graph([(1,), (0,)]) and g.edges() == ((0, 1),)


@pytest.mark.parametrize(
    "perm",
    [
        [float(v) for v in range(10)],
        [0, 1, 2, 3, 4.0, 5, 6, 7, 8, 9],
        [True, False, 2, 3, 4, 5, 6, 7, 8, 9],
        [0, True, 2, 3, 4, 5, 6, 7, 8, 9],
        [0] * 10,
        list(range(9)),
        list(range(11)),
        list(range(1, 11)),
    ],
    ids=["floats", "one-float", "bools", "one-bool", "repeats", "short", "long", "shifted"],
)
def test_relabeled_rejects_what_is_not_a_permutation(perm):
    with pytest.raises(IndexOutOfRange):
        relabeled(petersen(), perm)


def test_relabeled_moves_the_rows():
    """The rows of g, moved and renamed, are the graph built from g's
    renamed edge list, with int entries, on irregular and disconnected
    graphs too."""
    rng = random.Random(23)
    graphs = [petersen(), path_graph(7), Graph.from_edges(0, []), Graph.from_edges(3, [])]
    graphs += [disjoint_union(complete_bipartite(2, 4), Graph.from_edges(2, [])), mcgee()]
    for g in graphs:
        for _ in range(3):
            perm = list(range(g.order))
            rng.shuffle(perm)
            h = relabeled(g, perm)
            assert h == Graph.from_edges(g.order, [(perm[u], perm[v]) for u, v in g.edges()])
            assert all(type(w) is int for row in h.adjacency for w in row)
            assert relabeled(h, sorted(range(g.order), key=perm.__getitem__)) == g


def test_surgery():
    k4 = complete_graph(4)
    assert edit(k4, remove=[(0, 1)]).size == 5
    with pytest.raises(NotAnEdge):
        edit(edit(k4, remove=[(0, 1)]), remove=[(0, 1)])
    with pytest.raises(MultiEdge):
        edit(cycle_graph(4), add=[(0, 1)])
    g, relab = remove_vertices(petersen(), [0])
    assert g.order == 9 and relab[0] is None and relab[9] == 8
    assert sorted(len(g.neighbors(v)) for v in range(9)) == [2, 2, 2, 3, 3, 3, 3, 3, 3]


def test_edit_is_the_old_surgery_chain():
    """Removals, then new vertices, then additions, built once: the graph the
    chain from_edges(remove, append, add) gives."""
    c5 = cycle_graph(5)
    joins = [(0, 5), (1, 5), (2, 6), (3, 6), (5, 6)]
    h = edit(c5, remove=[(1, 0), (2, 3)], new_vertices=2, add=joins)
    kept = [e for e in c5.edges() if e not in ((0, 1), (2, 3))]
    assert h == Graph.from_edges(7, kept + joins)
    assert edit(c5) == c5 and edit(c5, new_vertices=1).order == 6


def test_edit_adds_a_removed_edge_back():
    c5 = cycle_graph(5)
    assert edit(c5, remove=[(0, 1)], add=[(1, 0)]) == c5


def test_a_repeated_removal_raises():
    """An edge or a vertex named twice is an error, not one removal."""
    with pytest.raises(NotAnEdge):
        edit(petersen(), remove=[(0, 1), (1, 0)])
    with pytest.raises(IndexOutOfRange):
        remove_vertices(petersen(), [3, 3])


@pytest.mark.parametrize("gone", [[10], [True], [-1], [2.0]])
def test_remove_vertices_takes_only_vertices(gone):
    with pytest.raises(IndexOutOfRange, match=r" not in 0\.\.9$"):
        remove_vertices(petersen(), gone)


def test_edit_errors():
    c5 = cycle_graph(5)
    with pytest.raises(NotAnEdge):
        edit(c5, remove=[(0, 2)])
    with pytest.raises(MultiEdge):
        edit(c5, add=[(0, 1)])  # present
    with pytest.raises(MultiEdge):
        edit(c5, add=[(0, 2), (2, 0)])  # repeated
    with pytest.raises(SameEdge):
        edit(c5, add=[(3, 3)])
    with pytest.raises(IndexOutOfRange):
        edit(c5, remove=[(0, 5)])  # removals are checked against c5
    with pytest.raises(ParameterOutOfRange):
        edit(c5, new_vertices=-1)


@pytest.mark.parametrize("count", [1.0, True, "1", None])
def test_edit_adds_an_int_count_of_vertices(count):
    with pytest.raises(ParameterOutOfRange, match="cannot add"):
        edit(cycle_graph(5), new_vertices=count)


def test_edit_range_covers_the_new_vertices():
    c5 = cycle_graph(5)
    assert 0 in edit(c5, new_vertices=2, add=[(0, 6)]).neighbors(6)
    with pytest.raises(IndexOutOfRange):
        edit(c5, new_vertices=2, add=[(0, 7)])
    with pytest.raises(IndexOutOfRange):
        edit(c5, add=[(0, 5)])
    with pytest.raises(IndexOutOfRange):
        edit(c5, add=[(-1, 0)])


def test_regularity_and_check_kg():
    assert petersen().regularity() == 3
    assert path_graph(3).regularity() is None
    assert check_kg(petersen(), 3, 5) is None
    assert check_kg(petersen(), 3, 6) is not None
    assert check_kg(path_graph(4), 3, 5) is not None
    assert check_kg(disjoint_union(complete_graph(4), complete_graph(4)), 3, 3) == "not connected"
    assert check_kg(Graph([]), 3, 5) == "empty graph"
    assert check_kg(complete_graph(2), 1, 3) == "acyclic"


def test_bipartition():
    got = bipartition(complete_bipartite(3, 4))
    assert got is not None and {len(got[0]), len(got[1])} == {3, 4}
    assert bipartition(petersen()) is None


def test_bipartition_of_disjoint_unions():
    sides = bipartition(disjoint_union(cycle_graph(4), cycle_graph(6)))
    assert sides is not None and [len(side) for side in sides] == [5, 5]
    assert bipartition(disjoint_union(cycle_graph(4), cycle_graph(5))) is None
    # isolated vertices land on side 0, as the root of their own component
    g = disjoint_union(path_graph(3), Graph.from_edges(2, []))
    assert bipartition(g) == ({0, 2, 3, 4}, {1})
    assert bipartition(Graph.from_edges(3, [])) == ({0, 1, 2}, set())
    assert bipartition(Graph.from_edges(0, [])) == (set(), set())


def test_bipartition_is_linear_in_components():
    # one BFS list for all components: 20,000 isolated vertices, not 20,000 lists
    start = time.perf_counter()
    sides = bipartition(Graph.from_edges(20_000, []))
    assert time.perf_counter() - start < 2
    assert sides == (set(range(20_000)), set())


def test_bipartition_matches_brute_force_random():
    rng = random.Random(11)
    for _ in range(100):
        g = random_graph(rng.randint(1, 9), rng.choice([0.15, 0.3]), rng)
        two_colorable = any(
            all((mask >> u & 1) != (mask >> v & 1) for u, v in g.edges())
            for mask in range(2**g.order)
        )
        sides = bipartition(g)
        assert (sides is not None) == two_colorable
        if sides is not None:
            assert sides[0] | sides[1] == set(range(g.order))
            assert all((u in sides[0]) != (v in sides[0]) for u, v in g.edges())


def _components(g):
    """Each vertex's component as its least vertex, by union-find."""
    root = list(range(g.order))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges():
        a, b = sorted((find(u), find(v)))
        root[b] = a
    return [find(v) for v in range(g.order)]


def test_bipartition_matches_brute_force_with_isolated_vertices():
    # the two sides are the one 2-colouring that puts the least vertex of
    # each component on side 0
    rng = random.Random(370)
    for _ in range(150):
        g = random_graph(rng.randint(1, 7), rng.choice([0.2, 0.4]), rng)
        g = shuffled(disjoint_union(g, Graph.from_edges(rng.randint(1, 3), [])), rng)
        least = set(_components(g))
        colourings = [
            mask for mask in range(2**g.order)
            if not any(mask >> v & 1 for v in least)
            and all((mask >> u & 1) != (mask >> v & 1) for u, v in g.edges())
        ]
        assert len(colourings) <= 1
        sides = bipartition(g)
        if not colourings:
            assert sides is None
        else:
            [mask] = colourings
            assert sides == ({v for v in range(g.order) if not mask >> v & 1},
                             {v for v in range(g.order) if mask >> v & 1})


@pytest.mark.parametrize("g, components, bipartite", [
    (petersen(), 1, False),
    (disjoint_union(cycle_graph(4), cycle_graph(6)), 2, True),
    (disjoint_union(disjoint_union(heawood(), petersen()), Graph.from_edges(2, [])), 4, False),
    (Graph.from_edges(5, [(0, 1)]), 4, True),
], ids=["petersen", "C4+C6", "heawood+petersen+2K1", "K2+3K1"])
def test_one_graph_runs_one_depth_pass(monkeypatch, g, components, bipartite):
    # connectivity, the sides and the girth's bipartite cut read one cached
    # list of BFS depths, filled by one bfs_distances call per component,
    # each from the component's least vertex
    calls = []

    def counted(adj, src, *args, **kwargs):
        calls.append(src)
        return bfs_distances(adj, src, *args, **kwargs)

    g = Graph(g.adjacency)  # a fresh instance, with nothing cached
    monkeypatch.setattr("cagekit.graph.bfs_distances", counted)
    assert g.is_connected() == (components == 1)
    assert (bipartition(g) is not None) == bipartite
    assert g.girth() == read_oracle.girth(g)
    assert calls == sorted(set(_components(g))) and len(calls) == components
    # girth() first, on another fresh instance, runs the same pass once
    calls.clear()
    assert Graph(g.adjacency).girth() == g.girth()
    assert len(calls) == components


def _all_pairs_distances(g):
    """Floyd-Warshall, an oracle that shares nothing with the BFS; None = no path."""
    n = g.order
    far = n + 1
    d = [[0 if i == j else 1 if j in g.neighbors(i) else far for j in range(n)] for i in range(n)]
    for m in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][m] + d[m][j] < d[i][j]:
                    d[i][j] = d[i][m] + d[m][j]
    return [[None if x == far else x for x in row] for row in d]


@pytest.mark.parametrize("radius", [None, 0, 1, 2, 3])
def test_bfs_distances_is_distances_from_cut_at_radius(radius):
    rng = random.Random(5)
    graphs = [disjoint_union(cycle_graph(5), path_graph(4)), Graph.from_edges(1, [])]
    graphs += [random_graph(rng.randint(2, 12), 0.2, rng) for _ in range(40)]
    for g in graphs:
        rows = [set(row) for row in g.adjacency]
        oracle = _all_pairs_distances(g)
        for src in range(g.order):
            want = [
                -1 if d is None or (radius is not None and d > radius) else d
                for d in oracle[src]
            ]
            assert bfs_distances(g.adjacency, src, radius) == want
            assert bfs_distances(rows, src, radius) == want
        if radius is None:
            # one shared list collects every component, each from its least vertex
            shared = [-1] * g.order
            for src in range(g.order):
                if shared[src] < 0:
                    assert bfs_distances(g.adjacency, src, dist=shared) is shared
            roots = [min(u for u in range(g.order) if oracle[u][v] is not None)
                     for v in range(g.order)]
            assert shared == [oracle[roots[v]][v] for v in range(g.order)]
