"""Edge amalgamation, subdivisions, Moore-tree doubling, matchings, covers."""
from __future__ import annotations

import hashlib
import os
import random
from collections import Counter

import pytest

from cagekit import constructions, graph6
from cagekit.canon import certificate, is_isomorphic
from cagekit.constructions import (
    amalgamate,
    apply_moore_double,
    canonical_double_cover,
    find_perfect_matching,
    iter_moore_double,
    iter_subdivide_two,
    moore_tree_layers,
)
from cagekit.enumeration import enumerate_regular
from cagekit.errors import (
    BudgetExhausted,
    DegreeMismatch,
    IndexOutOfRange,
    NoCompletion,
    NoPerfectMatching,
    NotAnEdge,
    NotCubic,
    NotTetravalent,
    OddOrder,
    OrderTooLarge,
    ParameterOutOfRange,
    RadiusTooLarge,
    TreeNotInduced,
)
from cagekit.families import CirculantSpec, circulant, circulant44, quartic_parity_graph
from cagekit.graph import (
    Graph,
    bfs_distances,
    bipartition,
    disjoint_union,
    edit,
    remove_vertices,
)
from cagekit.limits import Budget
from cagekit.named import (
    complete_bipartite,
    complete_graph,
    heawood,
    lcf_graph,
    mcgee,
    petersen,
    tutte_coxeter,
)
from cagekit.recipes import apply_operation, construct
import canon_oracle
import scan_oracle
from conftest import SEED34
from helpers import cycle_graph, random_graph, shuffled


def assert_regular(g: Graph, k: int, order: int, girth_floor: int) -> None:
    assert g.order == order
    assert g.regularity() == k
    assert g.is_connected()
    assert g.girth() >= girth_floor


def test_amalgamate_orders_and_degrees():
    k4 = complete_graph(4)
    k33 = complete_bipartite(3, 3)
    h = amalgamate(k4, k4, (0, 1), (0, 1))
    assert_regular(h, 3, 8, 3)
    h = amalgamate(k4, k33, (0, 1), (0, 3))
    assert_regular(h, 3, 10, 3)
    # sizes add up: one edge removed from each side, two added back
    assert h.size == k4.size + k33.size


def test_amalgamate_preserves_girth_of_high_girth_parts():
    p = petersen()
    h = amalgamate(p, p, (0, 1), (0, 1))
    assert_regular(h, 3, 20, 5)
    assert h.girth() == 5


def test_amalgamate_modes_differ():
    p = petersen()
    a = amalgamate(p, p, (0, 1), (2, 3), "cross")
    b = amalgamate(p, p, (0, 1), (2, 3), "parallel")
    assert a.order == b.order == 20
    assert a.regularity() == b.regularity() == 3


def test_amalgamate_rejects_bad_input():
    with pytest.raises(DegreeMismatch):
        amalgamate(complete_graph(4), cycle_graph(5), (0, 1), (0, 1))
    with pytest.raises(NotAnEdge):
        amalgamate(petersen(), petersen(), (0, 7), (0, 1))
    with pytest.raises(ParameterOutOfRange):
        amalgamate(petersen(), petersen(), (0, 1), (0, 1), mode="twisted")


def test_subdivide_two_on_petersen():
    outs = [h for _, h in construct("subdivide_two", petersen())]
    # every admissible edge pair lands in the same isomorphism class
    assert len(outs) == 1
    assert_regular(outs[0], 3, 12, 5)
    assert outs[0].girth() == 5


def test_subdivide_two_on_k33():
    for _, h in construct("subdivide_two", complete_bipartite(3, 3)):
        assert_regular(h, 3, 8, 4)


def test_subdivide_two_rejects():
    with pytest.raises(NotCubic):
        construct("subdivide_two", complete_bipartite(4, 4))
    with pytest.raises(ParameterOutOfRange):
        list(iter_subdivide_two(petersen(), 6))  # above parent girth


def test_subdivide_three_orders():
    outs = construct("subdivide_three", complete_graph(4))
    assert outs
    for _, h in outs:
        assert_regular(h, 3, 8, 3)
    outs = construct("subdivide_three", petersen())
    assert outs
    for _, h in outs:
        assert_regular(h, 3, 14, 5)


@pytest.mark.parametrize("name", ["iter_subdivide_two", "iter_subdivide_three"])
def test_subdivision_scans_need_a_cubic_input(name):
    with pytest.raises(NotCubic):
        next(getattr(constructions, name)(complete_graph(5)))


def test_subdivide_merge_on_k5_gives_octahedron():
    outs = [h for _, h in construct("subdivide_merge", complete_graph(5))]
    octahedron = circulant(CirculantSpec(6, (1, 2, 4, 5)))
    assert len(outs) == 1
    assert_regular(outs[0], 4, 6, 3)
    assert is_isomorphic(outs[0], octahedron)


def test_subdivide_merge_rejects_cubic():
    with pytest.raises(NotTetravalent):
        construct("subdivide_merge", petersen())


# -- subdivision scans against the edge_distance oracle ------------------------

_SMALL_REGULAR = os.path.join(os.path.dirname(__file__), "data", "small_regular.g6")
_CUBIC_SCANS = ("iter_subdivide_two", "iter_subdivide_three")
_UNBOUNDED = 10**9


def _small_regular(k: int) -> list[Graph]:
    """Every connected cubic graph of order 4 to 12 (k = 3) or quartic graph
    of order 5 to 9 (k = 4), as `enumerate_regular` lists them. They are read
    from a file because enumerating cubic order 12 takes about 10 s on a
    2-core VM."""
    return [g for g in graph6.read_file(_SMALL_REGULAR) if g.regularity() == k]


def _named_cubic() -> list[Graph]:
    """Four cages, a relabeled copy of each, and a disconnected graph."""
    named = [petersen(), heawood(), mcgee(), tutte_coxeter()]
    rng = random.Random(10)
    relabeled = [shuffled(g, rng) for g in named]
    return named + relabeled + [disjoint_union(petersen(), petersen())]


def _marked(scan, g: Graph, target: int | None):
    """Each output of a full scan with the steps spent when it was yielded,
    and the total spent. Scans with equal marks stop after the same prefix
    under every allowance."""
    budget = Budget(_UNBOUNDED)
    marks = [(_UNBOUNDED - budget.remaining, out) for out in scan(g, target, budget)]
    return marks, _UNBOUNDED - budget.remaining


def _until_exhausted(scan, g: Graph, target: int, allowance: int):
    got = []
    try:
        for out in scan(g, target, Budget(allowance)):
            got.append(out)
    except BudgetExhausted:
        return got, True
    return got, False


@pytest.fixture
def edges_only(monkeypatch):
    """The cubic scans stand the edges they pick in for the graph they would
    build, so the long sweeps below compare candidates without building them."""
    for module in (constructions, scan_oracle):
        for name in ("apply_subdivide_pair", "apply_subdivide_triple"):
            monkeypatch.setattr(module, name, lambda g, *edges: edges)


def test_small_regular_file_holds_every_such_graph():
    cubic, quartic = _small_regular(3), _small_regular(4)
    # the numbers of connected cubic and quartic graphs on so few vertices
    assert Counter(g.order for g in cubic) == {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}
    assert Counter(g.order for g in quartic) == {5: 1, 6: 1, 7: 2, 8: 6, 9: 16}
    assert all(g.is_connected() for g in cubic + quartic)
    assert len({certificate(g) for g in cubic + quartic}) == len(cubic) + len(quartic)
    assert cubic[:27] == [g for n in (4, 6, 8, 10) for g in enumerate_regular(3, n)]
    assert quartic[:10] == [g for n in (5, 6, 7, 8) for g in enumerate_regular(4, n)]
    # The same 112 cubic and 26 quartic graphs as when certificates came from
    # the all-zero root, in a new order: sorted within each order by the
    # oracle's certificates from that root, the lines are the earlier file.
    assert (len(cubic), len(quartic)) == (112, 26)
    graphs = cubic + quartic
    assert {certificate(g) for g in graphs} == {canon_oracle.certificate(g) for g in graphs}
    before = sorted(graphs, key=lambda g: (
        g.regularity(), g.order, canon_oracle.certificate(g, [0] * g.order)))
    text = "".join(graph6.encode(g) + "\n" for g in before)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
        "247c752be49197c1ad34f06f467d337ccfbce072f5653c4b6a672a4b02a5e3de")


def test_cubic_scans_match_the_edge_distance_oracle(edges_only):
    for g in _small_regular(3) + _named_cubic():
        for target in range(3, g.girth() + 1):
            for name in _CUBIC_SCANS:
                want = _marked(getattr(scan_oracle, name), g, target)
                got = _marked(getattr(constructions, name), g, target)
                assert got == want, (name, graph6.encode(g), target)


def test_cubic_scans_build_the_oracle_graphs():
    for g in _named_cubic():
        for name in _CUBIC_SCANS:
            want = _marked(getattr(scan_oracle, name), g, None)
            assert _marked(getattr(constructions, name), g, None) == want, (name, graph6.encode(g))


def test_merge_scan_matches_the_edge_distance_oracle():
    # The oracle gates each output on its girth, so this checks the scan's
    # distance floor at every target girth.
    graphs = _small_regular(4) + [quartic_parity_graph(26), complete_bipartite(4, 4)]
    graphs += [circulant44(10), circulant44(13), circulant44(16), quartic_parity_graph(30)]
    graphs += [shuffled(circulant44(14), random.Random(5)),
               disjoint_union(circulant44(10), complete_bipartite(4, 4))]
    for g in graphs:
        for target in range(3, g.girth() + 1):
            want = _marked(scan_oracle.iter_subdivide_merge, g, target)
            got = _marked(constructions.iter_subdivide_merge, g, target)
            assert got == want, (graph6.encode(g), target)


def test_subdivide_merge_builds_one_graph_per_output(monkeypatch):
    # a full scan builds its outputs and no candidate it would reject
    built = []
    init = Graph.__init__

    def counting_init(self, adjacency):
        built.append(self)
        init(self, adjacency)

    for g, outputs in ((circulant44(16), 176), (quartic_parity_graph(30), 0),
                       (quartic_parity_graph(40), 20)):
        monkeypatch.setattr(Graph, "__init__", counting_init)
        outs = list(constructions.iter_subdivide_merge(g))
        monkeypatch.undo()
        assert len(outs) == len(built) == outputs
        built.clear()


@pytest.mark.parametrize("name", _CUBIC_SCANS)
def test_scans_stop_where_the_oracle_stops(edges_only, name):
    # Every allowance from 1 to one past the full spend. The oracle spends one
    # step per candidate, so under allowance A it yields the outputs marked at
    # or below A, and raises if it needs more than A. The three-edge scan's
    # small target girth is 5: below it no pair is too close, so no triples
    # are skipped. On Tutte-Coxeter that scan runs at girth 8 alone, since
    # below 8 the sweep takes minutes; the marks compared above pin those runs.
    tc = shuffled(tutte_coxeter(), random.Random(4))
    small = {"iter_subdivide_two": 3, "iter_subdivide_three": 5}[name]
    cases = [(heawood(), small), (heawood(), 6), (tc, 8)]
    if name == "iter_subdivide_two":
        cases.append((tc, small))
    for g, target in cases:
        marks, total = _marked(getattr(scan_oracle, name), g, target)
        for allowance in range(1, total + 2):
            want = [out for spent, out in marks if spent <= allowance], total > allowance
            got = _until_exhausted(getattr(constructions, name), g, target, allowance)
            assert got == want, (target, allowance)


def test_far_rows_agree_with_edge_distance():
    rng = random.Random(21)
    graphs = [random_graph(rng.randint(2, 24), rng.choice((0.08, 0.15, 0.3)), rng) for _ in range(30)]
    graphs.append(disjoint_union(petersen(), cycle_graph(5)))
    for g in graphs:
        edges = g.edges()
        for floor in range(9):
            row = constructions._far_rows(g, floor)
            for i, e1 in enumerate(edges):
                for j, e2 in enumerate(edges):
                    if i == j:
                        continue
                    d = scan_oracle.edge_distance(g, e1, e2)
                    far = d is None or d >= floor
                    assert (row(i) >> j & 1) == far, (graph6.encode(g), floor, e1, e2)


def test_far_rows_on_hand_values():
    """Edge distances 1, 2 and 4 on the 8-cycle are far exactly up to their
    floor, either way round; edges in different components are always far."""

    def far(g, floor, e1, e2):
        edges = g.edges()
        return constructions._far_rows(g, floor)(edges.index(e1)) >> edges.index(e2) & 1

    c = cycle_graph(8)
    for e2, d in (((1, 2), 1), ((2, 3), 2), ((4, 5), 4)):
        for floor in range(d + 2):
            assert far(c, floor, (0, 1), e2) == far(c, floor, e2, (0, 1)) == (floor <= d)
    two = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert all(far(two, floor, (0, 1), (3, 4)) for floor in range(10))


def test_moore_tree_layers_sizes():
    layers = moore_tree_layers(petersen(), 0, 2)
    assert [len(layer) for layer in layers] == [1, 3, 6]
    assert layers[0] == [0]
    with pytest.raises(TreeNotInduced):
        moore_tree_layers(complete_bipartite(3, 3), 0, 2)
    with pytest.raises(DegreeMismatch):
        moore_tree_layers(complete_bipartite(2, 3), 0, 1)


def test_moore_tree_depth_is_an_int():
    with pytest.raises(ParameterOutOfRange, match=r"^depth must be an integer, got 1\.5$"):
        moore_tree_layers(petersen(), 0, 1.5)


def test_moore_tree_depth_is_not_negative():
    with pytest.raises(ParameterOutOfRange, match=r"^depth must not be negative, got -3$"):
        moore_tree_layers(petersen(), 0, -3)


@pytest.mark.parametrize("root", [1.0, True, -1, 10])
def test_moore_root_is_checked_as_a_vertex(root):
    with pytest.raises(IndexOutOfRange, match=rf"^vertex {root} not in 0\.\.9$"):
        moore_tree_layers(petersen(), root, 1)
    with pytest.raises(IndexOutOfRange):
        next(iter_moore_double(petersen(), 1, root=root))


def _moore_layer_inputs():
    graphs = _small_regular(3) + _small_regular(4)
    return graphs + [petersen(), heawood(), mcgee(), tutte_coxeter()]


def test_moore_tree_layers_have_unique_parents():
    # Every root at depths 1-4 of all cubic graphs of order <= 12, all
    # quartic graphs of order <= 9 and four cages: whenever the layer sizes
    # pass, the layers are the distance spheres and each vertex below the
    # root has exactly one neighbour in the layer above.
    returned = 0
    for g in _moore_layer_inputs():
        for root in range(g.order):
            dist = bfs_distances(g.adjacency, root)
            for depth in range(1, 5):
                try:
                    layers = moore_tree_layers(g, root, depth)
                except TreeNotInduced:
                    continue
                returned += 1
                assert len(layers) == depth + 1
                for i, layer in enumerate(layers):
                    assert layer == [v for v in range(g.order) if dist[v] == i]
                for i in range(1, depth + 1):
                    above = set(layers[i - 1])
                    for v in layers[i]:
                        assert sum(w in above for w in g.neighbors(v)) == 1
    assert returned > 1000


def test_moore_tree_double_petersen():
    for r, order in ((0, 18), (1, 12)):
        [(_, h)] = construct("moore_tree_double", petersen(), radius=r, root=0)
        assert_regular(h, 3, order, 5)
        assert h.girth() == 5


def test_moore_tree_double_all_roots_two_classes():
    certs = set()
    for root in range(10):
        [(_, h)] = construct("moore_tree_double", petersen(), radius=1, root=root)
        certs.add(certificate(h))
    assert len(certs) <= 2


@pytest.mark.parametrize("g, r", [
    (petersen(), 0), (petersen(), 1), (heawood(), 1), (tutte_coxeter(), 1), (tutte_coxeter(), 2),
], ids=["petersen-0", "petersen-1", "heawood-1", "tutte_coxeter-1", "tutte_coxeter-2"])
def test_moore_double_replays_at_every_root(g, r):
    """Each doubling is the graph its recorded matching replays to, label for label."""
    grown = list(iter_moore_double(g, r))
    assert [params["root"] for params, _ in grown] == list(range(g.order))
    for params, h in grown:
        assert params["r"] == r
        assert h == apply_moore_double(g, r, params["root"], params["matching"])


def test_moore_double_matching_replays():
    p = petersen()
    [(params, grown)] = construct("moore_tree_double", p, radius=1, root=0)
    [(matching_params, h)] = iter_moore_double(p, 1, root=0)
    assert params == matching_params
    assert grown == h == apply_moore_double(p, 1, 0, params["matching"])


@pytest.mark.parametrize("g, r, error", [
    (petersen(), 2, RadiusTooLarge),
    (complete_graph(4), 0, ParameterOutOfRange),
    (complete_bipartite(2, 3), 0, DegreeMismatch),
    (petersen(), 1.0, ParameterOutOfRange),
    (petersen(), True, ParameterOutOfRange),
], ids=["radius", "girth-3", "not-regular", "radius-float", "radius-bool"])
def test_moore_double_rejects_its_input_at_the_first_next(g, r, error):
    grown = iter_moore_double(g, r)
    with pytest.raises(error):
        next(grown)


def test_moore_double_of_a_short_cycle_finds_no_bijection():
    # C8 less a radius-2 ball is a 3-vertex path; joining two copies at
    # its ends closes a 6-cycle, below the girth 8, whichever way round
    with pytest.raises(NoCompletion, match=r"^no leaf bijection keeps girth 8 \(root 7, radius 2\)$"):
        next(iter_moore_double(cycle_graph(8), 2))


def test_moore_tree_double_heawood():
    [(_, h)] = construct("moore_tree_double", heawood(), radius=1, root=0)
    assert_regular(h, 3, 20, 6)


def _doubling_cases():
    seed34 = graph6.read_file(SEED34)[0]
    named = [petersen(), heawood(), mcgee(), tutte_coxeter(), seed34]
    # vertex 13 cuts this cubic girth-4 graph: its neighbours 12, 6 and 9
    # lie in a K3,3 with edge (0, 3) subdivided and one less edge (6, 9)
    k33 = complete_bipartite(3, 3)
    cut = edit(disjoint_union(k33, k33), remove=[(0, 3), (6, 9)], new_vertices=2,
               add=[(0, 12), (12, 3), (13, 12), (13, 6), (13, 9)])
    # in two Petersens the far copy stays whole beside the leaves' component
    for g in named + [cut, disjoint_union(petersen(), petersen())]:
        gg = g.girth()
        for r in range(gg // 4 + 1):
            for root in range(g.order):
                try:
                    h, leaves = constructions._doubling_parts(g, r, root)
                except TreeNotInduced:
                    continue
                yield h, leaves, gg


def test_double_matching_matches_the_full_distance_oracle():
    """Leaf distances cut at girth_floor - 3 give the bijection, joined graph
    and budget steps of full distances, at every root and radius of each
    graph, including an h whose leaves lie in different components."""
    cases = apart = 0
    for h, leaves, gg in _doubling_cases():
        got, want = Budget(), Budget()
        found = constructions.find_double_matching(h, leaves, gg, got)
        assert found is not None
        assert found == scan_oracle.find_double_matching(h, leaves, gg, want)
        assert got.remaining == want.remaining
        cases += 1
        apart += any(bfs_distances(h.adjacency, leaves[0])[b] < 0 for b in leaves)
    assert cases > 300 and apart > 0


def test_perfect_matching_removal():
    [(_, c6)] = construct("remove_perfect_matching", complete_bipartite(3, 3))
    assert is_isomorphic(c6, cycle_graph(6))
    [(_, h)] = construct("remove_perfect_matching", complete_bipartite(4, 4))
    assert_regular(h, 3, 8, 4)
    [(_, h)] = construct("remove_perfect_matching", complete_bipartite(5, 5))
    assert_regular(h, 4, 10, 4)


def test_perfect_matching_removal_of_a_non_bipartite_graph(monkeypatch):
    searched = []
    backtrack = constructions._backtracking_matching

    def counted(g, budget):
        searched.append(g.order)
        return backtrack(g, budget)

    monkeypatch.setattr(constructions, "_backtracking_matching", counted)
    [(params, h)] = construct("remove_perfect_matching", petersen())
    assert searched == [10]
    assert h.order == 10 and h.regularity() == 2
    assert apply_operation("remove_perfect_matching", (petersen(),), params) == h


def test_perfect_matching_of_a_large_bipartite_graph():
    """An augmenting path may be thousands of steps long; the search keeps
    it on an explicit stack, not the call stack."""
    rng = random.Random(4000)
    half = 2000
    rights: list[list[int]] = []
    while len(rights) < 3:  # three perfect matchings that share no edge
        p = list(range(half, 2 * half))
        rng.shuffle(p)
        if all(p[i] not in {r[i] for r in rights} for i in range(half)):
            rights.append(p)
    g = Graph.from_edges(2 * half, [(i, r[i]) for r in rights for i in range(half)])
    assert g.regularity() == 3
    matching = find_perfect_matching(g)
    assert all(v in g.neighbors(u) for u, v in matching)
    assert sorted(v for e in matching for v in e) == list(range(2 * half))


def test_perfect_matching_rejects():
    with pytest.raises(OddOrder):
        find_perfect_matching(cycle_graph(5))
    with pytest.raises(NoPerfectMatching):
        find_perfect_matching(disjoint_union(complete_graph(3), complete_graph(3)))
    # K_{1,3} with its centre on the smaller side, then on the larger
    with pytest.raises(NoPerfectMatching, match="does not cover every vertex"):
        find_perfect_matching(complete_bipartite(1, 3))
    with pytest.raises(NoPerfectMatching, match="no matching saturates vertex 1"):
        find_perfect_matching(Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)]))
    seven = petersen()
    for _ in range(6):
        seven = disjoint_union(seven, petersen())
    with pytest.raises(OrderTooLarge, match="capped at order 64"):
        find_perfect_matching(seven)


def test_matching_is_spanning_and_disjoint():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice((6, 8, 10))
        g = complete_bipartite(n // 2, n // 2)
        matching = find_perfect_matching(g)
        touched = sorted(v for e in matching for v in e)
        assert touched == list(range(n))


def test_cdc_of_k4_is_the_cube():
    cube = lcf_graph(8, [3, -3], 4)
    assert is_isomorphic(canonical_double_cover(complete_graph(4)), cube)


def test_cdc_doubles_odd_cycles():
    assert is_isomorphic(
        canonical_double_cover(cycle_graph(5)), cycle_graph(10)
    )


def test_cdc_of_mcgee():
    h = canonical_double_cover(mcgee())
    assert_regular(h, 3, 48, 8)
    assert h.girth() == 8


def test_cdc_of_bipartite_splits_into_two_copies():
    k33 = complete_bipartite(3, 3)
    h = canonical_double_cover(k33)
    assert not h.is_connected()
    dist = bfs_distances(h.adjacency, 0)
    near = [v for v in range(h.order) if dist[v] >= 0]
    far = [v for v in range(h.order) if dist[v] < 0]
    assert len(near) == len(far) == 6
    for part in (near, far):
        keep = set(part)
        drop = [v for v in range(h.order) if v not in keep]
        component, _ = remove_vertices(h, drop)
        assert is_isomorphic(component, k33)


def test_cdc_corpus_always_bipartite():
    corpus = [
        petersen(), heawood(), mcgee(), tutte_coxeter(),
        complete_graph(4), complete_graph(5), complete_bipartite(3, 3),
        cycle_graph(5), cycle_graph(6), cycle_graph(7),
        circulant(CirculantSpec(10, (1, 3, 7, 9))),
        circulant(CirculantSpec(12, (1, 3, 9, 11))),
        circulant(CirculantSpec(13, (1, 5, 8, 12))),
        lcf_graph(8, [3, -3], 4),
    ]
    corpus += [complete_graph(n) for n in (6, 7)]
    corpus += [complete_bipartite(a, a) for a in (4, 5)]
    corpus += [cycle_graph(n) for n in (9, 11)]
    assert len(corpus) >= 20
    for g in corpus:
        h = canonical_double_cover(g)
        assert h.order == 2 * g.order
        assert bipartition(h) is not None
        assert h.is_connected() == (g.is_connected() and bipartition(g) is None)
