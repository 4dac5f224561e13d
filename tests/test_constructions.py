"""Edge amalgamation, subdivisions, Moore-tree doubling, matchings, covers."""
from __future__ import annotations

import random

import pytest

from cagekit.canon import certificate, is_isomorphic
from cagekit.constructions import (
    amalgamate,
    apply_moore_double,
    canonical_double_cover,
    find_perfect_matching,
    iter_subdivide_two,
    moore_double_matching,
    moore_tree_layers,
)
from cagekit.enumeration import EnumSpec, enumerate_regular
from cagekit.errors import (
    DegreeMismatch,
    NoPerfectMatching,
    NotAnEdge,
    NotCubic,
    NotTetravalent,
    OddOrder,
    ParameterOutOfRange,
    TreeNotInduced,
)
from cagekit.families import CirculantSpec, circulant
from cagekit.graph import (
    UNREACHABLE,
    Graph,
    bipartition,
    disjoint_union,
    remove_vertices,
)
from cagekit.named import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    heawood,
    lcf_graph,
    mcgee,
    petersen,
    tutte_coxeter,
)
from cagekit.recipes import construct


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


def test_subdivide_merge_on_k5_gives_octahedron():
    outs = [h for _, h in construct("subdivide_merge", complete_graph(5))]
    octahedron = circulant(CirculantSpec(6, (1, 2, 4, 5)))
    assert len(outs) == 1
    assert_regular(outs[0], 4, 6, 3)
    assert is_isomorphic(outs[0], octahedron)


def test_subdivide_merge_rejects_cubic():
    with pytest.raises(NotTetravalent):
        construct("subdivide_merge", petersen())


def test_moore_tree_layers_sizes():
    layers = moore_tree_layers(petersen(), 0, 2)
    assert [len(layer) for layer in layers] == [1, 3, 6]
    assert layers[0] == [0]
    with pytest.raises(TreeNotInduced):
        moore_tree_layers(complete_bipartite(3, 3), 0, 2)


def _moore_layer_inputs():
    graphs = [g for n in range(4, 13, 2) for g in enumerate_regular(EnumSpec(3, n))]
    graphs += [g for n in range(5, 10) for g in enumerate_regular(EnumSpec(4, n))]
    return graphs + [petersen(), heawood(), mcgee(), tutte_coxeter()]


def test_moore_tree_layers_have_unique_parents():
    # Every root at depths 1-4 of all cubic graphs of order <= 12, all
    # quartic graphs of order <= 9 and four cages: whenever the layer sizes
    # pass, the layers are the distance spheres and each vertex below the
    # root has exactly one neighbour in the layer above.
    returned = 0
    for g in _moore_layer_inputs():
        for root in range(g.order):
            dist = g.distances_from(root)
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


def test_moore_double_matching_replays():
    p = petersen()
    matching = moore_double_matching(p, 1, 0)
    h = apply_moore_double(p, 1, 0, matching)
    [(params, grown)] = construct("moore_tree_double", p, radius=1, root=0)
    assert params["matching"] == matching
    assert certificate(h) == certificate(grown)


def test_moore_tree_double_heawood():
    [(_, h)] = construct("moore_tree_double", heawood(), radius=1, root=0)
    assert_regular(h, 3, 20, 6)


def test_perfect_matching_removal():
    [(_, c6)] = construct("remove_perfect_matching", complete_bipartite(3, 3))
    assert is_isomorphic(c6, cycle_graph(6))
    [(_, h)] = construct("remove_perfect_matching", complete_bipartite(4, 4))
    assert_regular(h, 3, 8, 4)
    [(_, h)] = construct("remove_perfect_matching", complete_bipartite(5, 5))
    assert_regular(h, 4, 10, 4)


def test_perfect_matching_rejects():
    with pytest.raises(OddOrder):
        find_perfect_matching(cycle_graph(5))
    with pytest.raises(NoPerfectMatching):
        find_perfect_matching(disjoint_union(complete_graph(3), complete_graph(3)))


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
    dist = h.distances_from(0)
    near = [v for v in range(h.order) if dist[v] is not UNREACHABLE]
    far = [v for v in range(h.order) if dist[v] is UNREACHABLE]
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
