"""Certificates and isomorphism against exhaustive permutation search."""
from __future__ import annotations

import os
import random
import time
from itertools import combinations

import pytest

import canon_oracle
import read_oracle
from cagekit import canon, graph6
from cagekit.canon import (
    automorphism_generators,
    canonical_form,
    certificate,
    is_isomorphic,
    refine,
)
from cagekit.enumeration import EnumSpec, enumerate_regular
from cagekit.families import CirculantSpec, circulant
from cagekit.graph import Graph, disjoint_union, relabeled
from cagekit.recipes import Recipe, replay
from cagekit.named import (
    complete_bipartite,
    complete_graph,
    heawood,
    mcgee,
    petersen,
    tutte_coxeter,
)

from helpers import (
    brute_automorphism_count,
    brute_isomorphic,
    cartesian_product,
    cycle_graph,
    group_order,
    hypercube,
    kneser_petersen,
    path_graph,
    random_graph,
    shuffled,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def _corpus():
    rng = random.Random(42)
    graphs = [
        Graph.from_edges(0, []),
        Graph.from_edges(1, []),
        path_graph(4),
        cycle_graph(6),
        disjoint_union(cycle_graph(3), cycle_graph(3)),
        complete_graph(4),
        complete_bipartite(3, 3),
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]),  # prism
        complete_bipartite(2, 3),
    ]
    graphs += [random_graph(rng.randint(4, 8), p, rng) for p in (0.25, 0.5, 0.75) for _ in range(6)]
    return graphs


def test_certificate_invariant_under_relabeling():
    rng = random.Random(7)
    for g in [petersen(), heawood(), complete_bipartite(4, 4)] + _corpus():
        cert = certificate(g)
        for _ in range(20):
            assert certificate(shuffled(g, rng)) == cert


def test_canonical_form_is_isomorphic_relabeling():
    rng = random.Random(3)
    for g in _corpus():
        cf = canonical_form(g)
        assert cf.order == g.order and cf.size == g.size
        assert brute_isomorphic(cf, g) or g.order > 8
        assert certificate(cf) == certificate(g)


def test_agreement_with_exhaustive_search_on_all_small_pairs():
    corpus = [g for g in _corpus() if g.order <= 8]
    for a, b in combinations(corpus, 2):
        assert is_isomorphic(a, b) == brute_isomorphic(a, b)


def test_same_degree_sequence_not_isomorphic():
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    assert not is_isomorphic(prism, complete_bipartite(3, 3))
    assert not is_isomorphic(cycle_graph(6), disjoint_union(cycle_graph(3), cycle_graph(3)))
    # Two trees with degree sequence 3,3,2,1,1,1,1: the degree-3 vertices
    # are two apart in one and adjacent in the other.
    spread = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 6)])
    joined = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 6)])
    assert not is_isomorphic(spread, joined)
    assert is_isomorphic(spread, shuffled(spread, random.Random(5)))


def test_equal_order_and_size_with_other_degrees_not_isomorphic():
    assert not is_isomorphic(complete_bipartite(1, 3), path_graph(4))


def test_petersen_models_agree():
    assert is_isomorphic(petersen(), kneser_petersen())
    assert certificate(petersen()) == certificate(kneser_petersen())


@pytest.mark.parametrize(
    "make", [petersen, heawood, tutte_coxeter, lambda: hypercube(5)],
    ids=["petersen", "heawood", "tutte_coxeter", "q5"],
)
def test_automorphism_generators_act_transitively(make):
    for g in (make(), shuffled(make(), random.Random(3))):
        edges = set(g.edges())
        gens = automorphism_generators(g)
        for gamma in gens:
            assert sorted(gamma) == list(range(g.order))
            assert {tuple(sorted((gamma[u], gamma[v]))) for u, v in edges} == edges
        orbit, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for gamma in gens:
                if gamma[v] not in orbit:
                    orbit.add(gamma[v])
                    stack.append(gamma[v])
        assert orbit == set(range(g.order))


def test_automorphism_generators_reuse_the_certificate_search(monkeypatch):
    g = heawood()
    asymmetric = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 5)])
    certificate(g)
    certificate(asymmetric)

    def search_again(graph):
        raise AssertionError("canonical search ran twice")

    monkeypatch.setattr(canon, "_canonical_perm", search_again)
    assert len(automorphism_generators(g)) > 0
    assert automorphism_generators(asymmetric) == []


def test_the_graphs_on_zero_and_one_vertex():
    """The general search labels both, with no automorphism, whether the
    certificate or the automorphisms are asked for first."""
    for n, cert in ((0, "?"), (1, "@")):
        g = Graph.from_edges(n, [])
        assert (certificate(g), automorphism_generators(g)) == (cert, [])
        g = Graph.from_edges(n, [])
        assert (automorphism_generators(g), certificate(g)) == ([], cert)
        assert canonical_form(g) == g


def test_highly_symmetric_graphs_complete_quickly():
    tc2 = disjoint_union(tutte_coxeter(), tutte_coxeter())
    graphs = [
        complete_bipartite(5, 5),
        heawood(),
        cycle_graph(40),
        hypercube(7),
        tc2,
        disjoint_union(tc2, tc2),
    ]
    start = time.perf_counter()
    for g in graphs:
        assert certificate(g) == certificate(shuffled(g, random.Random(1)))
    # well under a second each on a 2-core VM; minutes without orbit pruning
    assert time.perf_counter() - start < 20


def _oracle_graphs():
    graphs = [g for n in (4, 6, 8, 10) for g in enumerate_regular(EnumSpec(3, n))]
    graphs += enumerate_regular(EnumSpec(3, 12, 5))
    graphs += enumerate_regular(EnumSpec(3, 14, 6))
    graphs += _corpus()
    graphs += [
        hypercube(5),
        hypercube(6),
        disjoint_union(heawood(), heawood()),
        disjoint_union(mcgee(), mcgee()),
        tutte_coxeter(),
        circulant(CirculantSpec(60, (1, 59))),
    ]
    return graphs


def test_certificates_match_the_old_canonizer():
    rng = random.Random(11)
    for g in _oracle_graphs():
        for h in (g, shuffled(g, rng)):
            assert certificate(h) == canon_oracle.certificate(h)


def test_encode_matches_the_edge_list_encoder_on_the_oracle_graphs():
    """Each oracle graph and its canonical form, which a certificate encodes."""
    for g in _oracle_graphs():
        for h in (g, canonical_form(g)):
            line = graph6.encode(h)
            assert line == read_oracle.encode(h)
            assert graph6.decode(line) == h


def test_pruning_keeps_the_least_leaf_under_hidden_symmetry():
    """Each cubic graph on 10 vertices times C4: refinement cannot split the
    C4 fibers, so the search finds automorphisms deep in the tree, and only
    those fixing a node's prefix may prune its candidates."""
    for g in enumerate_regular(EnumSpec(3, 10)):
        product = cartesian_product(g, cycle_graph(4))
        for seed in range(6):
            h = shuffled(product, random.Random(seed))
            assert certificate(h) == canon_oracle.certificate(h)


def _irregular_graphs():
    rng = random.Random(19)
    graphs = [g for g in _corpus() if g.order and g.regularity() is None]
    graphs += [random_graph(n, p, rng) for n in (12, 20, 30) for p in (0.15, 0.3)]
    graphs += [
        path_graph(9),
        complete_bipartite(2, 5),
        disjoint_union(petersen(), disjoint_union(path_graph(3), Graph.from_edges(2, []))),
    ]
    return graphs


def test_refine_matches_the_old_refinement():
    """From all-zero colors with each vertex split off in turn, and on
    irregular graphs from colorings whose classes mix degrees: a class of
    two vertices of different degrees beside one class of all the others
    or beside singletons, and three classes by label mod 3. Signatures of
    unequal length must order pieces as sorting the tuples does."""
    irregular = _irregular_graphs()
    for g in _oracle_graphs() + irregular:
        adj, n = g.adjacency, g.order
        base = canon_oracle.refine(adj, [0] * n)
        assert refine(adj, [0] * n) == base
        for v in range(n):
            colors = [2 * c for c in base]
            colors[v] -= 1
            assert refine(adj, colors) == canon_oracle.refine(adj, colors)
    rng = random.Random(29)
    for g in irregular:
        adj, n = g.adjacency, g.order
        pairs = [(u, w) for u, w in combinations(range(n), 2) if len(adj[u]) != len(adj[w])]
        mixed = [[v % 3 for v in range(n)]]
        for u, w in rng.sample(pairs, min(len(pairs), 12)):
            two = [0] * n
            two[u] = two[w] = 1
            alone = list(range(n))
            alone[w] = u
            mixed += [two, alone]
        for colors in mixed:
            assert refine(adj, colors) == canon_oracle.refine(adj, colors)


def _replayed_witnesses():
    """Each Realized witness of four golden spectrum runs, replayed from its
    seed: subdivisions and amalgams of K4, Petersen and Heawood, one
    edge-deletion rebuild, and the circulants of (4,4); with its recorded
    certificate."""
    runs = (
        ("report_3_3", complete_graph(4)),
        ("report_3_5", petersen()),
        ("report_3_6", heawood()),
        ("report_4_4", complete_bipartite(4, 4)),
    )
    out = []
    for name, seed in runs:
        with open(os.path.join(DATA, "golden", name + ".txt"), encoding="ascii") as fh:
            text = fh.read()
        lines = text.split("recipes:\n")[1].split("summary:")[0].splitlines()
        store = {canon_oracle.certificate(seed): seed}
        for recipe in map(Recipe.from_line, lines):
            store[recipe.output_cert] = replay(recipe, store.__getitem__)
            out.append((store[recipe.output_cert], recipe))
    return out


def test_construction_outputs_match_the_old_canonizer():
    """The graphs spectrum certifies are mostly construction outputs, whose
    symmetry the search must prune exactly; each one, in its own labels and
    relabeled, gets the oracle's certificate, the one its run recorded."""
    rng = random.Random(31)
    witnesses = _replayed_witnesses()
    assert {recipe.operation for _, recipe in witnesses} == {
        "seed", "subdivide_two", "amalgamate", "delete_edges_add_vertices", "circulant"
    }
    for g, recipe in witnesses:
        for h in (g, shuffled(g, rng)):
            assert certificate(h) == canon_oracle.certificate(h) == recipe.output_cert


def test_distance_profiles_are_equal_under_relabeling():
    """The library's profiles equal the oracle's BFS counts and move with a
    relabeling, also with balls wider than 64 and 128 bits, diameters above
    30 with unequal eccentricities, and components of unequal diameter
    beside isolated vertices, whose balls stop growing at different levels."""
    rng = random.Random(13)
    tc = tutte_coxeter()
    graphs = [petersen(), mcgee(), disjoint_union(heawood(), cycle_graph(5))] + _corpus()
    graphs += [
        random_graph(90, 0.04, rng),
        random_graph(150, 0.02, rng),
        path_graph(100),
        cycle_graph(101),
        disjoint_union(
            disjoint_union(path_graph(40), cycle_graph(7)),
            disjoint_union(petersen(), Graph.from_edges(3, [])),
        ),
        disjoint_union(tc, tc),
        hypercube(6),
        disjoint_union(hypercube(7), cycle_graph(35)),
    ]
    for g in graphs:
        profiles = canon._distance_profiles(g.adjacency)
        assert profiles == canon_oracle.distance_profiles(g)
        for _ in range(3):
            perm = list(range(g.order))
            rng.shuffle(perm)
            moved = canon._distance_profiles(relabeled(g, perm).adjacency)
            assert [moved[perm[v]] for v in range(g.order)] == profiles


def test_generators_span_the_whole_automorphism_group():
    rng = random.Random(17)
    graphs = graph6.read_file(os.path.join(DATA, "small_regular.g6"))
    graphs += [shuffled(make(), rng) for make in (petersen, heawood, mcgee) for _ in range(2)]
    for g in graphs:
        edges = set(g.edges())
        gens = automorphism_generators(g)
        for gamma in gens:
            assert {tuple(sorted((gamma[u], gamma[v]))) for u, v in edges} == edges
        assert group_order(g.order, gens) == brute_automorphism_count(g), graph6.encode(g)


def test_certificate_map_from_the_all_zero_root():
    """Each certificate in the goldens before the search was rooted at
    distance profiles, beside its certificate now: certifying the old
    graph gives the new string, and the oracle's search from all-zero
    colors on the new graph gives the old one."""
    with open(os.path.join(DATA, "golden", "cert_v1_to_v2.tsv"), encoding="ascii") as fh:
        pairs = [line.split("\t") for line in fh.read().splitlines()]
    assert len(pairs) == len({old for old, _ in pairs}) == 114
    for old, new in pairs:
        assert certificate(graph6.decode(old)) == new
        h = graph6.decode(new)
        assert canon_oracle.certificate(h, [0] * h.order) == old
