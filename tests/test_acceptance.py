"""Acceptance run: one test per shipped claim, exact tolerances.

Each test name carries its criterion number so `pytest -v` prints a
single pass/fail line per criterion.
"""
from __future__ import annotations

import random

from cagekit import graph6
from cagekit.bounds import moore_bound, sauer_bound
from cagekit.canon import certificate, is_isomorphic
from cagekit.constructions import amalgamate, canonical_double_cover
from cagekit.enumeration import EnumSpec, enumerate_regular
from cagekit.families import GdgpSpec, circulant44, gdgp, quartic_parity_graph
from cagekit.graph import ACYCLIC, UNREACHABLE, Graph, check_kg, remove_vertices
from cagekit.named import (
    complete_bipartite,
    complete_graph,
    heawood,
    mcgee,
    petersen,
    tutte_coxeter,
)
from cagekit.recipes import construct, verified_replay
from cagekit.spectrum import OrderState, infer_N
from conftest import SEED34
from helpers import all_labeled_graphs, brute_girth, random_graph, shuffled


def evens(lo, hi):
    return list(range(lo, hi + 1, 2))


def test_criterion_01_bounds_table():
    assert moore_bound(3, 3) == 4
    assert moore_bound(3, 4) == 6
    assert moore_bound(3, 5) == 10
    assert moore_bound(3, 6) == 14
    assert moore_bound(5, 3) == 6
    assert moore_bound(5, 4) == 10
    assert moore_bound(3, 7) == 22 < 24
    assert moore_bound(5, 5) == 26 < 30
    assert sauer_bound(3, 5) == 16
    assert sauer_bound(3, 6) == 32


def test_criterion_02_small_cubic_spectra(report_3_3, report_3_4, report_3_5):
    for report, start in ((report_3_3, 4), (report_3_4, 6), (report_3_5, 10)):
        assert sorted(report.realized_orders()) == evens(start, 40)
        assert report.unresolved_orders() == []


def test_criterion_03_girth_six_spectrum_and_twelve_vertex_split(report_3_6):
    assert sorted(report_3_6.realized_orders()) == evens(14, 40)
    assert report_3_6.unresolved_orders() == []
    hw = heawood()
    matched = False
    for g12 in enumerate_regular(EnumSpec(3, 12, 5)):
        outs = [h for _, h in construct("subdivide_two", g12)]
        if len(outs) >= 6 and any(is_isomorphic(h, hw) for h in outs):
            matched = True
    assert matched


def test_criterion_04_quartic_circulant_girths():
    for n in range(10, 21):
        assert circulant44(n).girth() == 4
    assert circulant44(9).girth() == 3


def test_criterion_05_quartic_parity_family():
    for n in evens(26, 60):
        g = quartic_parity_graph(n)
        assert g.regularity() == 4
        assert g.girth() == 6


def test_criterion_06_gdgp_catalog():
    catalog = (
        (GdgpSpec(2, 18, (5, 5)), 36, 8),
        (GdgpSpec(4, 36, (7, 15, 27, 19)), 72, 10),
        (GdgpSpec(6, 90, (11, 41, 29, 77, 47, 71)), 180, 12),
        (GdgpSpec(3, 96, (11, 17, 23)), 192, 12),
        (GdgpSpec(4, 112, (9, 17, 65, 73)), 224, 12),
        (GdgpSpec(5, 125, (11, 26, 56, 106, 46)), 250, 12),
    )
    for spec, order, girth in catalog:
        g = gdgp(spec)
        assert (g.order, g.girth()) == (order, girth)


def test_criterion_07_biggs_excision_recovers_petersen():
    [(_, h)] = construct("remove_biggs_tree", heawood())
    assert (h.order, h.girth()) == (10, 5)
    assert is_isomorphic(h, petersen())


def test_criterion_08_moore_tree_doubling():
    [(_, h)] = construct("moore_tree_double", petersen(), radius=1, root=0)
    assert (h.order, h.girth()) == (12, 5)
    classes = {
        certificate(h)
        for root in range(10)
        for _, h in construct("moore_tree_double", petersen(), radius=1, root=root)
    }
    assert len(classes) <= 2


def test_criterion_09_canonical_double_covers():
    h = canonical_double_cover(mcgee())
    assert check_kg(h, 3, 8) is None
    assert h.order == 48

    k33 = complete_bipartite(3, 3)
    split = canonical_double_cover(k33)
    assert not split.is_connected()
    dist = split.distances_from(0)
    near = [v for v in range(split.order) if dist[v] is not UNREACHABLE]
    assert len(near) == 6
    for side in (near, [v for v in range(split.order) if v not in set(near)]):
        drop = [v for v in range(split.order) if v not in set(side)]
        comp, _ = remove_vertices(split, drop)
        assert is_isomorphic(comp, k33)


def test_criterion_10_enumeration_oracle(cubic_brute_force):
    assert enumerate_regular(EnumSpec(4, 9, 4)) == []
    assert enumerate_regular(EnumSpec(3, 12, 6)) == []
    only = enumerate_regular(EnumSpec(3, 10, 5))
    assert len(only) == 1 and is_isomorphic(only[0], petersen())
    only = enumerate_regular(EnumSpec(3, 14, 6))
    assert len(only) == 1 and is_isomorphic(only[0], heawood())
    for n, expected in ((4, 1), (6, 2), (8, 5)):
        mine = {certificate(g) for g in enumerate_regular(EnumSpec(3, n, 3))}
        brute = set(cubic_brute_force[n])
        assert len(mine) == expected
        assert mine == brute


def test_criterion_11_n_candidates(report_3_5, report_3_8, report_4_4):
    assert infer_N(report_3_5, 10) == 10
    assert report_3_5.N_candidate == 10
    assert infer_N(report_3_8, 30) == 34
    assert report_3_8.N_candidate == 34
    thirty_two = next(s for s in report_3_8.statuses if s.n == 32)
    assert thirty_two.state is OrderState.EXCLUDED_CITED
    assert infer_N(report_4_4, 8) == 10
    assert report_4_4.N_candidate == 10


def test_criterion_12_property_suite(
    report_3_3, report_3_4, report_3_5, report_3_6, report_4_4, report_3_8
):
    # girth oracle vs cycle brute force: every graph up to order 5,
    # then a seeded sample at orders 6..8
    for g in all_labeled_graphs(4):
        assert _same_girth(g)
    for g in all_labeled_graphs(5):
        assert _same_girth(g)
    rng = random.Random(404)
    for _ in range(500):
        n = rng.choice((6, 7, 8))
        assert _same_girth(random_graph(n, rng.uniform(0.2, 0.7), rng))

    # construction invariants: degree kept, order arithmetic, girth floors
    p = petersen()
    for _, h in construct("subdivide_two", p) + construct("subdivide_three", p):
        assert h.regularity() == 3 and h.girth() >= 5
    for _, h in construct("subdivide_merge", complete_graph(5)):
        assert h.regularity() == 4 and h.order == 6
    assert amalgamate(p, p, (0, 1), (0, 1)).order == 20
    [(_, h)] = construct("remove_perfect_matching", complete_bipartite(4, 4))
    assert h.regularity() == 3
    for _, h in construct(
        "delete_edges_add_vertices", heawood(), target_girth=6, edges=3, vertices=2
    ):
        assert h.regularity() == 3 and h.order == 16 and h.girth() >= 6

    # graph6 round-trip over a 500-graph corpus
    corpus = [random_graph(rng.randrange(1, 31), rng.uniform(0.1, 0.9), rng) for _ in range(500)]
    for g in corpus:
        back = graph6.decode(graph6.encode(g))
        assert back.order == g.order and set(back.edges()) == set(g.edges())

    # certificate invariance under 100 seeded relabelings
    base = [petersen(), heawood(), random_graph(12, 0.4, rng)]
    for g in base:
        want = certificate(g)
        for _ in range(100):
            assert certificate(shuffled(g, rng)) == want

    # witness replay for every Realized entry of every run above
    runs = (
        (report_3_3, [complete_graph(4)]),
        (report_3_4, [complete_bipartite(3, 3)]),
        (report_3_5, [petersen()]),
        (report_3_6, [heawood()]),
        (report_4_4, [complete_bipartite(4, 4)]),
        (report_3_8, [tutte_coxeter()] + graph6.read_file(SEED34)),
    )
    for report, seeds in runs:
        store = {certificate(s): s for s in seeds}
        for recipe in report.provenance:
            store[recipe.output_cert] = verified_replay(recipe, store.__getitem__)
        for status in report.statuses:
            if status.state is OrderState.REALIZED:
                witness = store[status.witness.output_cert]
                assert witness.order == status.n
                assert check_kg(witness, report.k, report.g) is None


def _same_girth(g: Graph) -> bool:
    mine = g.girth()
    ref = brute_girth(g)
    return (ref is None and mine is ACYCLIC) or mine == ref
