"""Deletion-and-rewire searches and the subtree excision that drops girth."""
from __future__ import annotations

import random
from functools import partial
from itertools import combinations

import pytest

import rewire_oracle
from cagekit import graph6, rewire
from cagekit.canon import is_isomorphic
from cagekit.constructions import (
    apply_subdivide_pair,
    iter_subdivide_merge,
    iter_subdivide_three,
    iter_subdivide_two,
)
from cagekit.enumeration import enumerate_regular
from cagekit.errors import (
    DegreeImbalance,
    DegreeMismatch,
    NoCandidate,
    NoCompletion,
    NotCubic,
    ParameterOutOfRange,
    SpecViolation,
    TooManyVertices,
)
from cagekit.families import circulant44
from cagekit.graph import (
    ACYCLIC,
    Graph,
    check_kg,
    compacted,
    edit,
    relabeled,
    rows_without_vertices,
)
from cagekit.limits import Budget
from cagekit.named import (
    complete_bipartite,
    complete_graph,
    heawood,
    mcgee,
    petersen,
    tutte_coxeter,
)
from cagekit.rewire import (
    _edge_partials,
    _induced_trees,
    _vertex_partials,
    biggs_excision_size,
    iter_completions,
    iter_delete_edges_add_vertices,
    iter_delete_vertices,
    iter_remove_biggs_tree,
)
from cagekit.recipes import construct
from conftest import SEED34
from helpers import cycle_graph, path_graph


def brute_completions(h: Graph, k: int, target_girth: int) -> set[frozenset]:
    """All valid completion sets by raw subset search (girth(h) must already
    clear the target, so the whole-graph girth check is equivalent)."""
    need = sum(k - len(h.neighbors(v)) for v in range(h.order))
    assert need % 2 == 0
    candidates = [
        (u, v)
        for u, v in combinations(range(h.order), 2)
        if v not in h.neighbors(u) and len(h.neighbors(u)) < k and len(h.neighbors(v)) < k
    ]
    out = set()
    for combo in combinations(candidates, need // 2):
        done = edit(h, add=combo) if _degrees_fit(h, k, combo) else None
        if done is None:
            continue
        gg = done.girth()
        if gg is ACYCLIC or gg >= target_girth:
            out.add(frozenset(combo))
    return out


def _degrees_fit(h: Graph, k: int, combo) -> bool:
    deg = [len(h.neighbors(v)) for v in range(h.order)]
    for u, v in combo:
        deg[u] += 1
        deg[v] += 1
    if len({e for e in combo}) != len(combo):
        return False
    return all(d == k for d in deg)


def completion_sets(h: Graph, k: int, target_girth: int) -> set[frozenset]:
    found = [
        frozenset(tuple(sorted(e)) for e in c)
        for c in iter_completions(h.adjacency, k, target_girth, Budget(10**7))
    ]
    assert len(found) == len(set(found))  # each set exactly once
    return set(found)


def test_completions_perfect_matchings_of_empty_graph():
    empty = Graph.from_edges(4, [])
    assert len(completion_sets(empty, 1, 3)) == 3
    empty = Graph.from_edges(6, [])
    assert len(completion_sets(empty, 1, 3)) == 15


def test_completions_odd_deficit_yields_nothing():
    assert completion_sets(Graph.from_edges(3, []), 1, 3) == set()


def test_completions_path_endpoints():
    p4 = path_graph(4)
    assert completion_sets(p4, 2, 3) == {frozenset({(0, 3)})}
    assert completion_sets(p4, 2, 5) == set()  # closing edge makes a 4-cycle


def test_completions_reject_overfull():
    with pytest.raises(DegreeMismatch):
        list(iter_completions(cycle_graph(4).adjacency, 1, 3, Budget(100)))


def test_completions_match_brute_force():
    rng = random.Random(23)
    cube = Graph.from_edges(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
            (0, 4), (1, 5), (2, 6), (3, 7)]
    )
    for _ in range(12):
        torn = edit(cube, remove=rng.sample(cube.edges(), 2))
        for target in (3, 4):
            assert completion_sets(torn, 3, target) == brute_completions(
                torn, 3, target
            )
    p = petersen()
    for _ in range(6):
        torn = edit(p, remove=rng.sample(p.edges(), 2))
        for target in (4, 5):
            assert completion_sets(torn, 3, target) == brute_completions(
                torn, 3, target
            )


def test_delete_edges_heawood_grows_girth_six():
    outs = construct("delete_edges_add_vertices", heawood(), target_girth=6, edges=3, vertices=2)
    assert outs
    for _, h in outs:
        assert (h.order, h.regularity()) == (16, 3)
        assert h.girth() >= 6


def test_delete_edges_mcgee_grows_girth_seven():
    outs = construct("delete_edges_add_vertices", mcgee(), target_girth=7, edges=3, vertices=2)
    assert outs
    for _, h in outs:
        assert (h.order, h.regularity()) == (26, 3)
        assert h.girth() >= 7


def test_delete_edges_parity_guard():
    with pytest.raises(DegreeImbalance):
        construct(
            "delete_edges_add_vertices", complete_graph(4), target_girth=3, edges=2, vertices=1
        )
    with pytest.raises(DegreeMismatch):
        list(iter_delete_edges_add_vertices(complete_bipartite(2, 3), 3, 2))
    with pytest.raises(ParameterOutOfRange):
        list(iter_delete_edges_add_vertices(petersen(), -1, 2))


def test_delete_vertices_quartic():
    outs = construct("delete_vertices", circulant44(11), target_girth=3, vertices=1)
    assert outs
    for _, h in outs:
        assert (h.order, h.regularity()) == (10, 4)
        assert h.girth() >= 3


def test_delete_vertices_chain_step():
    from cagekit.constructions import canonical_double_cover

    g48 = canonical_double_cover(mcgee())
    outs = construct("delete_vertices", g48, target_girth=8, vertices=2)
    assert outs
    for _, h in outs:
        assert (h.order, h.regularity()) == (46, 3)
        assert h.girth() == 8


def test_delete_vertices_guards():
    with pytest.raises(TooManyVertices):
        construct("delete_vertices", petersen(), target_girth=5, vertices=5)
    with pytest.raises(TooManyVertices):
        construct("delete_vertices", petersen(), target_girth=5, vertices=0)
    with pytest.raises(NoCompletion):
        # odd surviving order, cubic
        construct("delete_vertices", heawood(), target_girth=6, vertices=1)
    with pytest.raises(ParameterOutOfRange):
        construct("delete_vertices", petersen(), target_girth=2, vertices=2)
    with pytest.raises(DegreeMismatch):
        list(iter_delete_vertices(complete_bipartite(2, 3), 1))


def test_deletion_searches_name_the_missing_cycle_before_the_degrees():
    """With no target girth, an acyclic irregular parent is refused for its
    missing girth, not its degrees."""
    forest = path_graph(4)
    for search in (partial(iter_delete_edges_add_vertices, forest, 1, 1),
                   partial(iter_delete_vertices, forest, 1)):
        with pytest.raises(ParameterOutOfRange, match="no cycle"):
            list(search())


@pytest.mark.parametrize(
    "search, name",
    [
        (partial(iter_delete_vertices, petersen(), 2.0, 5), "num_vertices"),
        (partial(iter_delete_vertices, petersen(), True, 5), "num_vertices"),
        (partial(iter_delete_edges_add_vertices, heawood(), 3.0, 2, 6), "num_edges"),
        (partial(iter_delete_edges_add_vertices, heawood(), 3, 2.0, 6), "num_vertices"),
    ],
    ids=["vertices-float", "vertices-bool", "edges-float", "added-float"],
)
def test_deletion_counts_are_ints(search, name):
    with pytest.raises(ParameterOutOfRange, match=rf"^{name} must be an integer, got "):
        next(search())


@pytest.mark.parametrize(
    "search",
    [
        partial(iter_delete_vertices, heawood(), 2, 6.0),
        partial(iter_delete_vertices, petersen(), 1, True),
        partial(iter_delete_edges_add_vertices, heawood(), 3, 2, 6.0),
        partial(iter_subdivide_two, petersen(), 5.0),
        partial(iter_subdivide_three, petersen(), 5.0),
        partial(iter_subdivide_merge, complete_graph(5), 3.0),
    ],
    ids=["vertices-float", "vertices-bool", "edges-float", "two-float", "three-float",
         "merge-float"],
)
def test_target_girth_is_an_int(search):
    """A direct library call with a float or bool target girth is refused
    before any search, as `construct` refuses it."""
    with pytest.raises(ParameterOutOfRange, match="^target_girth must be an integer, got "):
        next(search())


def test_a_rewiring_may_raise_the_girth():
    """The target girth of a deletion search is not capped at the parent's:
    a splice of girth 4 rewires back to a (3,8)-graph of order 34."""
    parent = apply_subdivide_pair(graph6.read_file(SEED34)[0], (0, 17), (2, 20))
    assert parent.girth() == 4
    outs = list(iter_delete_vertices(parent, 2, 8))
    assert outs
    for _, h in outs:
        assert h.order == 34
        assert check_kg(h, 3, 8) is None


@pytest.mark.parametrize("n, vertices", [(4, 4), (5, 1)])
def test_delete_vertices_refuses_k_or_fewer_survivors(n, vertices):
    """No k-regular simple graph has k or fewer vertices, so such a deletion
    is refused before any search, and emits no graph of order n - vertices."""
    with pytest.raises(NoCompletion, match="regular graph has only"):
        construct("delete_vertices", complete_graph(n), vertices=vertices)


def test_biggs_excision_sizes():
    assert [biggs_excision_size(g) for g in (5, 6, 7, 8, 9, 10, 12)] == [
        2, 4, 4, 6, 6, 10, 14,
    ]
    with pytest.raises(ParameterOutOfRange):
        biggs_excision_size(3)


def test_biggs_excision_heawood_gives_petersen():
    [(_, h)] = construct("remove_biggs_tree", heawood())
    assert (h.order, h.regularity(), h.girth()) == (10, 3, 5)
    assert is_isomorphic(h, petersen())


def test_biggs_excision_tutte_coxeter_gives_mcgee():
    [(_, h)] = construct("remove_biggs_tree", tutte_coxeter())
    assert (h.order, h.regularity(), h.girth()) == (24, 3, 7)
    assert is_isomorphic(h, mcgee())


def test_biggs_excision_guards():
    with pytest.raises(NotCubic):
        construct("remove_biggs_tree", complete_bipartite(4, 4))
    with pytest.raises(ParameterOutOfRange):
        construct("remove_biggs_tree", complete_graph(4))


def test_induced_trees_match_brute_force():
    """The trees are the size-s sets that are connected with s - 1 induced
    edges, met in the order of `rewire_oracle.induced_trees`, which lists
    every connected set and keeps the trees; that order decides which tree
    an excision takes."""
    for g in (petersen(), cycle_graph(7), complete_graph(5), heawood()):
        for size in range(1, 6):
            brute = [
                subset
                for subset in combinations(range(g.order), size)
                if _induced_connected(g, subset) and _induced_edges(g, subset) == size - 1
            ]
            assert sorted(_induced_trees(g, size)) == brute, (g.order, size)
    tc = tutte_coxeter()
    perm = list(range(tc.order))
    random.Random(17).shuffle(perm)
    for g in (petersen(), heawood(), mcgee(), relabeled(tc, perm)):
        for size in range(1, 8):
            want = [tuple(s) for s in rewire_oracle.induced_trees(g, size)]
            assert list(_induced_trees(g, size)) == want, (g.order, size)


def _induced_edges(g: Graph, subset) -> int:
    return sum(1 for u, v in combinations(subset, 2) if v in g.neighbors(u))


def _induced_connected(g: Graph, subset) -> bool:
    members = set(subset)
    seen = {subset[0]}
    stack = [subset[0]]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w in members and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == members


def _searches(g: Graph):
    searches = [partial(iter_remove_biggs_tree, g)]
    gg = g.girth()
    for target in (gg, gg + 1):
        searches += [
            partial(iter_delete_vertices, g, 1, target),
            partial(iter_delete_vertices, g, 2, target),
            partial(iter_delete_edges_add_vertices, g, 1, 0, target),
            partial(iter_delete_edges_add_vertices, g, 3, 2, target),
        ]
    return searches


def _outcome(search) -> list | str:
    try:
        return [(params, sorted(h.edges())) for params, h in search()]
    except (NoCompletion, ParameterOutOfRange) as err:
        return type(err).__name__


def test_orbit_pruning_changes_no_output(monkeypatch):
    """Every emitted graph and every refutation matches a run that tries
    each deletion, on all cubic graphs of order <= 10 plus Petersen and
    Heawood; so does a run with no generators."""
    graphs = [g for n in (4, 6, 8, 10) for g in enumerate_regular(3, n)]
    graphs += [petersen(), heawood()]

    def outcomes():
        return [_outcome(search) for g in graphs for search in _searches(g)]

    pruned = outcomes()
    monkeypatch.setattr(rewire, "automorphism_generators", lambda g: [])
    no_generators = outcomes()
    monkeypatch.setattr(rewire, "_one_per_orbit", lambda g, items, image: items)
    plain = outcomes()
    assert pruned == plain
    assert no_generators == plain
    assert "NoCompletion" in plain and any(isinstance(out, list) for out in plain)


def test_orbit_pruning_bounds_the_tutte_coxeter_refutation():
    # 990 edge pairs in a few orbits: one pair per orbit fits in 1000 steps,
    # every pair needs about 33,000
    with pytest.raises(NoCompletion):
        list(iter_delete_edges_add_vertices(tutte_coxeter(), 2, 2, 8, Budget(1000)))


@pytest.mark.parametrize("bad", ["transposition", "not_a_permutation"])
def test_wrong_generator_is_not_read_as_no_candidate(monkeypatch, bad):
    def generators(g):
        if bad == "transposition":
            return [[1, 0] + list(range(2, g.order))]
        return [[0] * g.order]

    monkeypatch.setattr(rewire, "automorphism_generators", generators)
    with pytest.raises(SpecViolation) as err:
        list(iter_delete_edges_add_vertices(tutte_coxeter(), 2, 2, 8))
    assert not isinstance(err.value, NoCandidate)


def _oracle_graphs() -> list[Graph]:
    graphs = [g for n in (4, 6, 8, 10) for g in enumerate_regular(3, n)]
    tc = tutte_coxeter()
    perm = list(range(tc.order))
    random.Random(17).shuffle(perm)
    return graphs + [petersen(), heawood(), relabeled(tc, perm)]


def _as_rows(partials) -> list:
    return [(params, tuple(map(tuple, compacted(rows)[0]))) for params, rows in partials]


def _as_adjacency(partials) -> list:
    return [(params, h.adjacency) for params, h in partials]


def test_orbits_and_partials_match_the_set_keyed_oracle():
    """Bit-mask orbits and row views give the representatives, params and,
    once compacted, the rows of frozenset orbit keys and built partial
    Graphs."""
    trees = 0
    for g in _oracle_graphs():
        for size in (1, 2, 3):
            sets = partial(combinations, range(g.order), size)
            assert _as_rows(_vertex_partials(g, sets(), "removed")) == _as_adjacency(
                rewire_oracle.vertex_partials(g, sets(), "removed")
            )
        for num_edges, num_vertices in ((1, 0), (2, 0), (2, 2)):
            assert _as_rows(_edge_partials(g, num_edges, num_vertices)) == _as_adjacency(
                rewire_oracle.edge_partials(g, num_edges, num_vertices)
            )
        gg = g.girth()
        if gg is not ACYCLIC and gg >= 4:
            size = biggs_excision_size(gg)
            mine = _as_rows(
                _vertex_partials(g, _induced_trees(g, size), "tree")
            )
            assert mine == _as_adjacency(
                rewire_oracle.vertex_partials(g, _induced_trees(g, size), "tree")
            )
            trees += len(mine)
    assert trees > 0


def _spent_completions(rows, target_girth: int) -> tuple[list, int]:
    budget = Budget(10**7)
    found = list(iter_completions(rows, 3, target_girth, budget))
    return found, 10**7 - budget.remaining


def test_completions_of_a_view_are_those_of_its_compacted_rows():
    """A view keeps the parent's labels, which compaction maps monotonely:
    the same completions in the same order, relabeled, for the same steps."""
    searched = 0
    for g in _oracle_graphs():
        for size in (1, 2, 3):
            for gone in combinations(range(g.order), size):
                view = rows_without_vertices(g, gone)
                kept, relab = compacted(view)
                on_view, view_steps = _spent_completions(view, g.girth())
                on_kept, kept_steps = _spent_completions(kept, g.girth())
                assert [[(relab[u], relab[v]) for u, v in c] for c in on_view] == on_kept
                assert view_steps == kept_steps
                searched += bool(on_kept)
    assert searched > 0


@pytest.mark.parametrize(
    "make, search",
    [
        (petersen, lambda g: iter_delete_vertices(g, 2, 5, Budget(10**6))),
        (tutte_coxeter, lambda g: iter_delete_edges_add_vertices(g, 2, 2, 8, Budget(1000))),
        (heawood, lambda g: iter_delete_edges_add_vertices(g, 3, 2, 6)),
    ],
    ids=["petersen-2-vertices", "tutte-coxeter-2-edges", "heawood-3-edges"],
)
def test_a_graph_is_built_only_for_a_completion(monkeypatch, make, search):
    """Partials are views: a search builds one Graph per completion it tries
    and none for a partial, and a partial's rows that no deletion touches
    are the parent's own row objects."""
    g = make()
    built = []
    completions = []
    partials = []
    init = Graph.__init__
    complete = rewire.iter_completions

    def counting_init(self, adjacency):
        built.append(self)
        init(self, adjacency)

    def counting_completions(rows, *args):
        partials.append(rows)
        for completion in complete(rows, *args):
            completions.append(completion)
            yield completion

    monkeypatch.setattr(rewire, "iter_completions", counting_completions)
    monkeypatch.setattr(Graph, "__init__", counting_init)
    try:
        outs = list(search(g))
    except NoCompletion:
        outs = []
    monkeypatch.undo()
    assert len(built) == len(completions)
    assert bool(outs) == (make is heawood)
    assert partials
    for rows in partials:
        cut = [(u, v) for u, v in g.edges()
               if rows[u] is None or rows[v] is None or v not in rows[u]]
        touched = {v for e in cut for v in e}
        assert cut and all(
            rows[v] is g.adjacency[v] for v in range(g.order) if v not in touched
        )
        assert all(row == () for row in rows[g.order:])
