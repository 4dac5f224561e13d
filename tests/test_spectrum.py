"""Spectrum engine: order classification, closure, witnesses, determinism."""
from __future__ import annotations

import os
import random
import re

import pytest

from cagekit import canon, graph6, recipes, spectrum
from cagekit.bounds import moore_bound, parity_admissible
from cagekit.canon import certificate
from cagekit.constructions import iter_subdivide_two
from cagekit.errors import (
    BadSeed,
    CagekitError,
    HorizonTooSmall,
    IndexOutOfRange,
    MalformedInput,
    NoCandidate,
    ParameterOutOfRange,
    SpecViolation,
    UnknownOperation,
)
from cagekit.graph import check_kg, relabeled
from cagekit.named import (
    complete_bipartite,
    complete_graph,
    heawood,
    lcf_graph,
    petersen,
    tutte_coxeter,
)
from cagekit.recipes import construct, verified_replay
from cagekit.spectrum import (
    OrderState,
    SearchConfig,
    infer_N,
    load_seeds,
    parse_citations,
    render_report,
    spectrum_search,
)

from conftest import SEED34
from helpers import cycle_graph, kneser_petersen


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def evens(lo: int, hi: int) -> list[int]:
    return list(range(lo, hi + 1, 2))


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize(
    "fixture",
    ["report_3_3", "report_3_4", "report_3_5", "report_3_6", "report_4_4", "report_3_8"],
)
def test_fixture_renders_match_golden(fixture, request):
    report = request.getfixturevalue(fixture)
    assert render_report(report) == golden(f"{fixture}.txt")


def test_cubic_girth_three_spectrum(report_3_3):
    assert sorted(report_3_3.realized_orders()) == evens(4, 40)
    assert report_3_3.unresolved_orders() == []
    assert report_3_3.n_kg == 4
    assert infer_N(report_3_3, 4) == 4


def test_cubic_girth_four_spectrum(report_3_4):
    assert sorted(report_3_4.realized_orders()) == evens(6, 40)
    assert report_3_4.unresolved_orders() == []
    assert report_3_4.n_kg == 6
    assert infer_N(report_3_4, 6) == 6


def test_cubic_girth_five_spectrum(report_3_5):
    assert sorted(report_3_5.realized_orders()) == evens(10, 40)
    assert report_3_5.unresolved_orders() == []
    assert report_3_5.n_kg == 10
    assert infer_N(report_3_5, 10) == 10


def test_cubic_girth_six_spectrum(report_3_6):
    assert sorted(report_3_6.realized_orders()) == evens(14, 40)
    assert report_3_6.unresolved_orders() == []
    assert report_3_6.n_kg == 14


def test_quartic_girth_four_spectrum(report_4_4):
    assert sorted(report_4_4.realized_orders()) == [8] + list(range(10, 21))
    assert report_4_4.unresolved_orders() == []
    assert report_4_4.n_kg == 8
    assert infer_N(report_4_4, 8) == 10
    nine = next(s for s in report_4_4.statuses if s.n == 9)
    assert nine.state is OrderState.EXCLUDED_CITED
    assert "order 9" in nine.citation


def test_statuses_cover_grid_once(report_3_5):
    ns = [s.n for s in report_3_5.statuses]
    assert ns == list(range(4, 41))


def test_no_contradictions(report_3_5, report_4_4):
    for report in (report_3_5, report_4_4):
        for status in report.statuses:
            if status.state is OrderState.REALIZED:
                assert parity_admissible(report.k, status.n)
                assert status.n >= moore_bound(report.k, report.g)
                assert status.witness is not None


def test_additive_closure(report_3_5):
    realized = set(report_3_5.realized_orders())
    for a in realized:
        for b in realized:
            if a + b - 2 <= report_3_5.horizon:
                assert a + b - 2 in realized


def test_witness_replay_from_seeds(report_3_5):
    store = {certificate(petersen()): petersen()}
    for recipe in report_3_5.provenance:
        graph = verified_replay(recipe, store.__getitem__)
        store[recipe.output_cert] = graph
    for status in report_3_5.statuses:
        if status.state is OrderState.REALIZED:
            witness = store[status.witness.output_cert]
            assert witness.order == status.n
            assert check_kg(witness, 3, 5) is None


def test_bad_seeds_rejected():
    with pytest.raises(BadSeed):
        spectrum_search(3, 5, [complete_graph(4)], 20)  # wrong girth
    with pytest.raises(BadSeed):
        spectrum_search(3, 5, [cycle_graph(5)], 20)  # wrong degree


def test_empty_seed_list_resolves_nothing():
    report = spectrum_search(3, 5, [], 20)
    assert report.realized_orders() == []
    assert report.n_kg is None


def test_no_order_below_the_moore_bound_is_realized():
    report = spectrum_search(3, 5, [], 9)
    assert {s.state for s in report.statuses} == {OrderState.EXCLUDED_BELOW_MOORE}
    assert (report.n_kg, report.N_candidate) == (None, None)


def test_horizon_too_small():
    with pytest.raises(HorizonTooSmall):
        spectrum_search(3, 5, [petersen()], 9)
    with pytest.raises(HorizonTooSmall, match="smallest order 4"):
        spectrum_search(3, 5, [], 3)


@pytest.mark.parametrize("k, g, seeds, horizon, match", [
    (2, 5, [], 12, "degree >= 3"),
    (2, 5, [], 2, "degree >= 3"),
    (3, 2, [], 3, "girth 2 < 3"),
    (3, 5, [petersen()], 20.0, "horizon must be an integer, got 20.0"),
    (3, 5, [], True, "horizon must be an integer, got True"),
    (3.0, 5, [], 20, "k must be an integer"),
    (3, True, [], 20, "g must be an integer"),
])
def test_spectrum_rejects_a_pair_outside_the_domain(k, g, seeds, horizon, match):
    """The only connected 2-regular graph of girth g is C_g, so k = 2 reported
    every order past g as Unresolved, and a float horizon raised a bare
    TypeError from range. Both are named before the horizon is checked."""
    with pytest.raises(ParameterOutOfRange, match=match):
        spectrum_search(k, g, seeds, horizon)


def test_wrong_citation_detected():
    # A constructed graph at an order the citations exclude is a bug.
    [(params, twelve)] = construct("subdivide_two", petersen())
    citations = {(3, 5, 12): "claimed impossible"}
    engine = spectrum._Engine(3, 5, [petersen()], 20, SearchConfig(), citations)
    [ten] = engine.reps[10]
    with pytest.raises(SpecViolation, match="order 12, but that order is marked ExcludedCited"):
        engine.commit(twelve, "subdivide_two", (ten,), params)


def test_a_seed_at_a_cited_order_is_a_bad_seed():
    # A seed at an order the citations exclude is the user's input, not a bug.
    with pytest.raises(BadSeed, match="order 10, which the citation 'x' excludes"):
        spectrum_search(3, 5, [petersen()], 20, citations={(3, 5, 10): "x"})
    [(_, twelve)] = construct("subdivide_two", petersen())
    citations = {(3, 5, 12): "claimed impossible"}
    with pytest.raises(BadSeed, match="order 12, which the citation 'claimed impossible'"):
        spectrum_search(3, 5, [petersen(), twelve], 20, SearchConfig(), citations)


def test_isomorphic_seeds_store_one_graph():
    seeds = [petersen(), kneser_petersen()]
    engine = spectrum._Engine(3, 5, seeds, 20, SearchConfig(), {})
    assert engine.reps == {10: [certificate(petersen())]}
    assert len(engine.records) == 1
    alone = render_report(spectrum_search(3, 5, [petersen()], 20))
    assert render_report(spectrum_search(3, 5, seeds, 20)) == alone


def test_every_seed_class_of_an_order_is_kept():
    cube, wagner = lcf_graph(8, [3, -3], 4), lcf_graph(8, [4], 8)
    assert check_kg(cube, 3, 4) is None and check_kg(wagner, 3, 4) is None
    assert certificate(cube) != certificate(wagner)
    engine = spectrum._Engine(3, 4, [cube, wagner], 20, SearchConfig(), {})
    assert engine.reps[8] == [certificate(cube), certificate(wagner)]
    eight = next(s for s in engine.run().statuses if s.n == 8)
    assert eight.state is OrderState.REALIZED
    assert eight.witness.operation == "seed"
    assert eight.witness.output_cert == certificate(cube)


def test_engine_excludes_an_order_by_excess():
    # No citations: order 32 of (3,8) falls to the excess bound. The cited
    # fixture reads ExcludedCited there instead, because a citation comes
    # first in the precedence.
    report = spectrum_search(3, 8, [tutte_coxeter()], 34)
    states = {s.n: s.state for s in report.statuses}
    assert states[30] is OrderState.REALIZED
    assert states[32] is OrderState.EXCLUDED_EXCESS
    assert states[34] is OrderState.UNRESOLVED
    assert report.n_kg == 30


def test_deterministic_reports():
    a = spectrum_search(3, 4, [complete_bipartite(3, 3)], 24, SearchConfig())
    b = spectrum_search(3, 4, [complete_bipartite(3, 3)], 24, SearchConfig())
    assert render_report(a) == render_report(b)


def test_rng_seed_changes_witnesses_not_truth(report_3_5, report_3_5_rng7):
    assert sorted(report_3_5_rng7.realized_orders()) == sorted(report_3_5.realized_orders())
    assert render_report(report_3_5_rng7) == golden("report_3_5_rng7.txt")


@pytest.mark.parametrize("fixture, steps", [
    ("report_3_3", 9),
    ("report_3_4", 38),
    ("report_3_5", 46),
    ("report_3_6", 729),
    ("report_4_4", 0),
    ("report_3_8", 99_146),
    ("report_3_5_rng7", 891),
])
def test_fixture_budget_steps(fixture, steps, request, budget_steps):
    # the deterministic work of each session run, pinned so that a change to
    # the search order shows even when every table stays the same
    request.getfixturevalue(fixture)
    assert budget_steps[fixture] == steps


def test_relabeled_seeds_keep_the_route_to_38(report_3_8):
    """The (3,8,62) run from relabeled seeds realizes every order the
    fixture does, 36 aside: some labelings leave 36 Unresolved (an open
    label dependence), and this one does."""
    rng = random.Random(1010)
    seeds = []
    for g in [tutte_coxeter()] + graph6.read_file(SEED34):
        p = list(range(g.order))
        rng.shuffle(p)
        seeds.append(relabeled(g, p))
    citations = {(3, 8, 32): "no (3,8)-graph of order 32 exists (exhaustive search)"}
    report = spectrum_search(3, 8, seeds, 62, citations=citations)
    assert set(report_3_8.realized_orders()) - {36} <= set(report.realized_orders())


def test_passes_repeat_until_one_realizes_nothing():
    # delete_vertices reaches down at most 4 orders from a stored graph, so
    # realizing 10..28 from one graph of order 30 takes five passes
    g = petersen()
    while g.order < 30:
        _, g = next(iter_subdivide_two(g))
    config = SearchConfig(constructions=("delete_vertices",))
    report = spectrum_search(3, 5, [g], 30, config)
    assert report.realized_orders() == evens(10, 30)


def test_restricted_construction_list():
    config = SearchConfig(constructions=("subdivide_two", "amalgamate"))
    report = spectrum_search(3, 5, [petersen()], 24, config)
    assert set(report.realized_orders()) >= {10, 12, 14, 16, 18}


def test_unknown_construction_rejected():
    with pytest.raises(UnknownOperation, match="subdivid_two"):
        SearchConfig(constructions=("subdivid_two",))
    with pytest.raises(UnknownOperation, match="circulant44"):
        SearchConfig(constructions=("circulant44",))
    # excision needs a parent of girth g+1, which the engine never stores
    with pytest.raises(UnknownOperation, match="remove_biggs_tree"):
        SearchConfig(constructions=("remove_biggs_tree",))
    # each unknown name is shown quoted, so an empty one is visible
    with pytest.raises(UnknownOperation, match=r"^unknown construction\(s\): '', 'x'$"):
        SearchConfig(constructions=("subdivide_two", "", "x"))


@pytest.mark.parametrize("name", ["remove_biggs_tree", "remove_perfect_matching", "gdgp"])
def test_table_operation_outside_the_spectrum_is_named_as_such(name):
    # the operation table holds these, so they are not unknown
    runs = ", ".join(spectrum.DEFAULT_CONSTRUCTIONS)
    want = f"^not spectrum construction\\(s\\): '{name}'; the spectrum runs {runs}$"
    with pytest.raises(UnknownOperation, match=want):
        SearchConfig(constructions=("subdivide_two", name))
    # a name outside the table is still reported as unknown first
    with pytest.raises(UnknownOperation, match=r"^unknown construction\(s\): 'x'$"):
        SearchConfig(constructions=(name, "x"))


@pytest.mark.parametrize("seed", [(1, 2), 1.5, True, "7"])
def test_rng_seed_is_none_or_an_int(seed):
    with pytest.raises(MalformedInput, match="rng_seed"):
        SearchConfig(rng_seed=seed)


def test_construction_names_are_a_sequence_not_a_string():
    # a bare string is one name list, never iterated letter by letter
    with pytest.raises(CagekitError, match="'amalgamate'") as err:
        SearchConfig(constructions="amalgamate")
    assert not isinstance(err.value, UnknownOperation)
    as_list = SearchConfig(constructions=["subdivide_two", "amalgamate"])
    assert as_list.constructions == ("subdivide_two", "amalgamate")
    assert as_list == SearchConfig(constructions=("subdivide_two", "amalgamate"))


def test_engine_certifies_only_kg_graphs(monkeypatch):
    seen = []

    def checked(graph):
        assert check_kg(graph, 3, 4) is None
        seen.append(graph.order)
        return certificate(graph)

    monkeypatch.setattr(spectrum, "certificate", checked)
    report = spectrum_search(3, 4, [complete_bipartite(3, 3)], 40)
    assert set(seen) == set(report.realized_orders())


def test_readme_lists_the_default_constructions_in_order():
    with open(README, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    listed = text.split("`--constructions` takes", 1)[1].split("(all of them by default)", 1)[0]
    assert tuple(re.findall(r"`(\w+)`", listed)) == spectrum.DEFAULT_CONSTRUCTIONS


def test_readme_library_tour_runs_as_its_comments_say(capsys):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    tour = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(compile(tour, "README.md", "exec"), scope)
    assert scope["twelve"].order == 12 and check_kg(scope["twelve"], 3, 5) is None
    assert scope["big"].order == 48 and check_kg(scope["big"], 3, 8) is None
    assert certificate(scope["ten"]) == certificate(petersen())
    assert scope["grown"]
    assert all(out.order == 46 and check_kg(out, 3, 8) is None for _, out in scope["grown"])
    printed = capsys.readouterr().out
    report = scope["report"]
    assert printed == render_report(report) + "\n10\n"
    assert set(evens(10, 40)) <= set(report.realized_orders())
    assert report.unresolved_orders() == []


@pytest.mark.parametrize("g", [3, 5, 7])
def test_no_double_cover_step_for_odd_girth(g):
    # a double cover is bipartite, so its girth is even and never g
    steps = recipes.OPERATIONS["canonical_double_cover"].steps
    assert list(steps(20, 3, g)) == []
    assert list(steps(20, 3, g + 1)) == [(10, {})]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_no_moore_double_step_below_girth_four(k):
    steps = recipes.OPERATIONS["moore_tree_double"].steps
    assert list(steps(40, k, 3)) == []
    assert list(steps(40, k, 4)) == [(21, {"radius": 0}), (21 + k, {"radius": 1})]


@pytest.mark.parametrize("name, k", [
    ("delete_edges_add_vertices", 5),
    ("subdivide_two", 4),
    ("subdivide_three", 4),
    ("subdivide_merge", 3),
    ("circulant", 3),
    ("quartic_parity_graph", 3),
])
def test_no_step_for_a_degree_the_operation_does_not_serve(name, k):
    # the steps rule alone decides where the engine grows with an operation
    steps = recipes.OPERATIONS[name].steps
    assert [s for g in range(3, 9) for n in range(61) for s in steps(n, k, g)] == []


def test_construction_bug_propagates(monkeypatch):
    def broken(parent, target_girth=None, budget=None):
        raise IndexOutOfRange("vertex 99 not in 0..9")
        yield

    monkeypatch.setattr(recipes, "iter_subdivide_two", broken)
    config = SearchConfig(constructions=("subdivide_two",))
    with pytest.raises(IndexOutOfRange):
        spectrum_search(3, 5, [petersen()], 20, config)


def _grow_subdivide_two_with(monkeypatch, alter):
    """Patch subdivide_two to record alter(parent, params) for each output."""
    op = recipes.OPERATIONS["subdivide_two"]

    def grow(parents, budget, **options):
        for params, out in op.grow(parents, budget, **options):
            yield alter(parents[0], params), out

    patched = recipes.Operation(op.name, op.arity, op.apply, grow, op.steps)
    monkeypatch.setitem(recipes.OPERATIONS, "subdivide_two", patched)


def _run_subdivide_two_to_twelve():
    config = SearchConfig(constructions=("subdivide_two",))
    return spectrum_search(3, 5, [petersen()], 12, config)


def test_gate_passes_subdivide_two_witnesses(monkeypatch):
    _grow_subdivide_two_with(monkeypatch, lambda parent, params: params)
    report = _run_subdivide_two_to_twelve()
    assert report.realized_orders() == [10, 12]
    assert report.statuses[-1].witness.operation == "subdivide_two"


def _swap_edges(parent, params):
    # an isomorphic, relabelled replay: the two new vertices trade places
    return {"e1": params["e2"], "e2": params["e1"]}


def _other_second_edge(parent, params):
    other = next(e for e in parent.edges() if list(e) not in (params["e1"], params["e2"]))
    return {"e1": params["e1"], "e2": list(other)}


@pytest.mark.parametrize("alter", [_swap_edges, _other_second_edge], ids=["swapped", "other"])
def test_gate_rejects_a_witness_that_replays_to_another_graph(monkeypatch, alter):
    _grow_subdivide_two_with(monkeypatch, alter)
    with pytest.raises(CagekitError):
        _run_subdivide_two_to_twelve()


def test_gate_rejects_a_parent_that_was_never_stored(monkeypatch):
    # The engine, not the grow, names a recipe's parents, so patch commit.
    commit = spectrum._Engine.commit

    def misnamed(self, graph, op, parents, params):
        if op == "subdivide_two":
            parents = ("never-stored",)
        return commit(self, graph, op, parents, params)

    monkeypatch.setattr(spectrum._Engine, "commit", misnamed)
    with pytest.raises(CagekitError, match="never-stored"):
        _run_subdivide_two_to_twelve()


def test_replay_gate_runs_no_canonical_search(monkeypatch):
    calls = {"gate": 0, "elsewhere": 0}
    where = ["elsewhere"]
    search, gate = canon._canonical_perm, spectrum._Engine._replay_gate

    def counted(g):
        calls[where[0]] += 1
        return search(g)

    def watched(self):
        where[0] = "gate"
        try:
            gate(self)
        finally:
            where[0] = "elsewhere"

    monkeypatch.setattr(canon, "_canonical_perm", counted)
    monkeypatch.setattr(spectrum._Engine, "_replay_gate", watched)
    report = spectrum_search(3, 5, [petersen()], 40)
    assert len(report.realized_orders()) > 10
    assert calls["elsewhere"] > 0
    assert calls["gate"] == 0


def test_no_candidate_is_exactly_eight_errors():
    """The engine reads these errors, and no others, as "this input yields
    no candidate"; a bug-class error joining them would hide the bug."""
    found, todo = set(), [NoCandidate]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub.__name__)
            todo.append(sub)
    assert found == {
        "InvalidConnectingSet", "NoCompletion", "NotCubic", "NotTetravalent",
        "OrderTooSmall", "ParameterOutOfRange", "RadiusTooLarge", "TreeNotInduced",
    }


def test_budget_stop_is_reported(report_3_6):
    # The golden file is named for the allowance that stopped this run when
    # every deletion was tried; with one per orbit, 500 stops it at the same
    # point and 2000 lets it finish.
    cut = spectrum_search(3, 6, [heawood()], 40, SearchConfig(budget=500))
    assert cut.truncated
    assert render_report(cut).endswith(" truncated\n")
    assert render_report(cut) == golden("report_3_6_budget2000.txt")
    done = spectrum_search(3, 6, [heawood()], 40, SearchConfig(budget=2000))
    assert not done.truncated
    assert render_report(done) == golden("report_3_6.txt")
    assert not report_3_6.truncated
    assert render_report(report_3_6).endswith("N(k,g)=<=14\n")


def test_seed_and_citation_files(tmp_path):
    from cagekit import graph6

    folder = tmp_path / "k3g5"
    folder.mkdir()
    graph6.write_file(folder / "cage.g6", [petersen()])
    assert [g.order for g in load_seeds(tmp_path, 3, 5)] == [10]
    assert load_seeds(tmp_path, 4, 5) == []
    with pytest.raises(FileNotFoundError, match="absent"):
        load_seeds(tmp_path / "absent", 3, 5)

    table = tmp_path / "citations.txt"
    table.write_text("# known exclusions\n3 8 32 ruled out by census\n4 4 9 none exists\n")
    parsed = parse_citations(table)
    assert parsed == {
        (3, 8, 32): "ruled out by census",
        (4, 4, 9): "none exists",
    }

    for bad in ("3 8 32\n", "3 8 x no such order\n"):
        table.write_text("# known exclusions\n" + bad)
        with pytest.raises(MalformedInput, match=":2: expected 'k g n reason'"):
            parse_citations(table)


def test_citations_are_decoded_line_by_line(tmp_path):
    table = tmp_path / "citations.txt"
    table.write_bytes("3 8 32 café\n".encode() + b"3 8 34 caf\xe9\n")
    with pytest.raises(MalformedInput, match=":2: 'utf-8' codec can't decode byte 0xe9"):
        parse_citations(table)
    table.write_bytes("# señal\r\n3 8 32 café\r\n".encode())
    assert parse_citations(table) == {(3, 8, 32): "café"}


def test_infer_N_needs_full_window():
    report = spectrum_search(3, 5, [petersen()], 14)
    assert sorted(report.realized_orders()) == [10, 12, 14]
    assert infer_N(report, 10) is None


def test_frozen_order_34_seed_rederives():
    """The checked-in (3,8) seed comes from the double cover of the girth-7
    cage by deleting two vertices at a time down to 38, then four at once."""
    from cagekit import graph6
    from cagekit.constructions import canonical_double_cover
    from cagekit.named import mcgee
    from cagekit.recipes import construct
    from conftest import SEED34

    g = canonical_double_cover(mcgee())
    while g.order > 38:
        g = construct("delete_vertices", g, target_girth=8, vertices=2)[0][1]
        assert check_kg(g, 3, 8) is None
    g = construct("delete_vertices", g, target_girth=8, vertices=4)[0][1]
    frozen = graph6.read_file(SEED34)
    assert len(frozen) == 1
    assert check_kg(frozen[0], 3, 8) is None
    assert frozen[0].order == 34
    assert certificate(g) == certificate(frozen[0])
