"""Recorded constructions: line format, replay, and verification."""
from __future__ import annotations

import inspect
import random
from itertools import islice

import pytest

from cagekit import graph6
from cagekit.canon import certificate
from cagekit.constructions import (
    find_perfect_matching,
    iter_moore_double,
    iter_subdivide_merge,
    iter_subdivide_three,
    iter_subdivide_two,
)
from cagekit.errors import (
    CagekitError,
    MalformedInput,
    NoCandidate,
    NotAnEdge,
    ParameterOutOfRange,
    RadiusTooLarge,
    ReplayMismatch,
    UnknownOperation,
)
from cagekit.families import circulant44, gdgp, GdgpSpec, quartic_parity_graph
from cagekit.named import (
    complete_bipartite,
    complete_graph,
    heawood,
    mcgee,
    petersen,
    tutte_coxeter,
)
from cagekit.graph import Graph, check_kg, edit
from cagekit.limits import Budget
from cagekit.recipes import (
    OPERATIONS,
    Recipe,
    apply_operation,
    construct,
    read_recipes,
    replay,
    verified_replay,
    write_recipes,
)
from cagekit.rewire import (
    iter_delete_edges_add_vertices,
    iter_delete_vertices,
    iter_remove_biggs_tree,
)
from conftest import SEED34
from helpers import shuffled


def make_resolver(*graphs):
    table = {certificate(g): g for g in graphs}
    return lambda cert: table[cert]


def petersen_double_matching() -> list[int]:
    """The leaf bijection of Petersen's radius-1 doubling at root 0."""
    [(params, _)] = iter_moore_double(petersen(), 1, root=0)
    return params["matching"]


def recorded(op, parent_graphs, params, out_graph):
    return Recipe(
        op, tuple(certificate(g) for g in parent_graphs), params, certificate(out_graph)
    )


def test_line_round_trip():
    r = Recipe(
        "amalgamate",
        ("abc", "def"),
        {"e1": [0, 1], "e2": [2, 3], "mode": "cross"},
        "ghi",
    )
    assert Recipe.from_line(r.to_line()) == r
    seed = Recipe("seed", (), {}, "xyz")
    assert Recipe.from_line(seed.to_line()) == seed


def test_seed_replay_resolves_directly():
    p = petersen()
    r = Recipe("seed", (), {}, certificate(p))
    assert replay(r, make_resolver(p)) is p


def test_unknown_operation():
    r = Recipe("shuffle", ("abc",), {}, "def")
    with pytest.raises(UnknownOperation):
        replay(r, lambda cert: petersen())


@pytest.mark.parametrize("name", ["shuffle", "seed", "circulant", "gdgp", "amalgamate"])
def test_construct_takes_only_unary_operations(name):
    with pytest.raises(UnknownOperation):
        construct(name, petersen())


@pytest.mark.parametrize("name", [
    "canonical_double_cover", "moore_tree_double", "remove_biggs_tree", "remove_perfect_matching",
])
def test_construct_rejects_a_target_girth_the_operation_does_not_read(name):
    with pytest.raises(ParameterOutOfRange, match="target_girth"):
        construct(name, heawood(), target_girth=9)


def test_construct_takes_no_positional_option():
    with pytest.raises(TypeError):
        construct("delete_vertices", petersen(), 5, vertices=2)


def test_construct_rejects_a_misspelled_option():
    with pytest.raises(ParameterOutOfRange, match="vertice"):
        construct("delete_vertices", circulant44(11), vertice=2)


@pytest.mark.parametrize("name, options, missing", [
    ("moore_tree_double", {"radius": None}, "radius"),
    ("moore_tree_double", {"root": 0, "radius": None}, "radius"),
    ("delete_vertices", {"target_girth": 4, "vertices": None}, "vertices"),
    ("delete_edges_add_vertices", {"vertices": None, "edges": None}, "edges, vertices"),
    ("delete_edges_add_vertices", {"edges": 3, "vertices": None}, "vertices"),
])
def test_construct_rejects_a_missing_option(name, options, missing):
    """An option given as None, where its default is not None, is missing:
    a typed error, not a TypeError from inside the scan."""
    with pytest.raises(ParameterOutOfRange, match=f"needs option {missing}$"):
        construct(name, petersen(), **options)


@pytest.mark.parametrize("name, parent, options, wrong", [
    ("moore_tree_double", tutte_coxeter(), {"radius": True}, "radius"),
    ("moore_tree_double", tutte_coxeter(), {"radius": 1.0}, "radius"),
    ("moore_tree_double", tutte_coxeter(), {"root": "0"}, "root"),
    ("delete_vertices", petersen(), {"vertices": 2.0}, "vertices"),
    ("delete_vertices", petersen(), {"target_girth": 5.0}, "target_girth"),
])
def test_construct_rejects_an_option_that_is_not_an_int(name, parent, options, wrong):
    """A bool, float or string option is named before any scan: passed on,
    `radius=True` recorded a recipe replay rejects, and a float raised a
    bare TypeError."""
    with pytest.raises(ParameterOutOfRange, match=f"option {wrong} must be an integer"):
        construct(name, parent, **options)


def test_construct_takes_the_operation_defaults():
    """Every keyword-only parameter of a unary grow has a default, so each
    is an option, and an option left out of construct takes it."""
    for op in OPERATIONS.values():
        if op.arity == 1:
            assert len(op.options) == op.grow.__code__.co_kwonlyargcount, op.name
    for name, parent, options, defaults in [
        ("moore_tree_double", petersen(), {"root": 0}, {"radius": 1}),
        ("delete_vertices", petersen(), {"target_girth": 4}, {"vertices": 2}),
        ("delete_edges_add_vertices", heawood(), {}, {"edges": 3, "vertices": 2}),
    ]:
        outs = construct(name, parent, **options)
        assert outs, name
        assert outs == construct(name, parent, **options, **defaults), name


def test_every_engine_step_binds_to_its_grow_signature():
    """Every grow takes (parents, budget) positionally and the rest by
    keyword only, and the keywords `steps` asks for are exactly what it
    declares: none unknown, none required left out, and a unary one's all
    options."""
    checked = 0
    for op in OPERATIONS.values():
        if op.grow is not None:
            assert op.grow.__code__.co_argcount == 2, op.name
        if op.steps is None:
            continue
        for k in range(3, 6):
            for g in range(3, 9):
                for n in range(61):
                    for _, options in op.steps(n, k, g):
                        inspect.signature(op.grow).bind(None, None, **options)
                        assert op.arity == 0 or set(options) <= set(op.options)
                        checked += 1
    assert checked > 1000


@pytest.mark.parametrize(
    "line",
    ["op=seed out=x", "op=seed parents= out=x", "op=seed parents= params={ out=x", ""],
)
def test_malformed_line_rejected(line):
    with pytest.raises(MalformedInput):
        Recipe.from_line(line)


def test_a_recipe_file_that_is_not_ascii_names_the_line(tmp_path):
    path = tmp_path / "bad.recipes"
    line = Recipe("seed", (), {}, certificate(petersen())).to_line()
    path.write_bytes(f"# recipes\n{line}\n{line}\xe9\n".encode("latin-1"))
    with pytest.raises(MalformedInput) as err:
        read_recipes(path)
    assert str(err.value).startswith(f"{path}:3: 'ascii' codec can't decode byte 0xe9")


def test_a_malformed_recipe_line_names_its_file_and_line(tmp_path):
    path = tmp_path / "bad.recipes"
    path.write_text("# x\nop=seed out=x\n", encoding="ascii")
    with pytest.raises(MalformedInput) as err:
        read_recipes(path)
    assert str(err.value) == (
        f"{path}:2: bad recipe line 'op=seed out=x': KeyError('parents')"
    )


def test_replay_checks_parent_count():
    p = petersen()
    params = {"e1": [0, 1], "e2": [0, 1], "mode": "cross"}
    r = Recipe("amalgamate", (certificate(p),), params, certificate(p))
    with pytest.raises(ReplayMismatch, match="2 parent"):
        replay(r, make_resolver(p))
    r = Recipe("subdivide_two", (), {"e1": [0, 1], "e2": [5, 7]}, certificate(p))
    with pytest.raises(ReplayMismatch):
        replay(r, make_resolver(p))


def test_non_object_params_rejected():
    with pytest.raises(MalformedInput, match="JSON object"):
        Recipe.from_line("op=subdivide_two parents=abc params=[1] out=def")


def test_replay_names_a_missing_param():
    p = petersen()
    r = Recipe("subdivide_two", (certificate(p),), {}, certificate(p))
    with pytest.raises(ReplayMismatch, match="subdivide_two.*'e1'"):
        replay(r, make_resolver(p))


def test_replay_of_moore_double_without_root():
    p = petersen()
    params = {"r": 1, "matching": petersen_double_matching()}
    r = Recipe("moore_tree_double", (certificate(p),), params, certificate(p))
    with pytest.raises(ReplayMismatch, match="moore_tree_double.*'root'"):
        replay(r, make_resolver(p))


@pytest.mark.parametrize("key, alter", [
    ("added", lambda value: "2"),
    ("edges", lambda value: [[0, 1, 2]] + value[1:]),
    ("removed", lambda value: [0]),
], ids=["added", "edges", "removed"])
def test_replay_rejects_a_param_of_the_wrong_shape(key, alter):
    hw = heawood()
    params, h = next(iter_delete_edges_add_vertices(hw, 3, 2, 6, 10**7))
    bad = {**params, key: alter(params[key])}
    r = Recipe.from_line(recorded("delete_edges_add_vertices", [hw], bad, h).to_line())
    with pytest.raises(ReplayMismatch, match=f"delete_edges_add_vertices.*'{key}'"):
        replay(r, make_resolver(hw))


@pytest.mark.parametrize("alter", [lambda m: m[:-1], lambda m: [99] * len(m)],
                         ids=["short", "out-of-range"])
def test_replay_of_moore_double_with_a_bad_matching(alter):
    p = petersen()
    params = {"r": 1, "root": 0, "matching": alter(petersen_double_matching())}
    r = Recipe("moore_tree_double", (certificate(p),), params, certificate(p))
    with pytest.raises(ParameterOutOfRange, match="not a permutation"):
        replay(r, make_resolver(p))


def test_replay_of_moore_double_with_a_negative_radius():
    # grow never emits r < 0, so a recipe naming one builds nothing
    params = {"r": -1, "root": 0, "matching": [0]}
    with pytest.raises(RadiusTooLarge, match="radius -1"):
        apply_operation("moore_tree_double", [petersen()], params)


def test_a_repeated_removal_is_a_bug_not_one_removal():
    """Operations and recipes that name an edge or a vertex twice raise an
    error the spectrum engine does not read as "no candidate"."""
    p = petersen()
    with pytest.raises(NotAnEdge):
        apply_operation("subdivide_two", (p,), {"e1": [0, 1], "e2": [0, 1]})
    with pytest.raises(CagekitError) as err:
        apply_operation("delete_vertices", (p,), {"removed": [3, 3], "edges": []})
    assert not isinstance(err.value, NoCandidate)


def test_replay_mismatch_detected():
    p = petersen()
    params, h = next(iter_subdivide_two(p, None, 10**6))
    r = Recipe("subdivide_two", (certificate(p),), params, certificate(p))
    with pytest.raises(ReplayMismatch):
        verified_replay(r, make_resolver(p))


def all_operation_examples():
    """One (recipe, resolver) pair per recorded operation."""
    p = petersen()
    hw = heawood()
    k5 = complete_graph(5)
    k44 = complete_bipartite(4, 4)
    c44_11 = circulant44(11)
    cases = []

    params, h = next(iter_subdivide_two(p, None, 10**6))
    cases.append((recorded("subdivide_two", [p], params, h), make_resolver(p)))

    params, h = next(iter_subdivide_three(p, None, 10**6))
    cases.append((recorded("subdivide_three", [p], params, h), make_resolver(p)))

    params, h = next(iter_subdivide_merge(k5, None, 10**6))
    cases.append((recorded("subdivide_merge", [k5], params, h), make_resolver(k5)))

    from cagekit.constructions import (
        amalgamate,
        apply_moore_double,
        canonical_double_cover,
    )

    h = amalgamate(p, hw, (0, 1), (0, 1), "cross")
    cases.append(
        (
            recorded(
                "amalgamate", [p, hw],
                {"e1": [0, 1], "e2": [0, 1], "mode": "cross"}, h,
            ),
            make_resolver(p, hw),
        )
    )

    matching = petersen_double_matching()
    h = apply_moore_double(p, 1, 0, matching)
    cases.append(
        (
            recorded(
                "moore_tree_double", [p],
                {"r": 1, "root": 0, "matching": matching}, h,
            ),
            make_resolver(p),
        )
    )

    params, h = next(iter_delete_edges_add_vertices(hw, 3, 2, 6, 10**7))
    cases.append(
        (recorded("delete_edges_add_vertices", [hw], params, h), make_resolver(hw))
    )

    params, h = next(iter_delete_vertices(c44_11, 1, 3, 10**7))
    cases.append(
        (recorded("delete_vertices", [c44_11], params, h), make_resolver(c44_11))
    )

    params, h = next(iter_remove_biggs_tree(hw, 10**7))
    cases.append(
        (recorded("remove_biggs_tree", [hw], params, h), make_resolver(hw))
    )

    pm = find_perfect_matching(k44)
    h = edit(k44, remove=pm)
    cases.append(
        (
            recorded(
                "remove_perfect_matching", [k44],
                {"matching": [list(e) for e in pm]}, h,
            ),
            make_resolver(k44),
        )
    )

    h = canonical_double_cover(k5)
    cases.append(
        (recorded("canonical_double_cover", [k5], {}, h), make_resolver(k5))
    )

    cases.append(
        (
            recorded("circulant", [], {"n": 11, "S": [1, 3, 8, 10]}, c44_11),
            make_resolver(),
        )
    )
    cases.append(
        (
            recorded(
                "quartic_parity_graph", [], {"n": 26}, quartic_parity_graph(26)
            ),
            make_resolver(),
        )
    )
    cases.append(
        (
            recorded(
                "gdgp", [], {"m": 2, "n": 18, "K": [5, 5]},
                gdgp(GdgpSpec(2, 18, (5, 5))),
            ),
            make_resolver(),
        )
    )
    return cases


def test_every_operation_replays():
    cases = all_operation_examples()
    covered = {r.operation for r, _ in cases} | {"seed"}
    assert covered == set(OPERATIONS) | {"seed"}
    for recipe, resolver in cases:
        out = verified_replay(recipe, resolver)
        assert certificate(out) == recipe.output_cert


# name -> (parent, grow keywords); a pair for amalgamate
GROW_CASES = {
    "amalgamate": ((petersen(), heawood()), {}),
    "subdivide_two": (petersen(), {}),
    "subdivide_three": (petersen(), {"target_girth": 5}),
    "subdivide_merge": (complete_graph(5), {}),
    "canonical_double_cover": (complete_graph(5), {}),
    "moore_tree_double": (petersen(), {"radius": 1}),
    "remove_biggs_tree": (heawood(), {}),
    "delete_vertices": (circulant44(11), {"target_girth": 3, "vertices": 1}),
    "delete_edges_add_vertices": (heawood(), {"target_girth": 6, "edges": 3, "vertices": 2}),
    "remove_perfect_matching": (complete_bipartite(4, 4), {}),
    "circulant": (None, {"n": 11}),
    "quartic_parity_graph": (None, {"n": 26}),
}


def test_grow_cases_cover_every_growing_operation():
    assert set(GROW_CASES) == {name for name, op in OPERATIONS.items() if op.grow}


@pytest.mark.parametrize("name", sorted(GROW_CASES))
def test_replay_rebuilds_what_grow_emits_label_for_label(name):
    """The spectrum engine's replay gate relies on this: a recipe replays to
    the very graph its operation emitted, not just to an isomorphic one."""
    parent, kw = GROW_CASES[name]
    op = OPERATIONS[name]
    parents = {0: (), 1: (parent,), 2: parent}[op.arity]
    grown = list(islice(op.grow(parents, 10**7, **kw), 5))
    assert grown
    resolve = make_resolver(*parents)
    for params, out in grown:
        assert replay(recorded(name, parents, params, out), resolve) == out


@pytest.mark.parametrize("name", ["delete_vertices", "remove_biggs_tree", "delete_edges_add_vertices"])
def test_a_rewiring_replay_builds_one_graph(monkeypatch, name):
    """A rewiring recipe replays by its search's rule: one Graph, built on
    the compacted view of the parent's rows."""
    parent, kw = GROW_CASES[name]
    [(params, out), *_] = construct(name, parent, **kw)
    built = []
    init = Graph.__init__

    def counting_init(self, adjacency):
        built.append(self)
        init(self, adjacency)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    replayed = apply_operation(name, (parent,), params)
    monkeypatch.undo()
    assert replayed == out
    assert len(built) == 1


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("first, second", [
    (petersen, petersen), (heawood, heawood), (mcgee, mcgee),
    (tutte_coxeter, lambda: graph6.read_file(SEED34)[0]),
], ids=["petersen", "heawood", "mcgee", "tutte_coxeter-seed34"])
def test_first_amalgam_of_equal_girth_cubic_graphs_keeps_the_girth(first, second, seed):
    """A cross amalgam keeps every shortest cycle that avoids the two cut
    edges, and each new cycle crosses both join edges, so it is at least
    twice the girth long. The girth drops only when a cut edge lies on
    every shortest cycle of its graph, so the engine's amalgam scan needs
    no edge cap: its first output is already a (3,g)-graph."""
    rng = random.Random(seed)
    g1, g2 = shuffled(first(), rng), shuffled(second(), rng)
    assert g1.girth() == g2.girth()
    _, out = next(OPERATIONS["amalgamate"].grow((g1, g2), Budget()))
    assert check_kg(out, 3, g1.girth()) is None


def test_line_round_trip_for_every_operation():
    for recipe, _ in all_operation_examples():
        assert Recipe.from_line(recipe.to_line()) == recipe


def test_file_round_trip(tmp_path):
    recipes = [r for r, _ in all_operation_examples()]
    path = tmp_path / "trace.recipes"
    count = write_recipes(path, recipes)
    assert count == len(recipes)
    assert read_recipes(path) == recipes
