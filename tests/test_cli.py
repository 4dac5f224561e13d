"""Command-line subcommands: exit codes, file formats, determinism."""
from __future__ import annotations

import argparse
import os

import pytest

from cagekit import families, graph6, recipes
from cagekit.canon import certificate
from cagekit.cli import CONSTRUCT_NAMES, build_parser, main
from cagekit.constructions import amalgamate
from cagekit.named import complete_bipartite, complete_graph, heawood, mcgee, petersen
from cagekit.recipes import read_recipes, verified_replay

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")

# name -> (input graphs, extra flags) for the golden construct outputs
CONSTRUCT_CASES = {
    "amalgamate": ([petersen(), heawood()], ["--e1", "0,1", "--e2", "2,3"]),
    "subdivide_two": ([petersen(), heawood()], []),
    "subdivide_three": ([petersen()], []),
    "subdivide_merge": ([complete_graph(5)], []),
    "moore_tree_double": ([petersen()], ["--radius", "1"]),
    "delete_edges_add_vertices": ([heawood()], []),
    "delete_vertices": ([petersen()], ["--vertices", "2", "--target-girth", "4"]),
    "remove_biggs_tree": ([heawood()], []),
    "remove_perfect_matching": ([heawood()], []),
    "canonical_double_cover": ([petersen(), complete_graph(4)], []),
}


def write_g6(path, graphs):
    graph6.write_file(path, graphs)
    return str(path)


def test_verify_pass_and_fail(tmp_path, capsys):
    path = write_g6(tmp_path / "in.g6", [petersen(), heawood()])
    assert main(["verify", "--k", "3", "--g", "5", path]) == 1
    out = capsys.readouterr().out
    assert "line 1: PASS" in out
    assert "line 2: FAIL" in out
    assert main(["verify", "--k", "3", "--g", "6", str(tmp_path / "in.g6")]) == 1
    path = write_g6(tmp_path / "ok.g6", [petersen()])
    assert main(["verify", "--k", "3", "--g", "5", path]) == 0


def test_verify_numbers_the_lines_of_the_file(tmp_path, capsys):
    path = tmp_path / "gaps.g6"
    path.write_text(f"{graph6.encode(petersen())}\n\n{graph6.encode(heawood())}\n  \n")
    assert main(["verify", "--k", "3", "--g", "5", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "line 1: PASS", "line 3: FAIL girth 6, expected 5"]


@pytest.mark.parametrize("command", [["verify", "--k", "3", "--g", "3"], ["girth"]])
@pytest.mark.parametrize("content, lineno, message", [
    (b"C~\n\xc3\xa9\n", 2, "byte 195 out of graph6 range"),  # non-ASCII
    (b"C~\n\nC~\xa0\n", 3, "byte 160 out of graph6 range"),  # not stripped as space
    (b"C~\n\x85\n", 2, "byte 133 out of graph6 range"),  # not a blank line
    (b"C~\n\n\nC\n", 4, "expected 1 payload bytes, got 0"),
    (b"~~~~~~~~\n", 1, "order 68719476735 exceeds graph6 cap 262144"),
])
def test_malformed_line_names_file_and_line(tmp_path, capsys, command, content, lineno, message):
    path = tmp_path / "bad.g6"
    path.write_bytes(content)
    assert main(command + [str(path)]) == 1
    err = capsys.readouterr().err
    name = "OrderTooLarge" if "cap" in message else "MalformedGraph6"
    assert err == f"error: {name}: {path}:{lineno}: {message}\n"


def test_girth_lines(tmp_path, capsys):
    path = write_g6(tmp_path / "in.g6", [petersen(), mcgee()])
    assert main(["girth", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "order=10 degrees=3 girth=5"
    assert lines[1] == "order=24 degrees=3 girth=7"


def test_girth_line_of_an_irregular_graph(tmp_path, capsys):
    path = write_g6(tmp_path / "in.g6", [complete_bipartite(2, 3)])
    assert main(["girth", path]) == 0
    assert capsys.readouterr().out == "order=5 degrees=2..3 girth=4\n"


def test_construct_writes_graphs_and_recipes(tmp_path, capsys):
    src = write_g6(tmp_path / "in.g6", [petersen()])
    out = str(tmp_path / "out.g6")
    assert main(["construct", "subdivide_two", "--in", src, "--out", out]) == 0
    produced = graph6.read_file(out)
    assert [g.order for g in produced] == [12]
    recipes = read_recipes(out + ".recipes")
    assert len(recipes) == len(produced)
    assert recipes[0].operation == "subdivide_two"
    resolver = {certificate(petersen()): petersen()}.__getitem__
    assert certificate(verified_replay(recipes[0], resolver)) == certificate(produced[0])


def test_construct_cases_cover_every_name():
    assert sorted(CONSTRUCT_CASES) == sorted(CONSTRUCT_NAMES)


@pytest.mark.parametrize("name", sorted(CONSTRUCT_CASES))
def test_construct_outputs_match_golden(name, tmp_path):
    graphs, flags = CONSTRUCT_CASES[name]
    src = write_g6(tmp_path / "in.g6", graphs)
    out = str(tmp_path / "out.g6")
    assert main(["construct", name, "--in", src, "--out", out] + flags) == 0
    for suffix in ("", ".recipes"):
        with open(os.path.join(GOLDEN, f"construct_{name}.g6{suffix}"), encoding="ascii") as fh:
            assert open(out + suffix, encoding="ascii").read() == fh.read()
    resolve = {certificate(g): g for g in graphs}.__getitem__
    produced = graph6.read_file(out)
    recipes = read_recipes(out + ".recipes")
    assert len(recipes) == len(produced) > 0
    for recipe, graph in zip(recipes, produced):
        assert certificate(verified_replay(recipe, resolve)) == certificate(graph)


def test_construct_double_cover(tmp_path):
    src = write_g6(tmp_path / "in.g6", [mcgee()])
    out = str(tmp_path / "out.g6")
    assert main(["construct", "canonical_double_cover", "--in", src, "--out", out]) == 0
    produced = graph6.read_file(out)
    assert [(g.order, g.girth()) for g in produced] == [(48, 8)]


def test_construct_amalgamate(tmp_path, capsys):
    src = write_g6(tmp_path / "in.g6", [petersen(), petersen()])
    out = str(tmp_path / "out.g6")
    code = main(
        ["construct", "amalgamate", "--in", src, "--out", out,
         "--e1", "0,1", "--e2", "0,1"]
    )
    assert code == 0
    produced = graph6.read_file(out)
    assert [(g.order, g.girth()) for g in produced] == [(20, 5)]
    assert len(read_recipes(out + ".recipes")) == 1
    one = write_g6(tmp_path / "one.g6", [petersen()])
    assert main(["construct", "amalgamate", "--in", one, "--out", out]) == 1
    assert "needs two input graphs" in capsys.readouterr().err


def test_construct_amalgamate_builds_through_the_table(tmp_path, monkeypatch):
    op = recipes.OPERATIONS["amalgamate"]
    modes = []

    def apply(parents, params):
        modes.append(params["mode"])
        return op.apply(parents, params)

    patched = recipes.Operation(op.name, op.arity, apply, op.grow, op.steps)
    monkeypatch.setitem(recipes.OPERATIONS, "amalgamate", patched)
    src = write_g6(tmp_path / "in.g6", [petersen(), heawood()])
    out = str(tmp_path / "out.g6")
    assert main(["construct", "amalgamate", "--in", src, "--out", out, "--mode", "parallel"]) == 0
    assert modes == ["parallel"]
    [recipe] = read_recipes(out + ".recipes")
    resolve = {certificate(petersen()): petersen(), certificate(heawood()): heawood()}.__getitem__
    assert graph6.read_file(out) == [verified_replay(recipe, resolve)]


def test_construct_moore_double_skips_inadmissible_roots(tmp_path, capsys):
    # root 0 lies on a 4-cycle, so its radius-1 Moore tree is not induced
    g = amalgamate(complete_bipartite(3, 3), petersen(), (0, 3), (0, 1), "cross")
    src = write_g6(tmp_path / "in.g6", [g])
    out = str(tmp_path / "out.g6")
    assert main(["construct", "moore_tree_double", "--in", src, "--out", out,
                 "--radius", "1"]) == 0
    produced = graph6.read_file(out)
    assert len(produced) == 3
    resolve = {certificate(g): g}.__getitem__
    for recipe in read_recipes(out + ".recipes"):
        assert recipe.params["root"] != 0
        verified_replay(recipe, resolve)
    assert main(["construct", "moore_tree_double", "--in", src, "--out", out,
                 "--radius", "1", "--root", "0"]) == 1
    assert "TreeNotInduced" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, flags",
    [
        ("delete_vertices", ["--vertices", "1"]),
        ("delete_edges_add_vertices", ["--edges", "1", "--vertices", "0"]),
        ("moore_tree_double", ["--radius", "1"]),
    ],
)
def test_construct_on_an_acyclic_input_exits_one(tmp_path, capsys, name, flags):
    # a perfect matching on 4 vertices: 1-regular, no cycle, no girth to keep
    src = write_g6(tmp_path / "in.g6", [graph6.decode("C`")])
    out = str(tmp_path / "out.g6")
    assert main(["construct", name, "--in", src, "--out", out, *flags]) == 1
    assert "ParameterOutOfRange" in capsys.readouterr().err


def test_construct_rejects_target_girth_zero(tmp_path, capsys):
    # 0 is a target below 3, not "unset": the parent's girth would be used
    src = write_g6(tmp_path / "in.g6", [petersen()])
    out = str(tmp_path / "out.g6")
    assert main(["construct", "delete_vertices", "--in", src, "--out", out,
                 "--vertices", "2", "--target-girth", "0"]) == 1
    assert "ParameterOutOfRange" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["canonical_double_cover", "amalgamate"])
def test_construct_rejects_target_girth_for_an_operation_without_one(tmp_path, capsys, name):
    src = write_g6(tmp_path / "in.g6", [petersen(), heawood()])
    out = str(tmp_path / "out.g6")
    assert main(["construct", name, "--in", src, "--out", out, "--target-girth", "9"]) == 1
    assert "ParameterOutOfRange" in capsys.readouterr().err


@pytest.mark.parametrize("name, flags, option", [
    ("subdivide_two", ["--vertices", "9", "--radius", "4"], "radius, vertices"),
    ("canonical_double_cover", ["--e1", "0,1"], "e1"),
    ("delete_vertices", ["--vertices", "1", "--edges", "3"], "edges"),
    ("moore_tree_double", ["--mode", "parallel"], "mode"),
    ("remove_perfect_matching", ["--root", "0"], "root"),
    ("amalgamate", ["--e1", "0,1", "--vertices", "2"], "vertices"),
    ("amalgamate", ["--radius", "1", "--root", "0"], "radius, root"),
])
def test_construct_rejects_a_flag_the_operation_does_not_read(tmp_path, capsys, name, flags,
                                                             option):
    src = write_g6(tmp_path / "in.g6", [petersen(), heawood()])
    out = str(tmp_path / "out.g6")
    assert main(["construct", name, "--in", src, "--out", out, *flags]) == 1
    err = capsys.readouterr().err
    assert "ParameterOutOfRange" in err
    assert f"takes no option {option}" in err


def test_generators_stream_to_stdout(capsys):
    assert main(["circulant", "--n", "10", "--set", "1,3,7,9"]) == 0
    line = capsys.readouterr().out.strip()
    g = graph6.decode(line)
    assert (g.order, g.regularity(), g.girth()) == (10, 4, 4)

    assert main(["gdgp", "--m", "2", "--n", "18", "--K", "5,5"]) == 0
    g = graph6.decode(capsys.readouterr().out.strip())
    assert (g.order, g.girth()) == (36, 8)

    assert main(["parity46", "--n", "26"]) == 0
    g = graph6.decode(capsys.readouterr().out.strip())
    assert (g.order, g.regularity(), g.girth()) == (26, 4, 6)


def test_construct_flags_cover_every_unary_option():
    """construct's option flags are the unary operations' options plus
    amalgamate's e1, e2 and mode, with none left over."""
    actions = build_parser()._actions
    [sub] = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    flags = {s for a in sub.choices["construct"]._actions for s in a.option_strings}
    flags -= {"-h", "--help", "--in", "--out", "--budget"}
    unary = {key for op in recipes.OPERATIONS.values() if op.arity == 1 for key in op.options}
    assert flags == {"--" + key.replace("_", "-") for key in unary | {"e1", "e2", "mode"}}


@pytest.mark.parametrize("argv, operation, graph", [
    (["circulant", "--n", "10", "--set", "1,3,7,9"], "circulant",
     lambda: families.circulant(families.CirculantSpec(10, (1, 3, 7, 9)))),
    (["gdgp", "--m", "2", "--n", "18", "--K", "5,5"], "gdgp",
     lambda: families.gdgp(families.GdgpSpec(2, 18, (5, 5)))),
    (["parity46", "--n", "26"], "quartic_parity_graph",
     lambda: families.quartic_parity_graph(26)),
], ids=["circulant", "gdgp", "parity46"])
def test_generators_build_the_family_graph_through_the_table(
    capsys, monkeypatch, argv, operation, graph
):
    built = []

    def apply_operation(name, parents, params):
        built.append((name, tuple(parents)))
        return recipes.apply_operation(name, parents, params)

    monkeypatch.setattr("cagekit.cli.apply_operation", apply_operation)
    assert main(argv) == 0
    assert capsys.readouterr().out == graph6.encode(graph()) + "\n"
    assert built == [(operation, ())]


def test_enumerate_prints_count(capsys):
    assert main(["enumerate", "--k", "3", "--n", "10", "--min-girth", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert graph6.decode(lines[0]).order == 10
    assert lines[1] == "1 graphs"


def test_bounds_output(capsys):
    assert main(["bounds", "--k", "3", "--g", "5"]) == 0
    out = capsys.readouterr().out
    assert "Moore=10" in out
    assert "Sauer=16" in out
    assert "even orders only" in out

    assert main(["bounds", "--k", "3", "--g", "8", "--horizon", "34"]) == 0
    out = capsys.readouterr().out
    assert "Moore=30" in out
    assert "32" in out.splitlines()[-1]


def test_bounds_rejects_degree_two(capsys):
    # Sauer's formula gives 2 or 4 for k = 2, below the Moore bound g
    assert main(["bounds", "--k", "2", "--g", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ParameterOutOfRange" in captured.err and "degree >= 3" in captured.err


def test_spectrum_rejects_degree_two(tmp_path, capsys):
    # C5 is the only connected (2,5)-graph; every order past it read Unresolved
    code = main(["spectrum", "--k", "2", "--g", "5", "--horizon", "12", "--seeds", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ParameterOutOfRange") and "degree >= 3" in captured.err


def test_spectrum_subcommand(tmp_path, capsys):
    seeds = tmp_path / "seeds" / "k3g5"
    seeds.mkdir(parents=True)
    write_g6(seeds / "cage.g6", [petersen()])
    out = tmp_path / "report.txt"
    code = main(
        ["spectrum", "--k", "3", "--g", "5", "--horizon", "20",
         "--seeds", str(tmp_path / "seeds"), "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert "10 Realized" in text
    assert "N(k,g)=<=10" in text
    capsys.readouterr()
    assert main(["spectrum", "--k", "3", "--g", "5", "--horizon", "20",
                 "--seeds", str(tmp_path / "seeds")]) == 0
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("names", ["", ",", "subdivide_two,"])
def test_spectrum_rejects_an_empty_construction_name(tmp_path, capsys, names):
    seeds = tmp_path / "seeds" / "k3g5"
    seeds.mkdir(parents=True)
    write_g6(seeds / "cage.g6", [petersen()])
    assert main(["spectrum", "--k", "3", "--g", "5", "--horizon", "12",
                 "--seeds", str(tmp_path / "seeds"), "--constructions", names]) == 1
    assert "unknown construction(s): ''" in capsys.readouterr().err


def test_spectrum_names_a_table_operation_it_does_not_run(tmp_path, capsys):
    seeds = tmp_path / "seeds" / "k3g5"
    seeds.mkdir(parents=True)
    write_g6(seeds / "cage.g6", [petersen()])
    assert main(["spectrum", "--k", "3", "--g", "5", "--horizon", "12",
                 "--seeds", str(tmp_path / "seeds"), "--constructions", "remove_biggs_tree"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: UnknownOperation: not spectrum construction(s): "
                          "'remove_biggs_tree'; the spectrum runs amalgamate, subdivide_two, ")
    assert "unknown" not in err


def test_spectrum_with_citations(tmp_path):
    seeds = tmp_path / "seeds" / "k4g4"
    seeds.mkdir(parents=True)
    from cagekit.named import complete_bipartite

    write_g6(seeds / "cage.g6", [complete_bipartite(4, 4)])
    cites = tmp_path / "cites.txt"
    cites.write_text("4 4 9 ruled out\n")
    out = tmp_path / "report.txt"
    code = main(
        ["spectrum", "--k", "4", "--g", "4", "--horizon", "14",
         "--seeds", str(tmp_path / "seeds"), "--citations", str(cites),
         "--out", str(out)]
    )
    assert code == 0
    assert "9 ExcludedCited citation=ruled out" in out.read_text()


def test_malformed_citation_line_exits_one(tmp_path, capsys):
    seeds = tmp_path / "seeds" / "k3g8"
    seeds.mkdir(parents=True)
    cites = tmp_path / "cites.txt"
    cites.write_text("# exclusions\n3 8 32\n")
    code = main(
        ["spectrum", "--k", "3", "--g", "8", "--horizon", "40",
         "--seeds", str(tmp_path / "seeds"), "--citations", str(cites)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "MalformedInput" in err
    assert f"{cites}:2:" in err


def test_citations_that_are_not_utf8_exit_one(tmp_path, capsys):
    seeds = tmp_path / "seeds" / "k3g8"
    seeds.mkdir(parents=True)
    cites = tmp_path / "cites.txt"
    cites.write_bytes(b"3 8 32 caf\xe9\n")
    code = main(
        ["spectrum", "--k", "3", "--g", "8", "--horizon", "40",
         "--seeds", str(tmp_path / "seeds"), "--citations", str(cites)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: MalformedInput: {cites}:1: ")


def test_domain_errors_exit_one(capsys, tmp_path):
    assert main(["circulant", "--n", "6", "--set", "2,4"]) == 1
    assert "InvalidConnectingSet" in capsys.readouterr().err
    src = write_g6(tmp_path / "in.g6", [heawood()])
    assert main(["construct", "subdivide_two", "--in", src, "--out",
                 str(tmp_path / "o.g6"), "--target-girth", "9"]) == 1
    assert "ParameterOutOfRange" in capsys.readouterr().err


def test_circulant_of_order_zero_exits_one(capsys):
    assert main(["circulant", "--n", "0", "--set", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: InvalidConnectingSet")


def test_missing_file_exits_one(capsys, tmp_path):
    assert main(["girth", str(tmp_path / "absent.g6")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "absent.g6" in err
    seeds = str(tmp_path / "no-seeds")
    assert main(["spectrum", "--k", "3", "--g", "5", "--horizon", "14", "--seeds", seeds]) == 1
    assert seeds in capsys.readouterr().err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["circulant", "--n", "10"])  # missing --set
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["unknown-command"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv, message", [
    pytest.param(["construct", "amalgamate", "--e1", edge], "edge must be u,v", id=edge)
    for edge in ("0", "0,1,2", "a,b")
] + [
    pytest.param(["construct", "amalgamate", "--e2", "1,a"], "edge must be u,v", id="e2=1,a"),
    pytest.param(["circulant", "--n", "10", "--set", "1,a"], "comma-separated", id="set=1,a"),
    pytest.param(["circulant", "--n", "10", "--set", ""], "comma-separated", id="set="),
    pytest.param(["gdgp", "--m", "2", "--n", "18", "--K", "5,"], "comma-separated", id="K=5,"),
])
def test_malformed_edge_flag_exits_two(tmp_path, capsys, argv, message):
    """--e1/--e2, --set and --K share one comma-separated-integer type."""
    if argv[0] == "construct":
        src = write_g6(tmp_path / "in.g6", [petersen(), petersen()])
        argv = argv + ["--in", src, "--out", str(tmp_path / "o.g6")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_amalgamate_of_edgeless_graphs_exits_one(tmp_path, capsys):
    src = tmp_path / "in.g6"
    src.write_text("A?\nA?\n")
    out = str(tmp_path / "o.g6")
    assert main(["construct", "amalgamate", "--in", str(src), "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: NotAnEdge")


def test_byte_identical_reruns(tmp_path):
    src = write_g6(tmp_path / "in.g6", [petersen()])
    a, b = str(tmp_path / "a.g6"), str(tmp_path / "b.g6")
    for out in (a, b):
        assert main(["construct", "subdivide_three", "--in", src, "--out", out]) == 0
    assert open(a).read() == open(b).read()
    assert open(a + ".recipes").read() == open(b + ".recipes").read()


@pytest.mark.parametrize("command", ["construct", "enumerate", "spectrum"])
def test_nonpositive_budget_exits_one(tmp_path, capsys, command):
    src = write_g6(tmp_path / "in.g6", [petersen()])
    seeds = tmp_path / "seeds" / "k3g5"
    seeds.mkdir(parents=True)
    write_g6(seeds / "cage.g6", [petersen()])
    argv = {
        "construct": ["construct", "subdivide_two", "--in", src,
                      "--out", str(tmp_path / "o.g6"), "--budget", "0"],
        "enumerate": ["enumerate", "--k", "3", "--n", "10", "--cap", "0"],
        "spectrum": ["spectrum", "--k", "3", "--g", "5", "--horizon", "20",
                     "--seeds", str(tmp_path / "seeds"), "--budget", "-1"],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedInput")
    assert "budget allowance must be positive" in err
