"""The benchmark's span tracer (`cagebench/spans.py`) finds the functions it
wraps by name and skips a name the library no longer has, so a rename would
silently zero a layer. Read its tables with `ast`, without importing it, and
check that every traced name still exists."""
from __future__ import annotations

import ast
import importlib
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "cagebench", "spans.py")

# Traced names the library has retired on purpose: graph.edit replaced the
# first three, and iter_moore_double finds the doubling matching itself.
RETIRED = {
    ("graph", "add_edges"), ("graph", "remove_edges"), ("graph", "add_vertices"),
    ("constructions", "moore_double_matching"),
}
# Graph methods retired on purpose: graph.bfs_distances answers every
# distance question, and the edge-distance rule lives on in tests/scan_oracle.py.
RETIRED_METHODS = {
    ("graph", "Graph", "distance"), ("graph", "Graph", "edge_distance"),
    ("graph", "Graph", "distances_from"),
}


def _table(name: str) -> tuple:
    with open(SPANS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"spans.py has no {name} table")


def test_traced_functions_exist():
    for _, mod, attr, _ in _table("FUNCTIONS"):
        present = hasattr(importlib.import_module(f"cagekit.{mod}"), attr)
        assert present != ((mod, attr) in RETIRED), f"cagekit.{mod}.{attr}"


def test_traced_methods_exist():
    for _, mod, cls, attr in _table("METHODS"):
        owner = getattr(importlib.import_module(f"cagekit.{mod}"), cls)
        present = attr in vars(owner)
        assert present != ((mod, cls, attr) in RETIRED_METHODS), f"cagekit.{mod}.{cls}.{attr}"
