"""Value records: equality by type and fields, the field repr, immutability,
and pickle and copy round trips, for every record type of the package."""
from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from cagekit.families import CirculantSpec, GdgpSpec
from cagekit.recipes import Operation, Recipe
from cagekit.spectrum import OrderState, OrderStatus, SearchConfig, SpectrumReport

RECIPE_TEXT = (
    "Recipe(operation='subdivide_two', parents=('abc',), params={'e1': [0, 1]}, output_cert='xyz')"
)
STATUS_TEXT = (
    f"OrderStatus(n=12, state=<OrderState.REALIZED: 'Realized'>, witness={RECIPE_TEXT}, "
    "citation=None)"
)


def recipe(out="xyz"):
    return Recipe("subdivide_two", ("abc",), {"e1": [0, 1]}, out)


def status(n=12):
    return OrderStatus(n, OrderState.REALIZED, recipe())


# name: (build, build with one field changed, repr text)
CASES = {
    "CirculantSpec": (
        lambda: CirculantSpec(10, [9, 1]),
        lambda: CirculantSpec(10, [1, 3, 7, 9]),
        "CirculantSpec(n=10, S=(1, 9))",
    ),
    "GdgpSpec": (
        lambda: GdgpSpec(2, 6, [1, 3]),
        lambda: GdgpSpec(2, 6, [3, 1]),
        "GdgpSpec(m=2, n=6, K=(1, 3))",
    ),
    "Recipe": (recipe, lambda: recipe("xyw"), RECIPE_TEXT),
    "Operation": (
        lambda: Operation("noop", 0, len, None, max, range(3, 5)),
        lambda: Operation("noop", 0, len, None, min, range(3, 5)),
        "Operation(name='noop', arity=0, apply=<built-in function len>, grow=None, "
        "steps=<built-in function max>, degrees=range(3, 5))",
    ),
    "OrderStatus": (status, lambda: status(14), STATUS_TEXT),
    "SearchConfig": (
        lambda: SearchConfig(("subdivide_two",), 500, 7),
        lambda: SearchConfig(("subdivide_two",), 500, 8),
        "SearchConfig(constructions=('subdivide_two',), budget=500, rng_seed=7)",
    ),
    "SpectrumReport": (
        lambda: SpectrumReport(3, 5, 12, (status(),), (recipe(),), True),
        lambda: SpectrumReport(3, 5, 12, (status(),), (recipe(),), False),
        f"SpectrumReport(k=3, g=5, horizon=12, statuses=({STATUS_TEXT},), "
        f"provenance=({RECIPE_TEXT},), truncated=True)",
    ),
}
# a recipe's params are a dict, so a record holding one is unhashable
UNHASHABLE = {"Recipe", "OrderStatus", "SpectrumReport"}


@pytest.mark.parametrize("name", CASES)
def test_record_values(name):
    build, changed, text = CASES[name]
    record = build()
    assert type(record).__name__ == name
    assert record == build() and not record != build()
    assert record != changed()
    assert all(record != other() for key, (other, _, _) in CASES.items() if key != name)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(build())
    for field in inspect.signature(type(record)).parameters:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == text  # as the record was built
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is type(record) and twin == record
