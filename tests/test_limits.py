"""Budget allowances: only a positive int counts down."""
from __future__ import annotations

import pytest

from cagekit.errors import MalformedInput
from cagekit.limits import DEFAULT_BUDGET, Budget, coerce_budget


@pytest.mark.parametrize("allowance", [True, False, 2.5, 10.0, "10", None])
def test_budget_rejects_a_non_int_allowance(allowance):
    with pytest.raises(MalformedInput, match="must be an int"):
        Budget(allowance)


def test_coerce_budget_accepts_a_budget_an_int_or_none():
    budget = Budget(7)
    assert coerce_budget(budget) is budget
    assert coerce_budget(5).remaining == 5
    assert coerce_budget(None).remaining == DEFAULT_BUDGET


@pytest.mark.parametrize("budget", ["10", 2.5, [10], True])
def test_coerce_budget_rejects_other_types(budget):
    with pytest.raises(MalformedInput):
        coerce_budget(budget)
