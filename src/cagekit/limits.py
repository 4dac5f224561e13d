"""Node budgets for search-based operations."""
from __future__ import annotations

from .errors import BudgetExhausted, MalformedInput

DEFAULT_BUDGET = 10**8


class Budget:
    """Counts candidate steps; raises once the allowance is spent."""

    __slots__ = ("remaining",)

    def __init__(self, allowance: int = DEFAULT_BUDGET):
        if type(allowance) is not int:
            raise MalformedInput(f"budget allowance must be an int, got {allowance!r}")
        if allowance <= 0:
            raise MalformedInput(f"budget allowance must be positive, got {allowance}")
        self.remaining = allowance

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExhausted("search budget exhausted")


def coerce_budget(budget: Budget | int | None) -> Budget:
    """Accept a Budget, an int allowance, or None (fresh default); anything
    else is a MalformedInput."""
    if budget is None:
        return Budget()
    if isinstance(budget, Budget):
        return budget
    return Budget(budget)
