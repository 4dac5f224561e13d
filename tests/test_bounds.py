"""Bound formulas against hand-computed values and grid sanity."""
from __future__ import annotations

import pytest

from cagekit.bounds import (
    excluded_by_excess,
    moore_bound,
    moore_tree_size,
    parity_admissible,
    sauer_bound,
)
from cagekit.errors import ParameterOutOfRange


def test_moore_bound_values():
    # odd girth: 1 + k + k(k-1) + ...; even girth: 2(1 + (k-1) + ...)
    assert moore_bound(3, 3) == 4
    assert moore_bound(3, 4) == 6
    assert moore_bound(3, 5) == 10
    assert moore_bound(3, 6) == 14
    assert moore_bound(3, 7) == 22
    assert moore_bound(3, 8) == 30
    assert moore_bound(4, 5) == 17
    assert moore_bound(4, 6) == 26
    assert moore_bound(5, 3) == 6
    assert moore_bound(5, 4) == 10
    assert moore_bound(5, 5) == 26
    assert moore_bound(7, 5) == 50


def test_sauer_bound_values():
    assert sauer_bound(3, 5) == 16
    assert sauer_bound(3, 6) == 32
    assert sauer_bound(4, 5) == 54
    assert sauer_bound(4, 6) == 108
    assert sauer_bound(5, 5) == 128


def test_moore_tree_size():
    assert moore_tree_size(3, 0) == 1
    assert moore_tree_size(3, 1) == 4
    assert moore_tree_size(3, 2) == 10
    assert moore_tree_size(4, 2) == 17


def test_moore_below_sauer_on_grid():
    for k in range(3, 9):
        for g in range(5, 13):
            assert moore_bound(k, g) < sauer_bound(k, g)


def test_parity():
    assert parity_admissible(4, 11)
    assert parity_admissible(3, 8)
    assert not parity_admissible(3, 7)
    assert not parity_admissible(5, 9)


def test_excess_exclusions():
    assert excluded_by_excess(4, 6, 27)       # odd excess 1 <= k-2, even girth >= 6
    assert not excluded_by_excess(4, 6, 28)   # excess 2 needs girth >= 8
    assert excluded_by_excess(4, 8, 81)
    assert excluded_by_excess(4, 8, 82)
    assert excluded_by_excess(3, 8, 32)
    assert not excluded_by_excess(3, 6, 16)
    assert excluded_by_excess(5, 6, 43)       # excess 1
    assert excluded_by_excess(5, 6, 45)       # excess 3 <= k-2
    assert not excluded_by_excess(5, 6, 44)
    assert not excluded_by_excess(3, 5, 12)   # odd girth never excluded here
    assert not excluded_by_excess(3, 4, 8)    # even girth below 6 never excluded


def test_excess_domain():
    with pytest.raises(ParameterOutOfRange):
        excluded_by_excess(3, 8, 28)
    with pytest.raises(ParameterOutOfRange):
        moore_bound(1, 5)
    with pytest.raises(ParameterOutOfRange):
        moore_bound(3, 2)
    with pytest.raises(ParameterOutOfRange):
        moore_tree_size(3, -1)
