"""Exhaustive small-order generation against an independent brute force."""
from __future__ import annotations

import pytest

from cagekit.canon import certificate, is_isomorphic
from cagekit.enumeration import enumerate_regular, order_cap
from cagekit.errors import BudgetExhausted, CapExceeded, ParameterOutOfRange
from cagekit.named import heawood, petersen
from helpers import brute_girth, labeled_regular_graphs


def classes_by_brute_force(n: int, k: int, min_girth: int) -> set[str]:
    out = set()
    for g in labeled_regular_graphs(n, k):
        if not g.is_connected():
            continue
        gg = brute_girth(g)
        if gg is not None and gg >= min_girth:
            out.add(certificate(g))
    return out


def test_connected_cubic_counts_match_brute_force(cubic_brute_force):
    for n, expected in ((4, 1), (6, 2), (8, 5)):
        found = enumerate_regular(3, n, 3)
        brute = {c for c, gg in cubic_brute_force[n].items() if gg is not None and gg >= 3}
        assert len(found) == len(brute) == expected
        assert {certificate(g) for g in found} == brute


def test_unique_smallest_girth_five_and_six():
    found = enumerate_regular(3, 10, 5)
    assert len(found) == 1
    assert is_isomorphic(found[0], petersen())
    found = enumerate_regular(3, 14, 6)
    assert len(found) == 1
    assert is_isomorphic(found[0], heawood())


def test_empty_slices():
    assert enumerate_regular(4, 9, 4) == []
    assert enumerate_regular(3, 12, 6) == []


def test_two_girth_five_classes_of_order_twelve():
    found = enumerate_regular(3, 12, 5)
    assert len(found) == 2


def test_outputs_verified_sorted_deduplicated():
    found = enumerate_regular(3, 12, 5)
    certs = [certificate(g) for g in found]
    assert certs == sorted(certs)
    assert len(set(certs)) == len(certs)
    for g in found:
        assert g.order == 12
        assert g.regularity() == 3
        assert g.is_connected()
        assert g.girth() >= 5


def test_quartic_enumeration():
    found = enumerate_regular(4, 8, 4)
    brute = classes_by_brute_force(8, 4, 4)
    assert {certificate(g) for g in found} == brute
    assert len(found) == 1  # the complete bipartite graph on 4+4


def test_guards():
    with pytest.raises(ParameterOutOfRange):
        enumerate_regular(3, 9, 3)  # parity
    with pytest.raises(ParameterOutOfRange):
        enumerate_regular(1, 4, 3)
    with pytest.raises(CapExceeded):
        enumerate_regular(3, order_cap(3) + 2, 3)
    with pytest.raises(BudgetExhausted):
        enumerate_regular(3, 10, 5, cap=5)


@pytest.mark.parametrize(
    "k, n, min_girth, name",
    [(3, 10.0, 5, "n"), (3.0, 10, 5, "k"), (3, 10, 5.0, "min_girth"), (3, 10, True, "min_girth")],
)
def test_counts_are_ints(k, n, min_girth, name):
    with pytest.raises(ParameterOutOfRange, match=rf"^{name} must be an integer, got "):
        enumerate_regular(k, n, min_girth)
