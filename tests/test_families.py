"""Circulants, GDGP catalog graphs, and the even-order quartic family."""
from __future__ import annotations

from itertools import product

import pytest

import family_oracle
from cagekit.canon import is_isomorphic
from cagekit.errors import (
    InvalidConnectingSet,
    OddOrder,
    OrderTooSmall,
    SpecViolation,
)
from cagekit.families import (
    CirculantSpec,
    GdgpSpec,
    circulant,
    circulant44,
    gdgp,
    quartic_parity_graph,
)

from helpers import cycle_graph

GDGP_CATALOG = (
    (GdgpSpec(2, 18, (5, 5)), 36, 8),
    (GdgpSpec(4, 36, (7, 15, 27, 19)), 72, 10),
    (GdgpSpec(6, 90, (11, 41, 29, 77, 47, 71)), 180, 12),
    (GdgpSpec(3, 96, (11, 17, 23)), 192, 12),
    (GdgpSpec(4, 112, (9, 17, 65, 73)), 224, 12),
    (GdgpSpec(5, 125, (11, 26, 56, 106, 46)), 250, 12),
)


def test_circulant_cycle():
    g = circulant(CirculantSpec(5, (1, 4)))
    assert is_isomorphic(g, cycle_graph(5))


def test_circulant_rejects_bad_sets():
    with pytest.raises(InvalidConnectingSet):
        circulant(CirculantSpec(6, (0, 1, 5)))
    with pytest.raises(InvalidConnectingSet):
        circulant(CirculantSpec(6, (1, 2)))  # not inverse-closed
    with pytest.raises(InvalidConnectingSet):
        circulant(CirculantSpec(6, (2, 4)))  # generates only the evens
    # a field that is not an int is refused before the builder reads it
    for n, S in ((10, (1.0, 9.0)), (10.0, (1, 9)), (True, (1,)), (10, ("1", "9"))):
        with pytest.raises(InvalidConnectingSet, match="integers"):
            CirculantSpec(n, S)


def test_circulant44_girth_four_band():
    for n in range(10, 21):
        g = circulant44(n)
        assert g.order == n
        assert g.regularity() == 4
        assert g.girth() == 4
    assert circulant44(9).girth() == 3


def test_circulant44_rejects_small_orders():
    with pytest.raises(OrderTooSmall):
        circulant44(7)


def test_gdgp_catalog_orders_and_girths():
    for spec, order, girth in GDGP_CATALOG:
        g = gdgp(spec)
        assert g.order == order
        assert g.regularity() == 3
        assert g.is_connected()
        assert g.girth() == girth


def test_gdgp_invariants_rejected():
    with pytest.raises(SpecViolation):
        gdgp(GdgpSpec(4, 18, (5, 5, 5, 5)))  # m does not divide n
    with pytest.raises(SpecViolation):
        gdgp(GdgpSpec(2, 18, (4, 4)))  # offsets congruent to 0 mod m
    with pytest.raises(SpecViolation):
        gdgp(GdgpSpec(4, 36, (5, 7, 5, 5)))  # mixed residues mod m
    with pytest.raises(SpecViolation):
        gdgp(GdgpSpec(2, 18, (5, 13)))  # 5 + 13 = 18 = 0 mod n
    with pytest.raises(SpecViolation):
        gdgp(GdgpSpec(1, 18, (5,)))  # m below 2
    for m, n, K in ((2, 18, (5.0, 5)), (2.0, 18, (5, 5)), (2, 18.0, (5, 5)), (2, 18, (True, 5))):
        with pytest.raises(SpecViolation, match="integers"):
            GdgpSpec(m, n, K)


def test_quartic_parity_graphs_band():
    for n in range(26, 61, 2):
        g = quartic_parity_graph(n)
        assert g.order == n
        assert g.regularity() == 4
        assert g.is_connected()
        assert g.girth() == 6


def test_quartic_parity_rejects():
    with pytest.raises(OddOrder):
        quartic_parity_graph(27)
    with pytest.raises(OrderTooSmall):
        quartic_parity_graph(24)


def _same_outcome(build, oracle, *args):
    """build(*args) and oracle(*args) give equal rows, or raise the same
    exception type with the same message; returns the error type or None."""
    try:
        want = oracle(*args)
    except Exception as err:
        with pytest.raises(type(err)) as got:
            build(*args)
        assert type(got.value) is type(err) and str(got.value) == str(err), args
        return type(err)
    got = build(*args)
    assert got.adjacency == want.adjacency, args
    return None


def test_circulants_match_the_edge_set_builder():
    for n in range(8, 201):
        assert _same_outcome(circulant44, family_oracle.circulant44, n) is None
    specs = [
        CirculantSpec(10, (1, 11, 9)),   # 1 and 11 are one residue
        CirculantSpec(10, (1, 5, 9)),    # the half-turn jump s = n/2
        CirculantSpec(8, (4, 1, 7, 12)), # the half-turn jump twice
        CirculantSpec(12, (2, 6, 10, 1, 11, 13)),
        CirculantSpec(1, ()),
        CirculantSpec(2, (1,)),
    ]
    errors = [
        CirculantSpec(6, (0, 1, 5)),     # 0 in S
        CirculantSpec(10, (1, 11)),      # duplicate residue, not inverse-closed
        CirculantSpec(6, (1, 2)),        # not inverse-closed
        CirculantSpec(10, (5,)),         # the half-turn jump alone
        CirculantSpec(10, (2, 8, 12)),   # even jumps only
        CirculantSpec(6, (2, 4)),        # generates only the evens
        CirculantSpec(7, (0,)),
    ]
    for spec in specs:
        assert _same_outcome(circulant, family_oracle.circulant, spec) is None
    for spec in errors:
        assert _same_outcome(circulant, family_oracle.circulant, spec) is InvalidConnectingSet
    for n in range(1, 8):
        assert _same_outcome(circulant44, family_oracle.circulant44, n) is OrderTooSmall


def test_quartic_parity_graphs_match_the_edge_set_builder():
    for n in range(26, 401, 2):
        assert _same_outcome(quartic_parity_graph, family_oracle.quartic_parity_graph, n) is None
    for n, error in ((27, OddOrder), (101, OddOrder), (24, OrderTooSmall), (0, OrderTooSmall)):
        assert _same_outcome(quartic_parity_graph, family_oracle.quartic_parity_graph, n) is error


def test_gdgp_matches_the_edge_set_builder():
    for spec, _, _ in GDGP_CATALOG:
        assert _same_outcome(gdgp, family_oracle.gdgp, spec) is None
    messages = set()
    for spec in (
        GdgpSpec(1, 18, (5,)),
        GdgpSpec(2, 2, (1, 1)),
        GdgpSpec(4, 18, (5, 5, 5, 5)),
        GdgpSpec(2, 18, (5,)),
        GdgpSpec(2, 18, (4, 4)),
        GdgpSpec(4, 36, (5, 7, 5, 5)),
        GdgpSpec(2, 18, (5, 13)),
    ):
        assert _same_outcome(gdgp, family_oracle.gdgp, spec) is SpecViolation
        with pytest.raises(SpecViolation) as err:
            gdgp(spec)
        messages.add(str(err.value).split()[0])
    assert messages == {"need", "block", "chord", "all", "offsets"}
    # every spec with m = 2, 3 and offsets in -7..7 on a small half-order:
    # built or rejected alike, and an offset of 0 mod n is always rejected
    # before any chord is drawn
    built = 0
    for m, n in ((2, 4), (2, 6), (3, 3), (3, 6), (3, 9)):
        for K in product(range(-7, 8), repeat=m):
            built += _same_outcome(gdgp, family_oracle.gdgp, GdgpSpec(m, n, K)) is None
    assert built > 100
