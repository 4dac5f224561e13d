"""graph6 codec against an independent packer and hand-packed values."""
from __future__ import annotations

import random

import pytest

from cagekit import graph6
from cagekit.errors import MalformedGraph6, OrderTooLarge
from cagekit.graph import Graph, disjoint_union
from cagekit.named import complete_graph, petersen

import read_oracle
from helpers import cycle_graph, pack_graph6, random_graph


def test_k4_is_a_tilde():
    # 6 upper-triangle bits all set -> single payload char 63+63 = '~'
    assert graph6.encode(complete_graph(4)) == "C~"
    assert pack_graph6(4, complete_graph(4).edges()) == "C~"


def test_encode_matches_independent_packer():
    rng = random.Random(99)
    for _ in range(200):
        g = random_graph(rng.randint(0, 130), rng.choice([0.0, 0.02, 0.3, 0.6, 1.0]), rng)
        assert graph6.encode(g) == pack_graph6(g.order, g.edges())


def test_encode_matches_the_edge_list_encoder():
    # encode walks each sorted row up to the diagonal; the oracle sets one bit
    # per edge-list pair. K_n sets every payload bit and crosses the 4-byte
    # order field at 63; the random graphs keep some vertices isolated, and
    # the unions are disconnected with edges on both sides of the seam.
    rng = random.Random(27)
    cases = [complete_graph(n) for n in range(71)]
    for _ in range(40):
        n = rng.randint(2, 90)
        g = random_graph(n, rng.choice([0.02, 0.1, 0.4]), rng)
        isolated = rng.randint(1, 5)
        cases.append(disjoint_union(g, Graph.from_edges(isolated, [])))
        cases.append(disjoint_union(Graph.from_edges(isolated, []), g))
        cases.append(disjoint_union(g, random_graph(rng.randint(1, 40), 0.3, rng)))
    cases += [disjoint_union(petersen(), complete_graph(n)) for n in (1, 5, 53, 54)]
    for g in cases:
        line = graph6.encode(g)
        assert line == read_oracle.encode(g)
        assert graph6.decode(line) == g


def _sample_graphs(rng, count):
    """Random graphs of order 0..130 (both order-field widths), sparse to complete."""
    for _ in range(count):
        n = rng.randint(0, 130)
        yield random_graph(n, rng.choice([0.0, 2.0 / max(n, 1), 0.05, 0.5, 1.0]), rng)


def test_decode_matches_the_bit_by_bit_oracle():
    # decode builds its Graph unchecked; the oracle builds through the
    # validating constructor. Equality compares rows only, so the edge list,
    # degree sequence and row types are compared too. K_n sets every payload
    # bit and crosses the 4-byte order field at 63; edgeless graphs set none.
    rng = random.Random(2026)
    cases = [complete_graph(n) for n in range(1, 71)]
    cases += [Graph.from_edges(n, []) for n in (0, 1, 2, 63)]
    cases += _sample_graphs(rng, 60)
    for g in cases:
        line = pack_graph6(g.order, g.edges())
        for text in (line, line + "\n", ">>graph6<<" + line, " " + line + "\r\n"):
            got, want = graph6.decode(text), read_oracle.decode(text)
            assert got == want == g
            assert got.edges() == want.edges() == g.edges()
            assert got.degree_sequence() == want.degree_sequence()
            assert type(got.adjacency) is tuple
            assert all(type(row) is tuple and all(type(v) is int for v in row)
                       for row in got.adjacency)


def _mutants(rng, line):
    """Corruptions of one valid line: truncated, extended, one byte replaced
    (in or out of range, non-ASCII too), padding or order field altered."""
    yield line[:rng.randrange(len(line))]
    yield line + chr(rng.randint(63, 126))
    k = rng.randrange(len(line))
    yield line[:k] + chr(rng.choice([rng.randint(63, 126), rng.randint(0, 62),
                                     rng.randint(127, 255), 0x2003])) + line[k + 1:]
    yield line[:-1] + chr(ord(line[-1]) | 1)
    yield "~" + line
    yield "~~" + line
    yield "~" + line[1:]


# blank, header only, every order-field width cut short or over the cap, and
# whitespace the strip must keep or remove
_HAND_LINES = ["", " \t", ">>graph6<<", "~", "~?", "~??", "~~", "~~?????", "~~??????",
              "~~?????~", "~~??~???", "~~~~~~~~", "~???", "~?~~", "~??~", "?", "@", "A?",
              "~\x7f", "C~\x00", "\x85C~", "C~\xa0", "C\udc80"]


def test_malformed_inputs_fail_as_under_the_oracle():
    rng = random.Random(77)
    lines = _HAND_LINES + [m for g in _sample_graphs(rng, 60)
                             for m in _mutants(rng, graph6.encode(g))]
    outcomes = set()
    for text in lines:
        if not text.isascii():
            # rejected at the first non-ASCII character; the oracle strips
            # \x85, \xa0 and \u2003 as whitespace first
            first = next(c for c in text if not c.isascii())
            with pytest.raises(MalformedGraph6) as got:
                graph6.decode(text)
            assert str(got.value) == f"byte {ord(first)} out of graph6 range", repr(text)
            outcomes.add("non-ASCII")
            continue
        try:
            want = read_oracle.decode(text)
        except (MalformedGraph6, OrderTooLarge) as err:
            with pytest.raises(type(err)) as got:
                graph6.decode(text)
            assert str(got.value) == str(err), repr(text)
            outcomes.add(type(err).__name__ + str(err).split()[0])
        else:
            assert graph6.decode(text) == want, repr(text)
            outcomes.add("valid")
    # every check of the decoder is reached: range, order field, cap, length, padding
    assert {"valid", "MalformedGraph6empty", "MalformedGraph6byte", "MalformedGraph6truncated",
            "OrderTooLargeorder", "MalformedGraph6expected", "MalformedGraph6nonzero",
            "non-ASCII"} <= outcomes
    # the oracle reads both as K4
    for text, byte in (("\x85C~", 133), ("C~\xa0", 160)):
        with pytest.raises(MalformedGraph6, match=f"^byte {byte} out of graph6 range$"):
            graph6.decode(text)


def test_round_trip_small_and_large_orders():
    rng = random.Random(5)
    cases = [Graph.from_edges(0, []), Graph.from_edges(1, []), petersen(), cycle_graph(62)]
    cases += [random_graph(rng.randint(2, 40), 0.2, rng) for _ in range(50)]
    cases.append(cycle_graph(63))   # first 4-byte order field
    cases.append(cycle_graph(100))
    for g in cases:
        assert graph6.decode(graph6.encode(g)) == g


def test_header_prefix_accepted():
    assert graph6.decode(">>graph6<<C~") == complete_graph(4)


def test_malformed_inputs():
    for bad in ["", " ", "C", "C~~", "C" + chr(40), "~??", chr(130)]:
        with pytest.raises(MalformedGraph6):
            graph6.decode(bad)


def test_nonzero_padding_rejected():
    # C5 payload uses 10 bits; set the lowest padding bit of the last value
    line = graph6.encode(cycle_graph(5))
    corrupt = line[:-1] + chr(ord(line[-1]) + 1)
    with pytest.raises(MalformedGraph6):
        graph6.decode(corrupt)


def test_order_cap():
    class Fake:
        order = 2 ** 18 + 1
    with pytest.raises(OrderTooLarge):
        graph6.encode(Fake())


def test_file_round_trip(tmp_path):
    rng = random.Random(11)
    graphs = [random_graph(rng.randint(1, 15), 0.3, rng) for _ in range(20)]
    path = tmp_path / "batch.g6"
    assert graph6.write_file(path, graphs) == 20
    assert graph6.read_file(path) == graphs
