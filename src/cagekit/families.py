"""Arithmetic graph families: circulants, the parity-rule quartic family,
and group divisible generalized Petersen graphs."""
from __future__ import annotations

from .errors import (
    InvalidConnectingSet,
    OddOrder,
    OrderTooSmall,
    SpecViolation,
)
from .graph import Graph, Record


class CirculantSpec(Record):
    __slots__ = ("n", "S")

    def __init__(self, n: int, S: tuple[int, ...]):
        S = tuple(S)
        if not all(type(x) is int for x in (n, *S)):
            raise InvalidConnectingSet("order and connecting set must be integers")
        if n < 1:
            raise InvalidConnectingSet("order must be positive")
        self._set(n, tuple(sorted(s % n for s in S)))


class GdgpSpec(Record):
    __slots__ = ("m", "n", "K")

    def __init__(self, m: int, n: int, K: tuple[int, ...]):
        K = tuple(K)
        if not all(type(x) is int for x in (m, n, *K)):
            raise SpecViolation("block count, half-order and chord offsets must be integers")
        self._set(m, n, K)


def circulant(spec: CirculantSpec) -> Graph:
    """Vertices 0..n-1 with i ~ j exactly when (i - j) mod n lies in S."""
    n, S = spec.n, set(spec.S)
    if 0 in S:
        raise InvalidConnectingSet("connecting set may not contain 0")
    if any((-s) % n not in S for s in S):
        raise InvalidConnectingSet("connecting set must be inverse-closed")
    g = Graph([(i + s) % n for s in S] for i in range(n))
    if not g.is_connected():
        raise InvalidConnectingSet("connecting set does not generate Z_n")
    return g


def circulant44(n: int) -> Graph:
    """The 4-regular circulant with jumps 1 and 3; girth 4 from order 10 up."""
    if n < 8:
        raise OrderTooSmall("jumps 1 and 3 need at least 8 vertices")
    return circulant(CirculantSpec(n, (1, 3, n - 3, n - 1)))


def quartic_parity_graph(n: int) -> Graph:
    """4-regular girth-6 graphs on even n >= 26 via a parity adjacency rule.

    Odd i links forward to i+7 and i+11, even i links backward; with the
    ring edges i±1 every vertex gets degree 4, and each chord is in the
    rows of both its endpoints.
    """
    if n % 2 != 0:
        raise OddOrder("the parity rule needs an even order")
    if n < 26:
        raise OrderTooSmall("the parity rule needs order at least 26")
    jumps = ((-1, 1, -7, -11), (-1, 1, 7, 11))  # even i, odd i
    return Graph([(i + d) % n for d in jumps[i % 2]] for i in range(n))


def gdgp(spec: GdgpSpec) -> Graph:
    """Rim u_0..u_{n-1}, spokes u_i v_i, and inner chords v_x v_{x+k_{x mod m}}."""
    m, n, K = spec.m, spec.n, spec.K
    if m < 2:
        raise SpecViolation("need at least 2 blocks")
    if n < 3 or n % m != 0:
        raise SpecViolation(f"block count {m} must divide the half-order {n}")
    if len(K) != m:
        raise SpecViolation(f"need exactly {m} chord offsets, got {len(K)}")
    a = K[0] % m
    if a == 0:
        raise SpecViolation("chord offsets must be nonzero mod the block count")
    if any(k % m != a for k in K):
        raise SpecViolation("all chord offsets must agree mod the block count")
    for j in range(m):
        if (K[j] + K[(j - a) % m]) % n == 0:
            raise SpecViolation(
                f"offsets at blocks {j} and {(j - a) % m} cancel mod {n}"
            )
    # v_x's chords go to x + k_{x mod m} and back to x - k_b, b = (x - a) mod m,
    # the one block whose chords land on x. No offset is 0 mod n (each is
    # a != 0 mod m, and m divides n) and no two cancel, so the ends differ.
    rim = [((i - 1) % n, (i + 1) % n, n + i) for i in range(n)]
    inner = [(x, n + (x + K[x % m]) % n, n + (x - K[(x - a) % m]) % n) for x in range(n)]
    return Graph(rim + inner)
