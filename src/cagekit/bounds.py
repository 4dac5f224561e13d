"""Order bounds and exclusion rules for k-regular graphs of girth g.

Python integers are arbitrary precision, so the exact-arithmetic requirement
holds without explicit overflow checks.
"""
from __future__ import annotations

from .errors import ParameterOutOfRange


def check_degree_and_girth(k: int, g: int) -> None:
    """ParameterOutOfRange unless some k-regular graph has girth g: k >= 2, g >= 3."""
    if k < 2:
        raise ParameterOutOfRange(f"degree {k} < 2")
    if g < 3:
        raise ParameterOutOfRange(f"girth {g} < 3")


def moore_bound(k: int, g: int) -> int:
    """Minimum possible order of a k-regular graph of girth g."""
    check_degree_and_girth(k, g)
    if g % 2:
        return 1 + sum(k * (k - 1) ** i for i in range((g - 3) // 2 + 1))
    return 2 * sum((k - 1) ** i for i in range((g - 2) // 2 + 1))


def sauer_bound(k: int, g: int) -> int:
    """Order above which a (k,g)-graph is guaranteed to exist, for k >= 3 (for
    k = 2 the formula gives 2 or 4, below the Moore bound g)."""
    check_degree_and_girth(k, g)
    if k < 3:
        raise ParameterOutOfRange(f"Sauer's bound needs degree >= 3, got {k}")
    if g % 2:
        return 2 * (k - 1) ** (g - 2)
    return 4 * (k - 1) ** (g - 3)


def moore_tree_size(k: int, r: int) -> int:
    """Vertices in the depth-r tree rooted anywhere in a k-regular graph."""
    if k < 2:
        raise ParameterOutOfRange(f"degree {k} < 2")
    if r < 0:
        raise ParameterOutOfRange(f"radius {r} < 0")
    return 1 + sum(k * (k - 1) ** i for i in range(r))


def parity_admissible(k: int, n: int) -> bool:
    """k*n must be even; odd-degree graphs need even order."""
    return k % 2 == 0 or n % 2 == 0


def excluded_by_excess(k: int, g: int, n: int) -> bool:
    """True when order n is ruled out by the excess theorems for even girth.

    Covers: odd excess at most k-2 for even g >= 6, and excess exactly 2 for
    even g >= 8. Orders below the Moore bound are out of domain here; the
    spectrum module reports those separately.
    """
    check_degree_and_girth(k, g)
    excess = n - moore_bound(k, g)
    if excess < 0:
        raise ParameterOutOfRange(f"order {n} below the Moore bound")
    if g % 2 or g < 6:
        return False
    if excess % 2 == 1 and excess <= k - 2:
        return True
    if g >= 8 and excess == 2:
        return True
    return False

