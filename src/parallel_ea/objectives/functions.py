"""Closed-form pseudo-Boolean benchmark functions and their objectives."""

from __future__ import annotations

from ..bitstring import BitString
from .base import LEADING_ONES, LEADING_ZEROS, ONES_COUNT, Objective, check_int


def onemax(x: BitString) -> int:
    return x.count_ones()


def leadingones(x: BitString) -> int:
    return x.leading_ones()


def leadingzeros(x: BitString) -> int:
    return x.leading_zeros()


def twomax(x: BitString) -> int:
    ones = x.count_ones()
    return max(ones, x.n - ones)


def twomax_prime(x: BitString) -> int:
    """twomax plus the all-ones product term: 1^n becomes the unique optimum."""
    bonus = 1 if x.count_ones() == x.n else 0
    return twomax(x) + bonus


def hiff(x: BitString) -> int:
    """Hierarchical blocks: an aligned block of size 2^l scores 2^l when uniform.

    Single bits always score, so the base level contributes n.  Requires
    n to be a power of two.
    """
    n = x.n
    if n & (n - 1):
        raise ValueError(f"hiff needs n to be a power of two, got {n}")
    score = n
    level = [b for b in x]
    size = 1
    while len(level) > 1:
        size *= 2
        nxt = []
        for a, b in zip(level[::2], level[1::2]):
            if a is not None and a == b:
                nxt.append(a)
                score += size
            else:
                nxt.append(None)
        level = nxt
    return score


def jump_k(x: BitString, k: int) -> int:
    """Plateau towards n-k ones, a fitness gap of width k, optimum at 1^n."""
    n = x.n
    if not 1 <= k <= n:
        raise ValueError(f"jump gap must satisfy 1 <= k <= n, got {k}")
    ones = x.count_ones()
    if ones <= n - k or ones == n:
        return k + ones
    return n - ones


def cliff_d(x: BitString, d: int) -> float:
    """Like onemax up to n-d ones, then a drop of d - 1/2 pointing onwards to 1^n."""
    n = x.n
    if not 1 <= d <= n:
        raise ValueError(f"cliff depth must satisfy 1 <= d <= n, got {d}")
    ones = x.count_ones()
    if ones <= n - d:
        return float(ones)
    return ones - d + 0.5


def onemax_objective(n: int) -> Objective:
    return Objective.from_optima("onemax", n, onemax, [BitString.ones(n)], "1^n", chain=ONES_COUNT)


def leadingones_objective(n: int) -> Objective:
    return Objective.from_optima("leadingones", n, leadingones, [BitString.ones(n)], "1^n",
                                 chain=LEADING_ONES)


def leadingzeros_objective(n: int) -> Objective:
    return Objective.from_optima("leadingzeros", n, leadingzeros, [BitString.zeros(n)], "0^n",
                                 chain=LEADING_ZEROS)


def twomax_objective(n: int) -> Objective:
    return Objective.from_optima("twomax", n, twomax, [BitString.zeros(n), BitString.ones(n)],
                                 "0^n and 1^n", chain=ONES_COUNT)


def twomax_prime_objective(n: int) -> Objective:
    return Objective.from_optima("twomax-prime", n, twomax_prime, [BitString.ones(n)], "1^n",
                                 chain=ONES_COUNT)


def hiff_objective(n: int) -> Objective:
    if n & (n - 1):
        raise ValueError(f"hiff needs n to be a power of two, got {n}")
    return Objective.from_optima("hiff", n, hiff, [BitString.zeros(n), BitString.ones(n)],
                                 "0^n and 1^n")


def jump_objective(n: int, k: int) -> Objective:
    check_int("jump gap k", k, 1, n)
    return Objective.from_optima(f"jump-{k}", n, lambda x, _k=k: jump_k(x, _k),
                                 [BitString.ones(n)], "1^n", chain=ONES_COUNT)


def cliff_objective(n: int, d: int) -> Objective:
    check_int("cliff depth d", d, 1, n)
    return Objective.from_optima(f"cliff-{d}", n, lambda x, _d=d: cliff_d(x, _d),
                                 [BitString.ones(n)], "1^n", chain=ONES_COUNT)
