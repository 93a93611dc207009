"""Unary unbiased variation operators.

Every operator here is invariant under bit-position permutations composed
with a global bit-value exchange; equivalently, each is a distribution
over flip radii with uniform sampling on the radius-r sphere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

import numpy as np

from .bitstring import BitString, hamming_distance

FLIP_EXACT = "flip-exact-r"
STANDARD_MUTATION = "standard-mutation"
SINGLE_BIT = "single-bit"
COMPLEMENT = "complement"

_KINDS = (FLIP_EXACT, STANDARD_MUTATION, SINGLE_BIT, COMPLEMENT)


@dataclass(frozen=True, slots=True)
class UnaryOperator:
    """Descriptor of a unary unbiased variation kernel.

    kind: one of flip-exact-r (radius r), standard-mutation (per-bit
    probability p), single-bit, complement.
    """

    kind: str
    r: Optional[int] = None
    p: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == FLIP_EXACT:
            if self.r is None or self.r < 0:
                raise ValueError("flip-exact-r needs a radius r >= 0")
        elif self.kind == STANDARD_MUTATION:
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError("standard-mutation needs p in [0, 1]")

    def validate_for(self, n: int) -> None:
        if self.kind == FLIP_EXACT and self.r > n:
            raise ValueError(f"radius {self.r} exceeds dimension {n}")


def flip_exact(r: int) -> UnaryOperator:
    return UnaryOperator(FLIP_EXACT, r=r)


def standard_mutation(p: float) -> UnaryOperator:
    return UnaryOperator(STANDARD_MUTATION, p=p)


def single_bit() -> UnaryOperator:
    return UnaryOperator(SINGLE_BIT)


def complement_op() -> UnaryOperator:
    return UnaryOperator(COMPLEMENT)


def sample_distinct_positions(rng: np.random.Generator, n: int, r: int) -> list[int]:
    """r distinct positions from {0..n-1}, uniform over r-subsets.

    Partial Fisher-Yates on a sparse index map: O(r) expected time, so
    small radii stay cheap at large n.
    """
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    swapped: dict[int, int] = {}
    out = []
    for i in range(r):
        j = int(rng.integers(i, n))
        out.append(swapped.get(j, j))
        swapped[j] = swapped.get(i, i)
    return out


def sample_radius(p: float, n: int, rng: np.random.Generator) -> int:
    """Radius law of standard mutation: Binomial(n, p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return int(rng.binomial(n, p))


def apply(op: UnaryOperator, x: BitString, rng: np.random.Generator) -> BitString:
    """Draw one offspring of x under op.

    flip-exact-r is uniform on the radius-r sphere around x.
    standard-mutation samples r ~ Binomial(n, p) and then flips a uniform
    r-subset, which is exactly the iid per-bit flip distribution.
    """
    n = x.n
    op.validate_for(n)
    if op.kind == FLIP_EXACT:
        r = op.r
    elif op.kind == STANDARD_MUTATION:
        r = sample_radius(op.p, n, rng)
    elif op.kind == SINGLE_BIT:
        r = 1
    else:  # complement
        return x.complement()
    if r == 0:
        return x
    mask = 0
    for pos in sample_distinct_positions(rng, n, r):
        mask |= 1 << pos
    return x.flip_mask(mask)


def mirrored(op: UnaryOperator, x: BitString, rng: np.random.Generator) -> tuple[BitString, BitString]:
    """Offspring plus its complement (the complement query is 'free')."""
    y = apply(op, x, rng)
    return y, y.complement()


def radius_pmf(op: UnaryOperator, n: int) -> dict[int, Fraction]:
    """Exact distribution over flip radii. p is taken at its binary-float value."""
    op.validate_for(n)
    if op.kind == FLIP_EXACT:
        return {op.r: Fraction(1)}
    if op.kind == SINGLE_BIT:
        return {1: Fraction(1)}
    if op.kind == COMPLEMENT:
        return {n: Fraction(1)}
    p = Fraction(op.p)
    return {r: comb(n, r) * p**r * (1 - p) ** (n - r) for r in range(n + 1)}


def transition_prob(op: UnaryOperator, x: BitString, y: BitString) -> Fraction:
    """Exact P(y | x); depends on (x, y) only through their Hamming distance."""
    n = x.n
    d = hamming_distance(x, y)
    pmf = radius_pmf(op, n)
    return pmf.get(d, Fraction(0)) / comb(n, d)


def exact_distribution(op: UnaryOperator, x: BitString) -> dict[int, Fraction]:
    """Full offspring distribution {packed value: probability}; small n only."""
    n = x.n
    if n > 14:
        raise ValueError("exact distribution is exponential in n; use n <= 14")
    out = {}
    for v in range(1 << n):
        pr = transition_prob(op, x, BitString(n, v))
        if pr:
            out[v] = pr
    return out


_P_FRACTION = re.compile(r"^\s*([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\s*/\s*n\s*$")


def resolve_p(spec, n: int) -> float:
    """Resolve a mutation-probability descriptor against the dimension.

    Accepts a number, or a string "c/n" with numeric c (e.g. "1/n").
    """
    if isinstance(spec, (int, float)):
        return float(spec)
    if isinstance(spec, str):
        m = _P_FRACTION.match(spec)
        if m:
            return float(m.group(1)) / n
        try:
            return float(spec)
        except ValueError:
            pass
    raise ValueError(f"cannot resolve mutation probability {spec!r}")

