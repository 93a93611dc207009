"""Packed bit strings over {0,1}^n and exact Hamming-cube counting."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True, slots=True)
class BitString:
    """Immutable bit vector of length ``n``, packed into a Python int.

    Bit ``i`` of ``value`` is position ``i``; string representations read
    position 0 first.  Equality and Hamming distance are word-wise on the
    packed int, so they stay cheap at n ~ 1e4.
    """

    n: int
    value: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError("packed value out of range for dimension")

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitString":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        value = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {b!r}")
            value |= b << n
            n += 1
        return cls(n, value)

    @classmethod
    def from_str(cls, s: str) -> "BitString":
        return cls.from_bits(int(c) for c in s)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.value >> i) & 1

    def __iter__(self) -> Iterator[int]:
        v = self.value
        for _ in range(self.n):
            yield v & 1
            v >>= 1

    def __str__(self) -> str:
        return "".join(str(b) for b in self)

    def count_ones(self) -> int:
        return self.value.bit_count()

    def count_zeros(self) -> int:
        return self.n - self.value.bit_count()

    def complement(self) -> "BitString":
        return self.flip_mask((1 << self.n) - 1)

    def flip(self, positions: Iterable[int]) -> "BitString":
        mask = 0
        for i in positions:
            if not 0 <= i < self.n:
                raise IndexError(f"position {i} out of range for n={self.n}")
            mask |= 1 << i
        return BitString(self.n, self.value ^ mask)

    def flip_mask(self, mask: int) -> "BitString":
        """x XOR mask; mask must lie in [0, 2^n), which is not checked: the
        offspring skips the constructor, which would cost about twice as much."""
        y = _new(BitString)
        _set_n(y, self.n)
        _set_value(y, self.value ^ mask)
        return y

    def leading_ones(self) -> int:
        # run of ones starting at position 0 == trailing ones of the packed int
        return (self.value ^ (self.value + 1)).bit_length() - 1

    def leading_zeros(self) -> int:
        return self.complement().leading_ones()


_new = object.__new__
_set_n = BitString.n.__set__
_set_value = BitString.value.__set__


def hamming_distance(x: BitString, y: BitString) -> int:
    """Number of positions where x and y differ."""
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} != {y.n}")
    return (x.value ^ y.value).bit_count()


def hamming_ball_size(n: int, d: int) -> int:
    """Exact number of points within Hamming distance d of a fixed point.

    Arbitrary-precision: sum_{i=0..d} C(n, i), no rounding.
    """
    if not 0 <= d <= n:
        raise ValueError(f"radius must satisfy 0 <= d <= n, got d={d}, n={n}")
    return sum(comb(n, i) for i in range(d + 1))


def random_bitstring(n: int, rng: np.random.Generator) -> BitString:
    """Uniform random point of {0,1}^n."""
    value = 0
    remaining = n
    shift = 0
    while remaining > 0:
        chunk = min(remaining, 62)
        value |= int(rng.integers(0, 1 << chunk)) << shift
        shift += chunk
        remaining -= chunk
    return BitString(n, value)
