import math

import pytest
from hypothesis import given, strategies as st

from parallel_ea.bitstring import (
    BitString,
    hamming_ball_size,
    hamming_distance,
    random_bitstring,
)
from parallel_ea.rng import derive_rng


def bs(s):
    return BitString.from_str(s)


def test_hamming_distance_examples():
    assert hamming_distance(bs("0000"), bs("0000")) == 0
    assert hamming_distance(bs("0000"), bs("1111")) == 4
    # positionwise: 1010 vs 1001 differ at positions 2 and 3
    assert hamming_distance(bs("1010"), bs("1001")) == 2


def test_hamming_distance_dimension_error():
    with pytest.raises(ValueError):
        hamming_distance(bs("00"), bs("000"))


def test_complement_examples():
    assert str(bs("000").complement()) == "111"
    assert str(bs("101").complement()) == "010"
    assert bs("1101").complement().complement() == bs("1101")


def test_hamming_ball_size_examples():
    assert hamming_ball_size(4, 0) == 1
    assert hamming_ball_size(4, 4) == 16
    # 1 + 5 + 10 by direct binomial sum
    assert hamming_ball_size(5, 2) == 16


def test_hamming_ball_size_errors():
    with pytest.raises(ValueError):
        hamming_ball_size(4, 5)
    with pytest.raises(ValueError):
        hamming_ball_size(4, -1)


def test_hamming_ball_strictly_increasing_to_full_cube():
    for n in (1, 5, 9, 16):
        sizes = [hamming_ball_size(n, d) for d in range(n + 1)]
        assert sizes[-1] == 2**n
        assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_ball_size_exact_at_large_n():
    # arbitrary precision: compare against math.comb directly
    n = 2000
    assert hamming_ball_size(n, 2) == 1 + n + math.comb(n, 2)


@given(st.integers(1, 80), st.integers(0, 2**80 - 1))
def test_complement_counts(n, raw):
    x = BitString(n, raw % (1 << n))
    assert x.count_ones() + x.complement().count_ones() == n
    assert hamming_distance(x, x.complement()) == n


@given(st.lists(st.integers(0, 1), min_size=1, max_size=60), st.randoms())
def test_count_ones_permutation_invariant(bits, pyrandom):
    x = BitString.from_bits(bits)
    shuffled = bits[:]
    pyrandom.shuffle(shuffled)
    assert BitString.from_bits(shuffled).count_ones() == x.count_ones()


def test_leading_ones_and_zeros():
    assert bs("1101").leading_ones() == 2
    assert bs("0111").leading_ones() == 0
    assert bs("1111").leading_ones() == 4
    assert bs("0011").leading_zeros() == 2
    assert BitString.zeros(7).leading_zeros() == 7


def test_str_round_trip_and_indexing():
    x = bs("10110")
    assert str(x) == "10110"
    assert [x[i] for i in range(5)] == [1, 0, 1, 1, 0]
    assert list(x) == [1, 0, 1, 1, 0]
    with pytest.raises(IndexError):
        x[5]


def test_validation():
    with pytest.raises(ValueError):
        BitString(0, 0)
    with pytest.raises(ValueError):
        BitString(3, 8)
    with pytest.raises(ValueError):
        BitString.from_bits([0, 2])


def test_flip():
    x = bs("0000")
    assert str(x.flip([0, 3])) == "1001"
    with pytest.raises(IndexError):
        x.flip([4])


@given(st.integers(1, 80), st.integers(0, 2**80 - 1), st.integers(0, 2**80 - 1))
def test_unchecked_offspring_equal_checked_construction(n, raw, mask):
    # flip_mask and complement skip the range check: their points must be
    # indistinguishable from checked ones, and stay frozen
    x = BitString(n, raw % (1 << n))
    y = x.flip_mask(mask % (1 << n))
    checked = BitString(n, x.value ^ (mask % (1 << n)))
    assert y == checked and hash(y) == hash(checked) and repr(y) == repr(checked)
    assert x.complement() == BitString(n, x.value ^ ((1 << n) - 1))
    with pytest.raises(AttributeError):
        y.value = 0


def test_random_bitstring_uniform_bit_means():
    rng = derive_rng(42)
    n = 100
    counts = [0] * n
    reps = 3000
    for _ in range(reps):
        x = random_bitstring(n, rng)
        for i in range(n):
            counts[i] += x[i]
    for c in counts:
        assert 0.40 * reps < c < 0.60 * reps
