from fractions import Fraction
from math import comb

import pytest

from parallel_ea.bitstring import BitString, hamming_distance, random_bitstring
from parallel_ea.rng import derive_rng
from parallel_ea.variation import (
    apply,
    complement_op,
    exact_distribution,
    flip_exact,
    mirrored,
    radius_pmf,
    resolve_p,
    sample_distinct_positions,
    sample_radius,
    single_bit,
    standard_mutation,
    transition_prob,
)


def test_flip_exact_radius_is_exact():
    rng = derive_rng(1)
    x = random_bitstring(10, rng)
    op = flip_exact(3)
    for _ in range(200):
        assert hamming_distance(x, apply(op, x, rng)) == 3


def test_flip_exact_zero_is_identity():
    rng = derive_rng(2)
    x = random_bitstring(12, rng)
    assert apply(flip_exact(0), x, rng) == x


def test_complement_operator():
    rng = derive_rng(3)
    assert str(apply(complement_op(), BitString.from_str("101"), rng)) == "010"


def test_operator_validation():
    with pytest.raises(ValueError):
        flip_exact(-1)
    with pytest.raises(ValueError):
        standard_mutation(1.5)
    with pytest.raises(ValueError):
        apply(flip_exact(11), BitString.zeros(10), derive_rng(0))


def test_sample_radius_degenerate():
    rng = derive_rng(4)
    assert all(sample_radius(0.0, 50, rng) == 0 for _ in range(20))
    assert all(sample_radius(1.0, 50, rng) == 50 for _ in range(20))


def test_sample_radius_binomial_mean():
    rng = derive_rng(5)
    n, p, reps = 100, 0.01, 100_000
    mean = sum(sample_radius(p, n, rng) for _ in range(reps)) / reps
    assert 0.97 <= mean <= 1.03


def test_sample_distinct_positions_uniform_over_pairs():
    rng = derive_rng(6)
    n, r = 5, 2
    counts = {}
    reps = 40_000
    for _ in range(reps):
        pos = frozenset(sample_distinct_positions(rng, n, r))
        assert len(pos) == r
        counts[pos] = counts.get(pos, 0) + 1
    expected = reps / comb(n, r)
    assert len(counts) == comb(n, r)
    for c in counts.values():
        assert 0.9 * expected < c < 1.1 * expected


def test_mirrored_pairs():
    rng = derive_rng(7)
    x = random_bitstring(30, rng)
    op = standard_mutation(0.1)
    for _ in range(50):
        y, ybar = mirrored(op, x, rng)
        assert hamming_distance(y, ybar) == 30
        assert y.count_zeros() == ybar.count_ones()


def test_transition_prob_closed_forms():
    n = 6
    x = BitString.zeros(n)
    y = BitString.from_str("110000")
    assert transition_prob(flip_exact(2), x, y) == Fraction(1, comb(6, 2))
    assert transition_prob(flip_exact(3), x, y) == 0
    assert transition_prob(single_bit(), x, BitString.from_str("010000")) == Fraction(1, 6)
    assert transition_prob(complement_op(), x, BitString.ones(n)) == 1
    p = Fraction(0.25)
    assert transition_prob(standard_mutation(0.25), x, y) == p**2 * (1 - p) ** 4


def test_standard_mutation_equals_binomial_mixture_exact():
    # per-bit iid flips == Binomial(n, p) radius mixed with uniform spheres
    n = 6
    x = BitString.from_str("101010")
    p = Fraction(1, 3)
    dist = exact_distribution(standard_mutation(float(p)), x)
    pf = Fraction(float(p))
    for v, prob in dist.items():
        d = hamming_distance(x, BitString(n, v))
        assert prob == pf**d * (1 - pf) ** (n - d)
    assert sum(dist.values()) == 1


@pytest.mark.parametrize("op", [flip_exact(2), standard_mutation(0.3), single_bit(), complement_op()])
def test_conjugation_invariance_exact(op):
    # distribution commutes with any position permutation + global bit flip
    n = 5
    rng = derive_rng(8)
    x = random_bitstring(n, rng)
    base = exact_distribution(op, x)
    for perm in [(1, 0, 2, 3, 4), (4, 3, 2, 1, 0), (2, 0, 4, 1, 3)]:
        for mask in (0, 0b10110, 0b11111):
            def conj(v):
                out = 0
                for i in range(n):
                    out |= ((v >> i) & 1) << perm[i]
                return out ^ mask

            xc = BitString(n, conj(x.value))
            transformed = {conj(v): pr for v, pr in base.items()}
            assert exact_distribution(op, xc) == transformed


def test_exact_distribution_uniform_on_sphere():
    n = 6
    x = BitString.zeros(n)
    dist = exact_distribution(flip_exact(2), x)
    assert len(dist) == comb(6, 2)
    assert set(dist.values()) == {Fraction(1, comb(6, 2))}


def test_radius_pmf_sums_to_one():
    for op in (flip_exact(3), standard_mutation(0.2), single_bit(), complement_op()):
        assert sum(radius_pmf(op, 8).values()) == 1


def test_resolve_p():
    assert resolve_p("1/n", 100) == pytest.approx(0.01)
    assert resolve_p("2.5/n", 10) == pytest.approx(0.25)
    assert resolve_p(0.125, 10) == 0.125
    assert resolve_p("0.125", 10) == 0.125
    with pytest.raises(ValueError):
        resolve_p("ln(n)/n", 10)


def test_reproducible_streams():
    x = random_bitstring(64, derive_rng(99))
    a = apply(standard_mutation(0.05), x, derive_rng(123, 7))
    b = apply(standard_mutation(0.05), x, derive_rng(123, 7))
    assert a == b
