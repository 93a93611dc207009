from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from parallel_ea.algorithms import adaptive_rate
from parallel_ea.bitstring import BitString, hamming_distance, random_bitstring
from parallel_ea.rng import derive_rng
from parallel_ea.variation import (
    UnaryOperator,
    _ones_count_cdf,
    _ones_count_law,
    apply,
    flip_exact,
    mirrored,
    radius_pmf,
    resolve_p,
    sample_distinct_positions,
    single_bit,
    standard_mutation,
)

from references import exact_distribution, transition_prob


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
    # the complement is the flip at radius n
    rng = derive_rng(3)
    assert str(apply(flip_exact(3), BitString.from_str("101"), rng)) == "010"


def test_operator_validation():
    with pytest.raises(ValueError):
        flip_exact(-1)
    with pytest.raises(ValueError):
        standard_mutation(1.5)
    with pytest.raises(ValueError):
        apply(flip_exact(11), BitString.zeros(10), derive_rng(0))


def test_single_bit_is_flip_exact_radius_one():
    assert single_bit() == flip_exact(1)
    with pytest.raises(ValueError, match="unknown operator kind"):
        UnaryOperator("single-bit")


def test_apply_degenerate_rates():
    rng = derive_rng(4)
    x = random_bitstring(50, rng)
    assert all(apply(standard_mutation(0.0), x, rng) == x for _ in range(20))
    assert all(apply(standard_mutation(1.0), x, rng) == x.complement() for _ in range(20))


def test_apply_radius_binomial_mean():
    rng = derive_rng(5)
    n, p, reps = 100, 0.01, 100_000
    x = random_bitstring(n, rng)
    op = standard_mutation(p)
    mean = sum(hamming_distance(x, apply(op, x, rng)) for _ in range(reps)) / reps
    assert 0.97 <= mean <= 1.03


RADIUS_LAWS = [
    # (seed, n, operator, samples)
    (1, 150, standard_mutation(1 / 150), 20_000),
    (2, 1000, standard_mutation(adaptive_rate(1, 1000, 512)), 20_000),
    (3, 1000, standard_mutation(adaptive_rate(500, 1000, 512)), 20_000),
    (4, 10**4, standard_mutation(0.5), 500),
    (5, 150, flip_exact(1), 2_000),
    (6, 150, flip_exact(3), 2_000),
]


@pytest.mark.parametrize("seed, n, op, samples", RADIUS_LAWS,
                         ids=["p=1/150", "n=1000-i=1", "n=1000-i=500", "n=1e4-p=0.5", "flip-1", "flip-3"])
def test_apply_radius_law_chi_square(seed, n, op, samples):
    # apply's flip radius against radius_pmf, neighbouring radii pooled into
    # bins of at least 5 expected draws
    stats = pytest.importorskip("scipy.stats")
    rng = derive_rng(seed)
    x = random_bitstring(n, rng)
    counts = Counter(hamming_distance(x, apply(op, x, rng)) for _ in range(samples))
    observed, expected = [], []
    o = e = 0.0
    for r, p in radius_pmf(op, n).items():
        o, e = o + counts.pop(r, 0), e + float(p) * samples
        if e >= 5:
            observed.append(o)
            expected.append(e)
            o = e = 0.0
    observed[-1] += o
    expected[-1] += e
    assert not counts  # no draw outside the law's support
    if len(observed) == 1:  # a point mass: every draw at that radius
        assert observed == [samples]
    else:
        assert stats.chisquare(observed, expected).pvalue > 1e-3


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


@pytest.mark.parametrize("n", [1, 2, 200, 1000])
def test_apply_matches_positions_sampler_on_twin_streams(n):
    """`apply` flips radius 1 off one double directly; every offspring is
    still the mask of `sample_distinct_positions` on a twin stream.  Standard
    mutation reads its radius double even at p = 0 and p = 1, where the
    radius is certain, and flip-exact reads none, at radius 0 either."""
    a, b = derive_rng(19, n), derive_rng(19, n)
    x = random_bitstring(n, a)
    assert random_bitstring(n, b) == x
    radii = Counter()
    for op in (flip_exact(1), standard_mutation(1 / n), standard_mutation(min(1.0, 3 / n)),
               flip_exact(0), flip_exact(min(3, n)), standard_mutation(0.0), standard_mutation(1.0)):
        for _ in range(300):
            if op.p is None:
                r = op.r
            else:
                lo, cdf = _ones_count_cdf.get(n, 0, op.p)
                r = lo + bisect_right(cdf, b.next_double())
            radii[r] += 1
            mask = sum(1 << i for i in sample_distinct_positions(b, n, r))
            assert apply(op, x, a) == x.flip_mask(mask)
    assert a.next_double() == b.next_double()
    assert radii[1] >= 300
    if n > 2:
        assert radii[0] and len(radii) >= 4


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
    assert transition_prob(flip_exact(n), x, BitString.ones(n)) == 1
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


@pytest.mark.parametrize("op", [flip_exact(2), standard_mutation(0.3), single_bit(), flip_exact(5)])
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
    for op in (flip_exact(3), standard_mutation(0.2), single_bit(), flip_exact(8)):
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


@pytest.mark.parametrize("laws", [_ones_count_law, _ones_count_cdf], ids=["law", "cdf"])
def test_ones_count_laws_of_a_run_stay_cached(laws):
    # a run on n = 10^4 bits reads up to n + 1 laws, more than 4096; the cache
    # holds n + 1 of them, so a second pass over 5001 ones counts builds none
    n, p = 10**4, 1e-4

    def one_pass():
        for k in range(5000, n + 1):
            laws.get(n, k, p)
        return laws.get.cache_info()

    first, second = one_pass(), one_pass()
    assert second.misses == first.misses
    assert second.hits - first.hits == n + 1 - 5000
    assert second.maxsize == n + 1
