"""The chains of the elitist runners against exact laws.

Objectives that declare a `Chain` run as a Markov chain on the parent's
state.  For the ones-count chain the oracles here build the offspring law
from the radius law `radius_pmf` and the hypergeometric split of the radius
over the parent's zeros and ones, not from the binomial gain/loss split the
chain samples, so each checks the other.  For the leading-ones chain they
build it from the first flipped position and the free-rider walk over live
improvers, a recursion on the number of improvers that the sampler never
forms.  Every seed is fixed in advance.
"""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from parallel_ea import cli
from parallel_ea.algorithms import AlgoConfig, adaptive_rate, run_one_plus_lambda
from parallel_ea.bitstring import BitString
from parallel_ea.objectives.base import CHAIN, ONES_COUNT
from parallel_ea.objectives.local_optima import local_optima
from parallel_ea.objectives.registry import make_objective, objective_names
from parallel_ea.rng import derive_rng, derive_run_seed
from parallel_ea.variation import (
    HISTOGRAM_LAMBDA,
    _ones_count_law,
    leading_ones_counts,
    radius_pmf,
    single_bit,
    standard_mutation,
    uniform_leading_ones_counts,
)

stats = pytest.importorskip("scipy.stats")

N = 100
Z_LIMIT = 4.0  # two-sided normal tail 6.3e-5 per check
ALPHA = 1e-4
DECLARED = {"onemax", "twomax", "twomax-prime", "jump", "cliff", "leadingones", "leadingzeros"}


def operator(algorithm: str, n: int, lam: int, zeros: int):
    if algorithm == "rls":
        return single_bit()
    if algorithm == "one-plus-lambda-fixed":
        return standard_mutation(1.0 / n)
    return standard_mutation(adaptive_rate(max(1, zeros), n, lam))


def offspring_zeros_pmf(op, n: int, i: int) -> np.ndarray:
    """P(Y = y), y = 0..n: zeros of one offspring of a parent with i zeros.
    A radius r flips Z ~ Hypergeom(n, i, r) zeros, so Y = i + r - 2Z."""
    py = np.zeros(n + 1)
    for r, pr in radius_pmf(op, n).items():
        z = np.arange(max(0, r - (n - i)), min(i, r) + 1)
        py[i + r - 2 * z] += float(pr) * stats.hypergeom.pmf(z, n, i, r)
    return py


def one_generation_pmf(op, n: int, i: int, lam: int) -> np.ndarray:
    """pmf over j = 0..i of the parent's zeros after one generation on
    onemax: P(i' >= j) = P(Y >= j)^lam for j <= i."""
    at_least = np.cumsum(offspring_zeros_pmf(op, n, i)[::-1])[::-1][: i + 1] ** lam
    return at_least - np.append(at_least[1:], 0.0)


def chi_square_p(counts: np.ndarray, pmf: np.ndarray) -> float:
    """Goodness of fit after merging neighbouring cells to >= 5 expected."""
    expected = pmf / pmf.sum() * counts.sum()
    obs, exp = [], []
    o = e = 0.0
    for oc, ec in zip(counts, expected):
        o, e = o + oc, e + ec
        if e >= 5:
            obs.append(o)
            exp.append(e)
            o = e = 0.0
    obs[-1] += o
    exp[-1] += e
    assert len(obs) >= 2
    return float(stats.chisquare(obs, exp).pvalue)


def expected_evaluations(algorithm: str, n: int, lam: int) -> float:
    """Exact E[evaluations] on onemax: lam (1 + E[generations]) from the
    best of lam uniform points, by a DP over the parent's zero count."""
    gens = np.zeros(n + 1)  # expected generations from i zeros to 0
    for i in range(1, n + 1):
        law = one_generation_pmf(operator(algorithm, n, lam, i), n, i, lam)
        gens[i] = (1.0 + law[:i] @ gens[:i]) / (1.0 - law[i])
    at_least = stats.binom.sf(np.arange(n + 1) - 1, n, 0.5) ** lam
    start = at_least - np.append(at_least[1:], 0.0)
    return lam * (1.0 + start @ gens)


def parent_with_zeros(n: int, i: int) -> BitString:
    return BitString(n, ((1 << n) - 1) ^ ((1 << i) - 1))


# ------------------------------------------------------ one-generation law

@pytest.mark.parametrize("algorithm, lam", [
    ("rls", 1),
    ("one-plus-lambda-fixed", 1), ("one-plus-lambda-fixed", 8), ("one-plus-lambda-fixed", 128),
    ("one-plus-lambda-fixed", 512), ("one-plus-lambda-adaptive", 1),
    ("one-plus-lambda-adaptive", 8), ("one-plus-lambda-adaptive", 128),
    ("one-plus-lambda-adaptive", 512),
])
def test_one_generation_law(algorithm, lam):
    i, calls = 20, 4000
    obj = make_objective("onemax", N)
    assert obj.metadata[CHAIN] is ONES_COUNT
    rng = derive_rng(901, lam)
    counts = np.zeros(i + 1)
    for k in range(calls):
        cfg = AlgoConfig(algorithm, n=N, lam=lam, budget=1 + lam, seed=k)
        rec = run_one_plus_lambda(cfg, obj, rng, initial=parent_with_zeros(N, i))
        assert rec.generations_used == 1
        counts[N - rec.best_fitness] += 1
    pmf = one_generation_pmf(operator(algorithm, N, lam, i), N, i, lam)
    assert chi_square_p(counts, pmf) > ALPHA


@pytest.mark.parametrize("n, k, p", [(100, 20, 0.01), (1000, 550, 0.0035), (50, 0, 0.5),
                                     (50, 50, 0.9), (10**4, 6000, 0.2)])
def test_ones_count_law_matches_the_exact_convolution(n, k, p):
    # the law of k + Binomial(n - k, p) - Binomial(k, p) against the full
    # convolution of scipy's pmfs, whose index is the state; at n = 10^4
    # the recurrence could not start from (1 - p)^(n - k), which underflows
    lo, probs = _ones_count_law.get(n, k, p)
    states = np.arange(lo, lo + len(probs))
    exact = np.convolve(stats.binom.pmf(np.arange(n - k + 1), n - k, p),
                        stats.binom.pmf(np.arange(k + 1), k, p)[::-1])
    assert 0 <= lo and states[-1] <= n
    assert np.abs(probs - exact[states]).max() < 1e-12
    assert 1.0 - exact[states].sum() < 1e-12
    if n == 10**4:
        assert (1.0 - p) ** (n - k) == 0.0


# ------------------------------------------------------- mean evaluations

def test_rls_dp_matches_coupon_collector_closed_form():
    # 1 + sum_i P(start = i) n H_i: the DP is checked before it checks the runs
    start = stats.binom.pmf(np.arange(N + 1), N, 0.5)
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, N + 1))])
    closed = 1.0 + N * (start @ harmonic)
    assert expected_evaluations("rls", N, 1) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("algorithm, lam", [
    ("rls", 1),
    ("one-plus-lambda-fixed", 2), ("one-plus-lambda-fixed", 32),
    ("one-plus-lambda-adaptive", 2), ("one-plus-lambda-adaptive", 32),
])
def test_mean_evaluations_match_exact_dp(algorithm, lam):
    runs = 400
    obj = make_objective("onemax", N)
    evals = []
    for rep in range(runs):
        seed = derive_run_seed(902, lam, rep)
        rec = run_one_plus_lambda(AlgoConfig(algorithm, n=N, lam=lam, seed=seed), obj,
                                  derive_rng(seed))
        assert rec.hit_target and rec.evaluations_used == lam * (rec.generations_used + 1)
        evals.append(rec.evaluations_used)
    exact = expected_evaluations(algorithm, N, lam)
    z = (np.mean(evals) - exact) / (np.std(evals, ddof=1) / math.sqrt(runs))
    assert abs(z) < Z_LIMIT, f"mean {np.mean(evals):.1f} vs exact {exact:.1f}: z = {z:+.2f}"


# ------------------------------------------- the stream from HISTOGRAM_LAMBDA

# sha256 of the CSV that `parallel-ea sweep ARGS --reps 8 --seed 2101 --out F`
# writes, computed while the runner still had an int-array kernel for the
# initial batch and a crossover constant: selection by the batch's shape
# must read the same doubles and pick the same offspring
PINNED_HISTOGRAM_SWEEPS = {
    # the initial batch often holds 1^n
    "onemax-initial-hit": ("--objective onemax --n 6 --lambdas 32,64,256",
                           "b3cb6ef8e45fb011d00f694ae0deccc2e24397c55c41fd7c5837d3a60073c624"),
    # the tied states k and n - k, each drawn many times
    "twomax-fixed": ("--objective twomax --n 20 --lambdas 32,64,256",
                     "10d2992d5827a7814fdc10762c568b9beb2bc5917587847a288a9531ec05b443"),
    "twomax-adaptive": ("--objective twomax --n 20 --lambdas 32,64,256 --algo one-plus-lambda-adaptive",
                        "a43aecd7bc311aacb28c5abf80ba47a276457dae9f5789d041ba9cda60347283"),
    "leadingones-fixed": ("--objective leadingones --n 8 --lambdas 32,64,256",
                          "8dfac4decd852a406de3e09315e504077aa58efa4d5eb7a63951739c5aa8dbea"),
    "jump-fixed": ("--objective jump --n 12 --param k=2 --lambdas 32,128",
                   "e32bbf2d86b567887023b24fd06392776271cac37162f47204f64e007c697a41"),
    # the benchmark's shape
    "onemax-adaptive": ("--objective onemax --n 300 --lambdas 128,512 --algo one-plus-lambda-adaptive",
                        "63a27714c1577d74b74b7415d5fdffbdb516133e9fa41f3765594475403541d0"),
}


@pytest.mark.parametrize("case", list(PINNED_HISTOGRAM_SWEEPS))
def test_histogram_sweep_csv_is_pinned(tmp_path, capsys, case):
    args, digest = PINNED_HISTOGRAM_SWEEPS[case]
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *args.split(), "--reps", "8", "--seed", "2101", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ------------------------------------------- chain against the bit path

def bit_path(obj):
    """The same objective without the declaration: it runs on bit strings."""
    return dataclasses.replace(obj, metadata={})


def final_parents(obj, cfg, start, runs, key):
    """(evaluations, ones count of the final parent) of each run."""
    out = []
    for rep in range(runs):
        last = []
        rec = run_one_plus_lambda(dataclasses.replace(cfg, seed=rep), obj, derive_rng(key, rep),
                                  initial=start, on_generation=lambda g, q, x, f: last.append(x))
        assert rec.hit_target
        out.append((rec.evaluations_used, last[-1].count_ones()))
    return out


@pytest.mark.parametrize("name, params, lam, ones, runs", [
    ("twomax", {}, 4, 14, 600),
    ("jump", {"k": 2}, 4, 20, 200),
])
def test_chain_and_bit_path_agree(name, params, lam, ones, runs):
    # twomax from 14 of 30 ones: an offspring with 16 ones ties with the
    # parent, so the share of runs that end at 1^n rests on the acceptance
    # of ties across the two slopes
    n = 30
    obj = make_objective(name, n, **params)
    cfg = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam)
    start = BitString(n, (1 << ones) - 1)
    chain = final_parents(obj, cfg, start, runs, 903)
    bits = final_parents(bit_path(obj), cfg, start, runs, 904)
    assert stats.ks_2samp([e for e, _ in chain], [e for e, _ in bits]).pvalue > ALPHA
    ends = [[sum(k == n for _, k in side), sum(k == 0 for _, k in side)] for side in (chain, bits)]
    assert sum(ends[0]) == sum(ends[1]) == runs
    if name == "twomax":
        assert min(min(e) for e in ends) > 0
        assert stats.chi2_contingency(ends).pvalue > ALPHA


def tie_ends(stub, batch, lam, runs, key):
    """The ones count of the parent after one generation whose offspring are
    the fixed batch, from a parent in state 12 of n = 20, in each of runs
    runs on one stream."""
    n = 20
    chain = dataclasses.replace(ONES_COUNT, offspring=lambda op, n, s, lam, rng: batch)
    obj = dataclasses.replace(stub_objective(stub, n), metadata={CHAIN: chain})
    cfg = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, budget=1 + lam)
    rng = derive_rng(key)
    parents = []
    for _ in range(runs):
        rec = run_one_plus_lambda(cfg, obj, rng, initial=BitString(n, (1 << 12) - 1),
                                  on_generation=lambda g, q, x, f: parents.append(x.count_ones()))
        assert rec.generations_used == 1
    return parents[1::2]


def tie_law(states, lam=None):
    # twomax at n=20 from 12 ones: the stub's offspring states 15 and 5 score
    # 15, so the one generation (budget 1 + lambda) ends on a tie.  Each tied
    # offspring wins with the same probability; with 15 twice as often as 5
    # the parent moves to 5 ones in a third of the runs, and a pick among
    # distinct states would give a half.  A tuple is a histogram of lam
    # offspring, returned as it is.
    runs, lam = 1200, lam or len(states)
    batch = states if isinstance(states, tuple) else list(states)
    ends = tie_ends("twomax", batch, lam, runs, 911)
    assert set(ends) <= {5, 15}
    to_five = ends.count(5)
    assert stats.chisquare([to_five, runs - to_five], [runs / 3, 2 * runs / 3]).pvalue > ALPHA


def test_ties_break_uniformly_with_multiplicity():
    tie_law([15, 15, 5])


@pytest.mark.parametrize("states, counts", [([15, 5], [42, 21]), ([12, 15, 16, 5], [0, 42, 0, 21])],
                         ids=["counts", "zero-counts"])
def test_ties_break_uniformly_with_multiplicity_in_a_histogram(states, counts):
    # the histogram's scan: an entry of the histogram stands for its count
    # of offspring; a state drawn zero times (16 would beat the tie) is not
    # there at all
    tie_law(histogram(states, counts), lam=63)


def test_first_hit_position_in_a_histogram():
    # H = 3 of lambda = 64 offspring are the optimum, so the first hit's
    # position I has P(I > i) = C(lambda - i, H) / C(lambda, H)
    n, lam, hits, runs = 20, 64, 3, 4000
    batch = histogram([n - 1, n, 3], [lam - hits - 1, hits, 1])
    stub = dataclasses.replace(ONES_COUNT, offspring=lambda op, n, s, lam, rng: batch)
    obj = dataclasses.replace(make_objective("onemax", n), metadata={CHAIN: stub})
    cfg = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, budget=1 + lam)
    rng = derive_rng(916)
    counts = np.zeros(lam + 1)
    for _ in range(runs):
        rec = run_one_plus_lambda(cfg, obj, rng, initial=BitString(n, (1 << 10) - 1))
        assert rec.hit_target and rec.evaluations_used == 1 + lam and rec.best_fitness == n
        counts[rec.first_hit_evaluation - 1] += 1
    tail = np.array([math.comb(lam - i, hits) for i in range(lam + 1)]) / math.comb(lam, hits)
    pmf = np.append(0.0, tail[:-1] - tail[1:])  # P(I = i), i = 0..lambda
    assert chi_square_p(counts, pmf) > ALPHA


# ------------------------------------------------ the two selection kernels

def histogram(states, counts):
    """The histogram (lo, counts) of counts[i] offspring in the distinct
    states[i], over the states from the least of them to the greatest."""
    lo = min(states)
    out = np.zeros(max(states) - lo + 1, dtype=np.int64)
    out[np.array(states) - lo] = counts
    return lo, out


def histogram_of(batch):
    """A batch as a histogram (lo, counts), which the runner selects from
    with a scan of its counts."""
    if type(batch) is tuple:
        return batch
    lo = min(batch)
    return lo, np.bincount([s - lo for s in batch])


def expansion_of(batch):
    """A batch as the list of its offspring in state order, which the
    runner selects from with the per-offspring loop."""
    if type(batch) is list:
        return sorted(batch)
    lo, counts = batch
    return np.repeat(np.arange(lo, lo + len(counts)), counts).tolist()


def both_shapes(obj, cfg, key, initial=None, batch=None):
    """The last parent and the record of cfg on obj, whose budget allows one
    generation, run with each generation's offspring as a histogram and as
    its expansion in state order, from the same stream.  The offspring are
    the chain sampler's, or `batch` whatever the parent.  Both runs must
    end on the same parent with the same record, except where each places
    a first hit within its generation."""
    chain = obj.metadata[CHAIN]
    sample = chain.offspring if batch is None else lambda op, n, s, lam, rng: batch
    out = []
    for shape in (histogram_of, expansion_of):
        stub = dataclasses.replace(chain, offspring=lambda *a, shape=shape: shape(sample(*a)))
        parents = []
        rec = run_one_plus_lambda(cfg, dataclasses.replace(obj, metadata={CHAIN: stub}),
                                  derive_rng(*key), initial=initial,
                                  on_generation=lambda g, q, x, f: parents.append((x, f)))
        assert rec.generations_used <= 1
        if rec.hit_target:
            assert rec.evaluations_used - cfg.lam < rec.first_hit_evaluation <= rec.evaluations_used
        out.append((parents[-1], dataclasses.replace(rec, first_hit_evaluation=None)))
    assert out[0] == out[1]
    return out[0]


def stub_objective(stub: str, n: int):
    """onemax or twomax, or one of the two changed so that a rank taken
    any other way than the loop's comparisons would show."""
    if stub == "direction-min":  # the states near n/2 win, and k ties with n - k
        return dataclasses.replace(make_objective("twomax", n), direction="min")
    if stub == "fitness-2^60":  # states that one float64 would merge
        assert float(2**60 + 1) == float(2**60)
        return dataclasses.replace(make_objective("onemax", n),
                                   evaluate=lambda x: 2**60 + x.count_ones())
    if stub == "mod-5":  # states 4, 9, 14 and 19 share the best fitness
        return dataclasses.replace(make_objective("onemax", n),
                                   evaluate=lambda x: x.count_ones() % 5)
    return make_objective(stub, n)


# objective, the fixed histogram of every generation, and the states the
# parent in state 12 of n = 20 may move to
SHAPE_CASES = {
    "ties-with-multiplicity": ("twomax", [15, 5], [42, 21], {5, 15}),
    "zero-counts": ("twomax", [12, 15, 16, 5], [0, 42, 0, 21], {5, 15}),
    "target-member": ("onemax", [19, 20, 3], [60, 3, 1], {20}),
    "tied-members": ("twomax", [0, 7, 20], [2, 5, 3], {0, 20}),
    "direction-min": ("direction-min", [8, 9, 11, 12], [4, 3, 9, 4], {9, 11}),
    "fitness-2^60": ("fitness-2^60", [18, 19, 20], [10, 5, 1], {20}),
}


def select_alike(stub, states, counts, winners):
    """The fixed histogram and its expansion move a parent in state 12 of
    n = 20 alike, and to each of the winning states in some run."""
    n, lam = 20, sum(counts)
    obj = stub_objective(stub, n)
    batch = histogram(states, counts)
    ends = set()
    for rep in range(100):
        cfg = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, budget=1 + lam, seed=rep)
        (x, _), rec = both_shapes(obj, cfg, (917, rep), initial=BitString(n, (1 << 12) - 1),
                                  batch=batch)
        assert rec.generations_used == 1
        ends.add(x.count_ones())
    assert ends == winners


@pytest.mark.parametrize("case", list(SHAPE_CASES))
def test_a_histogram_and_its_expansion_select_alike(case):
    select_alike(*SHAPE_CASES[case])


# a histogram for each branch of the scan, each with a zero count at both
# ends of its window: the scan's verdict, then a SHAPE_CASES entry
SCAN_CASES = {
    "rising": ("rising", "onemax", [10, 11, 12, 14, 15, 16], [0, 3, 5, 2, 1, 0], {15}),
    "falling": ("falling", "twomax", [2, 3, 5, 6, 7, 8], [0, 4, 3, 2, 6, 0], {3}),
    "mixed-tie": ("mixed", "twomax", [4, 6, 10, 14, 17], [0, 5, 7, 10, 0], {6, 14}),
    "mixed-min": ("mixed", "direction-min", [6, 8, 10, 12, 13, 15], [0, 4, 1, 6, 2, 0], {10}),
}


@pytest.mark.parametrize("case", list(SCAN_CASES))
def test_each_branch_of_the_scan_selects_as_the_expansion(case):
    branch, stub, states, counts, winners = SCAN_CASES[case]
    tables = stub_objective(stub, 20).state_tables
    lo, window = histogram(states, counts)
    assert window[0] == window[-1] == 0
    drawn = (lo + window.nonzero()[0]).tolist()
    low, top = drawn[0], drawn[-1]
    rising, falling = tables.rise[top] <= low, tables.fall[top] <= low
    assert branch == ("rising" if rising else "falling" if falling else "mixed")
    select_alike(stub, states, counts, winners)


def test_a_three_way_tie_in_a_histogram():
    # the ranks rise and fall over states 4..14, so the scan lists the three
    # tied states; each tied offspring wins alike, a state with its count / 6
    states, counts, runs = [4, 9, 14], [1, 2, 3], 1200
    select_alike("mod-5", states, counts, set(states))
    tables = stub_objective("mod-5", 20).state_tables
    assert tables.rank[4] == tables.rank[9] == tables.rank[14] == max(tables.rank)
    assert tables.rise[14] > 4 and tables.fall[14] > 4
    ends = tie_ends("mod-5", histogram(states, counts), sum(counts), runs, 918)
    wins = [ends.count(s) for s in states]
    assert sum(wins) == runs
    assert stats.chisquare(wins, [runs * c / 6 for c in counts]).pvalue > ALPHA


def brute_run_start(rank, s, step):
    """The least l <= s with step(rank[i], rank[i + 1]) for every l <= i < s."""
    return min(l for l in range(s + 1) if all(step(rank[i], rank[i + 1]) for i in range(l, s)))


@pytest.mark.parametrize("n", [3, 4, 11, 24])
@pytest.mark.parametrize("name", sorted(DECLARED) + ["direction-min", "fitness-2^60"])
def test_rank_runs_and_members_below_match_their_definitions(name, n):
    obj = build(name, n) if name in DECLARED else stub_objective(name, n)
    chain, tables = obj.metadata[CHAIN], obj.state_tables
    fits = [obj.evaluate(chain.point(n, s)) for s in range(n + 1)]
    members = [obj.target.contains(chain.point(n, s)) for s in range(n + 1)]
    rank = [len({g for g in fits if obj.better(f, g)}) for f in fits]
    assert tables.rank == rank
    assert tables.rise == [brute_run_start(rank, s, lambda a, b: a < b) for s in range(n + 1)]
    assert tables.fall == [brute_run_start(rank, s, lambda a, b: a > b) for s in range(n + 1)]
    assert tables.members_below == [sum(members[:s]) for s in range(n + 2)]


KERNEL_CASES = [(name, params, algorithm, lam)
                for name, params in (("onemax", {}), ("twomax", {}), ("twomax-prime", {}),
                                     ("jump", {"k": 3}), ("cliff", {"d": 3}),
                                     ("leadingones", {}), ("leadingzeros", {}))
                for algorithm in ("one-plus-lambda-fixed", "one-plus-lambda-adaptive")
                if algorithm == "one-plus-lambda-fixed" or not name.startswith("leading")
                for lam in (2, 64)]


@pytest.mark.parametrize("name, params, algorithm, lam", KERNEL_CASES)
def test_kernels_give_the_same_runs(name, params, algorithm, lam):
    # the chain's own offspring in both shapes, one generation after the
    # best of lam uniform points, whose state varies with the seed
    n, runs = 24, 40
    obj = make_objective(name, n, **params)
    for rep in range(runs):
        both_shapes(obj, AlgoConfig(algorithm, n=n, lam=lam, budget=2 * lam, seed=rep), (912, rep))


@pytest.mark.parametrize("algorithm, lam", [
    ("one-plus-lambda-fixed", 2), ("one-plus-lambda-fixed", 64), ("one-plus-lambda-adaptive", 64),
    ("rls", 1),
])
def test_kernels_give_the_same_runs_from_initial(algorithm, lam):
    # one generation from every state of twomax: both slopes, the valley
    # between them and the two targets
    n = 40
    obj = make_objective("twomax", n)
    for ones in range(n + 1):
        cfg = AlgoConfig(algorithm, n=n, lam=lam, budget=1 + lam, seed=ones)
        both_shapes(obj, cfg, (913, ones), initial=BitString(n, (1 << ones) - 1))


def test_kernels_stop_at_the_same_budget():
    # a budget between two generations' ends: both stop after the last
    # whole generation, short of the target
    n, lam = 200, 64
    cfg = AlgoConfig("one-plus-lambda-adaptive", n=n, lam=lam, budget=2 * lam + 37, seed=0)
    _, rec = both_shapes(make_objective("onemax", n), cfg, (914,))
    assert rec.evaluations_used == 2 * lam and not rec.hit_target


@pytest.mark.parametrize("stub", ["direction-min", "fitness-2^60"])
@pytest.mark.parametrize("lam", [2, 64])
def test_kernels_agree_on_stub_objectives(stub, lam):
    # the chain's own offspring in both shapes, one generation from every state
    n = 30
    obj = stub_objective(stub, n)
    for ones in range(n + 1):
        cfg = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, budget=1 + lam, seed=ones)
        (x, fx), _ = both_shapes(obj, cfg, (915, ones), initial=BitString(n, (1 << ones) - 1))
        assert not obj.better(obj.evaluate(BitString(n, (1 << ones) - 1)), fx)


def test_state_tables_are_linear_in_n():
    # n + 1 fitness values, ranks and memberships; no representative point
    n = 10**4
    obj = make_objective("onemax", n)
    tracemalloc.start()
    try:
        tables = obj.state_tables
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert tables.fitness == list(range(n + 1)) and tables.rank == tables.fitness
    assert tables.hit == [False] * n + [True] and obj.state_tables is tables


# ---------------------------------------------------- the leading-ones chain

def first_flip_pmf(p, n: int) -> np.ndarray:
    """P(f = j), j = 0..n-1, for the first flipped position f; p is None for
    RLS, whose one flip is uniform."""
    return np.full(n, 1.0 / n) if p is None else (1 - p) ** np.arange(n) * p


def lo_offspring_pmf(p, n: int, l: int) -> np.ndarray:
    """pmf over 0..n of one offspring's leading ones from a parent with l:
    f < l gives f, f = l gives l + 1 + R with P(R >= k) = 2^-k capped at
    n - l - 1, and everything else gives l."""
    first = first_flip_pmf(p, n)
    pmf = np.zeros(n + 1)
    pmf[:l] = first[:l]
    cap = n - l - 1
    pmf[l + 1:n] = first[l] * 0.5 ** np.arange(1, cap + 1)
    pmf[n] += first[l] * 0.5**cap
    pmf[l] = 1.0 - pmf.sum()
    return pmf


def lo_step_joint(p, n: int, l: int, lam: int) -> np.ndarray:
    """P(K = k, l' = j), k = 0..lam, j = 0..n: K offspring flip bit l first,
    and l' is the parent's leading ones after one generation from l.

    K ~ Binomial(lam, P(f = l)).  At each later position the parent's bit is
    one with probability 1/2, and then each live improver stays live with
    probability 1 - p; otherwise with probability p (0 under RLS, whose
    improvers flip nothing else).  That is a Markov chain on the number of
    live improvers, and the best improver gains one leading one per
    position with an improver still live.
    """
    out = np.zeros((lam + 1, n + 1))
    improver = first_flip_pmf(p, n)[l]
    start = stats.binom.pmf(np.arange(lam + 1), lam, improver)
    out[0, l] = start[0]
    live = np.diag(start)  # row k: the live count of the runs that start with k
    live[0, 0] = 0.0
    a = np.arange(lam + 1)
    mask = 0.0 if p is None else p
    step = 0.5 * (stats.binom.pmf(a[None, :], a[:, None], 1 - mask)
                  + stats.binom.pmf(a[None, :], a[:, None], mask))
    for j in range(l + 1, n):  # mass still live before position j ends at j
        before = live.sum(axis=1)
        live = live @ step
        live[:, 0] = 0.0
        out[:, j] = before - live.sum(axis=1)
    out[:, n] = live.sum(axis=1)
    return out


def lo_step_pmf(p, n: int, l: int, lam: int) -> np.ndarray:
    """pmf over 0..n of the parent's leading ones after one generation from l."""
    return lo_step_joint(p, n, l, lam).sum(axis=0)


def lo_expected_generations(p, n: int, lam: int) -> float:
    """Exact E[generations] to 1^n from the best of lam uniform points, by a
    fitness-level DP over the parent's leading ones."""
    gens = np.zeros(n + 1)
    for l in range(n - 1, -1, -1):
        law = lo_step_pmf(p, n, l, lam)
        gens[l] = (1.0 + law[l + 1:] @ gens[l + 1:]) / (1.0 - law[l])
    at_least = 1.0 - (1.0 - 0.5 ** np.arange(n + 1)) ** lam  # P(LO >= k) = 2^-k each
    start = at_least - np.append(at_least[1:], 0.0)
    return float(start @ gens)


def lo_level_moments(p, n: int) -> tuple[float, float]:
    """Mean and variance of the evaluations of RLS or the (1+1) EA: each level
    l < n is visited with probability 1/2, independently, and left after a
    Geometric(P(f = l)) wait; the + 1 is the initial evaluation."""
    q = first_flip_pmf(p, n)
    return 1.0 + float(np.sum(0.5 / q)), float(np.sum((3 - 2 * q) / (4 * q * q)))


@pytest.mark.parametrize("p, lam, l", [(None, 1, 12), (None, 16, 2), (None, 64, 2), (1 / 40, 1, 12),
                                       (1 / 40, 2, 12), (1 / 40, 16, 12), (0.2, 16, 2),
                                       (1 / 40, 64, 12), (0.2, 64, 2)],
                         ids=["rls", "rls-16", "rls-64", "ea-1", "ea-2", "ea-16", "ea-16-p0.2",
                              "ea-64", "ea-64-p0.2"])
def test_leading_ones_one_generation_law(p, lam, l):
    n, calls = 40, 200_000 // lam
    op = single_bit() if p is None else standard_mutation(p)
    rng = derive_rng(905, lam)
    if lam == 1:  # every offspring against the closed form
        counts = np.bincount([leading_ones_counts(op, n, l, 1, rng)[0] for _ in range(calls)],
                             minlength=n + 1)
        pmf = lo_offspring_pmf(p, n, l)
    else:  # the number of improvers and the parent that follows, against the walk
        counts = np.zeros((lam + 1, n + 1))
        pooled = np.zeros(n + 1)  # offspring by state over every generation
        for _ in range(calls):
            states = leading_ones_counts(op, n, l, lam, rng)
            if lam >= HISTOGRAM_LAMBDA:  # (lo, counts) of the whole generation
                assert states[1].sum() == lam
                states = expansion_of(states)
            pooled += np.bincount(states, minlength=n + 1)
            counts[sum(s > l for s in states), max(l, *states)] += 1
        counts, pmf = counts.ravel(), lo_step_joint(p, n, l, lam).ravel()
        # the cuts, the unchanged and the improvers of all generations are
        # one multinomial sample of their first-flip categories
        cut = first_flip_pmf(p, n)[: l + 1]
        law = np.append(cut[:l], [1.0 - cut.sum(), cut[l]])
        categories = np.append(pooled[: l + 1], pooled[l + 1:].sum())
        assert chi_square_p(categories, law) > ALPHA
    assert chi_square_p(counts, pmf) > ALPHA


def test_leading_ones_counts_at_rate_zero():
    # p = 0 flips nothing: every offspring keeps the parent's state, and
    # below HISTOGRAM_LAMBDA no double is read
    n, l, op = 40, 12, standard_mutation(0.0)
    rng = derive_rng(919)
    assert leading_ones_counts(op, n, l, 5, rng) == [l] * 5
    assert rng.next_double() == derive_rng(919).next_double()
    lo, counts = leading_ones_counts(op, n, l, HISTOGRAM_LAMBDA, rng)
    assert (lo + counts.nonzero()[0]).tolist() == [l] and counts.sum() == HISTOGRAM_LAMBDA


def test_uniform_leading_ones_counts_law():
    # P(LO = k) = 2^-(k+1) below n and 2^-n at n, n small enough to see the cap
    n, calls = 6, 20_000
    counts = np.bincount(uniform_leading_ones_counts(n, calls, derive_rng(911)), minlength=n + 1)
    pmf = np.append(0.5 ** np.arange(1, n + 1), 0.5**n)
    assert chi_square_p(counts, pmf) > ALPHA


def test_leading_ones_dp_matches_closed_forms():
    # the DP against the closed forms it must reproduce at lambda = 1, and
    # against the values it was first computed to at n = 20
    n = 150
    assert lo_expected_generations(1 / n, n, 1) + 1 == pytest.approx(lo_level_moments(1 / n, n)[0])
    assert round(lo_expected_generations(1 / n, n, 1)) == 19_304
    assert lo_expected_generations(None, n, 1) == pytest.approx(n * n / 2)
    assert lo_expected_generations(0.05, 20, 2) == pytest.approx(168.85, abs=0.005)
    assert lo_expected_generations(0.05, 20, 8) == pytest.approx(42.97, abs=0.005)


@pytest.mark.parametrize("lam", [2, 8, 64])
def test_leading_ones_mean_generations_match_exact_dp(lam):
    n, runs = 20, 1200
    obj = make_objective("leadingones", n)
    gens = []
    for rep in range(runs):
        rec = run_one_plus_lambda(AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, seed=rep), obj,
                                  derive_rng(906, lam, rep))
        assert rec.hit_target and rec.evaluations_used == lam * (rec.generations_used + 1)
        gens.append(rec.generations_used)
    exact = lo_expected_generations(1 / n, n, lam)
    z = (np.mean(gens) - exact) / (np.std(gens, ddof=1) / math.sqrt(runs))
    assert abs(z) < Z_LIMIT, f"mean {np.mean(gens):.2f} vs exact {exact:.2f}: z = {z:+.2f}"


@pytest.mark.parametrize("algorithm", ["one-plus-lambda-fixed", "rls"])
def test_leading_ones_evaluations_match_closed_form(algorithm):
    n, runs = 150, 60
    obj = make_objective("leadingones", n)
    evals = [run_one_plus_lambda(AlgoConfig(algorithm, n=n, seed=rep), obj,
                                 derive_rng(907, rep)).evaluations_used for rep in range(runs)]
    mean, var = lo_level_moments(None if algorithm == "rls" else 1 / n, n)
    z = (np.mean(evals) - mean) / math.sqrt(var / runs)
    assert abs(z) < Z_LIMIT, f"mean {np.mean(evals):.0f} vs exact {mean:.0f}: z = {z:+.2f}"


@pytest.mark.parametrize("name, lam", [("leadingones", 2), ("leadingzeros", 16)])
def test_leading_ones_chain_and_bit_path_agree(name, lam):
    n, runs = 30, 200
    obj = make_objective(name, n)
    bits = obj.with_target(obj.target)
    assert CHAIN in obj.metadata and CHAIN not in bits.metadata
    cfg = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam)
    chain = [run_one_plus_lambda(cfg, obj, derive_rng(908, rep)).evaluations_used
             for rep in range(runs)]
    bit = [run_one_plus_lambda(cfg, bits, derive_rng(909, rep)).evaluations_used
           for rep in range(runs)]
    assert stats.ks_2samp(chain, bit).pvalue > ALPHA


@pytest.mark.parametrize("algorithm, start", [
    ("one-plus-lambda-adaptive", None),
    ("one-plus-lambda-fixed", BitString.from_str("110" + "01" * 10 + "1")),
])
def test_leading_ones_chain_leaves_the_other_runs_on_bit_strings(algorithm, start):
    # the adaptive EA reads a zero count that the state does not hold, and a
    # given start's suffix is not uniform: both runs are the bit path's own
    n = 24
    obj = make_objective("leadingones", n)
    bits = obj.with_target(obj.target)
    cfg = AlgoConfig(algorithm, n=n, lam=3, seed=1)
    assert run_one_plus_lambda(cfg, obj, derive_rng(910), initial=start) \
        == run_one_plus_lambda(cfg, bits, derive_rng(910), initial=start)


def hook_keeps_the_stream(name, algorithm, lam):
    # with and without an observer the chain draws the same stream, and the
    # observer sees the chain's representatives
    n = 200
    obj = make_objective(name, n)
    chain = obj.metadata[CHAIN]
    cfg = AlgoConfig(algorithm, n=n, lam=lam, seed=5)
    seen = []
    plain = run_one_plus_lambda(cfg, obj, derive_rng(5))
    hooked = run_one_plus_lambda(cfg, obj, derive_rng(5),
                                 on_generation=lambda g, q, x, f: seen.append((q, x, f)))
    assert plain == hooked and plain.hit_target
    for queried, x, fx in seen:
        assert all(y == chain.point(n, chain.state(y)) for y in queried + [x])
        assert fx == obj.evaluate(x)


def test_hook_does_not_select_the_path_or_the_stream():
    hook_keeps_the_stream("onemax", "one-plus-lambda-adaptive", 16)


@pytest.mark.parametrize("name, algorithm, lam", [
    ("onemax", "one-plus-lambda-adaptive", 128), ("leadingones", "one-plus-lambda-fixed", 64),
])
def test_hook_does_not_select_the_histogram_kernel_or_the_stream(name, algorithm, lam):
    assert lam >= HISTOGRAM_LAMBDA
    hook_keeps_the_stream(name, algorithm, lam)


@pytest.mark.parametrize("name, algorithm, lam", [
    ("leadingones", "one-plus-lambda-fixed", 16), ("leadingones", "rls", 1),
    ("leadingzeros", "one-plus-lambda-fixed", 2),
])
def test_hook_does_not_select_the_leading_ones_path_or_the_stream(name, algorithm, lam):
    hook_keeps_the_stream(name, algorithm, lam)


# ------------------------------------------------------ the declaration

def build(name: str, n: int, target: str = "global"):
    params = {"jump": {"k": 3}, "cliff": {"d": 3}, "planted-3sat": {"m": 20}}.get(name, {})
    n = {"hiff": n - 2, "knapsack-hard": n + 1}.get(name, n)  # a power of two, an odd n
    return make_objective(name, n, target=target, **params)


def test_declared_objectives_are_constant_on_each_layer():
    # every point of {0,1}^10, grouped by the declared chain's state
    n = 10
    declared = set()
    for name in objective_names():
        obj = build(name, n)
        chain = obj.metadata.get(CHAIN)
        if chain is None:
            continue
        declared.add(name)
        layers = {}
        for v in range(1 << n):
            x = BitString(n, v)
            layers.setdefault(chain.state(x), set()).add((obj.evaluate(x), obj.target.contains(x)))
        assert all(len(values) == 1 for values in layers.values()), name
        assert all(chain.state(chain.point(n, s)) == s for s in layers), name
    assert declared == DECLARED


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_new_target_drops_the_declaration(name):
    obj = build(name, 10)
    dropped = obj.with_target(local_optima(obj))
    assert CHAIN not in dropped.metadata and dropped.chain is None
    with pytest.raises(ValueError, match="declares no chain"):
        dropped.state_tables
    assert CHAIN not in build(name, 10, target="local").metadata
    assert {k: v for k, v in obj.metadata.items() if k != CHAIN} \
        == obj.with_target(obj.target).metadata
