"""The ones-count chain of the elitist runners against exact laws.

Objectives that declare ONES_COUNT_ONLY run as a Markov chain on the
parent's ones count.  The oracles here build the offspring law from the
radius law `radius_pmf` and the hypergeometric split of the radius over the
parent's zeros and ones, not from the binomial gain/loss split the chain
samples, so each checks the other.  Every seed is fixed in advance.
"""

import dataclasses
import math

import numpy as np
import pytest

from parallel_ea.algorithms import AlgoConfig, adaptive_rate, run_one_plus_lambda
from parallel_ea.bitstring import BitString
from parallel_ea.objectives import ONES_COUNT_ONLY, local_optima, make_objective, objective_names
from parallel_ea.rng import derive_rng, derive_run_seed
from parallel_ea.variation import radius_pmf, single_bit, standard_mutation

stats = pytest.importorskip("scipy.stats")

N = 100
Z_LIMIT = 4.0  # two-sided normal tail 6.3e-5 per check
ALPHA = 1e-4
DECLARED = {"onemax", "twomax", "twomax-prime", "jump", "cliff"}


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
    ("one-plus-lambda-adaptive", 1), ("one-plus-lambda-adaptive", 8),
    ("one-plus-lambda-adaptive", 128),
])
def test_one_generation_law(algorithm, lam):
    i, calls = 20, 4000
    obj = make_objective("onemax", N)
    assert obj.metadata[ONES_COUNT_ONLY]
    rng = derive_rng(901, lam)
    counts = np.zeros(i + 1)
    for k in range(calls):
        cfg = AlgoConfig(algorithm, n=N, lam=lam, budget=1 + lam, seed=k)
        rec = run_one_plus_lambda(cfg, obj, rng, initial=parent_with_zeros(N, i))
        assert rec.generations_used == 1
        counts[N - rec.best_fitness] += 1
    pmf = one_generation_pmf(operator(algorithm, N, lam, i), N, i, lam)
    assert chi_square_p(counts, pmf) > ALPHA


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


def test_hook_does_not_select_the_path_or_the_stream():
    # with and without an observer the chain draws the same stream
    obj = make_objective("onemax", 200)
    cfg = AlgoConfig("one-plus-lambda-adaptive", n=200, lam=16, seed=5)
    seen = []
    plain = run_one_plus_lambda(cfg, obj, derive_rng(5))
    hooked = run_one_plus_lambda(cfg, obj, derive_rng(5),
                                 on_generation=lambda g, q, x, f: seen.append((q, x)))
    assert plain == hooked
    for queried, x in seen:
        assert all(y.value == (1 << y.count_ones()) - 1 for y in queried + [x])


# ------------------------------------------------------ the declaration

def build(name: str, n: int, target: str = "global"):
    params = {"jump": {"k": 3}, "cliff": {"d": 3}, "planted-3sat": {"m": 20}}.get(name, {})
    n = {"hiff": n - 2, "knapsack-hard": n + 1}.get(name, n)  # a power of two, an odd n
    return make_objective(name, n, target=target, **params)


def test_declared_objectives_are_constant_on_each_layer():
    n = 10
    declared = set()
    for name in objective_names():
        obj = build(name, n)
        if not obj.metadata.get(ONES_COUNT_ONLY):
            continue
        declared.add(name)
        layers = {}
        for v in range(1 << n):
            x = BitString(n, v)
            layers.setdefault(x.count_ones(), set()).add((obj.evaluate(x), obj.target.contains(x)))
        assert all(len(values) == 1 for values in layers.values()), name
    assert declared == DECLARED


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_new_target_drops_the_declaration(name):
    obj = build(name, 10)
    assert ONES_COUNT_ONLY not in obj.with_target(local_optima(obj)).metadata
    assert ONES_COUNT_ONLY not in build(name, 10, target="local").metadata
    assert {k: v for k, v in obj.metadata.items() if k != ONES_COUNT_ONLY} \
        == obj.with_target(obj.target).metadata
