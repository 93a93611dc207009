"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s -v tests/test_acceptance.py` to see the per-criterion
lines as they complete.  Statistical criteria use fixed seeds, so the
whole suite is deterministic.
"""

import time
from math import comb, e, log

import numpy as np
import pytest

from parallel_ea.algorithms import AlgoConfig, run_one_plus_lambda
from parallel_ea.bitstring import BitString
from parallel_ea.harness import ExperimentSpec, check_lower_bound, read_runs, run_experiment
from parallel_ea.objectives.functions import hiff, leadingones_objective, onemax_objective, twomax
from parallel_ea.objectives.instances import (
    bichromatic_edges,
    gen_partition_random,
    gen_two_cliques,
    maxsat_hard_count,
    partition_makespan,
)
from parallel_ea.objectives.local_optima import local_optima
from parallel_ea.objectives.registry import make_objective
from parallel_ea.rng import derive_rng, derive_run_seed
from parallel_ea.theory.bounds import adaptive_ub, lb_unique, ln_plus
from parallel_ea.theory.lemmas import (
    expected_max_bound,
    verify_chvatal,
    verify_delta_symmetry,
    verify_hypergeom_tail,
    verify_improve_prob,
    verify_mgf_bound,
    verify_multibit_progress,
)
from parallel_ea.variation import apply, flip_exact

from references import maxsat_hard_enum_count


def report(k: int, message: str) -> None:
    print(f"\nACCEPTANCE {k:02d} PASS: {message}")


def test_c01_hypergeom_tail_exact_grid():
    t0 = time.monotonic()
    result = verify_hypergeom_tail(128)
    elapsed = time.monotonic() - t0
    assert result.passed, result.to_json()
    assert result.max_slack <= 1 + 1e-12
    assert elapsed < 120
    report(1, f"hypergeometric tail bound, full n=128 grid, "
              f"{result.points_checked} points, {elapsed:.1f}s")


def test_c02_improve_prob_exact_grid():
    t0 = time.monotonic()
    result = verify_improve_prob(128)
    elapsed = time.monotonic() - t0
    assert result.passed, result.to_json()
    assert result.grid.startswith("n=128, s<=m<=16")
    assert elapsed < 120
    report(2, f"per-step progress bound (1/2)^(z/2), s<=m<=16, r in [1,128], "
              f"{result.points_checked} points, {elapsed:.1f}s")


def test_c03_chvatal_exact_grid():
    t0 = time.monotonic()
    result = verify_chvatal(128)
    elapsed = time.monotonic() - t0
    assert result.passed, result.to_json()
    assert elapsed < 120
    report(3, f"exact P(drop>0) <= exp(-(m-s)^2/2r) everywhere, "
              f"{result.points_checked} cells, {elapsed:.1f}s")


def test_c04_mgf_premise_and_series():
    result = verify_mgf_bound(128, (1, 64, 4096))
    assert result.passed, result.to_json()
    for lam in (1, 64, 4096):
        entry = result.details["series"][str(lam)]
        assert entry["series"] == pytest.approx(8.0 * lam, rel=1e-9)
    report(4, "2^(1-z/2) premise on the full n=128 grid; series = 8*lambda "
              "to 1e-9 for lambda in {1, 64, 4096}")


def test_c05_multibit_sampled_grid():
    t0 = time.monotonic()
    result = verify_multibit_progress(2**20)
    elapsed = time.monotonic() - t0
    assert result.passed, result.to_json()
    assert result.max_slack > 0  # sampled grid reaches nonzero-probability points
    assert elapsed < 300
    report(5, f"multi-bit progress bound at n=2^20 (n*={result.details['n_star']:.2f}), "
              f"{result.points_checked} sampled points, {elapsed:.1f}s")


def test_c06_delta_symmetry():
    for n in (20, 32):
        result = verify_delta_symmetry(n)
        assert result.passed, result.to_json()
    report(6, "exact pmf identity drop(s,m,r) == drop(s,n-m,n-r) at n=20 and n=32")


def test_c07_max_geometric_monte_carlo():
    rng = derive_rng(20260811)
    samples = rng.geometric(0.5, size=(10_000, 100)) - 1
    sample_mean = float(samples.max(axis=1).mean())
    bound = expected_max_bound(log(1.5), 2.0, 100)
    assert bound == pytest.approx(15.5336, abs=2e-4)
    assert sample_mean <= bound
    assert 6.5 <= sample_mean <= 8.5
    report(7, f"max of 100 geometric(1/2): sample mean {sample_mean:.3f} <= "
              f"formula {bound:.2f} over 10^4 trials")


def test_c08_parallel_lower_bound_shadow(tmp_path):
    t0 = time.monotonic()
    n, lam, runs = 500, 64, 200
    spec = ExperimentSpec(
        objective={"name": "onemax", "n": n},
        algorithm={"algorithm": "one-plus-lambda-fixed", "budget": 26 * lam},
        repetitions=runs,
        lambdas=[lam],
        bounds=["lb-unique"],
        output=str(tmp_path / "shadow.csv"),
        master_seed=811,
    )
    run_experiment(spec)
    rows = read_runs(spec.output)
    assert len(rows) == runs
    threshold = lb_unique(n, lam, 0.5)
    assert threshold == pytest.approx(max(lam * n / (60 * log(lam)), 0.5 * n * log(n)))
    assert round(threshold) == 1554
    result = check_lower_bound(rows, "lb-unique", safety=1.0, delta=0.5)
    elapsed = time.monotonic() - t0
    assert result["violations"] == 0, result
    assert elapsed < 300
    report(8, f"fixed-rate (1+64) EA on onemax n=500: 0/{runs} runs hit within "
              f"{threshold:.0f} evaluations, {elapsed:.1f}s")


def test_c09_sequential_lower_bound_shadow(tmp_path):
    n, runs = 500, 200
    spec = ExperimentSpec(
        objective={"name": "onemax", "n": n},
        algorithm={"algorithm": "rls", "budget": 100_000},
        repetitions=runs,
        lambdas=[1],
        output=str(tmp_path / "rls.csv"),
        master_seed=812,
    )
    summary = run_experiment(spec)
    assert summary.per_lambda[0].hit_rate == 1.0
    rows = read_runs(spec.output)
    threshold = 0.5 * n * log(n)
    early = [r for r in rows if r["first_hit_evaluation"] < threshold]
    assert not early
    result = check_lower_bound(rows, "lb-nlogn-term", safety=1.0, delta=0.5)
    assert result["violations"] == 0
    report(9, f"RLS on onemax n=500: 0/{runs} runs finished within "
              f"{threshold:.0f} evaluations")


def test_c10_adaptive_speedup_and_explicit_upper_bound():
    n, lam, pairs = 1000, 512, 50
    obj = onemax_objective(n)
    adaptive, fixed = [], []
    for rep in range(pairs):
        seed = derive_run_seed(813, rep)
        cfg_a = AlgoConfig("one-plus-lambda-adaptive", n=n, lam=lam, budget=10**7, seed=seed)
        rec_a = run_one_plus_lambda(cfg_a, obj, derive_rng(seed))
        cfg_f = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, budget=10**7, seed=seed)
        rec_f = run_one_plus_lambda(cfg_f, obj, derive_rng(seed))
        assert rec_a.hit_target and rec_f.hit_target
        adaptive.append(rec_a.evaluations_used)
        fixed.append(rec_f.evaluations_used)
    mean_a, mean_f = np.mean(adaptive), np.mean(fixed)
    ub = adaptive_ub(n, lam)
    assert ub == pytest.approx((3 + e) * lam * n / log(lam) + e * n * (2 + log(n)))
    assert mean_a < mean_f
    assert mean_a <= ub
    report(10, f"adaptive mean {mean_a:.0f} < fixed mean {mean_f:.0f} over {pairs} "
               f"paired runs; adaptive mean <= explicit bound {ub:.0f}")


def test_c11_scaling_band_across_lambda():
    n, runs = 1000, 50
    obj = onemax_objective(n)
    lambdas = (2, 8, 32, 128, 512)
    ratios = []
    for li, lam in enumerate(lambdas):
        evals = []
        for rep in range(runs):
            seed = derive_run_seed(814, li, rep)
            cfg = AlgoConfig("one-plus-lambda-adaptive", n=n, lam=lam, budget=10**7, seed=seed)
            rec = run_one_plus_lambda(cfg, obj, derive_rng(seed))
            assert rec.hit_target
            evals.append(rec.evaluations_used)
        denom = lam * n / ln_plus(lam) + n * log(n)
        ratios.append(np.mean(evals) / denom)
    band = max(ratios) / min(ratios)
    assert band < 5.0
    report(11, f"adaptive EA, lambda in {lambdas}: mean/(lam n/ln+ lam + n ln n) "
               f"spans factor {band:.2f} < 5")


def test_c12_leadingones_linear_speedup_regime():
    n, runs = 150, 20
    obj = leadingones_objective(n)
    stats = {}
    for li, lam in enumerate((1, n)):
        evals, gens = [], []
        for rep in range(runs):
            seed = derive_run_seed(815, li, rep)
            cfg = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, budget=10**8, seed=seed)
            rec = run_one_plus_lambda(cfg, obj, derive_rng(seed))
            assert rec.hit_target
            evals.append(rec.evaluations_used)
            gens.append(rec.generations_used)
        stats[lam] = (np.mean(evals), np.mean(gens))
    evals_factor = stats[n][0] / stats[1][0]
    gens_factor = stats[1][1] / stats[n][1]
    assert evals_factor <= 8.0
    assert gens_factor >= 10.0
    report(12, f"leadingones n=150: evaluations at lambda=n within factor "
               f"{evals_factor:.2f} of lambda=1; generations {gens_factor:.0f}x fewer")


def test_c13_objective_correctness():
    # closed form == clause enumeration on every point at n = 12
    for v in range(1 << 12):
        x = BitString(12, v)
        assert maxsat_hard_count(x) == maxsat_hard_enum_count(x)

    # bit-flip symmetry, exhaustive at n = 16
    n = 16
    part = gen_partition_random(n, "uniform", seed=13)
    g = gen_two_cliques(n)
    for v in range(1 << (n - 1)):
        x = BitString(n, v)
        xc = x.complement()
        assert twomax(x) == twomax(xc)
        assert hiff(x) == hiff(xc)
        assert bichromatic_edges(g, x) == bichromatic_edges(g, xc)
        assert partition_makespan(part, x) == partition_makespan(part, xc)

    # local-optima scans match the closed-form characterisations
    def member_values(target, dim):
        return {v for v in range(1 << dim) if target.contains(BitString(dim, v))}

    jump = make_objective("jump", 8, k=2)
    ring = {v for v in range(1 << 8) if bin(v).count("1") == 6} | {255}
    assert member_values(local_optima(jump), 8) == ring

    jump12 = make_objective("jump", 12, k=3)
    ring12 = {v for v in range(1 << 12) if bin(v).count("1") == 9} | {(1 << 12) - 1}
    assert member_values(local_optima(jump12), 12) == ring12

    maxsat = make_objective("maxsat-hard", 5)
    singles = {1 << i for i in range(5)} | {31}
    assert member_values(local_optima(maxsat), 5) == singles

    cliques = make_objective("two-cliques-mincut", 6)
    lone = {1 << i for i in range(6)} | {63 ^ (1 << i) for i in range(6)}
    assert member_values(local_optima(cliques), 6) == lone | {0b111000, 0b000111}

    report(13, "maxsat closed form == enumeration at n=12; bit-flip symmetry "
               "exhaustive at n=16; local-optima scans match characterisations")


def test_c14_unbiasedness():
    stats = pytest.importorskip("scipy.stats")
    n, samples = 8, 1_000_000
    rng = derive_rng(816)
    x = BitString.from_str("10110100")
    for r in (1, 2, 3):
        sphere = comb(n, r)
        counts = np.zeros(1 << n, dtype=np.int64)
        op = flip_exact(r)
        for _ in range(samples):
            counts[apply(op, x, rng).value] += 1
        occupied = np.flatnonzero(counts)
        assert len(occupied) == sphere
        observed = counts[occupied]
        expected = samples / sphere
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        critical = stats.chi2.ppf(1 - 1e-3, df=sphere - 1)
        assert chi2 < critical, f"r={r}: chi2={chi2:.1f} >= {critical:.1f}"

    # conjugation invariance, exact distributions at n = 6
    from parallel_ea.variation import single_bit, standard_mutation
    from references import exact_distribution

    x6 = BitString.from_str("101100")
    perm = (3, 0, 5, 1, 4, 2)
    mask = 0b011010

    def conj(v):
        out = 0
        for i in range(6):
            out |= ((v >> i) & 1) << perm[i]
        return out ^ mask

    for op in (flip_exact(2), standard_mutation(0.3), single_bit()):
        base = exact_distribution(op, x6)
        moved = exact_distribution(op, BitString(6, conj(x6.value)))
        assert moved == {conj(v): p for v, p in base.items()}

    report(14, "flip-exact-r uniform on spheres (chi-square at 1e-3, r in {1,2,3}, "
               "10^6 samples); conjugation invariance exact at n=6")
