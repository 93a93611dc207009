import math

import numpy as np
import pytest

from parallel_ea import algorithms
from parallel_ea.algorithms import (
    AlgoConfig,
    ContractViolationError,
    PotentialTracker,
    RunRecord,
    adaptive_rate,
    make_best_so_far_policy,
    run_generic_parallel,
    run_one_plus_lambda,
    run_rls,
)
from parallel_ea.bitstring import BitString, random_bitstring
from parallel_ea.objectives import make_objective, onemax_objective
from parallel_ea.rng import derive_rng, derive_run_seed
from parallel_ea.variation import standard_mutation


def fixed_cfg(n, lam, budget=10**8, seed=0, p=None):
    return AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, p=p, budget=budget, seed=seed)


# ----------------------------------------------------------- adaptive rate

def test_adaptive_rate_examples():
    # i = n: ln(en/n) = 1
    assert adaptive_rate(100, 100, 8) == pytest.approx(max(math.log(8), 1.0) / 100)
    assert adaptive_rate(50, 100, 1) == pytest.approx(1 / 100)  # ln 1 = 0
    assert adaptive_rate(100, 100, math.e**4) == pytest.approx(0.04)


def test_adaptive_rate_range_and_monotonicity():
    n = 200
    for lam in (3, 16, 1024):
        ps = [adaptive_rate(i, n, lam) for i in range(1, n + 1)]
        assert all(a <= b + 1e-15 for a, b in zip(ps, ps[1:]))
        assert all(1 / n <= p <= max(1.0, math.log(lam)) / n + 1e-15 for p in ps)


def test_adaptive_rate_errors():
    with pytest.raises(ValueError):
        adaptive_rate(0, 100, 8)
    with pytest.raises(ValueError):
        adaptive_rate(101, 100, 8)
    with pytest.raises(ValueError):
        adaptive_rate(5, 100, 0)


# ------------------------------------------------------------ config rules

def test_config_validation():
    with pytest.raises(ValueError):
        AlgoConfig("one-plus-lambda-fixed", n=10, lam=0)
    with pytest.raises(ValueError):
        AlgoConfig("one-plus-lambda-fixed", n=10, lam=4, budget=3)
    with pytest.raises(ValueError):
        AlgoConfig("one-plus-lambda-fixed", n=10, lam=1, p=1.5)
    with pytest.raises(ValueError):
        AlgoConfig("simulated-annealing", n=10)
    with pytest.raises(ValueError, match="rls is sequential"):
        AlgoConfig("rls", n=10, lam=2)
    for algorithm in ("rls", "one-plus-lambda-adaptive", "generic-parallel"):
        with pytest.raises(ValueError, match="p applies to"):
            AlgoConfig(algorithm, n=10, p=0.1)


# ---------------------------------------------------------- (1+lambda) EA

def test_forced_start_at_optimum():
    obj = onemax_objective(30)
    rec = run_one_plus_lambda(fixed_cfg(30, 8), obj, initial=BitString.ones(30))
    assert rec.hit_target
    assert rec.first_hit_evaluation == 1
    assert rec.evaluations_used == 1
    assert rec.generations_used == 0


def test_evaluation_accounting():
    obj = make_objective("jump", 14, k=3)  # target rarely hit: budget exhausts
    cfg = fixed_cfg(14, 5, budget=104, seed=3)
    rec = run_one_plus_lambda(cfg, obj)
    if not rec.hit_target:
        assert rec.first_hit_evaluation is None
        assert rec.evaluations_used == 5 * (rec.generations_used + 1)
        assert rec.evaluations_used <= 104
    else:
        assert rec.first_hit_evaluation <= rec.evaluations_used


def test_determinism():
    obj = onemax_objective(60)
    cfg = fixed_cfg(60, 6, seed=11)
    a = run_one_plus_lambda(cfg, obj, derive_rng(11))
    b = run_one_plus_lambda(cfg, obj, derive_rng(11))
    assert a == b


def test_selection_invariant_best_fitness_monotone():
    traj = []
    obj = onemax_objective(50)
    run_one_plus_lambda(fixed_cfg(50, 4, seed=2), obj,
                        on_generation=lambda g, q, x, f: traj.append(f))
    assert traj
    assert all(a <= b for a, b in zip(traj, traj[1:]))


def test_selection_invariant_minimise():
    traj = []
    obj = make_objective("two-cliques-mincut", 12)
    run_one_plus_lambda(fixed_cfg(12, 4, seed=5, budget=4000), obj,
                        on_generation=lambda g, q, x, f: traj.append(f))
    assert all(a >= b for a, b in zip(traj, traj[1:]))


@pytest.mark.parametrize("cfg", [fixed_cfg(40, 3, seed=4), fixed_cfg(40, 1, seed=4),
                                 AlgoConfig("rls", n=40, budget=10**6, seed=4),
                                 AlgoConfig("one-plus-lambda-adaptive", n=40, lam=16, seed=4)],
                         ids=["fixed-3", "fixed-1", "rls", "adaptive-16"])
def test_elitist_hook_sees_offspring_and_parent(cfg):
    obj = onemax_objective(40)
    calls = []
    rec = run_one_plus_lambda(cfg, obj, derive_rng(4),
                              on_generation=lambda g, q, x, f: calls.append((g, list(q), x, f)))
    assert [g for g, *_ in calls] == list(range(rec.generations_used + 1))
    prev = None
    for g, queried, x, fx in calls:
        assert len(queried) == cfg.lam
        assert x in queried or x == prev
        assert fx == obj.evaluate(x)
        prev = x
    assert calls[-1][3] == rec.best_fitness


def test_one_plus_one_matches_reference_implementation():
    # independent minimal (1+1) EA on raw numpy arrays as the oracle
    n, runs = 100, 100

    def reference(seed):
        rng = derive_rng(1000, seed)
        x = rng.integers(0, 2, n)
        fx = x.sum()
        evals = 1
        while fx < n:
            y = x.copy()
            flips = rng.random(n) < 1.0 / n
            y[flips] ^= 1
            fy = y.sum()
            evals += 1
            if fy >= fx:
                x, fx = y, fy
        return evals

    obj = onemax_objective(n)
    ours = []
    ref = []
    for rep in range(runs):
        seed = derive_run_seed(2000, rep)
        rec = run_one_plus_lambda(fixed_cfg(n, 1, seed=seed), obj, derive_rng(seed))
        assert rec.hit_target
        ours.append(rec.evaluations_used)
        ref.append(reference(rep))
    anchor = math.e * n * math.log(n)
    assert 0.5 * anchor <= np.mean(ours) <= 2.0 * anchor
    assert 0.5 * anchor <= np.mean(ref) <= 2.0 * anchor
    assert 0.7 <= np.mean(ours) / np.mean(ref) <= 1.4


def test_adaptive_rate_follows_parent_zero_count(monkeypatch):
    # jump-3 at n=100: a parent with 10 zeros has fitness 93, so a rate
    # read off the fitness would be the one for 7 zeros
    n, lam = 100, 64
    assert adaptive_rate(10, n, lam) != adaptive_rate(7, n, lam)
    obj = make_objective("jump", n, k=3)
    parent = BitString(n, ((1 << n) - 1) ^ ((1 << 10) - 1))
    rates = []
    real_apply = algorithms.apply

    def recording_apply(op, x, rng):
        rates.append(op.p)
        return real_apply(op, x, rng)

    monkeypatch.setattr(algorithms, "apply", recording_apply)
    cfg = AlgoConfig("one-plus-lambda-adaptive", n=n, lam=lam, budget=1 + lam, seed=0)
    rec = run_one_plus_lambda(cfg, obj, derive_rng(0), initial=parent)
    assert rec.generations_used == 1
    assert rates == [adaptive_rate(10, n, lam)] * lam


@pytest.mark.parametrize("name, n", [("leadingzeros", 10), ("two-cliques-mincut", 10),
                                     ("knapsack-hard", 11), ("partition", 10)])
def test_adaptive_variant_refuses_target_without_all_ones(name, n):
    obj = make_objective(name, n)
    cfg = AlgoConfig("one-plus-lambda-adaptive", n=n, lam=4, budget=100, seed=0)
    with pytest.raises(ValueError, match=repr(name)):
        run_one_plus_lambda(cfg, obj)


def test_adaptive_variant_runs_and_hits():
    obj = onemax_objective(100)
    cfg = AlgoConfig("one-plus-lambda-adaptive", n=100, lam=16, budget=10**7, seed=4)
    rec = run_one_plus_lambda(cfg, obj)
    assert rec.hit_target
    assert rec.best_fitness == 100


def test_run_record_rejects_first_hit_after_budget():
    with pytest.raises(ValueError):
        RunRecord(5, 4, True, 1.0, 9, 0)
    assert RunRecord(9, 8, True, 1.0, 9, 0).first_hit_evaluation == 9


# -------------------------------------------------------------------- RLS

def test_rls_steps_change_fitness_by_one():
    obj = onemax_objective(100)
    fits = []
    cfg = AlgoConfig("rls", n=100, lam=1, budget=10**7, seed=9)
    run_rls(cfg, obj, on_generation=lambda g, q, x, f: fits.append(f))
    diffs = {b - a for a, b in zip(fits, fits[1:])}
    assert diffs <= {0, 1}


def test_rls_start_at_optimum():
    obj = onemax_objective(40)
    cfg = AlgoConfig("rls", n=40, lam=1, budget=10**6, seed=1)
    rec = run_rls(cfg, obj, initial=BitString.ones(40))
    assert rec.evaluations_used == 1
    assert rec.hit_target


def test_rls_against_coupon_collector_oracle():
    n, runs = 200, 100

    def oracle(seed):
        # independent level-passage chain: improve w.p. i/n from i zeros
        rng = derive_rng(3000, seed)
        i = int(rng.binomial(n, 0.5))
        t = 1
        while i > 0:
            t += 1
            if rng.random() < i / n:
                i -= 1
        return t

    obj = onemax_objective(n)
    ours, ref = [], []
    for rep in range(runs):
        seed = derive_run_seed(4000, rep)
        cfg = AlgoConfig("rls", n=n, lam=1, budget=10**7, seed=seed)
        rec = run_rls(cfg, obj, derive_rng(seed))
        assert rec.hit_target
        ours.append(rec.evaluations_used)
        ref.append(oracle(rep))
    anchor = n * math.log(n) + 0.58 * n
    assert 0.8 * anchor <= np.mean(ours) <= 1.3 * anchor
    assert 0.85 <= np.mean(ours) / np.mean(ref) <= 1.15


# -------------------------------------------------------- potential tracker

def test_tracker_hits_zero_on_optimum():
    t = PotentialTracker()
    t.update([BitString.ones(12)])
    assert t.s == 0


def test_tracker_monotone():
    rng = derive_rng(6)
    t = PotentialTracker()
    seen = []
    for _ in range(50):
        t.update([random_bitstring(64, rng) for _ in range(4)])
        seen.append(t.s)
    assert all(a >= b for a, b in zip(seen, seen[1:]))
    assert t.trajectory == seen


def test_tracker_initial_batch_concentration():
    # uniform batch at n=1000: s lands a few sigma below n/2
    t = PotentialTracker()
    rng = derive_rng(7)
    t.update([random_bitstring(1000, rng) for _ in range(10)])
    assert 400 <= t.s <= 500


def test_tracker_mirrored_equality():
    rng = derive_rng(8)
    t = PotentialTracker()
    for _ in range(20):
        y = random_bitstring(80, rng)
        t.update([y, y.complement()])
        assert t.s0 == t.s1
        assert t.s <= 40


# --------------------------------------------------------- generic parallel

@pytest.mark.parametrize("name", ["onemax", "partition"])
@pytest.mark.parametrize("mirror", [False, True])
def test_generic_hook_sees_every_round(name, mirror):
    obj = make_objective(name, 12, **({"seed": 3} if name == "partition" else {}))
    lam = 3
    calls = []
    cfg = AlgoConfig("generic-parallel", n=12, lam=lam, budget=150, seed=7)
    policy = make_best_so_far_policy(lam, standard_mutation(1 / 12))
    rec = run_generic_parallel(policy, cfg, obj, mirror=mirror,
                               on_generation=lambda g, q, x, f: calls.append((g, list(q), x, f)))
    assert [g for g, *_ in calls] == list(range(rec.generations_used + 1))
    for g, queried, x, fx in calls:
        assert len(queried) == (2 * lam if mirror else lam)
        if mirror:
            assert queried[lam:] == [y.complement() for y in queried[:lam]]
        assert fx == obj.evaluate(x)
    fits = [f for *_, f in calls]
    assert all(not obj.better(a, b) for a, b in zip(fits, fits[1:]))
    assert fits[-1] == rec.best_fitness


def test_tracker_as_hook_on_adaptive_ea():
    obj = onemax_objective(60)
    cfg = AlgoConfig("one-plus-lambda-adaptive", n=60, lam=8, seed=9)
    tracker = PotentialTracker()
    rec = run_one_plus_lambda(cfg, obj, derive_rng(9), on_generation=tracker)
    assert rec.hit_target
    assert len(tracker.trajectory) == rec.generations_used + 1
    assert all(a >= b for a, b in zip(tracker.trajectory, tracker.trajectory[1:]))
    assert tracker.trajectory[-1] == 0


def test_generic_parallel_lambda1_sequential():
    obj = onemax_objective(30)
    cfg = AlgoConfig("generic-parallel", n=30, lam=1, budget=10**6, seed=12)
    policy = make_best_so_far_policy(1, standard_mutation(1 / 30))
    rec = run_generic_parallel(policy, cfg, obj)
    assert rec.hit_target
    assert rec.evaluations_used == rec.generations_used + 1


def test_generic_parallel_policy_sees_only_past_rounds():
    obj = onemax_objective(20)
    lam = 3
    sizes = []

    def policy(view, rng):
        sizes.append(len(view))
        return [(view.best_index(), standard_mutation(0.05))] * lam

    cfg = AlgoConfig("generic-parallel", n=20, lam=lam, budget=20 * lam, seed=3)
    run_generic_parallel(policy, cfg, obj)
    assert sizes == [lam * (t + 1) for t in range(len(sizes))]


def test_generic_parallel_kept_view_answers_for_its_round():
    obj = onemax_objective(20)
    lam = 3
    kept = []
    seen = []

    def policy(view, rng):
        if not kept:
            kept.append((view, [view.point(i) for i in range(len(view))],
                         [view.fitness(i) for i in range(len(view))], view.best_index()))
        first, points, fits, best = kept[0]
        seen.append(len(view))
        assert len(first) == lam and first.rounds == 1
        assert [first.point(i) for i in range(lam)] == points
        assert [first.fitness(i) for i in range(lam)] == fits
        assert first.best_index() == best == fits.index(max(fits))
        with pytest.raises(ContractViolationError):
            first.point(lam)
        if len(view) > lam:
            with pytest.raises(ContractViolationError):
                first.fitness(len(view) - 1)
        return [(view.best_index(), standard_mutation(0.05))] * lam

    cfg = AlgoConfig("generic-parallel", n=20, lam=lam, budget=10 * lam, seed=3)
    run_generic_parallel(policy, cfg, obj)
    assert len(seen) >= 3 and seen[-1] > lam


def test_generic_best_so_far_follows_min_direction(monkeypatch):
    obj = make_objective("two-cliques-mincut", 16)
    lam = 2
    inner = make_best_so_far_policy(lam, standard_mutation(1 / 16))
    parents, expected = [], []
    real_apply = algorithms.apply

    def recording_apply(op, x, rng):
        parents.append(x)
        return real_apply(op, x, rng)

    def policy(view, rng):
        fits = [view.fitness(i) for i in range(len(view))]
        best = fits.index(min(fits))
        assert view.best_index() == best
        choices = inner(view, rng)
        assert [i for i, _ in choices] == [best] * lam
        expected.extend([view.point(best)] * lam)
        return choices

    monkeypatch.setattr(algorithms, "apply", recording_apply)
    cfg = AlgoConfig("generic-parallel", n=16, lam=lam, budget=200, seed=5)
    run_generic_parallel(policy, cfg, obj)
    assert parents == expected and len(parents) >= lam


def test_generic_parallel_contract_violation():
    obj = onemax_objective(16)
    cfg = AlgoConfig("generic-parallel", n=16, lam=2, budget=100, seed=1)

    def bad_index(view, rng):
        return [(len(view), standard_mutation(0.1))] * 2

    with pytest.raises(ContractViolationError):
        run_generic_parallel(bad_index, cfg, obj)

    def bad_count(view, rng):
        return [(0, standard_mutation(0.1))]

    with pytest.raises(ContractViolationError):
        run_generic_parallel(bad_count, cfg, obj)


def test_generic_parallel_mirrored_potentials_coincide():
    obj = make_objective("twomax", 40)

    class CheckedTracker(PotentialTracker):
        def update(self, batch):
            super().update(batch)
            assert self.s0 == self.s1
            return self

    tracker = CheckedTracker()
    cfg = AlgoConfig("generic-parallel", n=40, lam=4, budget=400, seed=21)
    policy = make_best_so_far_policy(4, standard_mutation(1 / 40))
    run_generic_parallel(policy, cfg, obj, mirror=True, on_generation=tracker)
    assert tracker.s is not None
    assert tracker.s <= 20


def test_generic_best_so_far_matches_one_plus_lambda_distribution():
    stats = pytest.importorskip("scipy.stats")
    n, lam, runs = 50, 8, 60
    obj = onemax_objective(n)
    ea, generic = [], []
    for rep in range(runs):
        seed_a = derive_run_seed(7000, rep)
        rec = run_one_plus_lambda(fixed_cfg(n, lam, seed=seed_a), obj, derive_rng(seed_a))
        ea.append(rec.evaluations_used)
        seed_b = derive_run_seed(8000, rep)
        cfg = AlgoConfig("generic-parallel", n=n, lam=lam, budget=10**7, seed=seed_b)
        policy = make_best_so_far_policy(lam, standard_mutation(1 / n))
        rec2 = run_generic_parallel(policy, cfg, obj, derive_rng(seed_b))
        generic.append(rec2.evaluations_used)
    p_value = stats.mannwhitneyu(ea, generic).pvalue
    assert p_value > 1e-3
