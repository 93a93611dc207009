"""The generic lambda-parallel runner: pinned runs, first hits, clones and
chain-table scoring.

`run_generic_parallel` reads a clone's fitness, and under mirroring its
complement, off the archive, and scores the points of an objective that
declares a chain (onemax, twomax and leadingones here) off its state
tables.  The digest below was taken before either shortcut existed, so the
records and hook calls of the grid are those of a runner that evaluated
every offspring and built every complement.
"""

import dataclasses
import hashlib

import pytest

from parallel_ea import algorithms
from parallel_ea.algorithms import AlgoConfig, make_best_so_far_policy, run_generic_parallel
from parallel_ea.bitstring import BitString, random_bitstring
from parallel_ea.objectives.base import CHAIN, GLOBAL_OPTIMA, Objective, TargetSet
from parallel_ea.objectives.registry import make_objective
from parallel_ea.rng import derive_rng, derive_run_seed
from parallel_ea.variation import flip_exact, standard_mutation

N = 12
OBJECTIVES = ("onemax", "twomax", "leadingones", "partition")
LAMBDAS = (1, 2, 5, 8)
OPERATORS = (standard_mutation(1 / N), standard_mutation(0.2), flip_exact(1), flip_exact(3))

# sha256 over the grid's run records and hook calls, computed with the
# runner that evaluated every offspring and complemented every query
PINNED = "2b150f9bf56982a745cd1c8dc55ade1ae070d510e82603be95a54cff4fc5b445"


def random_index_policy(lam, op):
    """Parents drawn uniformly from the whole view: the initial batch, and
    the paid and free halves of earlier mirrored rounds."""

    def policy(view, rng):
        return [(int(rng.next_double() * len(view)), op) for _ in range(lam)]

    return policy


def tournament_policy(lam, op):
    """Each parent the one with the larger fitness of two uniform indices,
    the first on a tie: the choices read the archived fitness of clones
    and complements."""

    def policy(view, rng):
        choices = []
        for _ in range(lam):
            i, j = int(rng.next_double() * len(view)), int(rng.next_double() * len(view))
            choices.append((j if view.fitness(j) > view.fitness(i) else i, op))
        return choices

    return policy


POLICIES = {"best": make_best_so_far_policy, "random": random_index_policy,
            "tournament": tournament_policy}


def grid():
    """(objective, config, policy, mirror) for every run of the pinned grid.
    The budget, 40 lambda + 3, ends most random-index runs and some
    best-so-far runs before they hit, and leaves part of a round unused."""
    objs = {name: make_objective(name, N, **({"seed": 3} if name == "partition" else {}))
            for name in OBJECTIVES}
    k = 0
    for name in OBJECTIVES:
        for lam in LAMBDAS:
            for mirror in (False, True):
                for op in OPERATORS:
                    for make_policy in POLICIES.values():
                        cfg = AlgoConfig("generic-parallel", n=N, lam=lam, budget=40 * lam + 3,
                                         seed=derive_run_seed(1919, k))
                        k += 1
                        yield objs[name], cfg, make_policy(lam, op), mirror


def grid_digest() -> str:
    h = hashlib.sha256()

    def hook(g, queried, x, fx):
        h.update(repr((g, [y.value for y in queried], x.value, fx)).encode())

    for obj, cfg, policy, mirror in grid():
        rec = run_generic_parallel(policy, cfg, obj, mirror=mirror, on_generation=hook)
        h.update(repr(dataclasses.astuple(rec)).encode())
    return h.hexdigest()


def test_grid_matches_pinned_digest():
    assert grid_digest() == PINNED


def test_grid_with_copied_clones_matches_pinned_digest(monkeypatch):
    """Taking a clone as the parent itself is only a shortcut: an equal copy
    goes the long way, evaluated and complemented, to the same runs."""
    real_apply = algorithms.apply

    def copying_apply(op, x, rng):
        y = real_apply(op, x, rng)
        return BitString(y.n, y.value) if y is x else y

    monkeypatch.setattr(algorithms, "apply", copying_apply)
    assert grid_digest() == PINNED


# ------------------------------------------------------------ first hits

STUB_N, STUB_LAM, STUB_SEED = 8, 4, 11


def stub_run(offspring, members):
    """The first-hit evaluation of a mirrored run of STUB_LAM offspring per
    round on n = 8 bits whose round-1 offspring are the values `offspring`,
    in order, and whose target holds the values `members`."""
    drawn = iter(offspring)
    target = TargetSet(GLOBAL_OPTIMA, lambda x: x.value in members, len(members))
    obj = Objective("stub", STUB_N, BitString.count_ones, target)
    cfg = AlgoConfig("generic-parallel", n=STUB_N, lam=STUB_LAM, budget=100, seed=STUB_SEED)
    policy = make_best_so_far_policy(STUB_LAM, flip_exact(1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "apply", lambda op, x, rng: BitString(STUB_N, next(drawn)))
        rec = run_generic_parallel(policy, cfg, obj, mirror=True)
    assert rec.hit_target and rec.generations_used == 1
    return rec.first_hit_evaluation


def spare_values():
    """Four values of n = 8 bits that, with their complements, lie outside
    the stub run's initial batch and its complements."""
    rng = derive_rng(STUB_SEED)
    taken = {random_bitstring(STUB_N, rng).value for _ in range(STUB_LAM)}
    taken |= {v ^ 0xFF for v in taken}
    out = []
    for v in range(256):
        if v not in taken and v ^ 0xFF not in taken and v ^ 0xFF not in out:
            out.append(v)
    return out[:4]


def test_paid_member_after_a_free_member_reports_its_position():
    a, b, c, d = spare_values()
    # a's complement is free and a member, b is paid at position 3 and a member
    assert stub_run([a, c, b, d], {a ^ 0xFF, b}) == STUB_LAM + 3


def test_free_member_alone_reports_the_whole_round():
    a, b, c, d = spare_values()
    assert stub_run([a, b, c, d], {c ^ 0xFF}) == STUB_LAM + STUB_LAM


def test_first_of_several_paid_members_wins():
    a, b, c, d = spare_values()
    assert stub_run([a, b, c, d], {d, b, a ^ 0xFF}) == STUB_LAM + 2


# ---------------------------------------------------------------- clones

@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("name", ["onemax", "partition"])
@pytest.mark.parametrize("lam", [1, 3])
@pytest.mark.parametrize("make_policy", POLICIES.values(), ids=POLICIES.keys())
def test_clones_are_not_evaluated(mirror, name, lam, make_policy, monkeypatch):
    base = make_objective(name, N, **({"seed": 3} if name == "partition" else {}))
    evaluated, checked, clones = [], [], []

    def evaluate(x):
        evaluated.append(x)
        return base.evaluate(x)

    def contains(x):
        checked.append(x)
        return base.target.contains(x)

    real_apply = algorithms.apply

    def counting_apply(op, x, rng):
        y = real_apply(op, x, rng)
        clones.append(y is x)
        return y

    monkeypatch.setattr(algorithms, "apply", counting_apply)
    t = base.target
    obj = Objective(base.name, N, evaluate, TargetSet(t.kind, contains, t.size_bound),
                    base.direction)
    queried = []
    cfg = AlgoConfig("generic-parallel", n=N, lam=lam, budget=300, seed=5)
    rec = run_generic_parallel(make_policy(lam, standard_mutation(1 / N)), cfg, obj, mirror=mirror,
                               on_generation=lambda g, q, x, fx: queried.extend(q))
    slots = sum(clones) * (2 if mirror else 1)
    assert sum(clones) > 10
    assert len(queried) == rec.evaluations_used * (2 if mirror else 1)
    assert len(evaluated) == len(queried) - slots
    # every point is evaluated and checked at most once: a clone is its
    # archived parent, and a clone's complement the archived complement
    assert len({id(x) for x in evaluated}) == len(evaluated)
    assert len({id(x) for x in checked}) == len(checked)
    assert {id(x) for x in checked} <= {id(x) for x in evaluated}


# ------------------------------------------------------- chain-table scoring

# every objective that declares a chain, with its parameters
CHAINS = {"onemax": {}, "twomax": {}, "twomax-prime": {}, "leadingones": {}, "leadingzeros": {},
          "jump": {"k": 2}, "cliff": {"d": 2}}


def recorded_runs(obj, mirror):
    """The record and hook calls of a run for each policy and lambda."""
    runs = []
    for lam in (1, 5):
        for k, make_policy in enumerate(POLICIES.values()):
            calls = []
            cfg = AlgoConfig("generic-parallel", n=N, lam=lam, budget=100 * lam + 3,
                             seed=derive_run_seed(2808, lam, k))
            rec = run_generic_parallel(
                make_policy(lam, standard_mutation(1 / N)), cfg, obj, mirror=mirror,
                on_generation=lambda g, q, x, fx: calls.append((g, [y.value for y in q], x.value, fx)))
            runs.append((rec, calls))
    return runs


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("name", list(CHAINS))
def test_chain_tables_score_as_evaluate(name, mirror):
    """On an objective that declares a chain, the runner reads each point's
    fitness and membership off the state tables, built with n + 1 calls of
    evaluate; `with_target` drops the declaration, and the runs that
    evaluate every point are the same."""
    base = make_objective(name, N, **CHAINS[name])
    calls = []

    def evaluate(x):
        calls.append(x)
        return base.evaluate(x)

    chained = dataclasses.replace(base, evaluate=evaluate)
    plain = chained.with_target(chained.target)
    assert CHAIN in chained.metadata and CHAIN not in plain.metadata
    runs = recorded_runs(chained, mirror)
    assert len(calls) == N + 1
    assert any(rec.hit_target for rec, _ in runs) and not all(rec.hit_target for rec, _ in runs)
    assert recorded_runs(plain, mirror) == runs
