"""The idle loop of the leading-ones chain.

At lambda <= 2 a leading-ones chain run with no hook hands each stretch of
generations that change nothing to `variation.leading_ones_idle`, which
reads their doubles one at a time, counts them, and returns the generation
that ends the stretch.  With a hook the run draws every generation.  The
two must give the same runs: the same records, the same doubles read and
the same next double.  The loop must also decide each double as the
sampler `leading_ones_counts` does.
"""

import dataclasses
import hashlib
import itertools
from math import expm1, log1p
from types import SimpleNamespace

import numpy as np
import pytest

from parallel_ea import cli
from parallel_ea.algorithms import AlgoConfig, run_one_plus_lambda
from parallel_ea.objectives.base import CHAIN, TargetSet
from parallel_ea.objectives.registry import make_objective
from parallel_ea.rng import BLOCK, derive_rng
from parallel_ea.variation import (
    leading_ones_counts,
    leading_ones_idle,
    single_bit,
    standard_mutation,
)

PINNED_SWEEPS = {
    "leadingones-fixed": ("--objective leadingones --n 80 --lambdas 1,2,5",
                          "1f095b4efb50027c7d216bf5c2b617669b76710139b929c339b0e665a3dc9008"),
    "leadingones-rls": ("--objective leadingones --n 80 --lambdas 1 --algo rls",
                        "cfce09108d80fec0231802dc3ee0bb0e4dcec6373b4b94e85b221a0ce706ee8b"),
    "leadingzeros-fixed": ("--objective leadingzeros --n 80 --lambdas 1,2,5 --p 2/n",
                           "492d1da6f6e50df3d7144621a8e69149446d1202215dd05864377c05a00e1e95"),
    "leadingzeros-rls": ("--objective leadingzeros --n 80 --lambdas 1 --algo rls",
                         "5a359b7d858891e01dec689eac8bf88cb939d40b19b483a29d70af63c98fbee1"),
    "onemax-fixed": ("--objective onemax --n 60 --lambdas 1,2,5",
                     "45a837284a71015f11b05b5f26fae41dfa4b3f1aabfbf5fd54e4c5e92d533244"),
    "onemax-adaptive": ("--objective onemax --n 60 --lambdas 1,2,5 --algo one-plus-lambda-adaptive",
                        "4df708cbbf37bbfed90309987d4a7cad7e3b657c370de7991f3187843982497b"),
    "onemax-rls": ("--objective onemax --n 60 --lambdas 1 --algo rls",
                   "9710eebd16286a6f1865b510a612fe8398f7023fcdcf4783c9c62af1008e65f6"),
    "twomax-fixed": ("--objective twomax --n 60 --lambdas 1,2,5",
                     "1a6f8d75857e618fc31facbc2c3dd1f851a2b53099d7eee4311d68323e3778cb"),
    "twomax-adaptive": ("--objective twomax --n 60 --lambdas 1,2,5 --algo one-plus-lambda-adaptive",
                        "6ba5e7b6d5b260cf05cbc8f6ace5746a398e8c9d1b2b349a88215105c9ffa345"),
    "twomax-rls": ("--objective twomax --n 60 --lambdas 1 --algo rls",
                   "e77f23ba943dcec6f3d4122ed7cb9fd31cd471e60510e5313aadfca5dee5657e"),
    # most jump runs end at the budget, part way through a buffer
    "jump-fixed": ("--objective jump --n 24 --param k=2 --lambdas 1,2,5 --budget 1999",
                   "293be53a9ad899188dcb7755f493ee1abb3eb9fb934bbf5831e12750811fcefe"),
    "jump-adaptive": ("--objective jump --n 24 --param k=3 --lambdas 1,2,5 "
                      "--algo one-plus-lambda-adaptive --budget 4999",
                      "36d4d35832d5ead1943f908ea2382e7fdbafb711fa483b5d5b5707d213e8f8ae"),
    "jump-rls": ("--objective jump --n 24 --param k=2 --lambdas 1 --algo rls --budget 4999",
                 "d03d96026e047bd2506db1a8a0cba169ce661ef16248d7023a986cc501068f21"),
}


@pytest.mark.parametrize("case", list(PINNED_SWEEPS))
def test_sweep_csv_is_pinned(tmp_path, capsys, case):
    args, digest = PINNED_SWEEPS[case]
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *args.split(), "--reps", "4", "--seed", "1808", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ------------------------------------------ the same runs, generation by generation

def reads_of(rng) -> list[int]:
    """A one-item counter of the `next_double()` calls made on rng from now on."""
    calls = [0]
    draw = rng.next_double

    def counted():
        calls[0] += 1
        return draw()

    rng.next_double = counted
    return calls


def with_idle(obj, idle):
    """obj with its chain's idle loop replaced by `idle`."""
    chain = dataclasses.replace(obj.metadata[CHAIN], idle=idle)
    return dataclasses.replace(obj, metadata={**obj.metadata, CHAIN: chain})


def looped_and_drawn(cfg, obj, key):
    """The run of cfg on obj from derive_rng(*key), without a hook, which
    hands its idle stretches to the loop, and with one, which draws every
    generation: for each, the record and the stream's next double and bit
    generator state after it; for the first, the idle generations the loop
    counted; for the second, the hook's calls, the next_double() calls made
    before each, and how often the loop was called."""
    loop = obj.metadata[CHAIN].idle
    idled, calls = [0], [0]

    def counted(*args):
        idle, states = loop(*args)
        idled[0] += idle
        calls[0] += 1
        return idle, states

    obj = with_idle(obj, counted)
    rng = derive_rng(*key)
    record = run_one_plus_lambda(cfg, obj, rng)
    looped = SimpleNamespace(record=record, after=(rng.next_double(), rng.bit_generator.state),
                             idled=idled[0])
    rng = derive_rng(*key)
    reads = reads_of(rng)
    seen, counts = [], []

    def hook(g, queried, x, fx):
        seen.append((g, queried, x, fx))
        counts.append(reads[0])

    calls[0] = 0
    record = run_one_plus_lambda(cfg, obj, rng, on_generation=hook)
    drawn = SimpleNamespace(record=record, after=(rng.next_double(), rng.bit_generator.state),
                            seen=seen, counts=counts, loop_calls=calls[0])
    return looped, drawn


def assert_same_runs(looped, drawn, loop_ran: bool = True):
    assert looped.record == drawn.record
    assert looped.after == drawn.after
    # the hook saw every generation, the last with the run's best
    assert [g for g, *_ in drawn.seen] == list(range(drawn.record.generations_used + 1))
    assert drawn.seen[-1][3] == drawn.record.best_fitness
    assert drawn.loop_calls == 0
    if loop_ran:
        assert looped.idled > 0


SAME_RUN_CASES = [(name, algorithm, lam, p)
                  for name in ("leadingones", "leadingzeros")
                  for algorithm, lam in (("one-plus-lambda-fixed", 1), ("one-plus-lambda-fixed", 2), ("rls", 1))
                  for p in ((None, 0.2) if algorithm != "rls" else (None,))]


@pytest.mark.parametrize("name, algorithm, lam, p", SAME_RUN_CASES)
def test_scan_gives_the_same_runs(name, algorithm, lam, p):
    n = 40
    obj = make_objective(name, n)
    for rep in range(3):
        cfg = AlgoConfig(algorithm, n=n, lam=lam, p=p, budget=30_000 + rep, seed=rep)
        assert_same_runs(*looped_and_drawn(cfg, obj, (1801, rep)))


@pytest.mark.parametrize("name, algorithm, lam", [("leadingones", "one-plus-lambda-fixed", 3),
                                                  ("onemax", "one-plus-lambda-fixed", 1),
                                                  ("twomax", "rls", 1),
                                                  ("jump", "one-plus-lambda-adaptive", 2)])
def test_scan_runs_only_on_leading_ones_at_small_lambda(name, algorithm, lam):
    def refused(*args):
        raise AssertionError("the idle loop ran")

    n = 40
    obj = make_objective(name, n, **({"k": 3} if name == "jump" else {}))
    # only the leading-ones chains declare the loop, and the runner leaves
    # it out from lambda = 3 on
    declared = obj.metadata[CHAIN].idle is not None
    assert declared == (name == "leadingones")
    if declared:
        obj = with_idle(obj, refused)
    cfg = AlgoConfig(algorithm, n=n, lam=lam, budget=5000, seed=0)
    run_one_plus_lambda(cfg, obj, derive_rng(1807))


@pytest.mark.parametrize("algorithm, lam", [("one-plus-lambda-fixed", 1), ("one-plus-lambda-fixed", 2),
                                            ("rls", 1)])
def test_scan_stops_at_the_same_budget(algorithm, lam):
    # leadingones at n = 100 needs about 8600 evaluations; these budgets end
    # the runs inside long stretches of idle generations
    n = 100
    obj = make_objective("leadingones", n)
    for budget in range(2990, 3003):
        cfg = AlgoConfig(algorithm, n=n, lam=lam, budget=budget, seed=budget)
        looped, drawn = looped_and_drawn(cfg, obj, (1802, budget))
        assert_same_runs(looped, drawn)
        record = drawn.record
        assert not record.hit_target and budget - lam < record.evaluations_used <= budget


def stub_objective(n: int, sign: int = -1, member=None):
    """A stub on the leading-ones chain with fitness sign * l: under -1 a
    parent at l = 0 stays and every improver ranks below it.  The target is
    the state `member`, or l = n."""
    obj = make_objective("leadingones", n)
    state = obj.metadata[CHAIN].state
    target = obj.target if member is None else TargetSet("stub", lambda x: state(x) == member, 1)
    return dataclasses.replace(obj, evaluate=lambda x: sign * state(x), target=target)


@pytest.mark.parametrize("lam", [1, 2])
def test_scan_stops_at_the_same_budget_on_a_refill_boundary(lam):
    # a run reads one double per offspring, plus tie doubles and an
    # improver's free riders, so a budget in this range ends some runs with
    # their last generation's doubles ending exactly at the end of the
    # first buffer
    n = 20
    obj = stub_objective(n)
    ended_on_boundary = 0
    for budget in range(BLOCK // 2, BLOCK + 16):
        cfg = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, budget=budget, seed=budget)
        looped, drawn = looped_and_drawn(cfg, obj, (1803, budget))
        assert_same_runs(looped, drawn, loop_ran=False)
        ended_on_boundary += drawn.counts[-1] == BLOCK
    assert ended_on_boundary >= 1


def test_tie_double_just_past_the_buffer_end():
    # lambda = 2 at l = 0 under -l: mostly both offspring stay, so many
    # generations read a tie double; in some, the two offspring take the
    # last two doubles of a buffer and the tie the first of the next
    n, lam = 20, 2
    obj = stub_objective(n)
    straddled = 0
    for rep in range(6):
        cfg = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, budget=lam * 2000 + 1, seed=rep)
        looped, drawn = looped_and_drawn(cfg, obj, (1804, rep))
        assert_same_runs(looped, drawn)
        reads = drawn.counts
        straddled += sum(a % BLOCK == BLOCK - 2 and b - a == 3 for a, b in zip(reads, reads[1:]))
    assert straddled >= 1


@pytest.mark.parametrize("lam", [1, 2])
@pytest.mark.parametrize("sign, member", [(-1, 2), (1, 0)])
def test_member_below_the_parent_ends_the_run(sign, member, lam):
    # the stub's target member ranks below the parent, so it ends the run
    # without becoming the parent: under a fitness of -l an improver to
    # l = 2, which reads more doubles than its own, and under l a cut to 0
    n = 20
    obj = stub_objective(n, sign, member)
    below = 0
    for rep in range(8):
        cfg = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, budget=4000, seed=rep)
        looped, drawn = looped_and_drawn(cfg, obj, (1805, rep))
        assert_same_runs(looped, drawn, loop_ran=False)
        below += drawn.record.hit_target and drawn.record.best_fitness > sign * member
    assert below >= 4


@pytest.mark.parametrize("lam", [1, 2])
def test_offspring_as_good_as_the_parent_moves_it(lam):
    # on the plateau of max(l, 12) a cut offspring with the parent's fitness
    # becomes the parent, so its generation is not idle
    n = 20
    leadingones = make_objective("leadingones", n)
    state = leadingones.metadata[CHAIN].state
    obj = dataclasses.replace(leadingones, evaluate=lambda x: max(state(x), 12))
    for rep in range(6):
        cfg = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, budget=3000, seed=rep)
        looped, drawn = looped_and_drawn(cfg, obj, (1806, rep))
        assert_same_runs(looped, drawn)
        assert len({state(x) for _, _, x, _ in drawn.seen}) > 2  # the parent drifts


# ------------------------------------------------- the loop at the thresholds

def doubles_around(thresholds, steps: int = 3) -> np.ndarray:
    """Each threshold and the `steps` doubles on either side of it, in [0, 1)."""
    out = []
    for t in thresholds:
        below = above = t
        out.append(t)
        for _ in range(steps):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
            out += [below, above]
    u = np.array(out)
    return u[(u >= 0.0) & (u < 1.0)]


def stream(*doubles):
    """A stand-in stream whose next_double() hands out `doubles`, then 0.5."""
    return SimpleNamespace(next_double=itertools.chain(doubles, itertools.repeat(0.5)).__next__)


@pytest.mark.parametrize("n, p", [(7, None), (7, 1 / 7), (150, None), (150, 1 / 150), (150, 0.3),
                                  (1000, 1 / 1000)])
def test_leading_ones_map_at_its_thresholds(n, p):
    # f = j exactly when u = 1 - (1 - p)^j, so the doubles around each
    # threshold put the first-flip value on both sides of every integer j;
    # with at most one idle generation, the loop's verdict on a generation
    # of one offspring, or of two that read the same double, shows in what
    # it returns
    op = single_bit() if p is None else standard_mutation(p)
    thresholds = [j / n if p is None else -expm1(j * log1p(-p)) for j in range(n + 1)]
    rising = [float(s) for s in range(n + 1)]  # every cut ranks below the parent
    flat = [0.0] * (n + 1)  # every cut ranks with the parent
    # two offspring in one state tie, and their tie double comes before
    # the doubles of the generation after them
    after = {1: (0.25,), 2: (0.75, 0.25, 0.625)}
    ls = {0, 1, n // 2, n - 1, n}
    then = {(l, lam): leading_ones_counts(op, n, l, lam, stream(*after[lam][lam - 1:]))
            for l in ls for lam in (1, 2)}
    for v in doubles_around(thresholds).tolist():
        for l, lam in then:
            doubles = (v,) * lam + after[lam]
            states = leading_ones_counts(op, n, l, lam, stream(*doubles))
            # idle exactly when the offspring are cuts or unchanged
            idle = states[0] <= l
            assert leading_ones_idle(op, n, l, lam, stream(*doubles), rising, 1) == \
                ((1, then[l, lam]) if idle else (0, states))
            # on the flat ranks only unchanged offspring are idle, and the
            # loop returns every cut's state
            idle = states[0] == l
            assert leading_ones_idle(op, n, l, lam, stream(*doubles), flat, 1) == \
                ((1, then[l, lam]) if idle else (0, states))


@pytest.mark.parametrize("op, lam", [(standard_mutation(0.0), 1), (standard_mutation(0.1), 3),
                                     (single_bit(), 0)])
def test_idle_loop_refuses_what_it_cannot_draw(op, lam):
    with pytest.raises(ValueError, match="^no idle loop for "):
        leading_ones_idle(op, 10, 3, lam, stream(), [0.0] * 11, 5)
