"""The idle-generation scan of the leading-ones chain.

At lambda <= `algorithms.IDLE_SCAN_LAMBDA` a leading-ones chain run
consumes, in one numpy step, every leading generation of the stream's
buffered doubles that changes nothing.  It must give the runs the
per-generation path gives: the same doubles, the same picks, the same
records and the same hook calls.
"""

import dataclasses
import hashlib
from math import expm1, log1p
from types import SimpleNamespace

import numpy as np
import pytest

from parallel_ea import algorithms, cli
from parallel_ea.algorithms import AlgoConfig, run_one_plus_lambda
from parallel_ea.objectives import TargetSet, make_objective
from parallel_ea.rng import BLOCK, derive_rng
from parallel_ea.variation import (
    STATES_OF_DOUBLES,
    leading_ones_counts,
    leading_ones_states,
    single_bit,
    standard_mutation,
)

# sha256 of the CSV that `parallel-ea sweep ARGS --reps 4 --seed 1808 --out F`
# writes, computed before the scan existed: a scan that reads one double
# more or less than the per-generation path changes these bytes
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


# ------------------------------------------- the same runs with the scan out

def reads_of(rng) -> list[int]:
    """A one-item counter of the `next_double()` calls made on rng from now
    on; doubles the scan consumes in bulk are not counted."""
    calls = [0]
    draw = rng.next_double

    def counted():
        calls[0] += 1
        return draw()

    rng.next_double = counted
    return calls


def scanned_and_plain(monkeypatch, cfg, obj, key):
    """The run of cfg on obj with the idle scan and with it monkeypatched
    out, from the same stream: for each, the record without a hook, the
    record with one, the hook's calls, and the next_double() calls made
    before each hook call."""
    out = []
    for scans in (STATES_OF_DOUBLES, {}):
        monkeypatch.setattr(algorithms, "STATES_OF_DOUBLES", scans)
        plain = run_one_plus_lambda(cfg, obj, derive_rng(*key))
        rng = derive_rng(*key)
        reads = reads_of(rng)
        seen, counts = [], []

        def hook(g, queried, x, fx):
            seen.append((g, queried, x, fx))
            counts.append(reads[0])

        hooked = run_one_plus_lambda(cfg, obj, rng, on_generation=hook)
        out.append((plain, hooked, seen, counts))
    return out


def assert_same_runs(scanned, plain):
    assert scanned[:3] == plain[:3]
    assert scanned[0] == scanned[1]
    # the scan ran: it read fewer doubles one at a time
    assert scanned[3][-1] < plain[3][-1]


SAME_RUN_CASES = [(name, algorithm, lam, p)
                  for name in ("leadingones", "leadingzeros")
                  for algorithm, lam in (("one-plus-lambda-fixed", 1), ("one-plus-lambda-fixed", 2), ("rls", 1))
                  for p in ((None, 0.2) if algorithm != "rls" else (None,))]


@pytest.mark.parametrize("name, algorithm, lam, p", SAME_RUN_CASES)
def test_scan_gives_the_same_runs(monkeypatch, name, algorithm, lam, p):
    n = 40
    obj = make_objective(name, n)
    for rep in range(3):
        cfg = AlgoConfig(algorithm, n=n, lam=lam, p=p, budget=30_000 + rep, seed=rep)
        scanned, plain = scanned_and_plain(monkeypatch, cfg, obj, (1801, rep))
        assert_same_runs(scanned, plain)


@pytest.mark.parametrize("name, algorithm, lam", [("leadingones", "one-plus-lambda-fixed", 3),
                                                  ("onemax", "one-plus-lambda-fixed", 1),
                                                  ("twomax", "rls", 1),
                                                  ("jump", "one-plus-lambda-adaptive", 2)])
def test_scan_runs_only_on_leading_ones_at_small_lambda(name, algorithm, lam):
    def scanned(k):
        raise AssertionError("the idle scan ran")

    n = 40
    obj = make_objective(name, n, **({"k": 3} if name == "jump" else {}))
    cfg = AlgoConfig(algorithm, n=n, lam=lam, budget=5000, seed=0)
    rng = derive_rng(1807)
    rng.consume = scanned  # every scan consumes, if only 0 doubles
    run_one_plus_lambda(cfg, obj, rng)


@pytest.mark.parametrize("algorithm, lam", [("one-plus-lambda-fixed", 1), ("one-plus-lambda-fixed", 2),
                                            ("rls", 1)])
def test_scan_stops_at_the_same_budget(monkeypatch, algorithm, lam):
    # leadingones at n = 100 needs about 8600 evaluations; these budgets end
    # the runs inside long stretches of idle generations
    n = 100
    obj = make_objective("leadingones", n)
    for budget in range(2990, 3003):
        cfg = AlgoConfig(algorithm, n=n, lam=lam, budget=budget, seed=budget)
        scanned, plain = scanned_and_plain(monkeypatch, cfg, obj, (1802, budget))
        assert_same_runs(scanned, plain)
        assert not plain[0].hit_target and budget - lam < plain[0].evaluations_used <= budget


def stub_objective(n: int, sign: int = -1, member=None):
    """A stub on the leading-ones chain with fitness sign * l: under -1 a
    parent at l = 0 stays and every improver ranks below it.  The target is
    the state `member`, or l = n."""
    obj = make_objective("leadingones", n)
    state = obj.metadata["chain"].state
    target = obj.target if member is None else TargetSet("stub", lambda x: state(x) == member, 1)
    return dataclasses.replace(obj, evaluate=lambda x: sign * state(x), target=target)


@pytest.mark.parametrize("lam", [1, 2])
def test_scan_stops_at_the_same_budget_on_a_refill_boundary(monkeypatch, lam):
    # a run reads one double per offspring, plus tie doubles and an
    # improver's free riders, so a budget in this range ends some runs with
    # their last generation's doubles ending exactly at the end of the
    # first buffer
    n = 20
    obj = stub_objective(n)
    ended_on_boundary = 0
    for budget in range(BLOCK // 2, BLOCK + 16):
        cfg = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, budget=budget, seed=budget)
        scanned, plain = scanned_and_plain(monkeypatch, cfg, obj, (1803, budget))
        assert scanned[:3] == plain[:3] and scanned[0] == scanned[1]
        ended_on_boundary += plain[3][-1] == BLOCK
    assert ended_on_boundary >= 1


def test_tie_double_just_past_the_buffer_end(monkeypatch):
    # lambda = 2 at l = 0 under -l: mostly both offspring stay, so many
    # generations read a tie double; in some, the two offspring take the
    # last two doubles of a buffer and the tie the first of the next
    n, lam = 20, 2
    obj = stub_objective(n)
    straddled = 0
    for rep in range(6):
        cfg = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, budget=lam * 2000 + 1, seed=rep)
        scanned, plain = scanned_and_plain(monkeypatch, cfg, obj, (1804, rep))
        assert_same_runs(scanned, plain)
        reads = plain[3]
        straddled += sum(a % BLOCK == BLOCK - 2 and b - a == 3 for a, b in zip(reads, reads[1:]))
    assert straddled >= 1


@pytest.mark.parametrize("lam", [1, 2])
@pytest.mark.parametrize("sign, member", [(-1, 2), (1, 0)])
def test_member_below_the_parent_ends_the_run(monkeypatch, sign, member, lam):
    # the stub's target member ranks below the parent, so it ends the run
    # without becoming the parent: under a fitness of -l an improver to
    # l = 2, which reads more doubles than its own, and under l a cut to 0
    n = 20
    obj = stub_objective(n, sign, member)
    below = 0
    for rep in range(8):
        cfg = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, budget=4000, seed=rep)
        scanned, plain = scanned_and_plain(monkeypatch, cfg, obj, (1805, rep))
        assert scanned[:3] == plain[:3] and scanned[0] == scanned[1]
        below += plain[0].hit_target and plain[0].best_fitness > sign * member
    assert below >= 4


@pytest.mark.parametrize("lam", [1, 2])
def test_offspring_as_good_as_the_parent_moves_it(monkeypatch, lam):
    # on the plateau of max(l, 12) a cut offspring with the parent's fitness
    # becomes the parent, so its generation is not idle
    n = 20
    leadingones = make_objective("leadingones", n)
    state = leadingones.metadata["chain"].state
    obj = dataclasses.replace(leadingones, evaluate=lambda x: max(state(x), 12))
    for rep in range(6):
        cfg = AlgoConfig("one-plus-lambda-fixed", n=n, lam=lam, budget=3000, seed=rep)
        scanned, plain = scanned_and_plain(monkeypatch, cfg, obj, (1806, rep))
        assert_same_runs(scanned, plain)
        assert len({state(x) for _, _, x, _ in plain[2]}) > 2  # the parent drifts


# ------------------------------------------------- the maps at their thresholds

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


def scalar_state(op, n: int, l: int, v: float) -> int:
    """The state the per-offspring sampler gives one offspring whose first
    double is v, or -1 when it is an improver."""
    draws = iter([v, 0.5])
    out = leading_ones_counts(op, n, l, 1, SimpleNamespace(next_double=draws.__next__))[0]
    return -1 if out > l else out


@pytest.mark.parametrize("n, p", [(7, None), (7, 1 / 7), (150, None), (150, 1 / 150), (150, 0.3),
                                  (1000, 1 / 1000)])
def test_leading_ones_map_at_its_thresholds(n, p):
    # f = j exactly when u = 1 - (1 - p)^j, so the doubles around each
    # threshold put the first-flip value on both sides of every integer j
    op = single_bit() if p is None else standard_mutation(p)
    thresholds = [j / n if p is None else -expm1(j * log1p(-p)) for j in range(n + 1)]
    u = doubles_around(thresholds)
    for l in sorted({0, 1, n // 2, n - 1, n}):
        expected = [scalar_state(op, n, l, v) for v in u.tolist()]
        assert leading_ones_states(op, n, l, u).tolist() == expected
