"""Search algorithms over the lambda-parallel unary unbiased framework.

The generic runner enforces the framework's information flow: the lambda
variations of a round are chosen from the history of *previous* rounds
only.  The (1+lambda) EA and RLS are the concrete instances analysed by
the theory module's bound curves.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .bitstring import BitString, random_bitstring
from .objectives.base import CHAIN, Objective
from .rng import as_stream, derive_rng
from .variation import (
    UnaryOperator,
    apply,
    mirrored,  # not called here; bench/tracing.py wraps algorithms.mirrored
    single_bit,
    standard_mutation,
)

ONE_PLUS_LAMBDA_FIXED = "one-plus-lambda-fixed"
ONE_PLUS_LAMBDA_ADAPTIVE = "one-plus-lambda-adaptive"
RLS = "rls"
GENERIC_PARALLEL = "generic-parallel"

ELITIST = (ONE_PLUS_LAMBDA_FIXED, ONE_PLUS_LAMBDA_ADAPTIVE, RLS)  # run by run_one_plus_lambda
_ALGORITHMS = ELITIST + (GENERIC_PARALLEL,)


class ContractViolationError(RuntimeError):
    """A parallel policy asked for information its round may not see."""


@dataclass(frozen=True)
class AlgoConfig:
    algorithm: str
    n: int
    lam: int = 1
    p: Optional[float] = None  # fixed-rate variant; defaults to 1/n
    budget: int = 10**9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.lam < 1:
            raise ValueError("lambda must be >= 1")
        if self.algorithm == RLS and self.lam != 1:
            raise ValueError("rls is sequential; use lambda = 1")
        if self.budget < self.lam:
            raise ValueError("budget must cover at least one batch of lambda evaluations")
        if self.p is not None and self.algorithm != ONE_PLUS_LAMBDA_FIXED:
            raise ValueError(f"p applies to {ONE_PLUS_LAMBDA_FIXED} only, not to {self.algorithm}")
        if self.algorithm == ONE_PLUS_LAMBDA_FIXED and not 0.0 < self.rate < 1.0:
            raise ValueError(f"fixed mutation rate must lie in (0, 1), got {self.rate}")

    @property
    def rate(self) -> float:
        """The fixed-rate EA's mutation probability: p, or 1/n by default."""
        return self.p if self.p is not None else 1.0 / self.n

    @property
    def p_mode(self) -> str:
        if self.algorithm == ONE_PLUS_LAMBDA_ADAPTIVE:
            return "adaptive"
        if self.algorithm == RLS:
            return "single-bit"
        if self.algorithm == ONE_PLUS_LAMBDA_FIXED:
            return f"fixed:{self.rate:.6g}"
        return "policy"


@dataclass
class RunRecord:
    evaluations_used: int
    generations_used: int
    hit_target: bool
    best_fitness: float
    first_hit_evaluation: Optional[int]
    seed: int

    def __post_init__(self) -> None:
        if (self.hit_target and self.first_hit_evaluation is not None
                and self.first_hit_evaluation > self.evaluations_used):
            raise ValueError(
                f"first hit at evaluation {self.first_hit_evaluation} lies after the "
                f"{self.evaluations_used} evaluations used"
            )


@dataclass
class PotentialTracker:
    """Running minimum of min(#zeros, #ones) over everything queried.

    Pass it as `on_generation` to either runner to record s per generation.
    With mirrored batches the zero- and one-sided minima coincide.
    """

    s0: Optional[int] = None
    s1: Optional[int] = None
    trajectory: list[int] = field(default_factory=list)

    @property
    def s(self) -> Optional[int]:
        if self.s0 is None:
            return None
        return min(self.s0, self.s1)

    def update(self, batch: Sequence[BitString]) -> "PotentialTracker":
        for x in batch:
            zeros = x.count_zeros()
            ones = x.n - zeros
            self.s0 = zeros if self.s0 is None else min(self.s0, zeros)
            self.s1 = ones if self.s1 is None else min(self.s1, ones)
        self.trajectory.append(self.s)
        return self

    def __call__(self, gens: int, queried: list[BitString], x: BitString, fx: float) -> None:
        """The `on_generation` hook form: one trajectory entry per generation."""
        self.update(queried)


# on_generation(gens, queried, x, fx): called at initialisation (gens = 0) and
# after every generation, with the points queried in it and the current best.
GenerationHook = Callable[[int, list[BitString], BitString, float], None]


def adaptive_rate(i: int, n: int, lam: int) -> float:
    """Zero-count-adaptive mutation rate max{ln(lam)/(n ln(en/i)), 1/n}.

    i is the number of zeros in the current search point; i = 0 means the
    caller is already at the optimum and must not mutate.
    """
    if not 1 <= i <= n:
        raise ValueError(f"zero count i must lie in [1, n], got i={i}")
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    return max(math.log(lam) / (n * math.log(math.e * n / i)), 1.0 / n)


class _AdaptiveOperators(dict):
    """The adaptive EA's operators at n and lambda, by the parent's key: each
    is built on first use, from the key's zero count zeros(n, key), taken as
    at least 1 so that the rate stays defined at the all-ones point."""

    def __init__(self, n: int, lam: int, zeros: Callable):
        super().__init__()
        self.n, self.lam, self.zeros = n, lam, zeros

    def __missing__(self, key) -> UnaryOperator:
        n = self.n
        op = self[key] = standard_mutation(adaptive_rate(max(1, self.zeros(n, key)), n, self.lam))
        return op


# The runs of one process at the same n and lambda share their operators: an
# adaptive run at lambda = 512 moves to a new state in most generations, so
# operators built per run cost more than they save (CHANGES.md).  Each table
# holds at most n + 1 operators.
_adaptive_operators = lru_cache(maxsize=16)(_AdaptiveOperators)


def _zero_count(n: int, zeros: int) -> int:
    """The bit path's key: the parent's zero count itself."""
    return zeros


def _operator_schedule(cfg: AlgoConfig, zeros: Callable) -> Callable:
    """Map the parent's key to the operator of its next generation.

    RLS reuses one single-bit operator and the fixed-rate EA one standard
    mutation; the adaptive EA sets p from the key's zero count zeros(n, key)
    and reads each key's operator off a table shared by the process's runs
    at the same n and lambda, so a generation pays one dict lookup.  The key
    is the state on a chain and the zero count on the bit path.
    """
    if cfg.algorithm == ONE_PLUS_LAMBDA_ADAPTIVE:
        return _adaptive_operators(cfg.n, cfg.lam, zeros).__getitem__
    op = single_bit() if cfg.algorithm == RLS else standard_mutation(cfg.rate)
    return lambda key: op


def _check_dimension(cfg: AlgoConfig, obj: Objective) -> None:
    if obj.n != cfg.n:
        raise ValueError("objective dimension does not match config")


def check_elitist_run(cfg: AlgoConfig, obj: Objective) -> None:
    """Refuse a config that `run_one_plus_lambda` cannot run on obj.

    These are the rules that need the objective; those that need only the
    config live in `AlgoConfig.__post_init__`.
    """
    if cfg.algorithm not in ELITIST:
        raise ValueError(f"{cfg.algorithm} is not one of the elitist algorithms {', '.join(ELITIST)}")
    _check_dimension(cfg, obj)
    if cfg.algorithm == ONE_PLUS_LAMBDA_ADAPTIVE and not obj.target.contains(BitString.ones(cfg.n)):
        raise ValueError(f"{cfg.algorithm} reads the zero count as the potential, but the target "
                         f"of objective {obj.name!r} does not contain the all-ones point")


def _weighted_pick(weights: list[int], u: float) -> int:
    """The index of the entry whose cumulative weight first exceeds
    floor(u T), T the total weight: with unit weights, floor(u T) itself."""
    cumulative = list(accumulate(weights))
    return bisect_right(cumulative, int(u * cumulative[-1]))


def _first_position(lam: int, hits: int, u: float) -> int:
    """The position I, from 1 to lam, of the first of `hits` target members
    among lam exchangeable offspring, read off one uniform double u: the
    least i with P(I > i) = C(lam - i, hits) / C(lam, hits) <= u."""
    i, tail = 0, 1.0
    while tail > u:
        i += 1
        tail *= (lam - i - hits + 1) / (lam - i + 1)
    return i


def run_one_plus_lambda(
    cfg: AlgoConfig,
    obj: Objective,
    rng: Optional[np.random.Generator] = None,
    initial: Optional[BitString] = None,
    on_generation: Optional[GenerationHook] = None,
) -> RunRecord:
    """Elitist (1+lambda) search: RLS, or the EA with a fixed or adaptive rate.

    Each generation draws lambda offspring of the current point with the
    operator from `_operator_schedule`; the best offspring replaces the
    parent when its fitness is at least as good, and ties among best
    offspring break uniformly at random.  Initialisation is one uniform
    batch of lambda points, counted against the budget; `initial` forces a
    single-point start (1 evaluation) for tests.  `on_generation` sees the
    initial batch, then each generation's lambda offspring, with the parent
    that follows them.  An offspring that `apply` returns as its parent
    object itself (radius 0) is a clone: it counts as an evaluation and
    takes the parent's fitness, and neither evaluate nor the target sees
    it, since the parent is no member while the run goes on.

    On an objective whose metadata declares a `Chain` the run is the exact
    chain of the parent's state s: offspring are states from the chain's
    sampler, no bit string is sampled, and fitness and target membership
    are read off the objective's `state_tables`, filled once per state and
    shared by every run on it.  The batch's shape picks the selection
    kernel.  A list holds one state per offspring, as the initial batch and
    the samplers below HISTOGRAM_LAMBDA return it, and goes through the
    per-offspring loop.  A tuple (lo, counts) is the histogram of the
    generation, counts[i] offspring in state lo + i, as the samplers return
    it from HISTOGRAM_LAMBDA on, and one scan of its counts selects: over
    the span of states drawn, the tables' rise and fall say when the ranks
    only rise or only fall, and then the last or the first state drawn is
    the best; otherwise one pass finds the best rank and its ties in state
    order.  A tie on a histogram takes the tied state whose cumulative
    count first exceeds floor(u T), T the tied offspring, which on the
    histogram's expansion in state order is the loop's pick.  Hits are
    summed only when members_below says the span holds a member, and the
    first hit's position among lambda exchangeable offspring, H of them
    members, is drawn from P(I > i) = C(lambda - i, H) / C(lambda, H) with
    one more double.  The hook sees the states' representatives, a
    histogram expanded to lambda of them, built for it alone.  A chain that
    needs a uniform start does not run from `initial`, and one whose state
    does not hold the zero count does not run the adaptive EA: those runs
    sample bit strings.

    Most generations of a leading-ones run change nothing: about one
    offspring in e n improves.  So at lambda <= 2 with no hook, a run on a
    chain that declares an `idle` loop hands each stretch of idle
    generations to it.  The loop reads the doubles those generations read,
    counts them, and returns the generation that ends the stretch, which
    the run selects from as usual; each idle generation adds lambda
    evaluations.  With a hook the run draws every generation, reading the
    same doubles in the same order.

    rng may be any Generator: the run wraps it once, with `as_stream`, in a
    UniformStream on the same bit generator, whose buffered doubles feed
    `apply`, the chains' per-offspring samplers, the free-rider walk's
    parent bits, the tie breaks and the first-hit positions.  The
    histograms' multinomial draws, the walk's binomial survivors, the
    ones-count chain's initial batch and the bit path's initial batch read
    the bit generator directly.
    """
    check_elitist_run(cfg, obj)
    rng = as_stream(rng) if rng is not None else derive_rng(cfg.seed)
    n, lam = cfg.n, cfg.lam
    better = obj.better

    chain = obj.metadata.get(CHAIN)
    if chain is not None and (initial is None or chain.any_start) \
            and (chain.zeros is not None or cfg.algorithm != ONE_PLUS_LAMBDA_ADAPTIVE):
        tables = obj.state_tables
        fitness, hit = tables.fitness.__getitem__, tables.hit.__getitem__
        rank, rise, fall, members_below = tables.rank, tables.rise, tables.fall, tables.members_below
        operator_for = _operator_schedule(cfg, chain.zeros)
        batch = [chain.state(initial)] if initial is not None else chain.initial(n, lam, rng)
        sample = chain.offspring
        idle_loop = chain.idle if lam <= 2 and on_generation is None else None
        if idle_loop is not None:
            # a target member is never idle; floats, which compare fastest
            ranks = [n + 1.0 if h else float(r) for r, h in zip(rank, tables.hit)]

        def point(s: int) -> BitString:
            return chain.point(n, s)

        def offspring(s: int):
            return sample(operator_for(s), n, s, lam, rng)
    else:
        idle_loop = None
        fitness, hit, point = obj.evaluate, obj.target.contains, lambda y: y
        operator_for = _operator_schedule(cfg, _zero_count)
        batch = [initial] if initial is not None else [random_bitstring(n, rng) for _ in range(lam)]

        def offspring(x: BitString) -> list[BitString]:
            op = operator_for(x.count_zeros())
            if lam == 1:  # the comprehension would double this call's cost
                return [apply(op, x, rng)]
            return [apply(op, x, rng) for _ in range(lam)]

    # One loop selects from the initial batch (gens = 0, x not yet set) and
    # from every generation's offspring: a list, one state or point per
    # offspring, in the per-offspring loop, and a (lo, counts) histogram by
    # a scan of its counts.  Ties are listed only when they occur, and their
    # one stream double (uniform over the tied offspring to within 2^-52, as
    # in `apply`) follows the batch's own draws.
    x = fx = first_hit = None
    evals = gens = 0
    while True:
        if type(batch) is list:
            z = ties = None
            for y in batch:
                if y is x:  # a clone (on a chain, the parent's state): no member
                    fy = fx
                else:
                    fy = fitness(y)
                    if first_hit is None and hit(y):
                        # membership depends on the value alone, so no member
                        # equal to y comes before it: index finds y's position
                        first_hit = evals + batch.index(y) + 1
                if z is None or better(fy, fz):
                    z, fz, ties = y, fy, None
                elif fy == fz:
                    if ties is None:
                        ties = [z]
                    ties.append(y)
            if ties is not None:
                z = ties[int(rng.next_double() * len(ties))]
            evals += len(batch)
        else:  # counts[i] offspring in state lo + i
            lo, counts = batch
            counts = counts.tolist()
            last = len(counts) - 1
            while not counts[last]:
                last -= 1
            first = 0
            while not counts[first]:
                first += 1
            top, low = lo + last, lo + first  # the drawn states' span
            if rise[top] <= low:  # the ranks rise over it
                z = top
            elif fall[top] <= low:  # they fall
                z = low
            else:
                ties, best = None, -1
                for s in range(low, top + 1):
                    if counts[s - lo] and rank[s] >= best:
                        if rank[s] > best:
                            z, best, ties = s, rank[s], None
                        elif ties is None:
                            ties = [z, s]
                        else:
                            ties.append(s)
                # a tie between entries takes each tied offspring with the
                # same chance; the first hit's position is drawn after it
                if ties is not None:
                    z = ties[_weighted_pick([counts[s - lo] for s in ties], rng.next_double())]
            fz = fitness(z)
            if members_below[top + 1] > members_below[low]:
                hits = sum(counts[s - lo] for s in range(low, top + 1) if hit(s))
                if hits:
                    first_hit = evals + _first_position(lam, hits, rng.next_double())
            evals += lam
        if x is None or not better(fx, fz):
            x, fx = z, fz
        if on_generation is not None:
            queried = batch if type(batch) is list else \
                [s for s, c in enumerate(counts, lo) for _ in range(c)]
            on_generation(gens, [point(y) for y in queried], point(x), fx)
        if first_hit is not None or evals + lam > cfg.budget:
            break
        if idle_loop is not None:  # the last generation the budget allows is not idle
            idle, batch = idle_loop(operator_for(x), n, x, lam, rng, ranks,
                                    (cfg.budget - evals) // lam - 1)
            gens += idle
            evals += idle * lam
        else:
            batch = offspring(x)
        gens += 1

    return RunRecord(
        evaluations_used=evals,
        generations_used=gens,
        hit_target=first_hit is not None,
        best_fitness=fx,
        first_hit_evaluation=first_hit,
        seed=cfg.seed,
    )


run_rls = run_one_plus_lambda


class HistoryView:
    """Read-only window on the runner's append-only archive, with its length
    and best index frozen when the round begins: a policy, even one that
    keeps the view, sees only points of the rounds before it.  Out-of-range
    parent indices raise ContractViolationError.
    """

    __slots__ = ("_points", "_fitnesses", "_rounds", "_len", "_best")

    def __init__(self, points: list[BitString], fitnesses: list[float], rounds: int, best: int):
        self._points = points
        self._fitnesses = fitnesses
        self._rounds = rounds
        self._len = len(points)
        self._best = best

    def __len__(self) -> int:
        return self._len

    @property
    def rounds(self) -> int:
        return self._rounds

    def point(self, i: int) -> BitString:
        self._check(i)
        return self._points[i]

    def fitness(self, i: int) -> float:
        self._check(i)
        return self._fitnesses[i]

    def best_index(self) -> int:
        """First index of the best fitness in the view, in the objective's direction."""
        return self._best

    def _check(self, i: int) -> None:
        if not 0 <= i < self._len:
            raise ContractViolationError(
                f"policy asked for history index {i}, but only {self._len} "
                "points from previous rounds are visible"
            )


Policy = Callable[[HistoryView, np.random.Generator], list[tuple[int, UnaryOperator]]]


def run_generic_parallel(
    policy: Policy,
    cfg: AlgoConfig,
    obj: Objective,
    rng: Optional[np.random.Generator] = None,
    mirror: bool = False,
    on_generation: Optional[GenerationHook] = None,
) -> RunRecord:
    """Generic lambda-parallel unary unbiased runner.

    Each round the policy maps the history of previous rounds to lambda
    (parent index, operator) pairs; the offspring are then generated and
    evaluated as one batch.  With mirror=True every query also reveals its
    complement for free (archived and usable as a parent, not counted as an
    evaluation).  `on_generation` sees each round's queries (any free
    complements after the paid batch) and the archive's best point.  As in
    `run_one_plus_lambda`, rng is wrapped once with `as_stream`, and the
    policy receives the wrapped stream.

    Each round is one pass: a paid offspring enters the archive as it is
    drawn, past the length the round's view froze, and its complement, built
    from one all-ones mask per run, is scored with it; the free complements
    enter after all lambda paid points, so every round, the initial batch
    included, archives lambda paid points and then, mirrored, their lambda
    complements in the same order.  The round's first paid member, at
    position k = 1..lambda, is a first hit at evals + k; a free member is
    one at evals + lambda, and only when no paid one came up.

    A point is scored by `evaluate` and `target.contains`, or, when the
    objective declares a `Chain`, by its state's entries in the objective's
    `state_tables`, as in `run_one_plus_lambda`: fitness and membership
    depend on the point through its state alone, so the runs are the same,
    and evaluate runs n + 1 times per objective instance, for the tables.

    An offspring that `apply` returns as its parent object itself (radius
    0) is a clone.  It counts as an evaluation, is archived and is shown to
    the hook, but it is neither evaluated nor checked against the target:
    its fitness is the parent's archived one, and its complement is the
    point the archive holds lambda places from the parent, in the other
    half of the parent's round.  This rests on `Objective.evaluate` being
    deterministic, `TargetSet.contains` pure, and the lambda-paid-then-
    lambda-free layout: while the run goes on no archived point is a
    member, so neither a clone nor its complement is a first hit.
    """
    _check_dimension(cfg, obj)
    rng = as_stream(rng) if rng is not None else derive_rng(cfg.seed)
    n, lam = cfg.n, cfg.lam
    better = obj.better
    chain = obj.metadata.get(CHAIN)
    if chain is not None:  # a point is scored by its state, off the tables
        tables = obj.state_tables
        state, fitness, member = chain.state, tables.fitness.__getitem__, tables.hit.__getitem__
    else:
        state, fitness, member = None, obj.evaluate, obj.target.contains
    ones = (1 << n) - 1  # a complement flips every bit

    points: list[BitString] = []  # append-only: every view is a prefix
    fits: list[float] = []
    evals = gens = best = 0
    first_hit = None
    add_point, add_fit = points.append, fits.append
    size = 0  # the archive's length before the round
    fb = None  # fits[best]
    while True:  # round gens = 0 is the initial batch of uniform points
        if gens:
            view = HistoryView(points, fits, gens, best)
            choices = policy(view, rng)
            if len(choices) != lam:
                raise ContractViolationError(
                    f"policy must return exactly lambda={lam} choices, got {len(choices)}"
                )
        hit = None  # the position of the round's first paid member
        free_member = False
        if mirror:
            free, free_fits = [], []
        for k in range(lam):
            if gens:
                i, op = choices[k]
                x = points[i] if 0 <= i < size else view.point(i)  # view.point raises
                y = apply(op, x, rng)
                if y is x:
                    add_point(y)
                    add_fit(fits[i])
                    if mirror:  # the parent's complement, in the other half of its round
                        j = i + lam if i % (2 * lam) < lam else i - lam
                        free.append(points[j])
                        free_fits.append(fits[j])
                    continue
            else:
                y = random_bitstring(n, rng)
            key = y if state is None else state(y)
            fy = fitness(key)
            if hit is None and member(key):
                hit = k + 1
            if fb is None or better(fy, fb):
                best, fb = len(fits), fy
            add_point(y)
            add_fit(fy)
            if mirror:
                ybar = y.flip_mask(ones)
                key = ybar if state is None else state(ybar)
                free.append(ybar)
                free_fits.append(fitness(key))
                free_member = free_member or member(key)
        if mirror:  # the complements follow the paid points
            for j, fbar in enumerate(free_fits, len(fits)):
                if better(fbar, fb):
                    best, fb = j, fbar
            points.extend(free)
            fits.extend(free_fits)
        if hit is None and free_member:  # a free member hits at the cost already paid
            hit = lam
        if hit is not None:
            first_hit = evals + hit
        evals += lam
        if on_generation is not None:
            on_generation(gens, points[size:], points[best], fb)
        if first_hit is not None or evals + lam > cfg.budget:
            break
        size = len(points)
        gens += 1

    return RunRecord(
        evaluations_used=evals,
        generations_used=gens,
        hit_target=first_hit is not None,
        best_fitness=fb,
        first_hit_evaluation=first_hit,
        seed=cfg.seed,
    )


def make_best_so_far_policy(lam: int, op: UnaryOperator) -> Policy:
    """Policy re-mutating the best archived point with a fixed operator."""

    def policy(view: HistoryView, rng: np.random.Generator) -> list[tuple[int, UnaryOperator]]:
        return [(view.best_index(), op)] * lam

    return policy
