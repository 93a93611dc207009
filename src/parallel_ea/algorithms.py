"""Search algorithms over the lambda-parallel unary unbiased framework.

The generic runner enforces the framework's information flow: the lambda
variations of a round are chosen from the history of *previous* rounds
only.  The (1+lambda) EA and RLS are the concrete instances analysed by
the theory module's bound curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .bitstring import BitString, random_bitstring
from .objectives.base import Objective
from .rng import derive_rng
from .variation import UnaryOperator, apply, mirrored, single_bit, standard_mutation

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


def _argbest_uniform(fitnesses: Sequence[float], direction: str, rng: np.random.Generator) -> int:
    best = max(fitnesses) if direction == "max" else min(fitnesses)
    idx = [i for i, f in enumerate(fitnesses) if f == best]
    return idx[int(rng.integers(len(idx)))] if len(idx) > 1 else idx[0]


def _operator_schedule(cfg: AlgoConfig) -> Callable[[BitString], UnaryOperator]:
    """Map the parent to the operator of its next generation, once per run.

    RLS reuses one single-bit operator and the fixed-rate EA one standard
    mutation; the adaptive EA sets p from the parent's zero count, taken as
    at least 1 so that the rate stays defined at the all-ones point.
    """
    if cfg.algorithm == RLS:
        op = single_bit()
    elif cfg.algorithm == ONE_PLUS_LAMBDA_FIXED:
        op = standard_mutation(cfg.rate)
    else:
        n, lam = cfg.n, cfg.lam
        return lambda x: standard_mutation(adaptive_rate(max(1, x.count_zeros()), n, lam))
    return lambda x: op


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
    that follows them.
    """
    check_elitist_run(cfg, obj)
    rng = rng if rng is not None else derive_rng(cfg.seed)
    n, lam = cfg.n, cfg.lam
    evaluate, contains, better = obj.evaluate, obj.target.contains, obj.better
    operator_for = _operator_schedule(cfg)

    if initial is not None:
        batch = [initial]
    else:
        batch = [random_bitstring(n, rng) for _ in range(lam)]
    fits = [evaluate(y) for y in batch]
    evals = len(batch)
    first_hit = None
    for k, y in enumerate(batch):
        if contains(y):
            first_hit = k + 1
            break
    best_idx = _argbest_uniform(fits, obj.direction, rng)
    x, fx = batch[best_idx], fits[best_idx]
    gens = 0
    if on_generation is not None:
        on_generation(0, batch, x, fx)

    while first_hit is None and evals + lam <= cfg.budget:
        op = operator_for(x)
        # One pass evaluates, checks the target and selects, so that lambda = 1
        # pays for no batch lists unless a hook observes the offspring; ties are
        # listed only when they occur, and their one draw follows the lambda
        # apply calls, as in _argbest_uniform.
        z = ties = None
        queried = [] if on_generation is not None else None
        for k in range(lam):
            y = apply(op, x, rng)
            if queried is not None:
                queried.append(y)
            fy = evaluate(y)
            if first_hit is None and contains(y):
                first_hit = evals + k + 1
            if z is None or better(fy, fz):
                z, fz, ties = y, fy, None
            elif fy == fz:
                if ties is None:
                    ties = [z]
                ties.append(y)
        if ties is not None:
            z = ties[int(rng.integers(len(ties)))]
        evals += lam
        gens += 1
        if not better(fx, fz):
            x, fx = z, fz
        if on_generation is not None:
            on_generation(gens, queried, x, fx)

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
    complements after the paid batch) and the archive's best point.
    """
    _check_dimension(cfg, obj)
    rng = rng if rng is not None else derive_rng(cfg.seed)
    n, lam = cfg.n, cfg.lam
    evaluate, contains, better = obj.evaluate, obj.target.contains, obj.better

    points: list[BitString] = []  # append-only: every view is a prefix
    fits: list[float] = []
    evals = gens = best = 0
    first_hit = None

    def ingest(batch: list[BitString], free: list[BitString]) -> None:
        nonlocal evals, first_hit, best
        queried = batch + free
        for k, y in enumerate(queried):
            # free complements hit at the cost already paid for the batch
            if first_hit is None and contains(y):
                first_hit = evals + min(k + 1, len(batch))
            fy = evaluate(y)
            if fits and better(fy, fits[best]):
                best = len(fits)
            points.append(y)
            fits.append(fy)
        evals += len(batch)
        if on_generation is not None:
            on_generation(gens, queried, points[best], fits[best])

    batch = [random_bitstring(n, rng) for _ in range(lam)]
    ingest(batch, [y.complement() for y in batch] if mirror else [])

    while first_hit is None and evals + lam <= cfg.budget:
        view = HistoryView(points, fits, gens + 1, best)
        choices = policy(view, rng)
        if len(choices) != lam:
            raise ContractViolationError(
                f"policy must return exactly lambda={lam} choices, got {len(choices)}"
            )
        batch, free = [], []
        for parent_idx, op in choices:
            parent = view.point(parent_idx)
            if mirror:
                y, ybar = mirrored(op, parent, rng)
                free.append(ybar)
            else:
                y = apply(op, parent, rng)
            batch.append(y)
        gens += 1
        ingest(batch, free)

    return RunRecord(
        evaluations_used=evals,
        generations_used=gens,
        hit_target=first_hit is not None,
        best_fitness=fits[best],
        first_hit_evaluation=first_hit,
        seed=cfg.seed,
    )


def make_best_so_far_policy(lam: int, op: UnaryOperator) -> Policy:
    """Policy re-mutating the best archived point with a fixed operator."""

    def policy(view: HistoryView, rng: np.random.Generator) -> list[tuple[int, UnaryOperator]]:
        return [(view.best_index(), op)] * lam

    return policy
