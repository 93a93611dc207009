"""Objective and target-set containers shared by every fitness landscape."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate
from numbers import Integral
from typing import Callable, Iterable, Optional

from ..bitstring import BitString, hamming_ball_size, hamming_distance
from ..variation import (
    leading_ones_counts,
    leading_ones_idle,
    ones_counts,
    uniform_leading_ones_counts,
    uniform_ones_counts,
)

GLOBAL_OPTIMA = "global-optima"
LOCAL_OPTIMA = "local-optima"
WITHIN_DISTANCE = "within-distance"

# Objective.metadata key of a Chain: the elitist runners may simulate its
# state instead of bit strings.
CHAIN = "chain"


@dataclass(frozen=True)
class Chain:
    """An exact Markov chain of the elitist runners' parent, on an integer state.

    The declaring objective's evaluate and target.contains depend on x only
    through state(x), and under RLS and standard mutation the parent's state
    is a Markov chain whose steps the samplers draw:

    - state(x): the state of a point;
    - point(n, s): the representative point of state s, on which evaluate
      and the target run once per state (`StateTables`);
    - initial(n, lam, rng): the states of lam uniform points;
    - offspring(op, n, s, lam, rng): the states of lam independent
      offspring of a parent in state s;
    - zeros(n, s): the zero count of state s, or None when the state does
      not hold it (the adaptive EA, which reads it, then samples bit strings);
    - idle(op, n, s, lam, rng, rank, limit), or None: at lam <= 2, how
      many generations in a row leave a parent in state s where it is, at
      most `limit`, and the states of the generation after them, read off
      the stream as `offspring` and selection read it; rank lists the
      states' ranks, a target member's above every state's
      (`variation.leading_ones_idle`);
    - any_start: whether the chain is exact from any given point, or only
      from a uniform start.

    States run from 0 to n.  A sampler returns one state per offspring, as
    a list of ints, or the histogram of the lam offspring: a tuple
    (lo, counts), counts a 1-d integer ndarray whose entry i, zero allowed,
    is the number of offspring in state lo + i, the entries summing to lam.
    The runner tells the two shapes apart by type and selects from a list
    offspring by offspring and from a histogram with one scan of its
    counts.  Offspring are exchangeable, so the histogram holds all that
    the runner selects from.  The offspring samplers here return it from
    `variation.HISTOGRAM_LAMBDA` on.
    """

    state: Callable[[BitString], int]
    point: Callable[[int, int], BitString]
    initial: Callable
    offspring: Callable
    zeros: Optional[Callable[[int, int], int]] = None
    any_start: bool = False
    idle: Optional[Callable] = None


def _prefix_ones(n: int, s: int) -> BitString:
    return BitString(n, (1 << s) - 1)


# fitness and target depend on |x|_1 alone; the representative is 1^k 0^(n-k)
ONES_COUNT = Chain(BitString.count_ones, _prefix_ones, uniform_ones_counts, ones_counts,
                   zeros=lambda n, k: n - k, any_start=True)
# the leading-ones count l: the bits after the first zero stay uniform, and
# nothing reads them, so the chain needs a uniform start; 1^l 0^(n-l)
LEADING_ONES = Chain(BitString.leading_ones, _prefix_ones, uniform_leading_ones_counts,
                     leading_ones_counts, idle=leading_ones_idle)
# its mirror image, the leading-zeros count, on 0^l 1^(n-l)
LEADING_ZEROS = Chain(BitString.leading_zeros, lambda n, s: _prefix_ones(n, s).complement(),
                      uniform_leading_ones_counts, leading_ones_counts, idle=leading_ones_idle)


class StateTables:
    """The fitness, rank and target membership of every state 0..n of an
    objective's chain, each from one evaluate and one target call on the
    state's representative, which is not kept: n + 1 points of n bits
    would take O(n^2) memory.

    - fitness[s] and hit[s]: the values evaluate and target.contains return;
    - rank[s]: the index of fitness[s] among the distinct fitness values,
      worst first in the objective's direction.  Ranks come from Python's
      own comparisons, so values that one float64 would merge (2^60 and
      2^60 + 1) keep distinct ranks;
    - rise[s] and fall[s]: the first state of the run of strictly rising,
      or strictly falling, ranks that ends at s, so the ranks rise over the
      states lo..s exactly when rise[s] <= lo;
    - members_below[s], s = 0..n + 1: the number of target members among
      the states below s.
    """

    def __init__(self, obj: "Objective", chain: Chain):
        n = obj.n
        self.fitness: list = []
        self.hit: list[bool] = []
        for s in range(n + 1):
            x = chain.point(n, s)
            self.fitness.append(obj.evaluate(x))
            self.hit.append(bool(obj.target.contains(x)))
        order = sorted(range(n + 1), key=self.fitness.__getitem__, reverse=obj.direction == "min")
        rank = self.rank = [0] * (n + 1)
        for prev, s in zip(order, order[1:]):
            rank[s] = rank[prev] + (self.fitness[s] != self.fitness[prev])
        self.rise, self.fall = [0], [0]
        for s in range(1, n + 1):
            self.rise.append(self.rise[-1] if rank[s] > rank[s - 1] else s)
            self.fall.append(self.fall[-1] if rank[s] < rank[s - 1] else s)
        self.members_below = list(accumulate(self.hit, initial=0))


def is_int(value) -> bool:
    """An integer of any width; a bool is not one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_int(name: str, value, lo: int, hi: Optional[int] = None) -> None:
    """Refuse a value that is not an integer in [lo, hi] (or >= lo when hi is None)."""
    if not is_int(value) or value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


@dataclass(frozen=True)
class TargetSet:
    """Set of search points whose first hit stops a run.

    contains must be a pure predicate; size_bound is an upper bound on the
    number of members (exact when built from explicit points).
    """

    kind: str
    contains: Callable[[BitString], bool]
    size_bound: int
    description: str = ""

    @classmethod
    def from_points(
        cls, points: Iterable[BitString], kind: str = GLOBAL_OPTIMA, description: str = ""
    ) -> "TargetSet":
        pts = list(points)
        if not pts:
            raise ValueError("a target set needs at least one point")
        n = pts[0].n
        members = frozenset(p.value for p in pts)

        def contains(x: BitString, _members=members, _n=n) -> bool:
            return x.n == _n and x.value in _members

        return cls(kind=kind, contains=contains, size_bound=len(members), description=description)

    @classmethod
    def within_distance(
        cls, centres: Iterable[BitString], d: int, description: str = ""
    ) -> "TargetSet":
        pts = list(centres)
        if not pts:
            raise ValueError("within-distance target needs at least one centre")
        n = pts[0].n
        if not 0 <= d <= n:
            raise ValueError(f"distance must satisfy 0 <= d <= n, got {d}")

        def contains(x: BitString, _pts=tuple(pts), _d=d) -> bool:
            return any(hamming_distance(x, c) <= _d for c in _pts)

        bound = min(1 << n, len(pts) * hamming_ball_size(n, d))
        return cls(
            kind=WITHIN_DISTANCE,
            contains=contains,
            size_bound=bound,
            description=description or f"within Hamming distance {d} of {len(pts)} centres",
        )


@dataclass(frozen=True)
class Objective:
    """Black-box fitness function with its stopping target.

    evaluate must be deterministic and total on {0,1}^n; instances are
    immutable, so concurrent evaluation is safe.
    """

    name: str
    n: int
    evaluate: Callable[[BitString], float]
    target: TargetSet
    direction: str = "max"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.direction not in ("max", "min"):
            raise ValueError(f"direction must be 'max' or 'min', got {self.direction!r}")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def better(self) -> Callable[[float, float], bool]:
        """better(a, b) is true when fitness a strictly improves on b."""
        return operator.gt if self.direction == "max" else operator.lt

    @classmethod
    def from_optima(cls, name: str, n: int, evaluate: Callable[[BitString], float],
                    optima: Iterable[BitString], description: str, direction: str = "max",
                    chain: Optional[Chain] = None) -> "Objective":
        """An objective whose target is its global optima, given as points,
        and which declares chain, when given, for the runners."""
        target = TargetSet.from_points(optima, GLOBAL_OPTIMA, description)
        return cls(name=name, n=n, evaluate=evaluate, target=target, direction=direction,
                   metadata={} if chain is None else {CHAIN: chain})

    @property
    def chain(self) -> Optional[Chain]:
        """The declared chain, or None."""
        return self.metadata.get(CHAIN)

    @cached_property
    def state_tables(self) -> StateTables:
        """The tables of the declared chain, built on first use and shared
        by every run on this instance; a ValueError without a declaration."""
        if self.chain is None:
            raise ValueError(f"objective {self.name!r} declares no chain")
        return StateTables(self, self.chain)

    def with_target(self, target: TargetSet) -> "Objective":
        """The same function with another target.  The chain declaration is
        dropped, since the new target need not depend on the state alone."""
        return replace(self, target=target,
                       metadata={k: v for k, v in self.metadata.items() if k != CHAIN})
