"""Objective and target-set containers shared by every fitness landscape."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable, Iterable, Optional

from ..bitstring import BitString, hamming_ball_size, hamming_distance

GLOBAL_OPTIMA = "global-optima"
LOCAL_OPTIMA = "local-optima"
WITHIN_DISTANCE = "within-distance"

# Objective.metadata key: true when evaluate and target.contains depend on x
# only through its ones count |x|_1, so that the elitist runners may simulate
# the ones count instead of bit strings.
ONES_COUNT_ONLY = "ones-count-only"


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

    def with_target(self, target: TargetSet) -> "Objective":
        """The same function with another target.  The ones-count declaration
        is dropped, since the new target need not depend on |x|_1 alone."""
        return Objective(
            name=self.name,
            n=self.n,
            evaluate=self.evaluate,
            target=target,
            direction=self.direction,
            metadata={k: v for k, v in self.metadata.items() if k != ONES_COUNT_ONLY},
        )
