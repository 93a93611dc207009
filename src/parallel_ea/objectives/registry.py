"""Objective construction by name, for experiment specs and the CLI."""

from __future__ import annotations

from typing import Callable

from .base import Objective
from .functions import (
    cliff_objective,
    hiff_objective,
    jump_objective,
    leadingones_objective,
    leadingzeros_objective,
    onemax_objective,
    twomax_objective,
    twomax_prime_objective,
)
from .instances import (
    gen_partition_random,
    gen_planted_3sat,
    knapsack_hard,
    maxsat_hard,
    partition_objective,
    planted_3sat_objective,
    two_cliques_objective,
)
from .local_optima import local_optima


def _partition(n: int, distribution: str = "uniform", seed: int = 0) -> Objective:
    return partition_objective(gen_partition_random(n, distribution, seed))


def _planted_3sat(n: int, m: int, c1: float = 3.0 / 7.0, c3: float = 1.0 / 7.0, seed: int = 0) -> Objective:
    return planted_3sat_objective(gen_planted_3sat(n, m, c1, c3, seed))


_BUILDERS: dict[str, Callable[..., Objective]] = {
    "onemax": onemax_objective,
    "leadingones": leadingones_objective,
    "leadingzeros": leadingzeros_objective,
    "twomax": twomax_objective,
    "twomax-prime": twomax_prime_objective,
    "hiff": hiff_objective,
    "jump": jump_objective,  # k=...
    "cliff": cliff_objective,  # d=...
    "two-cliques-mincut": two_cliques_objective,
    "partition": _partition,  # distribution=..., seed=...
    "knapsack-hard": knapsack_hard,
    "maxsat-hard": maxsat_hard,
    "planted-3sat": _planted_3sat,  # m=..., c1=..., c3=..., seed=...
}


def objective_names() -> list[str]:
    return sorted(_BUILDERS)


def make_objective(name: str, n: int, target: str = "global", **params) -> Objective:
    """Build a named objective; target is "global" or "local" (exhaustive scan)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown objective {name!r}; known: {', '.join(objective_names())}") from None
    obj = builder(n, **params)
    if target == "global":
        return obj
    if target == "local":
        return obj.with_target(local_optima(obj))
    raise ValueError(f"unknown target kind {target!r}; use 'global' or 'local'")
