"""Combinatorial instance classes: graphs, partition, knapsack, SAT.

Instances are plain immutable data plus a fitness function; they exist as
black-box landscapes only, so there are no solvers here.  Every generator
takes an explicit 64-bit seed and is deterministic given it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

import numpy as np

from ..bitstring import BitString
from ..rng import derive_rng
from ..variation import sample_distinct_positions
from .base import GLOBAL_OPTIMA, Objective, TargetSet, check_int


# ---------------------------------------------------------------- graphs

@dataclass(frozen=True)
class GraphInstance:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)


def bichromatic_edges(g: GraphInstance, x: BitString) -> int:
    """Edges whose endpoints get different colours under the 2-colouring x."""
    if x.n != g.n:
        raise ValueError(f"dimension mismatch: colouring has {x.n} bits, graph {g.n} vertices")
    v = x.value
    return sum(1 for a, b in g.edges if ((v >> a) ^ (v >> b)) & 1)


def gen_two_cliques(n: int) -> GraphInstance:
    """Two disjoint cliques on n/2 vertices each, no edges between them."""
    if n < 4 or n % 2:
        raise ValueError(f"two-clique instance needs even n >= 4, got {n}")
    half = n // 2
    edges = []
    for base in (0, half):
        for i in range(half):
            for j in range(i + 1, half):
                edges.append((base + i, base + j))
    return GraphInstance(n=n, edges=tuple(edges))


def two_cliques_cut(g: GraphInstance, x: BitString) -> int:
    """Cut size with an infeasibility penalty |E|+1 for the empty-side assignments."""
    if x.count_ones() in (0, x.n):
        return len(g.edges) + 1
    return bichromatic_edges(g, x)


def two_cliques_objective(n: int) -> Objective:
    g = gen_two_cliques(n)
    half = n // 2
    aligned = BitString(n, ((1 << half) - 1) << half)
    return Objective(
        name="two-cliques-mincut",
        n=n,
        evaluate=lambda x, _g=g: two_cliques_cut(_g, x),
        direction="min",
        target=TargetSet.from_points(
            [aligned, aligned.complement()], GLOBAL_OPTIMA, "the two clique-aligned bipartitions"
        ),
    )


# ------------------------------------------------------------- partition

@dataclass(frozen=True)
class PartitionInstance:
    sizes: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.sizes or any(s <= 0 for s in self.sizes):
            raise ValueError("job sizes must be positive")

    @property
    def n(self) -> int:
        return len(self.sizes)


def partition_makespan(inst: PartitionInstance, x: BitString) -> float:
    """Load of the fuller machine; bit i assigns job i to machine 1.

    Both loads are summed directly (not by subtraction from the total), so
    f(x) == f(complement(x)) holds exactly in floats.
    """
    if x.n != inst.n:
        raise ValueError("dimension mismatch")
    load0 = 0.0
    load1 = 0.0
    for i, s in enumerate(inst.sizes):
        if x[i]:
            load1 += s
        else:
            load0 += s
    return max(load0, load1)


def gen_partition_random(n: int, distribution: str, seed: int) -> PartitionInstance:
    """n iid job sizes, uniform on (0,1] or exponential(1)."""
    check_int("job count n", n, 1)
    check_int("seed", seed, 0)
    rng = derive_rng(seed)
    if distribution == "uniform":
        sizes = 1.0 - rng.random(n)  # (0, 1]
    elif distribution == "exponential":
        sizes = rng.exponential(1.0, n)
        sizes = np.where(sizes > 0, sizes, np.finfo(float).tiny)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    return PartitionInstance(sizes=tuple(float(s) for s in sizes))


def partition_objective(inst: PartitionInstance, name: str = "partition") -> Objective:
    """Minimise the makespan; optima found by exhaustive subset-sum scan (n <= 20)."""
    n = inst.n
    if n > 20:
        raise ValueError("exhaustive optimum scan capped at n <= 20")
    sums = np.zeros(1)
    for s in inst.sizes:
        sums = np.concatenate([sums, sums + s])
    total = float(sums[-1])
    makespans = np.maximum(sums, total - sums)
    best = float(makespans.min())
    pts = [BitString(n, int(v)) for v in np.flatnonzero(makespans == best)]
    return Objective(
        name=name,
        n=n,
        evaluate=lambda x, _i=inst: partition_makespan(_i, x),
        direction="min",
        target=TargetSet.from_points(pts, GLOBAL_OPTIMA, f"optimal makespan {best:.6g}"),
    )


# -------------------------------------------------------------- knapsack

@dataclass(frozen=True)
class KnapsackInstance:
    weights: tuple[int, ...]
    values: tuple[int, ...]
    capacity: int

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.values):
            raise ValueError("weights and values must have equal length")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if any(w <= 0 for w in self.weights) or any(v <= 0 for v in self.values):
            raise ValueError("weights and values must be positive")

    @property
    def n(self) -> int:
        return len(self.weights)


def knapsack_fitness(inst: KnapsackInstance, x: BitString) -> int:
    """Total value if feasible, else capacity - weight (negative, monotone in excess)."""
    if x.n != inst.n:
        raise ValueError("dimension mismatch")
    weight = sum(w for i, w in enumerate(inst.weights) if x[i])
    if weight <= inst.capacity:
        return sum(v for i, v in enumerate(inst.values) if x[i])
    return inst.capacity - weight


def knapsack_hard(n: int) -> Objective:
    """Hard instance: (n+1)/2 small objects of weight/value n, (n-1)/2 big ones
    of weight/value n+1, capacity (n+1)/2 * n.  Selecting exactly the small
    objects is the unique global optimum."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"hard knapsack instance needs odd n >= 3, got {n}")
    small = (n + 1) // 2
    big = (n - 1) // 2
    inst = KnapsackInstance(
        weights=(n,) * small + (n + 1,) * big,
        values=(n,) * small + (n + 1,) * big,
        capacity=small * n,
    )
    optimum = BitString(n, (1 << small) - 1)
    return Objective(
        name="knapsack-hard",
        n=n,
        evaluate=lambda x, _i=inst: knapsack_fitness(_i, x),
        target=TargetSet.from_points([optimum], GLOBAL_OPTIMA, "all small objects"),
    )


# ---------------------------------------------------------------- maxsat

def maxsat_hard_count(x: BitString) -> int:
    """Closed form for the hard MaxSat instance.

    Clauses are (x_i or not x_j or not x_k) over all i with unordered pairs
    {j,k} disjoint from i, plus the n unit clauses (x_i).  A three-literal
    clause fails exactly when x_i = 0 and x_j = x_k = 1, so with l ones and
    z zeros: satisfied = n*C(n-1,2) - z*C(l,2) + l.
    """
    n = x.n
    ones = x.count_ones()
    zeros = n - ones
    return n * comb(n - 1, 2) - zeros * comb(ones, 2) + ones


def maxsat_hard(n: int) -> Objective:
    check_int("hard MaxSat instance n", n, 3)
    return Objective(
        name="maxsat-hard",
        n=n,
        evaluate=maxsat_hard_count,
        target=TargetSet.from_points([BitString.ones(n)], GLOBAL_OPTIMA, "1^n"),
    )


# ------------------------------------------------------------ planted sat

@dataclass(frozen=True)
class SatInstance:
    """3-SAT instance; clauses are triples of signed 1-based variable indices."""

    n: int
    clauses: tuple[tuple[int, int, int], ...]
    planted: Optional[BitString] = None

    def __post_init__(self) -> None:
        for clause in self.clauses:
            vars_ = {abs(lit) for lit in clause}
            if len(vars_) != 3:
                raise ValueError(f"clause {clause} must use 3 distinct variables")
            if any(not 1 <= v <= self.n for v in vars_):
                raise ValueError(f"clause {clause} out of range for n={self.n}")
        if self.planted is not None:
            if self.planted.n != self.n:
                raise ValueError("planted assignment has wrong dimension")
            for clause in self.clauses:
                if not clause_satisfied(clause, self.planted):
                    raise ValueError(f"planted assignment violates clause {clause}")

    @property
    def m(self) -> int:
        return len(self.clauses)


def clause_satisfied(clause: Sequence[int], x: BitString) -> bool:
    for lit in clause:
        bit = x[abs(lit) - 1]
        if (lit > 0) == (bit == 1):
            return True
    return False


def sat_count(inst: SatInstance, x: BitString) -> int:
    """Number of satisfied clauses."""
    if x.n != inst.n:
        raise ValueError("dimension mismatch")
    return sum(1 for c in inst.clauses if clause_satisfied(c, x))


def _satisfies_all(inst: SatInstance, x: BitString) -> bool:
    """sat_count(inst, x) == inst.m, stopping at the first unsatisfied clause."""
    if x.n != inst.n:
        raise ValueError("dimension mismatch")
    return all(clause_satisfied(c, x) for c in inst.clauses)


def gen_planted_3sat(
    n: int, m: int, c1: float = 3.0 / 7.0, c3: float = 1.0 / 7.0, seed: int = 0
) -> SatInstance:
    """Random planted Max-3-Sat: each clause matches the planted optimum in
    exactly one literal with probability c1, in all three with probability c3,
    and in exactly two otherwise.  Variables are drawn without replacement."""
    check_int("variable count n", n, 3)
    check_int("clause count m", m, 1)
    check_int("seed", seed, 0)
    if c1 < 0 or c3 < 0 or c1 + c3 > 1:
        raise ValueError(f"need c1, c3 >= 0 with c1 + c3 <= 1, got c1={c1}, c3={c3}")
    rng = derive_rng(seed)
    planted = BitString(n, int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1))
    clauses = []
    for _ in range(m):
        u = rng.next_double()
        k = 1 if u < c1 else (3 if u < c1 + c3 else 2)
        vars_ = sample_distinct_positions(rng, n, 3)
        match_slots = set(sample_distinct_positions(rng, 3, k))
        clause = []
        for slot, v in enumerate(vars_):
            agrees = planted[v] == 1
            if slot not in match_slots:
                agrees = not agrees
            clause.append(v + 1 if agrees else -(v + 1))
        clauses.append(tuple(clause))
    return SatInstance(n=n, clauses=tuple(clauses), planted=planted)


def planted_3sat_objective(inst: SatInstance, name: str = "planted-3sat") -> Objective:
    target = TargetSet(
        kind=GLOBAL_OPTIMA,
        contains=lambda x, _i=inst: _satisfies_all(_i, x),
        size_bound=1 << inst.n,
        description="assignments satisfying every clause",
    )
    return Objective(
        name=name,
        n=inst.n,
        evaluate=lambda x, _i=inst: sat_count(_i, x),
        target=target,
    )
