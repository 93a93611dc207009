"""Unary unbiased variation operators.

Every operator here is invariant under bit-position permutations composed
with a global bit-value exchange; equivalently, each is a distribution
over flip radii with uniform sampling on the radius-r sphere.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, exp, lgamma, log, log1p
from typing import Optional

import numpy as np

from .bitstring import BitString, hamming_distance
from .rng import UniformStream

FLIP_EXACT = "flip-exact-r"
STANDARD_MUTATION = "standard-mutation"


@dataclass(frozen=True, slots=True)
class UnaryOperator:
    """Descriptor of a unary unbiased variation kernel.

    kind: one of flip-exact-r (radius r) and standard-mutation (per-bit
    probability p, radius Binomial(n, p)).
    """

    kind: str
    r: Optional[int] = None
    p: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind == FLIP_EXACT:
            if self.r is None or self.r < 0:
                raise ValueError("flip-exact-r needs a radius r >= 0")
        elif self.kind == STANDARD_MUTATION:
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError("standard-mutation needs p in [0, 1]")
        else:
            raise ValueError(f"unknown operator kind {self.kind!r}")

    def validate_for(self, n: int) -> None:
        if self.kind == FLIP_EXACT and self.r > n:
            raise ValueError(f"radius {self.r} exceeds dimension {n}")


def flip_exact(r: int) -> UnaryOperator:
    return UnaryOperator(FLIP_EXACT, r=r)


def standard_mutation(p: float) -> UnaryOperator:
    return UnaryOperator(STANDARD_MUTATION, p=p)


def single_bit() -> UnaryOperator:
    """RLS's operator, one uniform bit flip: flip-exact at radius 1."""
    return flip_exact(1)


def sample_distinct_positions(rng: UniformStream, n: int, r: int) -> list[int]:
    """r distinct positions from {0..n-1}, uniform over r-subsets.

    Partial Fisher-Yates on a sparse index map: O(r) expected time, so
    small radii stay cheap at large n.  Step i swaps in position
    j = i + floor(u * (n - i)) for the stream's next double u, which is
    uniform on {i..n-1} to within 2^-52.
    """
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    u = rng.next_double
    swapped: dict[int, int] = {}
    out = []
    for i in range(r):
        j = i + int(u() * (n - i))
        out.append(swapped.get(j, j))
        swapped[j] = swapped.get(i, i)
    return out


@lru_cache(maxsize=1024)
def _binomial_cdf(n: int, p: float) -> tuple[float, ...]:
    """Inverse-CDF table of Binomial(n, p): entry r is P(R <= r).

    The terms are exponentiated from log space, so none underflows as a
    whole-table recurrence from (1-p)^n would at large n.  The table ends
    where the sum reaches 1.0 in floating point, and its last entry is set
    to 1.0: a u past the sum takes the last radius, not n.
    """
    if p == 0.0:
        return (1.0,)
    if p == 1.0:
        return (0.0,) * n + (1.0,)
    log_p, log_q, head = log(p), log1p(-p), lgamma(n + 1)
    mean = n * p
    cdf: list[float] = []
    total = 0.0
    for r in range(n + 1):
        term = exp(head - lgamma(r + 1) - lgamma(n - r + 1) + r * log_p + (n - r) * log_q)
        if r > mean and total + term == total:  # the terms left cannot move the sum
            break
        total += term
        cdf.append(total)
        if total >= 1.0:
            break
    cdf[-1] = 1.0
    return tuple(cdf)  # shared by every caller of the cache, so immutable


def apply(op: UnaryOperator, x: BitString, rng: UniformStream) -> BitString:
    """Draw one offspring of x under op, from the stream's uniform doubles.

    flip-exact-r is uniform on the radius-r sphere around x; r is checked
    against n here.  standard-mutation reads r ~ Binomial(n, p) off the
    inverse-CDF table of (n, p), p being checked when op was built, and then
    flips a uniform r-subset, which is exactly the iid per-bit flip
    distribution.
    """
    n = x.n
    if op.kind == STANDARD_MUTATION:
        r = bisect_right(_binomial_cdf(n, op.p), rng.next_double())
    else:
        op.validate_for(n)
        r = op.r
    if r == 0:
        return x
    mask = 0
    for pos in sample_distinct_positions(rng, n, r):
        mask |= 1 << pos
    return x.flip_mask(mask)


def ones_counts(op: UnaryOperator, n: int, k: int, size: int,
                rng: UniformStream) -> np.ndarray | list[int]:
    """Ones counts of `size` independent offspring of a point with k ones.

    The image of `apply` under x -> |x|_1, for the elitist runners'
    operators.  Standard mutation flips each bit independently, so an
    offspring gains Binomial(n - k, p) ones and loses Binomial(k, p);
    flip-exact at radius 1 (RLS) gains a one exactly when its position is
    one of the n - k zeros, with probability (n - k)/n, read off the
    stream's next double (to within 2^-52, as in `apply`).  The counts are
    an int ndarray under standard mutation and a list of Python ints under
    RLS.
    """
    if op.kind == STANDARD_MUTATION:
        gain = rng.binomial(n - k, op.p, size=size)
        loss = rng.binomial(k, op.p, size=size)
        return k + gain - loss
    if op.kind == FLIP_EXACT and op.r == 1:
        u = rng.next_double
        return [k + 1 if u() * n < n - k else k - 1 for _ in range(size)]
    raise ValueError(f"no ones-count sampler for {op}")


def uniform_ones_counts(n: int, size: int, rng: UniformStream) -> np.ndarray:
    """Ones counts of `size` uniform points: Binomial(n, 1/2), drawn off the
    bit generator in one vector call, as an int ndarray."""
    return rng.binomial(n, 0.5, size=size)


_LN_HALF = log(0.5)


def _halving_run(u: float, cap: int) -> int:
    """min(R, cap) for P(R >= k) = 2^-k, read off one uniform double u: the
    length of a run of fair coin flips that come up one."""
    return min(int(log1p(-u) / _LN_HALF), cap)


def uniform_leading_ones_counts(n: int, size: int, rng: UniformStream) -> list[int]:
    """Leading-ones counts of `size` uniform points: P(LO >= k) = 2^-k,
    capped at n, one stream double each."""
    u = rng.next_double
    return [_halving_run(u(), n) for _ in range(size)]


def leading_ones_counts(op: UnaryOperator, n: int, l: int, size: int,
                        rng: UniformStream) -> list[int]:
    """Leading-ones counts of `size` independent offspring of a point with
    l leading ones whose bits after its first zero are uniform.

    Each offspring reads its first flipped position f off one stream double
    u: f = floor(ln(1-u) / ln(1-p)) under standard mutation, floor(u n)
    under flip-exact radius 1 (RLS).  f < l cuts the prefix at f; f > l
    (or no flip) leaves l; f = l makes an improver with l + 1 + R leading
    ones, R the run of free riders after position l.  Those bits are the
    parent's uniform suffix under an independent mask, so one improver's R
    has P(R >= k) = 2^-k, capped at n - l - 1, from one more double.
    Several improvers share the parent's suffix: the walk draws the
    parent's bit once per position and each live improver's mask bit apart,
    and an improver stops where the two are equal.  Under RLS the mask is
    empty, so its improvers share one run.
    """
    u = rng.next_double
    if op.kind == STANDARD_MUTATION:
        if op.p == 0.0:
            return [l] * size
        lq = log1p(-op.p)
        firsts = [log1p(-u()) / lq for _ in range(size)] if size > 1 else [log1p(-u()) / lq]
    elif op.kind == FLIP_EXACT and op.r == 1:
        firsts = [u() * n for _ in range(size)] if size > 1 else [u() * n]
    else:
        raise ValueError(f"no leading-ones sampler for {op}")
    # floor(f) < l exactly when f < l, and f in [l, top) flips bit l first
    top = l + 1 if l < n else l
    if size == 1:  # the loop below would double this call's cost
        f = firsts[0]
        return [int(f) if f < l else l if f >= top else l + 1 + _halving_run(u(), n - l - 1)]
    out, improvers = [], []
    for i, f in enumerate(firsts):
        if f < l:
            out.append(int(f))
        elif f < top:
            improvers.append(i)
            out.append(l + 1)
        else:
            out.append(l)
    if len(improvers) == 1:
        out[improvers[0]] += _halving_run(u(), n - l - 1)
    elif improvers:
        p = op.p if op.kind == STANDARD_MUTATION else 0.0  # RLS flips nothing else
        live = improvers
        for _ in range(n - l - 1):
            one = u() < 0.5  # the parent's bit here; an offspring keeps a one
            live = [i for i in live if (u() < p) != one]  # where its mask bit differs
            if not live:
                break
            for i in live:
                out[i] += 1
    return out


def mirrored(op: UnaryOperator, x: BitString, rng: UniformStream) -> tuple[BitString, BitString]:
    """Offspring plus its complement (the complement query is 'free')."""
    y = apply(op, x, rng)
    return y, y.complement()


def radius_pmf(op: UnaryOperator, n: int) -> dict[int, Fraction]:
    """Exact distribution over flip radii. p is taken at its binary-float value."""
    op.validate_for(n)
    if op.kind == FLIP_EXACT:
        return {op.r: Fraction(1)}
    # C(n, r) p^r q^(n-r) from the term before it: every product has one
    # small factor, so no step reduces two big fractions against each other
    p = Fraction(op.p)
    q = 1 - p
    if q == 0:
        return {r: Fraction(int(r == n)) for r in range(n + 1)}
    odds = p / q
    pmf, term = {}, q**n
    for r in range(n + 1):
        pmf[r] = term
        term = term * odds * Fraction(n - r, r + 1)
    return pmf


def transition_prob(op: UnaryOperator, x: BitString, y: BitString) -> Fraction:
    """Exact P(y | x); depends on (x, y) only through their Hamming distance."""
    n = x.n
    d = hamming_distance(x, y)
    pmf = radius_pmf(op, n)
    return pmf.get(d, Fraction(0)) / comb(n, d)


def exact_distribution(op: UnaryOperator, x: BitString) -> dict[int, Fraction]:
    """Full offspring distribution {packed value: probability}; small n only."""
    n = x.n
    if n > 14:
        raise ValueError("exact distribution is exponential in n; use n <= 14")
    out = {}
    for v in range(1 << n):
        pr = transition_prob(op, x, BitString(n, v))
        if pr:
            out[v] = pr
    return out


_P_FRACTION = re.compile(r"^\s*([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\s*/\s*n\s*$")


def resolve_p(spec, n: int) -> float:
    """Resolve a mutation-probability descriptor against the dimension.

    Accepts a number, or a string "c/n" with numeric c (e.g. "1/n").
    """
    if isinstance(spec, (int, float)):
        return float(spec)
    if isinstance(spec, str):
        m = _P_FRACTION.match(spec)
        if m:
            return float(m.group(1)) / n
        try:
            return float(spec)
        except ValueError:
            pass
    raise ValueError(f"cannot resolve mutation probability {spec!r}")

