"""Unary unbiased variation operators.

Every operator here is invariant under bit-position permutations composed
with a global bit-value exchange; equivalently, each is a distribution
over flip radii with uniform sampling on the radius-r sphere.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import exp, lgamma, log, log1p
from typing import Optional

import numpy as np

from .bitstring import BitString
from .rng import UniformStream

FLIP_EXACT = "flip-exact-r"
STANDARD_MUTATION = "standard-mutation"


@dataclass(frozen=True, slots=True)
class UnaryOperator:
    """Descriptor of a unary unbiased variation kernel.

    kind: one of flip-exact-r (radius r) and standard-mutation (per-bit
    probability p, radius Binomial(n, p)).  radius_law is `apply`'s copy of
    standard mutation's radius law at the last n it drew at, (n, lo, cdf).
    """

    kind: str
    r: Optional[int] = None
    p: Optional[float] = None
    radius_law: tuple = field(default=(0, 0, ()), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind == FLIP_EXACT:
            if self.r is None or self.r < 0 or self.p is not None:
                raise ValueError(f"flip-exact-r needs a radius r >= 0 and no rate p, got {self!r}")
        elif self.kind == STANDARD_MUTATION:
            if self.p is None or not 0.0 <= self.p <= 1.0 or self.r is not None:
                raise ValueError(f"standard-mutation needs p in [0, 1] and no radius r, got {self!r}")
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


def apply(op: UnaryOperator, x: BitString, rng: UniformStream) -> BitString:
    """Draw one offspring of x under op, from the stream's uniform doubles.

    flip-exact-r is uniform on the radius-r sphere around x; r is checked
    against n here.  standard-mutation reads r ~ Binomial(n, p), the ones
    count of an offspring of 0^n, off that law's CDF (p being checked when
    op was built), and then flips a uniform r-subset, which is exactly the
    iid per-bit flip distribution.  The CDF comes from the law cache once
    per operator and n, and then from `op.radius_law`.
    """
    n = x.n
    if op.kind == STANDARD_MUTATION:
        m, lo, cdf = op.radius_law
        if m != n:
            lo, cdf = _ones_count_cdf.get(n, 0, op.p)
            object.__setattr__(op, "radius_law", (n, lo, cdf))
        r = lo + bisect_right(cdf, rng.next_double())
    else:
        op.validate_for(n)
        r = op.r
    if r == 0:
        return x
    if r == 1:  # `sample_distinct_positions`' first step, on the same double
        return x.flip_mask(1 << int(rng.next_double() * n))
    mask = 0
    for pos in sample_distinct_positions(rng, n, r):
        mask |= 1 << pos
    return x.flip_mask(mask)


# From this offspring count on, the chain samplers return a generation as a
# histogram (lo, counts), counts[i] offspring in state lo + i, and the
# runner selects with one scan of the counts; below it they return one
# state per offspring, and a per-offspring loop selects.  Timing both
# shapes on onemax, twomax and leadingones put the crossover between 16 and
# 24 (CHANGES.md).
HISTOGRAM_LAMBDA = 32


def _binomial_terms(n: int, p: float) -> tuple[int, list[float]]:
    """(lo, terms): terms[i] = P(B = lo + i) for B ~ Binomial(n, p), tails cut.

    The terms recur from the mode, which is exponentiated from log space, so
    the start does not underflow as (1-p)^n does at large n.  Each side ends
    at the first term that can no longer move the sum.
    """
    if p == 0.0 or n == 0:
        return 0, [1.0]
    if p == 1.0:
        return n, [1.0]
    odds = p / (1.0 - p)
    mode = min(n, int((n + 1) * p))
    term = total = exp(lgamma(n + 1) - lgamma(mode + 1) - lgamma(n - mode + 1)
                       + mode * log(p) + (n - mode) * log1p(-p))
    up = [term]
    for r in range(mode, n):
        term *= odds * (n - r) / (r + 1)
        if total + term == total:
            break
        total += term
        up.append(term)
    down, term = [], up[0]
    for r in range(mode, 0, -1):
        term *= r / ((n - r + 1) * odds)
        if total + term == total:
            break
        total += term
        down.append(term)
    down.reverse()
    return mode - len(down), down + up


def _ones_count_pmf(n: int, k: int, p: float) -> tuple[int, np.ndarray]:
    """(lo, probs): the law of k + Binomial(n - k, p) - Binomial(k, p), the
    ones count of one offspring of a point with k ones under standard
    mutation, on the states lo, lo + 1, ...: the cut gain and loss laws
    convolved and normalised.  The log-space start is exact only to about
    1e-12 at n = 1000, and numpy's multinomial refuses probabilities whose
    sum exceeds 1 by that much, so the normalisation is needed."""
    g0, gain = _binomial_terms(n - k, p)
    l0, loss = _binomial_terms(k, p)
    loss.reverse()
    probs = np.convolve(gain, loss)
    probs /= probs.sum()
    return k + g0 - l0 - len(loss) + 1, probs


def _ones_count_cdf_of(n: int, k: int, p: float) -> tuple[int, list[float]]:
    """(lo, cdf) of `_ones_count_pmf`, for the per-offspring draw; the last
    entry is set to 1.0, so a u past the sum takes the last state."""
    lo, probs = _ones_count_pmf(n, k, p)
    cdf = probs.cumsum().tolist()
    cdf[-1] = 1.0
    return lo, cdf


class _Laws:
    """`get` is an LRU cache of law(n, k, p) that holds at least n + 1 laws
    (4096 below that): a run on n bits reads one law per ones count k, its
    rate fixed or set by k, so it never evicts a law it reads again.  The
    first law at a larger n swaps in a larger, empty cache."""

    def __init__(self, law):
        self.law = law
        self.get = lru_cache(maxsize=4096)(self._build)

    def _build(self, n: int, k: int, p: float):
        if n >= self.get.cache_parameters()["maxsize"]:
            self.get = lru_cache(maxsize=n + 1)(self._build)
            return self.get(n, k, p)
        return self.law(n, k, p)


_ones_count_law = _Laws(_ones_count_pmf)
_ones_count_cdf = _Laws(_ones_count_cdf_of)


def ones_counts(op: UnaryOperator, n: int, k: int, size: int, rng: UniformStream):
    """Ones counts of `size` independent offspring of a point with k ones.

    The image of `apply` under x -> |x|_1, for the elitist runners'
    operators.  Standard mutation flips each bit independently, so an
    offspring has k + Binomial(n - k, p) - Binomial(k, p) ones, a law cached
    per (n, k, p).  Below HISTOGRAM_LAMBDA each offspring reads its count
    off the law's CDF with one stream double, and the counts are a list;
    from it one multinomial draw off the bit generator gives the histogram
    (lo, counts) of the whole generation over the law's states lo, lo + 1,
    ...  flip-exact at radius 1 (RLS) gains a one exactly when its position
    is one of the n - k zeros, with probability (n - k)/n, read off the
    stream's next double (to within 2^-52, as in `apply`), and its counts
    are a list.
    """
    if op.kind == STANDARD_MUTATION:
        if size >= HISTOGRAM_LAMBDA:
            lo, probs = _ones_count_law.get(n, k, op.p)
            return lo, rng.multinomial(size, probs)
        lo, cdf = _ones_count_cdf.get(n, k, op.p)
        u = rng.next_double
        if size == 1:  # the comprehension would double this call's cost
            return [lo + bisect_right(cdf, u())]
        return [lo + bisect_right(cdf, u()) for _ in range(size)]
    if op.kind == FLIP_EXACT and op.r == 1:
        u = rng.next_double
        return [k + 1 if u() * n < n - k else k - 1 for _ in range(size)]
    raise ValueError(f"no ones-count sampler for {op}")


def uniform_ones_counts(n: int, size: int, rng: UniformStream) -> list[int]:
    """Ones counts of `size` uniform points: Binomial(n, 1/2), drawn off the
    bit generator in one vector call, as a list, one state per point, which
    the runner selects from with its per-offspring loop at every size."""
    return rng.binomial(n, 0.5, size=size).tolist()


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


@lru_cache(maxsize=256)
def _first_flip_law(n: int, p: Optional[float]) -> np.ndarray:
    """P(f = j), j = 0..n-1, for one offspring's first flipped position f,
    then 0 (there is no bit n) and P(no flip): standard mutation at rate p,
    or RLS's one uniform flip when p is None.

    Against a parent with l leading ones, the slice [:l + 2] is the
    multinomial law over a cut at each j < l, an improver (f = l) and
    unchanged: numpy's multinomial gives the last category the probability
    that the others leave, so one array of n + 2 serves every l."""
    if p is None:
        probs = np.full(n + 2, 1.0 / n)
        probs[n + 1] = 0.0
    else:
        probs = p * (1.0 - p) ** np.arange(n + 2)
        probs[n + 1] = (1.0 - p) ** n
    probs[n] = 0.0
    return probs


def _free_rider_counts(live: int, cap: int, p: float, rng: UniformStream) -> list[int]:
    """How many of `live` improvers end with r = 0, 1, ..., cap free riders.

    The free riders are the parent's uniform suffix bits under independent
    masks of rate p.  One improver's run has P(R >= r) = 2^-r, from one
    stream double.  Several improvers walk together on the number still
    live: at each position the parent's bit is one with probability 1/2
    (one stream double), and then Binomial(live, 1 - p) of them keep a one,
    else Binomial(live, p) do, drawn off the bit generator; under RLS
    (p = 0) they all keep or all stop.
    """
    u = rng.next_double
    if live == 1:
        r = _halving_run(u(), cap)
        return [0] * r + [1]
    out = []
    for _ in range(cap):
        stay = 1.0 - p if u() < 0.5 else p
        kept = live if stay == 1.0 else 0 if stay == 0.0 else int(rng.binomial(live, stay))
        out.append(live - kept)
        live = kept
        if not live:
            return out
    out.append(live)
    return out


def _first_flip_rate(op: UnaryOperator) -> Optional[float]:
    """The per-bit rate p of the leading-ones samplers' first-flip law, or
    None for RLS's one uniform flip."""
    if op.kind == STANDARD_MUTATION:
        return op.p
    if op.kind == FLIP_EXACT and op.r == 1:
        return None
    raise ValueError(f"no leading-ones sampler for {op}")


def _states_of_firsts(firsts: list[float], n: int, l: int, p: Optional[float], u) -> list[int]:
    """The leading-ones counts of offspring, with first-flip values
    `firsts`, of a point with l leading ones: the list that
    `leading_ones_counts` returns, an improver's free riders read off u."""
    # floor(f) < l exactly when f < l, and f in [l, top) flips bit l first
    top = l + 1 if l < n else l
    if len(firsts) == 1:  # the loop below would double this call's cost
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
        mask = p or 0.0  # RLS flips nothing else
        live = improvers
        for _ in range(n - l - 1):
            one = u() < 0.5  # the parent's bit here; an offspring keeps a one
            live = [i for i in live if (u() < mask) != one]  # where its mask bit differs
            if not live:
                break
            for i in live:
                out[i] += 1
    return out


def leading_ones_counts(op: UnaryOperator, n: int, l: int, size: int, rng: UniformStream):
    """Leading-ones counts of `size` independent offspring of a point with
    l leading ones whose bits after its first zero are uniform.

    Below HISTOGRAM_LAMBDA each offspring reads its first flipped position f
    off one stream double u: f = floor(ln(1-u) / ln(1-p)) under standard
    mutation, floor(u n) under flip-exact radius 1 (RLS).  f < l cuts the
    prefix at f; f > l (or no flip) leaves l; f = l makes an improver with
    l + 1 + R leading ones, R the run of free riders after position l.
    Those bits are the parent's uniform suffix under an independent mask,
    so one improver's R has P(R >= k) = 2^-k, capped at n - l - 1, from one
    more double.  Several improvers share the parent's suffix: the walk
    draws the parent's bit once per position and each live improver's mask
    bit apart, and an improver stops where the two are equal.  Under RLS
    the mask is empty, so its improvers share one run.  The counts are a list.

    From HISTOGRAM_LAMBDA on, one multinomial draw over the categories of
    f (`_first_flip_law`) gives the cuts, the number of improvers and the
    unchanged offspring, and `_free_rider_counts` spreads the improvers over
    their runs: the histogram (0, counts) over the states 0, 1, ...
    """
    p = _first_flip_rate(op)
    if size >= HISTOGRAM_LAMBDA:
        counts = rng.multinomial(size, _first_flip_law(n, p)[:l + 2])
        improvers = int(counts[l])
        counts[l] = counts[l + 1]  # the unchanged offspring keep state l
        counts = counts[:l + 1]
        if improvers:
            runs = _free_rider_counts(improvers, n - l - 1, p or 0.0, rng)
            counts = np.concatenate((counts, runs))
        return 0, counts
    u = rng.next_double
    if p is not None:
        if p == 0.0:
            return [l] * size
        lq = log1p(-p)
        firsts = [log1p(-u()) / lq for _ in range(size)] if size > 1 else [log1p(-u()) / lq]
    else:
        firsts = [u() * n for _ in range(size)] if size > 1 else [u() * n]
    return _states_of_firsts(firsts, n, l, p, u)


def leading_ones_idle(op: UnaryOperator, n: int, l: int, lam: int, rng: UniformStream,
                      rank: list[float], limit: int) -> tuple[int, list[int]]:
    """(idle, states): how many idle generations of lam = 1 or 2 offspring
    of a point with l leading ones come first, at most `limit`, and the
    states of the generation after them, as `leading_ones_counts` gives it.

    rank[s] is the rank of state s, a target member's above every state's;
    the parent is no member.  A generation is idle when each offspring is
    unchanged or cut to a state that ranks below the parent.  The loop reads
    each first-flip value off one double by the sampler's arithmetic, and
    the tie double that selection reads when an idle generation's two
    offspring share a rank.  A generation with an improver or a cut ranked
    at or above the parent ends it, and the sampler's code builds its
    states; after `limit` idle generations the sampler draws the next one.
    """
    p = _first_flip_rate(op)
    if p == 0.0 or lam not in (1, 2):
        raise ValueError(f"no idle loop for {op} at lambda = {lam}")
    lq = log1p(-p) if p else 0.0
    u = rng.next_double
    # as in `_states_of_firsts`; floats compare faster with f and the ranks
    cut, top = float(l), float(l + 1 if l < n else l)
    # an unchanged offspring ranks between the parent and every state below
    # it, so two tie exactly when both are unchanged; an improver ranks with
    # the parent, and so ends the loop as a cut that ranks there does
    parent = rank[l]
    stays = parent - 0.5
    if lam == 1:
        for idle in range(limit):
            f = log1p(-u()) / lq if lq else u() * n
            if (rank[int(f)] if f < cut else stays if f >= top else parent) >= parent:
                return idle, _states_of_firsts([f], n, l, p, u)
        return limit, leading_ones_counts(op, n, l, 1, rng)
    for idle in range(limit):
        f = log1p(-u()) / lq if lq else u() * n
        g = log1p(-u()) / lq if lq else u() * n
        a = rank[int(f)] if f < cut else stays if f >= top else parent
        b = rank[int(g)] if g < cut else stays if g >= top else parent
        if a >= parent or b >= parent:
            return idle, _states_of_firsts([f, g], n, l, p, u)
        if a == b:
            u()  # the tie double
    return limit, leading_ones_counts(op, n, l, 2, rng)


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

