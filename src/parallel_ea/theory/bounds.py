"""Evaluable runtime-bound curves and drift-theorem calculators.

Curves with explicit constants can gate pass/fail checks; Omega/Theta
shapes are emitted with constant 1 and flagged asymptotic_only, and the
harness refuses to use those as thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import e, exp, log
from typing import Callable, NamedTuple, Sequence, Union


DEFAULT_DELTA = 0.5  # delta of the bound overlays and checks unless one is given

LB_PARALLEL_DIVISOR = 60.0  # lb-unique's parallel term is lam n / (60 ln+ lam)


def ln_plus(x: float) -> float:
    """max(1, ln x) for x > 0."""
    if x <= 0:
        raise ValueError(f"ln_plus needs x > 0, got {x}")
    return max(1.0, log(x))


@dataclass(frozen=True)
class BoundSpec:
    """Closed-form bound curve with provenance."""

    id: str
    evaluate: Callable[..., float]
    asymptotic_only: bool
    description: str
    constants: dict = field(default_factory=dict)
    params: tuple[str, ...] = ("n", "lam")

    def __call__(self, **kwargs) -> float:
        return self.evaluate(**{k: kwargs[k] for k in self.params})


def _check_n(n: float) -> None:
    if n < 3:
        raise ValueError(f"bound curves need n >= 3, got {n}")


def lb_unique(n: float, lam: float, delta: float) -> float:
    """Explicit-constant lower bound for hitting any small target set:
    max{lam n / (60 ln+ lam), (1 - delta) n ln n}."""
    return max(lb_parallel_term(n, lam), lb_nlogn_term(n, delta))


def lb_parallel_term(n: float, lam: float) -> float:
    """The parallel term alone: lam n / (60 ln+ lam)."""
    _check_n(n)
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    return lam * n / (LB_PARALLEL_DIVISOR * ln_plus(lam))


def lb_nlogn_term(n: float, delta: float) -> float:
    """The sequential term alone: (1 - delta) n ln n."""
    _check_n(n)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return (1.0 - delta) * n * log(n)


def lb_leadingones(n: float, lam: float) -> float:
    """Asymptotic shape lam n / ln+(lam/n) + n^2, constant 1."""
    _check_n(n)
    return lam * n / ln_plus(lam / n) + n * n


def ub_leadingones(n: float, lam: float) -> float:
    """Asymptotic shape lam n + n^2, constant 1."""
    _check_n(n)
    return lam * n + n * n


def hcy_onemax(n: float, lam: float) -> float:
    """Asymptotic shape of the fixed-rate (1+lambda) EA time on onemax:
    n lam lnln(lam)/ln(lam) + n ln n, with ln+ clamping throughout."""
    _check_n(n)
    return n * lam * ln_plus(ln_plus(lam)) / ln_plus(lam) + n * log(n)


def adaptive_ub(n: float, lam: float) -> float:
    """Explicit upper bound for the adaptive-rate (1+lambda) EA on onemax:
    (3 + e) lam n / ln(lam) + e n (2 + ln n); ln+ guards lam < e."""
    _check_n(n)
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    return (3.0 + e) * lam * n / ln_plus(lam) + e * n * (2.0 + log(n))


def cutoff_onemax(n: float) -> float:
    """Theta shape ln(n) lnln(n) of the adaptive-EA cut-off, constant 1."""
    _check_n(n)
    return log(n) * ln_plus(log(n))


def cutoff_leadingones(n: float) -> float:
    """Cut-off parallelism for leadingones: n."""
    _check_n(n)
    return float(n)


def cutoff_fixed_ea(n: float) -> float:
    """Theta shape ln(n) lnln(n) / lnlnln(n) of the fixed-rate EA cut-off,
    constant 1, ln+ clamps keep it total for small n."""
    _check_n(n)
    return log(n) * ln_plus(log(n)) / ln_plus(ln_plus(log(n)))


BOUNDS: dict[str, BoundSpec] = {
    spec.id: spec
    for spec in (
        BoundSpec(
            id="lb-unique",
            evaluate=lb_unique,
            asymptotic_only=False,
            description="max{lam n/(60 ln+ lam), (1-delta) n ln n} evaluations "
            "before any small fixed target set is hit, with overwhelming probability",
            constants={"c": 1.0 / LB_PARALLEL_DIVISOR},
            params=("n", "lam", "delta"),
        ),
        BoundSpec(
            id="lb-parallel-term",
            evaluate=lb_parallel_term,
            asymptotic_only=False,
            description="lam n/(60 ln+ lam): the parallelism term of lb-unique alone",
            constants={"c": 1.0 / LB_PARALLEL_DIVISOR},
        ),
        BoundSpec(
            id="lb-nlogn-term",
            evaluate=lb_nlogn_term,
            asymptotic_only=False,
            description="(1-delta) n ln n: the sequential term of lb-unique alone",
            params=("n", "delta"),
        ),
        BoundSpec(
            id="lb-leadingones",
            evaluate=lb_leadingones,
            asymptotic_only=True,
            description="lam n/ln+(lam/n) + n^2 lower-bound shape for leadingones",
        ),
        BoundSpec(
            id="ub-leadingones",
            evaluate=ub_leadingones,
            asymptotic_only=True,
            description="lam n + n^2 upper-bound shape for leadingones",
        ),
        BoundSpec(
            id="hcy-onemax",
            evaluate=hcy_onemax,
            asymptotic_only=True,
            description="n lam lnln(lam)/ln(lam) + n ln n fixed-rate EA shape on onemax",
        ),
        BoundSpec(
            id="adaptive-ub",
            evaluate=adaptive_ub,
            asymptotic_only=False,
            description="(3+e) lam n/ln lam + e n (2 + ln n) adaptive-EA upper bound on onemax",
            constants={"a": 3.0 + e, "b": e},
        ),
        BoundSpec(
            id="cutoff-onemax",
            evaluate=cutoff_onemax,
            asymptotic_only=True,
            description="ln(n) lnln(n) cut-off shape for onemax (adaptive EA)",
            params=("n",),
        ),
        BoundSpec(
            id="cutoff-leadingones",
            evaluate=cutoff_leadingones,
            asymptotic_only=True,
            description="cut-off parallelism n for leadingones",
            params=("n",),
        ),
        BoundSpec(
            id="cutoff-fixed-ea",
            evaluate=cutoff_fixed_ea,
            asymptotic_only=True,
            description="ln(n) lnln(n)/lnlnln(n) cut-off shape for the fixed-rate EA",
            params=("n",),
        ),
    )
}


def get_bound(bound_id: str) -> BoundSpec:
    try:
        return BOUNDS[bound_id]
    except KeyError:
        raise ValueError(
            f"unknown bound id {bound_id!r}; known: {', '.join(sorted(BOUNDS))}"
        ) from None


# ------------------------------------------------------- drift calculators

class DriftTail(NamedTuple):
    value: float  # clamped to [0, 1]
    raw: float
    log_raw: float


BetaLike = Union[float, Sequence[float]]


def _log_beta_products(beta: BetaLike, t: float) -> list[float]:
    """log prod_{r<s} beta(r) for s = 0..t (scalar beta allows real t)."""
    if isinstance(beta, (int, float)):
        if t != int(t) and t < 0:
            raise ValueError("t must be non-negative")
        steps = int(t)
        logs = [s * log(beta) for s in range(steps + 1)]
        if t != steps:  # fractional tail for real t with scalar beta
            logs.append(t * log(beta))
        return logs
    seq = list(beta)
    steps = int(t)
    if steps > len(seq):
        raise ValueError(f"beta sequence of length {len(seq)} too short for t={t}")
    logs = [0.0]
    for s in range(steps):
        logs.append(logs[-1] + log(seq[s]))
    return logs


def additive_bounds(g0: float, alpha: float) -> float:
    """Expected-hitting-time form g(X_0)/alpha (both drift directions)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return g0 / alpha


def tail_upper(beta: BetaLike, gamma: float, g0: float, ga: float, t: float) -> DriftTail:
    """P(T_a > t) < (prod beta_u) e^{gamma (g0 - ga)}."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if t <= 0:
        return DriftTail(0.0, 0.0, -math.inf)
    logs = _log_beta_products(beta, t)
    log_raw = logs[-1] + gamma * (g0 - ga)
    raw = exp(log_raw) if log_raw < 700 else math.inf
    return DriftTail(min(1.0, max(0.0, raw)), raw, log_raw)


def tail_lower(
    beta: BetaLike, gamma: float, g0: float, ga: float, t: float, absorbing: bool = False
) -> DriftTail:
    """P(T_a < t): sum-of-products form, or the product form when the
    states at or below a are absorbing."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if t <= 0:
        return DriftTail(0.0, 0.0, -math.inf)
    logs = _log_beta_products(beta, t)
    shift = -gamma * (g0 - ga)
    if absorbing:
        log_raw = logs[-1] + shift
    else:
        # log sum over s = 1..t-1 of prod_{r<s} beta
        terms = logs[1:-1]
        if not terms:
            return DriftTail(0.0, 0.0, -math.inf)
        peak = max(terms)
        log_raw = peak + log(sum(exp(v - peak) for v in terms)) + shift
    raw = exp(log_raw) if log_raw < 700 else math.inf
    return DriftTail(min(1.0, max(0.0, raw)), raw, log_raw)


# ------------------------------------------------------ coupon-style bound

class CouponBound(NamedTuple):
    threshold: float
    prob_bound: float


def coupon_bound(n: int, delta: float) -> CouponBound:
    """Evaluation threshold (1-delta)(n-1) ln n and the explicit probability
    (1 - n^-(1-delta))^(n*/2) of fixing all n*/2 slow bits within it."""
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if n < 2:
        raise ValueError("n must be >= 2")
    threshold = (1.0 - delta) * (n - 1) * log(n)
    nstar = n / (2**13 * log(n))
    prob = (1.0 - n ** (-(1.0 - delta))) ** (nstar / 2.0)
    return CouponBound(threshold, prob)
