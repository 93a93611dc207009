"""Evaluable runtime-bound curves and drift-theorem calculators.

Curves with explicit constants can gate pass/fail checks; Omega/Theta
shapes are emitted with constant 1 and flagged asymptotic_only, and the
harness refuses to use those as thresholds.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import cached_property
from math import e, log
from typing import Callable, NamedTuple


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
    constants: dict = field(default_factory=dict)

    @cached_property
    def params(self) -> tuple[str, ...]:
        """The curve's parameters, in the order evaluate takes them."""
        return tuple(inspect.signature(self.evaluate).parameters)

    def __call__(self, **kwargs) -> float:
        args = {k: kwargs[k] for k in self.params}
        non_finite = [f"{k}={v}" for k, v in args.items() if not math.isfinite(v)]
        if non_finite:
            raise ValueError(f"bound {self.id!r} needs finite parameters, got {', '.join(non_finite)}")
        value = self.evaluate(**args)
        if not math.isfinite(value):
            raise ValueError(f"bound {self.id!r} overflows at {args}")
        return value


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
            constants={"c": 1.0 / LB_PARALLEL_DIVISOR},
        ),
        BoundSpec(
            id="lb-parallel-term",
            evaluate=lb_parallel_term,
            asymptotic_only=False,
            constants={"c": 1.0 / LB_PARALLEL_DIVISOR},
        ),
        BoundSpec(
            id="lb-nlogn-term",
            evaluate=lb_nlogn_term,
            asymptotic_only=False,
        ),
        BoundSpec(
            id="lb-leadingones",
            evaluate=lb_leadingones,
            asymptotic_only=True,
        ),
        BoundSpec(
            id="ub-leadingones",
            evaluate=ub_leadingones,
            asymptotic_only=True,
        ),
        BoundSpec(
            id="hcy-onemax",
            evaluate=hcy_onemax,
            asymptotic_only=True,
        ),
        BoundSpec(
            id="adaptive-ub",
            evaluate=adaptive_ub,
            asymptotic_only=False,
            constants={"a": 3.0 + e, "b": e},
        ),
        BoundSpec(
            id="cutoff-onemax",
            evaluate=cutoff_onemax,
            asymptotic_only=True,
        ),
        BoundSpec(
            id="cutoff-leadingones",
            evaluate=cutoff_leadingones,
            asymptotic_only=True,
        ),
        BoundSpec(
            id="cutoff-fixed-ea",
            evaluate=cutoff_fixed_ea,
            asymptotic_only=True,
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


# ------------------------------------------------------ coupon-style bound

class CouponBound(NamedTuple):
    threshold: float
    prob_bound: float


def multibit_nstar(n: int) -> float:
    """n* = n / (2^13 ln n), the slow-bit count of the multi-bit progress
    argument and of the coupon-style bound."""
    return n / (2**13 * log(n))


def coupon_bound(n: int, delta: float) -> CouponBound:
    """Evaluation threshold (1-delta)(n-1) ln n and the explicit probability
    (1 - n^-(1-delta))^(n*/2) of fixing all n*/2 slow bits within it."""
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if n < 2:
        raise ValueError("n must be >= 2")
    threshold = (1.0 - delta) * (n - 1) * log(n)
    prob = (1.0 - n ** (-(1.0 - delta))) ** (multibit_nstar(n) / 2.0)
    return CouponBound(threshold, prob)
