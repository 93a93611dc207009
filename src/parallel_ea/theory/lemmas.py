"""Numeric verification of the progress-law inequalities and tail bounds.

Each checker asserts a stated inequality literally, over an explicit grid:
exact big-integer cross-multiplication where the grid allows it, log-gamma
arithmetic for huge dimensions.  The checkers are the oracle; a report
with pass=False carries every violating grid point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import exp, inf, log, sqrt
from typing import Optional, Sequence

import numpy as np

from ..rng import derive_rng
from .bounds import DEFAULT_DELTA, coupon_bound
from .pmf import (
    EXACT,
    ProgressParams,
    _delta0_counts,
    _delta0_tail_counts,
    delta0_pmf,
    delta0_point_log_prob,
    delta0_tail_prob,
)

# Explicit constants carried by the bounds being verified.
GAMMA_POTENTIAL = log(0.75 * sqrt(2.0))  # mgf exponent of the potential drop
ETA_FREE_RIDERS = log(1.5)  # geometric free-rider chain
D_FREE_RIDERS = 2.0
ETA_DROP_CHAIN = log(4.0 / 3.0)  # expected-max chain for the potential drop
D_DROP_CHAIN = 9.0 + 6.0 * sqrt(2.0)

MAX_VIOLATIONS_KEPT = 25


@dataclass
class LemmaReport:
    lemma: str
    grid: str
    points_checked: int = 0
    max_slack: float = 0.0
    violations: list = field(default_factory=list)
    passed: bool = True
    details: dict = field(default_factory=dict)

    def record(self, point: dict, slack: float) -> None:
        self.passed = False
        if len(self.violations) < MAX_VIOLATIONS_KEPT:
            self.violations.append({**point, "slack": slack})

    def observe(self, slack: float, violation: Optional[dict] = None) -> None:
        """Raise max_slack to slack; a violating point is recorded with it."""
        if slack > self.max_slack:
            self.max_slack = slack
        if violation is not None:
            self.record(violation, slack)

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "grid": self.grid,
            "points_checked": self.points_checked,
            "max_slack": self.max_slack,
            "violations": self.violations,
            "pass": self.passed,
            "details": self.details,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _comb_table(n: int) -> list[list[int]]:
    """Pascal's triangle as rows[a][b] = C(a, b) for 0 <= a, b <= n, with
    C(a, b) = 0 for b > a."""
    rows = [[1] + [0] * n]
    for _ in range(n):
        prev = rows[-1]
        rows.append([1] + [prev[b - 1] + prev[b] for b in range(1, n + 1)])
    return rows


def _floats(rows: list[list[int]]) -> list[list[float]]:
    return [[float(c) for c in row] for row in rows]


def _check_grid(lemma: str, n: int, lo: int, hi: Optional[int] = None) -> None:
    """Refuse an n outside [lo, hi]; below lo the grid has no points, and a
    report over no points would pass without checking anything."""
    if n < lo or (hi is not None and n > hi):
        span = f"{lo} <= n <= {hi}" if hi is not None else f"n >= {lo}"
        raise ValueError(f"the {lemma} grid needs {span}, got n={n}")


def verify_hypergeom_tail(n: int) -> LemmaReport:
    """P(Z=z) <= C(r,z) (m/n)^z for all z, and C(r,z) <= 4^z for z >= r/2,
    over the full (m, r, z) grid.  Exact integer comparisons."""
    _check_grid("hypergeom-tail", n, 1, 512)
    report = LemmaReport(
        lemma="hypergeom-tail",
        grid=f"n={n}, all 0<=m,r<=n, z in support",
    )
    ci = _comb_table(n)
    cf = _floats(ci)
    for m in range(n + 1):
        for r in range(n + 1):
            den = ci[n][r]
            den_f = cf[n][r]
            mz = 1  # m^z
            nz = 1  # n^z
            four_z = 1  # 4^z
            for z in range(min(m, r) + 1):
                if z > 0:
                    mz *= m
                    nz *= n
                    four_z *= 4
                num = ci[m][z] * ci[n - m][r - z]
                bound_int = ci[r][z] * mz
                report.points_checked += 1
                if num * nz > bound_int * den:
                    report.record({"m": m, "r": r, "z": z, "which": "binomial-bound"}, inf)
                if num and bound_int:
                    pmf_f = cf[m][z] * cf[n - m][r - z] / den_f
                    report.observe(pmf_f / (cf[r][z] * (m / n) ** z))
                if 2 * z >= r and ci[r][z] > four_z:
                    report.record({"m": m, "r": r, "z": z, "which": "4^z-bound"}, inf)
    return report


def verify_improve_prob(n: int) -> LemmaReport:
    """P(Delta_0(s,m,r) = z) <= (1/2)^(z/2) for s <= m <= n/8, r in [1,n],
    z >= 1.  Exact: num^2 * 2^z <= den^2 by cross-multiplication."""
    _check_grid("improve-prob", n, 8)
    report = LemmaReport(
        lemma="improve-prob",
        grid=f"n={n}, s<=m<={n // 8}, r in [1,{n}], z>=1",
    )
    ci = _comb_table(n)
    cf = _floats(ci)
    m_cap = n // 8
    for m in range(m_cap + 1):
        for s in range(m + 1):
            for r in range(1, n + 1):
                den = ci[n][r]
                den_f = cf[n][r]
                counts = _delta0_counts(ci, n, s, m, r)
                counts_f = _delta0_counts(cf, n, s, m, r)
                report.points_checked += s
                for z in range(1, s + 1):
                    num = counts[z]
                    if num * num << z > den * den:
                        report.record({"s": s, "m": m, "r": r, "z": z}, inf)
                    if num:
                        report.observe(counts_f[z] / den_f / 0.5 ** (z / 2))
    return report


def verify_chvatal(n: int) -> LemmaReport:
    """Exact P(Delta_0 > 0) <= exp(-(m-s)^2 / (2r)) for s <= m <= n/2,
    r in [1, n].  Compared in log space to dodge underflow."""
    _check_grid("chvatal", n, 1)
    report = LemmaReport(
        lemma="chvatal",
        grid=f"n={n}, s<=m<={n // 2}, r in [1,{n}]",
    )
    ci = _comb_table(n)
    for m in range(n // 2 + 1):
        tails = [_delta0_tail_counts(ci, n, m, r) for r in range(n + 1)]
        for s in range(m + 1):
            for r in range(1, n + 1):
                num = tails[r][s]
                report.points_checked += 1
                if num == 0:
                    continue
                log_p = log(num) - log(ci[n][r])
                log_bound = -((m - s) ** 2) / (2 * r)
                report.observe(exp(log_p - log_bound),
                               {"s": s, "m": m, "r": r} if log_p > log_bound + 1e-12 else None)
    return report


def mgf_series_value(lam: float, gamma: float = GAMMA_POTENTIAL, rel_tol: float = 1e-15) -> float:
    """sum_z lam * 2^(1 - z/2) * e^(gamma z); closes to 8*lam at the stated gamma."""
    ratio = exp(gamma) / sqrt(2.0)
    if ratio >= 1.0:
        raise ValueError("series diverges for exp(gamma) >= sqrt(2)")
    total = 0.0
    term = 2.0 * lam
    while term > rel_tol * max(total, 1.0):
        total += term
        term *= ratio
    return total


def verify_mgf_bound(n: int, lam: int | Sequence[int] = (1, 64, 4096)) -> LemmaReport:
    """Premise chain of the 8*lambda mgf bound.

    Per-z union bound P(Delta_0(s,m,r)=z) + P(Delta_0(s,m,n-r)=z) <= 2^(1-z/2)
    on the full grid s <= n/8, s <= m <= n/2, r in [0,n] (exact integers),
    then the geometric series sum_z lam 2^(1-z/2) e^(gamma z) = 8 lam.
    """
    _check_grid("mgf", n, 8)
    lambdas = [lam] if isinstance(lam, (int, float)) else list(lam)
    if not lambdas or min(lambdas) < 1:
        raise ValueError(f"the mgf series needs at least one lambda, each >= 1, got {lambdas}")
    report = LemmaReport(
        lemma="mgf",
        grid=f"n={n}, s<={n // 8}, s<=m<={n // 2}, r in [0,{n}], z in [1,s]",
    )
    ci = _comb_table(n)
    for s in range(n // 8 + 1):
        for m in range(s, n // 2 + 1):
            for r in range(n + 1):
                den = ci[n][r]
                den_f = float(den)
                counts = _delta0_counts(ci, n, s, m, r)
                mirror = _delta0_counts(ci, n, s, m, n - r)
                report.points_checked += s
                for z in range(1, s + 1):
                    num = counts[z] + mirror[z]
                    if num == 0:
                        continue
                    # (num/den) <= 2 * 2^(-z/2)  <=>  num^2 * 2^z <= 4 den^2
                    if num * num << z > 4 * den * den:
                        report.record({"s": s, "m": m, "r": r, "z": z}, inf)
                    report.observe((num / den_f) / (2.0 * 0.5 ** (z / 2)))
    series = {}
    for lam_v in lambdas:
        value = mgf_series_value(float(lam_v))
        target = 8.0 * lam_v
        series[str(lam_v)] = {"series": value, "eight_lambda": target}
        if abs(value - target) > 1e-9 * target:
            report.record({"lambda": lam_v, "series": value}, value / target)
    report.details["gamma"] = GAMMA_POTENTIAL
    report.details["series"] = series
    return report


def _geometric_grid(lo: int, hi: int, count: int) -> list[int]:
    if lo > hi:
        return []
    if lo < 1:
        pts = {lo}
        lo = 1
    else:
        pts = set()
    if count < 2 or lo == hi:
        pts.add(lo)
        pts.add(hi)
        return sorted(pts)
    ratio = hi / lo
    for i in range(count):
        pts.add(min(hi, max(lo, round(lo * ratio ** (i / (count - 1))))))
    return sorted(pts)


def multibit_nstar(n: int) -> float:
    return n / (2**13 * log(n))


def verify_multibit_progress(
    n: int, s_values: Sequence[int] = (0, 1, 2), grid_points: int = 64, z_max: int = 200
) -> LemmaReport:
    """Sampled-grid check of the multi-bit progress bound at huge n.

    Low/high parent regimes m in [s, 2n*] u [n-2n*, n-s]:
    P(Delta_0 = z) <= (16 n*/n)^2 2^(-z); middle regime asserts the
    Chvatal-route bound exp(-(m-s)^2/(2r)).  Log-space backend; radii
    sample a geometric grid plus the near-|m| band where the progress
    law actually has support.
    """
    nstar = multibit_nstar(n) if n > 1 else 0.0  # n* is undefined for n <= 1
    if nstar < 2:
        raise ValueError(
            f"n={n} gives n* = n/(2^13 ln n) = {nstar:.3f} < 2; the sampled-grid "
            "check needs n large enough that n* >= 2 (n >= 2^18 works)"
        )
    report = LemmaReport(
        lemma="multibit",
        grid=(
            f"n={n}, s in {tuple(s_values)}, m in [s,2n*] u [n-2n*,n-s] plus "
            f"{grid_points}-point geometric middle grid, r geometric + near-support, "
            f"z in [1,{z_max}]"
        ),
        details={"n_star": nstar},
    )
    log_low_bound = 2.0 * log(16.0 * nstar / n)
    log2 = log(2.0)
    two_nstar = int(2 * nstar)

    def radii_for(m: int) -> list[int]:
        rs = set(_geometric_grid(2, n - 2, grid_points))
        for centre in (m, n - m):
            for d in range(-2, 3):
                rs.add(centre + d)
        return sorted(r for r in rs if 2 <= r <= n - 2)

    for s in s_values:
        if not 0 <= s <= nstar:
            raise ValueError(f"sampled s={s} violates s <= n* = {nstar:.3f}")
        low = list(range(s, two_nstar + 1))
        for m in low + [n - m for m in low]:
            for r in radii_for(m):
                for z in range(1, z_max + 1):
                    lp = delta0_point_log_prob(n, s, m, r, z)
                    report.points_checked += 1
                    if lp == -inf:
                        continue
                    log_bound = log_low_bound - z * log2
                    report.observe(exp(lp - log_bound),
                                   {"s": s, "m": m, "r": r, "z": z, "regime": "low/high"}
                                   if lp > log_bound + 1e-12 else None)
        for m in _geometric_grid(two_nstar + 1, n - two_nstar - 1, grid_points):
            for r in radii_for(m):
                m_sym, r_sym = (m, r) if m <= n / 2 else (n - m, n - r)
                log_bound = -((m_sym - s) ** 2) / (2 * r_sym)
                for z in range(1, z_max + 1):
                    lp = delta0_point_log_prob(n, s, m, r, z)
                    report.points_checked += 1
                    if lp == -inf:
                        continue
                    report.observe(exp(lp - log_bound),
                                   {"s": s, "m": m, "r": r, "z": z, "regime": "middle"}
                                   if lp > log_bound + 1e-12 else None)
    return report


def verify_delta_symmetry(n: int) -> LemmaReport:
    """Exact pmf identity Delta_0(s,m,r) ~ Delta_0(s,n-m,n-r), all (s,m,r)."""
    _check_grid("delta-symmetry", n, 0)
    report = LemmaReport(
        lemma="delta-symmetry",
        grid=f"n={n}, 0<=s<=n/2, s<=m<=n-s, 0<=r<=n",
    )
    for s in range(n // 2 + 1):
        for m in range(s, n - s + 1):
            for r in range(n + 1):
                a = delta0_pmf(ProgressParams(n, s, m, r), EXACT).entries
                b = delta0_pmf(ProgressParams(n, s, n - m, n - r), EXACT).entries
                report.points_checked += 1
                if dict(a) != dict(b):
                    report.record({"s": s, "m": m, "r": r}, inf)
    report.max_slack = 1.0
    return report


def drop_chain_series(rel_tol: float = 1e-15) -> float:
    """sum_z 2^(-z/2) (4/3)^z, the mgf of the per-step drop chain at
    eta = ln(4/3); closes to 9 + 6 sqrt(2)."""
    ratio = (4.0 / 3.0) / sqrt(2.0)
    total, term = 0.0, 1.0
    while term > rel_tol * max(total, 1.0):
        total += term
        term *= ratio
    return total


def expected_max_drop(lam: int) -> float:
    """Explicit-constant expected max drop over lam parallel trials:
    (ln((9 + 6 sqrt 2) lam) + 1) / ln(4/3)."""
    return expected_max_bound(ETA_DROP_CHAIN, D_DROP_CHAIN, lam)


def expected_max_bound(eta: float, d_const: float, lam: int) -> float:
    """(ln(D * lambda) + 1) / eta: expected maximum of lambda variables whose
    mgf at eta is at most D (independence not required)."""
    if eta <= 0 or d_const < 1 or lam < 1:
        raise ValueError("need eta > 0, D >= 1, lambda >= 1")
    return (log(d_const * lam) + 1.0) / eta


def mc_check_max_geometric(
    lam: int,
    trials: int,
    rng: Optional[np.random.Generator] = None,
    eta: float = ETA_FREE_RIDERS,
    d_const: float = D_FREE_RIDERS,
) -> dict:
    """Monte-Carlo check: the sample mean of max of lam iid Geometric(1/2)
    variables (support 0, 1, ...) stays below the mgf-based formula value."""
    if lam < 1 or trials < 1:
        raise ValueError(f"the mgf-max check needs lambda >= 1 and trials >= 1, "
                         f"got lambda={lam}, trials={trials}")
    rng = rng if rng is not None else derive_rng(0)
    samples = rng.geometric(0.5, size=(trials, lam)) - 1
    sample_mean = float(samples.max(axis=1).mean())
    bound = expected_max_bound(eta, d_const, lam)
    return {
        "lambda": lam,
        "trials": trials,
        "eta": eta,
        "D": d_const,
        "sample_mean": sample_mean,
        "bound": bound,
        "pass": sample_mean <= bound,
    }


def verify_max_geometric(
    lam: int = 100, trials: int = 10_000, seed: int = 0,
    eta: float = ETA_FREE_RIDERS, d_const: float = D_FREE_RIDERS,
) -> LemmaReport:
    result = mc_check_max_geometric(lam, trials, derive_rng(seed), eta, d_const)
    report = LemmaReport(
        lemma="mgf-max",
        grid=f"lambda={lam}, {trials} Monte-Carlo trials of max Geometric(1/2)",
        points_checked=trials,
        max_slack=result["sample_mean"] / result["bound"],
        details=result,
    )
    if not result["pass"]:
        report.record({"lambda": lam}, report.max_slack)
    return report


def verify_coupon(delta: float = DEFAULT_DELTA, ns: Sequence[int] = (10, 100, 1000)) -> LemmaReport:
    """Single-bit survival inequality behind the coupon-collector tail:
    (1 - 1/n)^((1-delta)(n-1) ln n) >= n^-(1-delta)."""
    report = LemmaReport(
        lemma="coupon",
        grid=f"delta={delta}, n in {tuple(ns)}",
        details={"points": []},
    )
    for n in ns:
        threshold, prob = coupon_bound(n, delta)
        survival = (1.0 - 1.0 / n) ** ((1.0 - delta) * (n - 1) * log(n))
        floor_val = n ** (-(1.0 - delta))
        report.points_checked += 1
        report.details["points"].append(
            {"n": n, "threshold": threshold, "prob_bound": prob,
             "survival": survival, "floor": floor_val}
        )
        report.observe(floor_val / survival if survival > 0 else inf,
                       {"n": n, "survival": survival, "floor": floor_val}
                       if survival < floor_val else None)
    return report


def exact_vs_log_max_error(n: int) -> float:
    """Cross-validation of the two pmf backends: worst relative disagreement
    over a spread of (s, m, r) cells at this n."""
    worst = 0.0
    for s in range(0, n // 2 + 1, max(1, n // 8)):
        for m in range(s, n - s + 1, max(1, n // 8)):
            for r in range(0, n + 1, max(1, n // 8)):
                params = ProgressParams(n, s, m, r)
                exact = delta0_pmf(params, EXACT)
                for z in range(1, s + 1):
                    p_exact = float(exact.prob(z))
                    if p_exact == 0.0:
                        continue
                    p_log = exp(delta0_point_log_prob(n, s, m, r, z))
                    worst = max(worst, abs(p_log - p_exact) / p_exact)
    return worst


def chvatal_point_check(n: int, s: int, m: int, r: int) -> dict:
    """Exact tail value and bound at one cell, for spot checks."""
    tail = delta0_tail_prob(n, s, m, r)
    bound = exp(-((m - s) ** 2) / (2 * r))
    return {"tail": tail, "bound": bound, "pass": float(tail) <= bound}
