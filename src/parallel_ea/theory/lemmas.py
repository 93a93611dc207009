"""Numeric verification of the progress-law inequalities and tail bounds.

Each checker asserts a stated inequality literally, over an explicit grid:
exact big-integer cross-multiplication where the grid allows it, log-gamma
arithmetic for huge dimensions.  The checkers are the oracle; a report
with pass=False carries every violating grid point.

The exact grids (hypergeom-tail, improve-prob, chvatal, mgf) are filtered in
float64, one slice of O(n^2) cells per parent zero count m, from a float
copy of the one exact Pascal table.  hypergeom-tail reads each slice on
its support band only, in coordinates (Z, d = r - Z) with Z <= m and
d <= n - m: the outer product C(m, Z) C(n - m, d) times q[Z + d, Z], read
through a sheared view of q = 1 / (C(n, r) C(r, z)).  Off the band P = 0,
and a cell there carries only C(r, z) <= 4^z, which goes to the exact check
where it fails.  chvatal reads each slice off the parent's count table
T[r, Z] = C(m, Z) C(n - m, r - Z): the row C(m, .) times a reversed sliding
window over a zero-padded copy of the table, so no cell is gathered by
index.  What does not depend on m is computed once per call: for
hypergeom-tail q and the rows that break C(r, z) <= 4^z, for chvatal the
bound exponent (m - s)^2 / (2r) less log C(n, r) and the flat index of each
tail in a table of suffix sums.  A cell whose float slack clears its bound
by FLOAT_MARGIN is settled there; the float products, quotients and suffix
sums are off by a few ulp, far inside that margin.  Every other cell goes
through the exact scalar check: each cell inside the margin, each cell with
a value that is not finite (hypergeom-tail sets NaN where C(r, z) <= 4^z
fails), each violation a report keeps, and each cell within the margin of
the largest slack seen.  So the violations, their slacks and max_slack are
those of the cell-by-cell exact loop, byte for byte.  Every grid that reads
the float table caps n at FLOAT_BINOMIAL_N or below, so the table itself
is finite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import exp, inf, log, nan, sqrt
from operator import add
from typing import Optional, Sequence

import numpy as np

from ..rng import derive_rng
from .bounds import DEFAULT_DELTA, coupon_bound, multibit_nstar
from .pmf import (
    _delta0_counts,
    _delta0_tail_support,
    _delta0_window,
    delta0_log_prob_cells,
    delta0_point_log_prob,  # unused here; bench/tracing.py wraps lemmas.delta0_point_log_prob
)

# Explicit constants carried by the bounds being verified.
GAMMA_POTENTIAL = log(0.75 * sqrt(2.0))  # mgf exponent of the potential drop
ETA_FREE_RIDERS = log(1.5)  # geometric free-rider chain
D_FREE_RIDERS = 2.0

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
    for a in range(1, n + 1):
        prev = rows[-1]
        rows.append([1, *map(add, prev[:a], prev[1:a + 1]), *[0] * (n - a)])
    return rows


def _check_grid(lemma: str, n: int, lo: int, hi: Optional[int] = None) -> None:
    """Refuse an n outside [lo, hi]; below lo the grid has no points, and a
    report over no points would pass without checking anything."""
    if n < lo or (hi is not None and n > hi):
        span = f"{lo} <= n <= {hi}" if hi is not None else f"n >= {lo}"
        raise ValueError(f"the {lemma} grid needs {span}, got n={n}")


# A float slack this far (relative) from its bound settles a cell; see the
# module docstring.
FLOAT_MARGIN = 1e-9
# The largest n whose C(n, r) all convert to float: the grids that read the
# float table, and the improve-prob and mgf slacks that divide by
# float(C(n, r)), cap n here or below.
FLOAT_BINOMIAL_N = 1029


def _float_table(ci: list[list[int]]) -> np.ndarray:
    """The Pascal table as float64; finite, since n <= FLOAT_BINOMIAL_N."""
    return np.array(ci, dtype=np.float64)


class _FloatFilter:
    """Settles a grid one float slice at a time; see the module docstring.

    Violations are kept with their loop-order keys and recorded in that
    order by close(), so a verifier may visit its slices in another order.
    """

    def __init__(self, report: LemmaReport):
        self.report = report
        self.found = []  # (key, point, slack)
        self.dropped = False  # a violation past the kept ones

    def settle(self, decide, slack, observed, exact, order=None) -> bool:
        """Settle one slice of cells, given as float arrays: decide > 0
        where a cell breaks its bound (-inf where it holds for certain),
        slack the value the check observes (0 where it observes none) and
        observed where it observes one.  exact(i) runs the scalar check of
        flat cell i; see check().  Returns whether the margin settled every
        cell with no violation.

        The cells are in loop order unless order is given: order(cells)
        then maps flat cells to their loop-order keys.  It is called only
        when more than MAX_VIOLATIONS_KEPT cells of the slice violate their
        bounds for certain, to keep the first of them.

        Only the cells that do not clearly hold are looked at one by one.
        The largest finite slack, settled or not, sets the floor of the
        cells checked near the maximum: a finite float slack is within a
        few ulp of its exact value, so the cell with the largest exact
        value is still among them."""
        decide, slack, observed = decide.ravel(), slack.ravel(), observed.ravel()
        top = slack.max()
        with np.errstate(invalid="ignore"):
            clear = decide < -FLOAT_MARGIN
            if not np.isfinite(top):  # a slack that is not finite settles nothing
                finite = np.isfinite(slack)
                clear &= finite
                top = slack.max(where=finite, initial=0.0)
            hot = np.flatnonzero(~clear)
            hot_decide = decide[hot]
            settled = (np.isfinite(slack[hot]) & (np.abs(hot_decide) > FLOAT_MARGIN)
                       & (hot_decide < inf))
        broken = hot[settled & (hot_decide > 0)]
        if broken.size > MAX_VIOLATIONS_KEPT:
            self.dropped = True
            if order is not None:
                broken = broken[np.argsort(order(broken), kind="stable")]
            broken = broken[:MAX_VIOLATIONS_KEPT]
        floor = max(top, self.report.max_slack) * (1.0 - FLOAT_MARGIN)
        near = np.flatnonzero(slack >= floor if floor > 0 else observed)
        self.check(exact, {*hot[~settled].tolist(), *broken.tolist(), *near.tolist()})
        return not hot.size

    def check(self, exact, cells) -> None:
        """Run exact(cell) for each cell: the scalar check, which returns the
        cell's loop-order key, its violations as (point, slack) pairs and
        its observed slack (or None)."""
        for cell in sorted(cells):
            key, violations, value = exact(cell)
            if value is not None:
                self.report.observe(value)
            self.found.extend((key + (j,), point, v) for j, (point, v) in enumerate(violations))
        if len(self.found) > MAX_VIOLATIONS_KEPT:
            self._trim()

    def _trim(self) -> None:
        self.found.sort(key=lambda v: v[0])
        if len(self.found) > MAX_VIOLATIONS_KEPT:
            self.dropped = True
            del self.found[MAX_VIOLATIONS_KEPT:]

    def close(self) -> LemmaReport:
        self._trim()
        for _, point, slack in self.found:
            self.report.record(point, slack)
        if self.dropped:
            self.report.passed = False
        return self.report


def _count_tables(cf: np.ndarray):
    """count(row, m)[r, Z] = row[Z] * C(n - m, r - Z) for 0 <= r <= n and
    Z < row.size, 0 where r < Z or r - Z > n - m; with row = C(m, .)[:m + 1]
    these are the hypergeometric counts C(m, Z) C(n - m, r - Z), the table
    whose suffix sums are chvatal's tails.

    C(n - m, .) is copied into one zero-padded row and read through a
    reversed sliding window over it, window[r, Z] = pad[n + r - Z], so no
    index is gathered."""
    n = cf.shape[0] - 1
    pad = np.zeros(2 * n + 1)
    window = np.lib.stride_tricks.sliding_window_view(pad, n + 1)[:, ::-1]

    def count(row: np.ndarray, m: int) -> np.ndarray:
        pad[n:] = cf[n - m]
        return row * window[:, :row.size]

    return count


def _sheared(a: np.ndarray, m: int) -> np.ndarray:
    """The read-only view sheared[Z, d] = a[Z + d, Z] of an (n + 1) x (n + 1)
    array, for Z <= m and d <= n - m; Z + d <= n, so it stays inside a."""
    n = a.shape[0] - 1
    s0, s1 = a.strides
    return np.lib.stride_tricks.as_strided(a, (m + 1, n - m + 1), (s0 + s1, s0), writeable=False)


def _band_slice(cf: np.ndarray, q: np.ndarray, row: np.ndarray, m: int) -> np.ndarray:
    """slice[Z, d] = row[Z] * C(n - m, d) * q[Z + d, Z] for Z <= m and
    d <= n - m: parent m's cells at radius r = Z + d, which are the cells
    where the count C(m, Z) C(n - m, r - Z) can be nonzero."""
    n = cf.shape[0] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        band = np.multiply.outer(row, cf[n - m, :n - m + 1])
        band *= _sheared(q, m)
    return band


def _four_fails(ci: list[list[int]], n: int) -> np.ndarray:
    """fails[r, z] = C(r, z) > 4^z for r/2 <= z <= r, False elsewhere.
    Past the middle C(r, z) does not increase with z and 4^z does, so a row
    that passes at z = ceil(r/2) passes throughout; only the rows that fail
    there are filled entry by entry."""
    fails = np.zeros((n + 1, n + 1), dtype=bool)
    for r in range(n + 1):
        half = (r + 1) // 2
        if ci[r][half] > 4**half:
            fails[r, half:r + 1] = [ci[r][z] > 4**z for z in range(half, r + 1)]
    return fails


def verify_hypergeom_tail(n: int) -> LemmaReport:
    """P(Z=z) <= C(r,z) (m/n)^z for all z, and C(r,z) <= 4^z for z >= r/2,
    over the full (m, r, z) grid.  Exact integer comparisons."""
    _check_grid("hypergeom-tail", n, 1, 512)
    report = LemmaReport(
        lemma="hypergeom-tail",
        grid=f"n={n}, all 0<=m,r<=n, z in support",
    )
    ci = _comb_table(n)
    cf = _float_table(ci)
    grid = _FloatFilter(report)
    # C(r, z) <= 4^z does not depend on m: a failing (r, z) is checked
    # exactly at every m, on the band and off it
    four_fails = _four_fails(ci, n)
    fail_r, fail_z = np.nonzero(four_fails)
    # ratio = C(m, z) C(n - m, r - z) (m/n)^-z * q, q = 1 / (C(n, r) C(r, z))
    q = np.zeros_like(cf)
    np.divide(1.0, cf[n][:, None] * cf, out=q, where=cf != 0)

    def cell(m, r, z):
        den = ci[n][r]
        num = ci[m][z] * ci[n - m][r - z]
        bound_int = ci[r][z] * m**z
        violations = []
        if num * n**z > bound_int * den:
            violations.append(({"m": m, "r": r, "z": z, "which": "binomial-bound"}, inf))
        value = num / float(den) / (ci[r][z] * (m / n) ** z) if num and bound_int else None
        if 2 * z >= r and ci[r][z] > 4**z:
            violations.append(({"m": m, "r": r, "z": z, "which": "4^z-bound"}, inf))
        return (m, r, z), violations, value

    for m in range(n + 1):
        # the band: Z <= m and d = r - Z <= n - m
        width, depth = m + 1, n - m + 1
        ratio = _band_slice(cf, q, cf[m, :width] / (m / n) ** np.arange(width), m)
        decide = ratio - 1.0
        if fail_r.size:
            decide[_sheared(four_fails, m)] = nan  # to the exact check
            # off the band P = 0, and only C(r, z) <= 4^z is checked
            off = (fail_z <= m) & (fail_r - fail_z >= depth)
            grid.check(lambda rz, m=m: cell(m, *rz), zip(fail_r[off].tolist(), fail_z[off].tolist()))
        # min(r, m) + 1 cells at each radius r
        report.points_checked += m * (m + 1) // 2 + (n - m) * m + n + 1
        grid.settle(decide, ratio, ratio > 0,
                    lambda i, m=m, depth=depth: cell(m, i // depth + i % depth, i // depth),
                    order=lambda i, width=width, depth=depth: (i // depth + i % depth) * width + i // depth)
    return grid.close()


def _drop_counts(cf: np.ndarray, n: int, m: int, depth: int) -> np.ndarray:
    """counts[r, d] ~ C(n, r) P(Delta_0(s, m, r) = s + 1 - depth + d) for r in
    [0, n] and d < depth, in float.  A drop z at potential s reads
    Z = (z - s + r + m) / 2, so one array serves every s <= depth: the
    drops 1..s of s are its last s columns."""
    radii = np.arange(n + 1)[:, None]
    twice = np.arange(1 - depth, 1) + radii + m
    zh = twice // 2
    live = (twice % 2 == 0) & (zh <= np.minimum(radii, m))
    return np.where(live, cf[m][np.minimum(zh, m)] * cf[n - m][np.maximum(radii - zh, 0)], 0.0)


def _drop_slices(grid: _FloatFilter, probs: np.ndarray, depth: int, scale: float, cell) -> None:
    """Settle the drops 1..s at each potential s <= depth, given probs from
    _drop_counts divided by C(n, r); the slack of drop z is
    probs * 2^(z/2) / scale.  A slack grows with s at a fixed (r, Z), so when
    s = depth settles clean every smaller s does too.  cell(s, i) runs the
    scalar check of cell i of potential s."""
    for s in range(depth, 0, -1):
        block = probs[:, depth - s:]
        slack = block / (scale * 0.5 ** (np.arange(1, s + 1) / 2))
        clean = grid.settle(slack - 1.0, slack, block > 0, lambda i, s=s: cell(s, i))
        if s == depth and clean:
            return


def verify_improve_prob(n: int) -> LemmaReport:
    """P(Delta_0(s,m,r) = z) <= (1/2)^(z/2) for s <= m <= n/8, r in [1,n],
    z >= 1.  Exact: num^2 * 2^z <= den^2 by cross-multiplication."""
    _check_grid("improve-prob", n, 8, FLOAT_BINOMIAL_N)
    report = LemmaReport(
        lemma="improve-prob",
        grid=f"n={n}, s<=m<={n // 8}, r in [1,{n}], z>=1",
    )
    ci = _comb_table(n)
    cf = _float_table(ci)
    grid = _FloatFilter(report)

    def cell(s, m, r, z):
        den = ci[n][r]
        num = _delta0_counts(ci, n, s, m, r)[z]
        violations = [({"s": s, "m": m, "r": r, "z": z}, inf)] if num * num << z > den * den else []
        return (m, s, r, z), violations, num / float(den) / 0.5 ** (z / 2) if num else None

    m_cap = n // 8
    for m in range(1, m_cap + 1):  # m = 0 has s = 0 and no drops
        report.points_checked += n * m * (m + 1) // 2
        probs = (_drop_counts(cf, n, m, m) / cf[n][:, None])[1:]
        _drop_slices(grid, probs, m, 1.0,
                     lambda s, i, m=m: cell(s, m, i // s + 1, i % s + 1))
    return grid.close()


def verify_chvatal(n: int) -> LemmaReport:
    """Exact P(Delta_0 > 0) <= exp(-(m-s)^2 / (2r)) for s <= m <= n/2,
    r in [1, n].  Compared in log space to dodge underflow."""
    _check_grid("chvatal", n, 1, FLOAT_BINOMIAL_N)
    report = LemmaReport(
        lemma="chvatal",
        grid=f"n={n}, s<=m<={n // 2}, r in [1,{n}]",
    )
    ci = _comb_table(n)
    cf = _float_table(ci)
    grid = _FloatFilter(report)
    half = n // 2
    radii = np.arange(1, n + 1)
    gap = np.arange(half + 1)[:, None]  # d = m - s
    # log C(n, r) P(Delta_0 > 0) + bound[d, r - 1] is the log slack; the
    # logs of the integers stay finite where the float table does not
    bound = gap**2 / (2 * radii) - np.array([log(c) for c in ci[n][1:]])
    # tails[Z, r] = C(n, r) P(Z' >= Z), read at Z = (r + d) // 2 + 1 through
    # flat; the rows past m stay zero, since m only grows
    tails = np.zeros(((n + half) // 2 + 2, n + 1))
    flat = ((radii + gap) // 2 + 1) * (n + 1) + radii
    count = _count_tables(cf)

    def cell(m, s, r):
        num = sum(ci[m][zh] * ci[n - m][r - zh] for zh in _delta0_tail_support(s, m, r))
        if num == 0:
            return (m, s, r), [], None
        log_p = log(num) - log(ci[n][r])
        log_bound = -((m - s) ** 2) / (2 * r)
        slack = exp(log_p - log_bound)
        return (m, s, r), [({"s": s, "m": m, "r": r}, slack)] if log_p > log_bound + 1e-12 else [], slack

    for m in range(half + 1):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.cumsum(count(cf[m, :m + 1], m).T[::-1], axis=0, out=tails[m::-1])
            excess = tails.take(flat[m::-1])  # the tails over (s, r), then their log slack
            observed = excess != 0
            np.log(excess, out=excess)  # -inf on an empty tail
            excess += bound[m::-1]
            slack = np.exp(excess)
        report.points_checked += (m + 1) * n
        # the exact check's 1e-12 tolerance lies inside FLOAT_MARGIN, so
        # excess decides as it stands
        grid.settle(excess, slack, observed,
                    lambda i, m=m: cell(m, i // n, i % n + 1))
    return grid.close()


def _geometric_sum(first: float, ratio: float, rel_tol: float) -> float:
    """first * sum_{k>=0} ratio^k for 0 <= ratio < 1, summed term by term
    until a term falls to rel_tol of the total."""
    total, term = 0.0, first
    while term > rel_tol * max(total, 1.0):
        total += term
        term *= ratio
    return total


def mgf_series_value(lam: float, gamma: float = GAMMA_POTENTIAL, rel_tol: float = 1e-15) -> float:
    """sum_z lam * 2^(1 - z/2) * e^(gamma z); closes to 8*lam at the stated gamma."""
    ratio = exp(gamma) / sqrt(2.0)
    if ratio >= 1.0:
        raise ValueError("series diverges for exp(gamma) >= sqrt(2)")
    return _geometric_sum(2.0 * lam, ratio, rel_tol)


def verify_mgf_bound(n: int, lam: int | Sequence[int] = (1, 64, 4096)) -> LemmaReport:
    """Premise chain of the 8*lambda mgf bound.

    Per-z union bound P(Delta_0(s,m,r)=z) + P(Delta_0(s,m,n-r)=z) <= 2^(1-z/2)
    on the full grid s <= n/8, s <= m <= n/2, r in [0,n] (exact integers),
    then the geometric series sum_z lam 2^(1-z/2) e^(gamma z) = 8 lam.
    """
    _check_grid("mgf", n, 8, FLOAT_BINOMIAL_N)
    lambdas = [lam] if isinstance(lam, (int, float)) else list(lam)
    if not lambdas or min(lambdas) < 1:
        raise ValueError(f"the mgf series needs at least one lambda, each >= 1, got {lambdas}")
    report = LemmaReport(
        lemma="mgf",
        grid=f"n={n}, s<={n // 8}, s<=m<={n // 2}, r in [0,{n}], z in [1,s]",
    )
    ci = _comb_table(n)
    cf = _float_table(ci)
    grid = _FloatFilter(report)

    def cell(s, m, r, z):
        num = _delta0_counts(ci, n, s, m, r)[z] + _delta0_counts(ci, n, s, m, n - r)[z]
        if num == 0:
            return (s, m, r, z), [], None
        den = ci[n][r]
        # (num/den) <= 2 * 2^(-z/2)  <=>  num^2 * 2^z <= 4 den^2
        violations = [({"s": s, "m": m, "r": r, "z": z}, inf)] if num * num << z > 4 * den * den else []
        return (s, m, r, z), violations, (num / float(den)) / (2.0 * 0.5 ** (z / 2))

    for m in range(1, n // 2 + 1):  # m = 0 has s = 0 and no drops
        depth = min(m, n // 8)
        report.points_checked += (n + 1) * depth * (depth + 1) // 2
        counts = _drop_counts(cf, n, m, depth)
        with np.errstate(invalid="ignore"):
            probs = (counts + counts[::-1]) / cf[n][:, None]  # radii r and n - r
        _drop_slices(grid, probs, depth, 2.0,
                     lambda s, i, m=m: cell(s, m, i // s, i % s + 1))
    grid.close()
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


# The sampled multibit grid: potentials s, and the point count of each
# geometric grid over the middle parents and over the radii.
MULTIBIT_S = (0, 1, 2)
MULTIBIT_GRID_POINTS = 64
MULTIBIT_BLOCK = 256  # parents per block of rows, so that a block stays small at any n


def _geometric_grid(lo: int, hi: int) -> list[int]:
    """Up to MULTIBIT_GRID_POINTS distinct integers spread geometrically over
    [lo, hi], for 1 <= lo <= hi."""
    ratio = hi / lo
    steps = MULTIBIT_GRID_POINTS - 1
    return sorted({min(hi, max(lo, round(lo * ratio ** (i / steps)))) for i in range(steps + 1)})


def verify_multibit_progress(n: int, z_max: int = 200) -> LemmaReport:
    """Sampled-grid check of the multi-bit progress bound at huge n.

    Low/high parent regimes m in [s, 2n*] u [n-2n*, n-s]:
    P(Delta_0 = z) <= (16 n*/n)^2 2^(-z); middle regime asserts the
    Chvatal-route bound exp(-(m-s)^2/(2r)).  Radii sample a geometric grid
    plus the near-|m| band where the progress law actually has support.  The
    (s, m, r) rows are built as arrays, MULTIBIT_BLOCK parents at a time; the
    few with a non-empty Z window go to one delta0_log_prob_cells call.
    """
    if z_max < 1:
        raise ValueError(f"the multibit grid needs z_max >= 1, got z_max={z_max}")
    nstar = multibit_nstar(n) if n > 1 else 0.0  # n* is undefined for n <= 1
    if nstar < 2:
        raise ValueError(f"n={n} gives n* = n/(2^13 ln n) = {nstar:.3f} < 2; the sampled-grid "
                         "check needs n large enough that n* >= 2 (n >= 2^18 works)")
    report = LemmaReport(lemma="multibit", details={"n_star": nstar}, grid=(
        f"n={n}, s in {MULTIBIT_S}, m in [s,2n*] u [n-2n*,n-s] plus "
        f"{MULTIBIT_GRID_POINTS}-point geometric middle grid, r geometric + near-support, "
        f"z in [1,{z_max}]"))
    two_nstar = int(2 * nstar)
    radii = np.array(_geometric_grid(2, n - 2))  # a band radius clipped to 2 or n - 2 is in it
    middle = _geometric_grid(two_nstar + 1, n - two_nstar - 1)
    rows = []
    for s in MULTIBIT_S:  # s <= 2 <= n*
        low = np.arange(s, two_nstar + 1)
        parents = np.concatenate([low, n - low, middle])
        for b in range(0, parents.size, MULTIBIT_BLOCK):
            m = parents[b:b + MULTIBIT_BLOCK, None]
            near = np.clip(np.hstack([m, n - m])[:, :, None] + np.arange(-2, 3), 2, n - 2)
            r = np.sort(np.hstack([np.broadcast_to(radii, (m.size, radii.size)),
                                   near.reshape(m.size, -1)]))
            first = np.diff(r, prepend=0) != 0  # each radius of the sorted union once
            report.points_checked += z_max * int(first.sum())
            _, lo, hi = _delta0_window(n, s, m, r, z_max)
            i, j = np.nonzero(first & (lo <= hi))  # cells off the support hold every bound
            rows.append((np.full(i.size, s), m[i, 0], r[i, j], (hi - lo + 1)[i, j]))
    s, m, r, counts = (np.concatenate(a) for a in zip(*rows))
    r, z, lp = delta0_log_prob_cells(n, s, m, r, z_max)
    s, m = np.repeat(s, counts), np.repeat(m, counts)
    in_middle = (two_nstar < m) & (m < n - two_nstar)  # else low/high
    m_sym, r_sym = np.where(m <= n / 2, m, n - m), np.where(m <= n / 2, r, n - r)
    # log bound at z is base - z * slope
    base = np.where(in_middle, -((m_sym - s) ** 2) / (2 * r_sym), 2.0 * log(16.0 * nstar / n))
    log_bound = base - z * np.where(in_middle, 0.0, log(2.0))
    excess = lp - log_bound
    report.observe(exp(excess.max(initial=-inf)))  # exp is monotone
    for i in np.nonzero(lp > log_bound + 1e-12)[0].tolist():
        report.record({"s": int(s[i]), "m": int(m[i]), "r": int(r[i]), "z": int(z[i]),
                       "regime": "middle" if in_middle[i] else "low/high"}, exp(excess[i]))
    return report


def verify_delta_symmetry(n: int) -> LemmaReport:
    """Exact pmf identity Delta_0(s,m,r) ~ Delta_0(s,n-m,n-r), all (s,m,r).

    The two laws put C(n, r) P(Delta_0 = z) = counts[z] on each drop
    z >= 1, read off one Pascal table, over the denominators C(n, r) and
    C(n, n - r), which are equal; the mass at 0 is the rest.  So the laws
    are equal exactly when their count lists are, and no Fraction is built.
    """
    _check_grid("delta-symmetry", n, 0)
    report = LemmaReport(
        lemma="delta-symmetry",
        grid=f"n={n}, 0<=s<=n/2, s<=m<=n-s, 0<=r<=n",
    )
    ci = _comb_table(n)
    for s in range(n // 2 + 1):
        for m in range(s, n - s + 1):
            for r in range(n + 1):
                report.points_checked += 1
                if _delta0_counts(ci, n, s, m, r) != _delta0_counts(ci, n, s, n - m, n - r):
                    report.record({"s": s, "m": m, "r": r}, inf)
    report.max_slack = 1.0
    return report


def expected_max_bound(eta: float, d_const: float, lam: int) -> float:
    """(ln(D * lambda) + 1) / eta: expected maximum of lambda variables whose
    mgf at eta is at most D (independence not required)."""
    if eta <= 0 or d_const < 1 or lam < 1:
        raise ValueError("need eta > 0, D >= 1, lambda >= 1")
    return (log(d_const * lam) + 1.0) / eta


def verify_max_geometric(lam: int = 100, trials: int = 10_000, seed: int = 0) -> LemmaReport:
    """Monte-Carlo check: the sample mean of the max of lam iid Geometric(1/2)
    variables (support 0, 1, ...) stays below the mgf-based formula value
    at the free-rider constants."""
    if lam < 1 or trials < 1:
        raise ValueError(f"the mgf-max check needs lambda >= 1 and trials >= 1, "
                         f"got lambda={lam}, trials={trials}")
    samples = derive_rng(seed).geometric(0.5, size=(trials, lam)) - 1
    sample_mean = float(samples.max(axis=1).mean())
    bound = expected_max_bound(ETA_FREE_RIDERS, D_FREE_RIDERS, lam)
    report = LemmaReport(
        lemma="mgf-max",
        grid=f"lambda={lam}, {trials} Monte-Carlo trials of max Geometric(1/2)",
        points_checked=trials,
        max_slack=sample_mean / bound,
        details={
            "lambda": lam,
            "trials": trials,
            "eta": ETA_FREE_RIDERS,
            "D": D_FREE_RIDERS,
            "sample_mean": sample_mean,
            "bound": bound,
            "pass": sample_mean <= bound,
        },
    )
    if sample_mean > bound:
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
