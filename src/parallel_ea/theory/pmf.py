"""Exact progress laws and log-space point laws.

The potential-drop law: varying a parent with m zeros at radius r turns
Z ~ Hypergeometric(n, m, r) zero-positions into ones, so the drop of the
zero-potential s is max{2Z - r + s - m, 0}.  The exact big-rational
laws are authoritative for moderate n; the log-gamma point laws cover huge
n, one point at a time or as arrays over many (s, m, r) rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, lgamma
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class ProgressParams:
    """State of one variation step: dimension n, potential s, parent zero
    count m (s <= m <= n-s), flip radius r."""

    n: int
    s: int
    m: int
    r: int

    def __post_init__(self) -> None:
        if not 0 <= self.s <= self.n / 2:
            raise ValueError(f"potential must satisfy 0 <= s <= n/2, got s={self.s}")
        if not self.s <= self.m <= self.n - self.s:
            raise ValueError(f"parent zeros must satisfy s <= m <= n-s, got m={self.m}")
        if not 0 <= self.r <= self.n:
            raise ValueError(f"radius must satisfy 0 <= r <= n, got r={self.r}")


def hypergeom_support(n: int, m: int, r: int) -> range:
    return range(max(0, r - (n - m)), min(m, r) + 1)


def _check_mr(n: int, m: int, r: int) -> None:
    if not (0 <= m <= n and 0 <= r <= n):
        raise ValueError(f"need 0 <= m, r <= n, got n={n}, m={m}, r={r}")


def hypergeom_pmf(n: int, m: int, r: int, z: int) -> Fraction:
    """Exact P(Z = z) = C(m,z) C(n-m,r-z) / C(n,r); zero outside support."""
    _check_mr(n, m, r)
    if z not in hypergeom_support(n, m, r):
        return Fraction(0)
    return Fraction(comb(m, z) * comb(n - m, r - z), comb(n, r))


def log_comb(a: int, b: int) -> float:
    if b < 0 or b > a:
        return -inf
    return lgamma(a + 1) - lgamma(b + 1) - lgamma(a - b + 1)


def hypergeom_log_pmf(n: int, m: int, r: int, z: int) -> float:
    _check_mr(n, m, r)
    if z not in hypergeom_support(n, m, r):
        return -inf
    return log_comb(m, z) + log_comb(n - m, r - z) - log_comb(n, r)


def _delta0_index(n: int, s: int, m: int, r: int, z: int) -> Optional[int]:
    """The one hypergeometric count Z whose drop 2Z - r + s - m is z >= 1,
    or None when no integer Z has that drop.  An invalid (m, r) raises
    ValueError: here on odd parity, in the pmf that reads Z on even."""
    if z < 1:
        raise ValueError("point form only valid for z >= 1; use delta0_pmf for z = 0")
    t = z + r + m - s
    if t % 2:
        _check_mr(n, m, r)
        return None
    return t // 2


def _delta0_tail_support(s: int, m: int, r: int) -> range:
    """The Z <= min(m, r) whose drop 2Z - r + s - m is positive; those below
    the hypergeometric support have C(n-m, r-Z) = 0."""
    return range((r + m - s) // 2 + 1, min(m, r) + 1)


def _delta0_counts(rows: Sequence[Sequence], n: int, s: int, m: int, r: int) -> list:
    """counts[z] = C(m, Z) C(n-m, r-Z) = C(n, r) P(Delta_0 = z) for 1 <= z <= s
    (counts[0] is 0), looked up in a zero-padded binomial table
    rows[a][b] = C(a, b)."""
    counts = [0] * (s + 1)
    for zh in _delta0_tail_support(s, m, r):
        counts[2 * zh - r + s - m] = rows[m][zh] * rows[n - m][r - zh]
    return counts


def delta0_pmf(params: ProgressParams) -> dict[int, Fraction]:
    """Exact distribution {z: P(Delta_0 = z)} of the zero-potential drop
    max{2Z - r + s - m, 0}.

    The positive part has at most s values, read off the point forms; the
    mass at 0 is the complement.
    """
    n, s, m, r = params.n, params.s, params.m, params.r
    pmf = {z: p for z in range(1, s + 1) if (p := delta0_point_prob(n, s, m, r, z))}
    tail = sum(pmf.values(), Fraction(0))
    if tail < 1:
        pmf[0] = 1 - tail
    return pmf


def delta0_point_prob(n: int, s: int, m: int, r: int, z: int) -> Fraction:
    """Exact P(Delta_0 = z) for z >= 1 via the unique matching Z value."""
    zh = _delta0_index(n, s, m, r, z)
    return Fraction(0) if zh is None else hypergeom_pmf(n, m, r, zh)


def delta0_point_log_prob(n: int, s: int, m: int, r: int, z: int) -> float:
    zh = _delta0_index(n, s, m, r, z)
    return -inf if zh is None else hypergeom_log_pmf(n, m, r, zh)


def _delta0_window(n: int, s, m, r, z_max: int):
    """k = r + m - s, the drop of Z being 2Z - k, and the bounds lo, hi of the Z
    with a drop in [1, z_max] inside the support; lo > hi where there is none."""
    k = r + m - s
    lo = np.maximum(np.maximum(k // 2 + 1, 0), r - (n - m))
    hi = np.minimum(np.minimum(r, m), (k + z_max) // 2)
    return k, lo, hi


def delta0_log_prob_cells(
    n: int, s: int | np.ndarray, m: int | np.ndarray, radii: Sequence[int], z_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays r, z, lp over the cells with r in the radii, 1 <= z <= z_max and
    P(Delta_0 = z) > 0, in the order of the radii, then of z; lp equals
    delta0_point_log_prob(n, s, m, r, z) bit for bit, and every other cell is
    -inf there.  s and m are ints or arrays aligned with the radii, one row each.

    The cells of row (s, m, r) are the Z = (z + r + m - s) / 2 between its drop
    bounds and the hypergeometric support.  lp repeats the operations of
    log_comb and hypergeom_log_pmf in their order, with one lgamma call per
    distinct argument over all rows.
    """
    r, m = np.broadcast_arrays(np.asarray(radii, dtype=np.int64), m)
    if ((m < 0) | (m > n) | (r < 0) | (r > n)).any():
        raise ValueError(f"need 0 <= m <= n and radii in [0, n], got n={n}, m={m}")
    k, lo, hi = _delta0_window(n, s, m, r, z_max)
    counts = np.maximum(hi - lo + 1, 0)
    # Z runs from lo to hi within each row: a running index, shifted per row
    zh = np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    rc, mc = np.repeat(r, counts), np.repeat(m, counts)
    args = (zh + 1, mc - zh + 1, rc - zh + 1, n - mc - rc + zh + 1,
            mc + 1, n - mc + 1, rc + 1, n - rc + 1, [n + 1])
    distinct = np.concatenate(args)
    distinct.sort()
    distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
    table = np.fromiter(map(lgamma, distinct), np.float64, distinct.size)
    lg_z, lg_mz, lg_rz, lg_rest, lg_m, lg_nm, lg_r, lg_nr, lg_n = (
        table[np.searchsorted(distinct, a)] for a in args)
    lp = (lg_m - lg_z - lg_mz) + (lg_nm - lg_rz - lg_rest) - (lg_n - lg_r - lg_nr)
    return rc, 2 * zh - np.repeat(k, counts), lp
