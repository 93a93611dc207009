"""Independent reference values for the benchmark's correctness checks.

Nothing here imports parallel_ea.  Each value comes from a closed form or
an exact recursion written out next to it, so a fault in the program
cannot hide in its own check.  Statistical checks use a z-score against
an exact standard deviation, or a chi-square test, at the thresholds
below; README.md states the chance that a fresh seed fails them.
"""

from __future__ import annotations

import math

import numpy as np

# scipy is imported inside the functions that use it, so that importing
# this module adds nothing to the measured set-up time.

Z_LIMIT = 4.0  # two-sided normal tail 6.3e-5 per check
CHI2_ALPHA = 1e-4


def adaptive_rate(i: int, n: int, lam: int) -> float:
    """max{ln(lam) / (n ln(en/i)), 1/n}: the zero-count-adaptive rate."""
    return max(math.log(lam) / (n * math.log(math.e * n / i)), 1.0 / n)


def adaptive_upper_bound(n: int, lam: int) -> float:
    """(3+e) lam n / ln lam + e n (2 + ln n): expected evaluations of the adaptive EA."""
    return (3 + math.e) * lam * n / math.log(lam) + math.e * n * (2 + math.log(n))


def first_hit_floor(n: int, lam: int) -> float:
    """max{lam n / (60 ln lam), n ln n / 2}: no run of a lam-parallel unary
    unbiased algorithm on onemax may hit 1^n earlier than this."""
    return max(lam * n / (60 * math.log(lam)), 0.5 * n * math.log(n))


def _level_moments(q: np.ndarray) -> tuple[float, float]:
    """First-hit evaluations on leadingones when every level below n is
    visited independently with probability 1/2 and left after a
    Geometric(q_i) wait; the +1 is the initial evaluation.

    mean = 1 + sum 1/(2 q_i), var = sum (3 - 2 q_i) / (4 q_i^2).
    """
    return 1.0 + float(np.sum(0.5 / q)), float(np.sum((3 - 2 * q) / (4 * q * q)))


def leadingones_ea_moments(n: int, p: float) -> tuple[float, float]:
    """(1+1) EA with rate p: q_i = (1-p)^i p.  The mean matches
    ((1-p)^(1-n) - (1-p)) / (2p^2) + 1 (Boettcher, Doerr, Neumann 2010)."""
    return _level_moments((1 - p) ** np.arange(n) * p)


def leadingones_rls_moments(n: int) -> tuple[float, float]:
    """RLS: q_i = 1/n, so the mean is n^2/2 + 1."""
    return _level_moments(np.full(n, 1.0 / n))


def _offspring_zeros_pmf(n: int, i: int, p: float) -> np.ndarray:
    """P(Y = j), j = 0..n, for Y = i - Bin(i, p) + Bin(n - i, p)."""
    from scipy import stats

    kept = stats.binom.pmf(np.arange(i + 1), i, p)[::-1]  # index i - a
    added = stats.binom.pmf(np.arange(n - i + 1), n - i, p)
    return np.convolve(kept, added)


def onemax_ea_moments(n: int, p: float) -> tuple[float, float]:
    """Mean and variance of the first-hit evaluation of the (1+1) EA on
    onemax, by a dynamic program over zero counts.

    From i zeros an offspring has j zeros with the binomial law above; it
    is kept only when j < i.  T1[i], T2[i] are the first two moments of
    the evaluations still needed from i zeros:
      T1[i] = (1 + sum_{j<i} P_ij T1[j]) / P(j < i)
      T2[i] = (sum_{j<i} P_ij (1 + 2 T1[j] + T2[j]) + P(j >= i)(1 + 2 T1[i])) / P(j < i)
    The start is uniform (Bin(n, 1/2) zeros) and costs one evaluation.
    """
    from scipy import stats

    t1 = np.zeros(n + 1)
    t2 = np.zeros(n + 1)
    for i in range(1, n + 1):
        down = _offspring_zeros_pmf(n, i, p)[:i]
        leave = float(down.sum())
        t1[i] = (1 + down @ t1[:i]) / leave
        t2[i] = (down @ (1 + 2 * t1[:i] + t2[:i]) + (1 - leave) * (1 + 2 * t1[i])) / leave
    start = stats.binom.pmf(np.arange(n + 1), n, 0.5)
    mean = 1 + float(start @ t1)
    second = float(start @ (1 + 2 * t1 + t2))
    return mean, second - mean * mean


def z_score(values: list[float], mean: float, var: float) -> float:
    return (float(np.mean(values)) - mean) / math.sqrt(var / len(values))


def one_generation_pmf(n: int, i: int, lam: int, p: float) -> np.ndarray:
    """pmf over j = 0..i of the zero count after one elitist generation of
    lam offspring from a parent with i zeros:
    P(min(i, i') >= j) = P(Y >= j)^lam for j <= i."""
    py = _offspring_zeros_pmf(n, i, p)
    at_least = np.cumsum(py[::-1])[::-1][: i + 1] ** lam
    return at_least - np.append(at_least[1:], 0.0)


def chi_square_p(counts: np.ndarray, pmf: np.ndarray) -> float:
    """Goodness of fit after merging neighbouring cells to >= 5 expected."""
    from scipy import stats

    expected = pmf / pmf.sum() * counts.sum()
    obs_cells, exp_cells = [], []
    o = e = 0.0
    for oc, ec in zip(counts, expected):
        o += oc
        e += ec
        if e >= 5:
            obs_cells.append(o)
            exp_cells.append(e)
            o = e = 0.0
    if obs_cells:
        obs_cells[-1] += o
        exp_cells[-1] += e
    if len(obs_cells) < 2:
        raise ValueError("one-generation law has fewer than two cells with >= 5 expected")
    return float(stats.chisquare(obs_cells, exp_cells).pvalue)


# Grid sizes of the lemma verifiers, counted from the grids as stated.


def hypergeom_tail_points(n: int) -> int:
    """all 0 <= m, r <= n and 0 <= z <= min(m, r)."""
    return sum(min(m, r) + 1 for m in range(n + 1) for r in range(n + 1))


def chvatal_points(n: int) -> int:
    """s <= m <= n/2, r in [1, n]."""
    return sum((m + 1) * n for m in range(n // 2 + 1))


def mgf_points(n: int) -> int:
    """s <= n/8, s <= m <= n/2, r in [0, n], z in [1, s]."""
    return sum(s * (n // 2 - s + 1) * (n + 1) for s in range(n // 8 + 1))


def _geometric(lo: int, hi: int, count: int) -> set[int]:
    return {round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count)}


def multibit_points(n: int, s_values=(0, 1, 2), grid_points: int = 64, z_max: int = 200) -> int:
    """n* = n / (2^13 ln n); parents m in [s, 2n*] and their mirrors n - m,
    plus a grid_points-point geometric grid over the middle; radii a
    geometric grid over [2, n-2] plus m +- 2 and n - m +- 2; z in [1, z_max]."""
    two_nstar = int(2 * n / (2**13 * math.log(n)))
    base_radii = _geometric(2, n - 2, grid_points)

    def radii(m: int) -> int:
        near = {c + d for c in (m, n - m) for d in range(-2, 3)}
        return sum(1 for r in base_radii | near if 2 <= r <= n - 2)

    middle = _geometric(two_nstar + 1, n - two_nstar - 1, grid_points)
    parents = []
    for s in s_values:
        low = list(range(s, two_nstar + 1))
        parents += low + [n - m for m in low] + sorted(middle)
    return z_max * sum(radii(m) for m in parents)


def hypergeom_logpmf(n: int, m: int, r: int, z: int) -> float:
    """log P(Z = z), Z ~ Hypergeometric(population n, m marked, r drawn)."""
    from scipy import stats

    return float(stats.hypergeom.logpmf(z, n, m, r))
