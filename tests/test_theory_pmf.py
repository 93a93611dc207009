from fractions import Fraction
from math import comb, exp, inf

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parallel_ea.theory.pmf import (
    ProgressParams,
    delta0_log_prob_cells,
    delta0_pmf,
    delta0_point_log_prob,
    delta0_point_prob,
    hypergeom_pmf,
    hypergeom_support,
)

from references import _delta0_tail_counts, delta0_tail_prob


def test_hypergeom_examples():
    # enumerate all C(4,2)=6 draws: {1,2} red out of positions {1,2,3,4}
    assert hypergeom_pmf(4, 2, 2, 1) == Fraction(2, 3)
    assert hypergeom_pmf(5, 0, 3, 0) == 1
    total = sum(hypergeom_pmf(60, 17, 23, z) for z in hypergeom_support(60, 17, 23))
    assert total == 1


def test_hypergeom_brute_force_oracle():
    # draw r of n positions; count overlaps with the m 'red' ones
    from itertools import combinations

    n, m, r = 8, 3, 4
    red = set(range(m))
    counts = {}
    for draw in combinations(range(n), r):
        z = len(red & set(draw))
        counts[z] = counts.get(z, 0) + 1
    total = comb(n, r)
    for z in range(r + 1):
        assert hypergeom_pmf(n, m, r, z) == Fraction(counts.get(z, 0), total)


def test_hypergeom_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    n, m, r = 60, 17, 23
    for z in range(0, 24):
        ours = float(hypergeom_pmf(n, m, r, z))
        ref = scipy_stats.hypergeom.pmf(z, n, m, r)
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-300)


def test_hypergeom_out_of_support_and_validation():
    assert hypergeom_pmf(6, 2, 3, 3) == 0
    assert hypergeom_pmf(6, 2, 3, -1) == 0
    with pytest.raises(ValueError):
        hypergeom_pmf(4, 5, 2, 1)


def test_progress_params_validation():
    ProgressParams(10, 3, 5, 2)
    with pytest.raises(ValueError):
        ProgressParams(10, 6, 6, 2)  # s > n/2
    with pytest.raises(ValueError):
        ProgressParams(10, 3, 2, 2)  # m < s
    with pytest.raises(ValueError):
        ProgressParams(10, 3, 9, 2)  # m > n - s
    with pytest.raises(ValueError):
        ProgressParams(10, 0, 5, 11)  # r > n


def test_delta0_two_point_example():
    # n=2, s=m=1, r=1: flip the zero (progress 1) or the one (progress 0)
    pmf = delta0_pmf(ProgressParams(2, 1, 1, 1))
    assert pmf == {1: Fraction(1, 2), 0: Fraction(1, 2)}


def test_delta0_r0_point_mass():
    pmf = delta0_pmf(ProgressParams(12, 2, 5, 0))
    assert pmf == {0: Fraction(1)}


def test_delta0_bruteforce_oracle():
    # enumerate radius-r flips of a concrete parent with m zeros
    from itertools import combinations

    n, s, m, r = 8, 2, 4, 3
    parent_zeros = set(range(m))
    counts = {}
    for flip in combinations(range(n), r):
        new_zeros = len(parent_zeros - set(flip)) + len(set(flip) - parent_zeros)
        d = max(s - new_zeros, 0)
        counts[d] = counts.get(d, 0) + 1
    total = comb(n, r)
    pmf = delta0_pmf(ProgressParams(n, s, m, r))
    for d, c in counts.items():
        assert pmf.get(d, 0) == Fraction(c, total)


def test_delta0_symmetry_exhaustive_n10():
    n = 10
    for s in range(n // 2 + 1):
        for m in range(s, n - s + 1):
            for r in range(n + 1):
                a = delta0_pmf(ProgressParams(n, s, m, r))
                b = delta0_pmf(ProgressParams(n, s, n - m, n - r))
                assert a == b


def test_delta0_point_matches_pmf():
    params = ProgressParams(30, 5, 9, 7)
    pmf = delta0_pmf(params)
    for z in range(1, 6):
        assert delta0_point_prob(30, 5, 9, 7, z) == pmf.get(z, 0)
    with pytest.raises(ValueError):
        delta0_point_prob(30, 5, 9, 7, 0)


def test_delta0_tail_matches_pmf():
    params = ProgressParams(24, 4, 8, 6)
    pmf = delta0_pmf(params)
    tail = sum(v for k, v in pmf.items() if k > 0)
    assert delta0_tail_prob(24, 4, 8, 6) == tail


@pytest.mark.parametrize("form", [delta0_point_prob, delta0_point_log_prob])
@pytest.mark.parametrize("m, r", [(5, 2), (-1, 2), (2, 5), (2, -1)])
def test_delta0_point_forms_reject_invalid_cells_whatever_the_parity(form, m, r):
    # n = 4: both drops, one of odd and one of even parity, are refused
    for z in (1, 2):
        with pytest.raises(ValueError):
            form(4, 0, m, r, z)


def test_delta0_tail_counts_match_tail_prob():
    n = 12
    rows = [[comb(a, b) for b in range(n + 1)] for a in range(n + 1)]
    for m in range(n + 1):
        for r in range(n + 1):
            tails = _delta0_tail_counts(rows, n, m, r)
            assert len(tails) == m + 1
            for s in range(min(m, n - m) + 1):
                pmf = delta0_pmf(ProgressParams(n, s, m, r))
                tail = sum((v for k, v in pmf.items() if k > 0), Fraction(0))
                assert Fraction(tails[s], comb(n, r)) == tail == delta0_tail_prob(n, s, m, r)


def _seeded_cells(n, seed):
    """(s, m, sorted radii) with radii near m and n - m, where the drop law
    has its support, and spread over [0, n]."""
    rng = np.random.default_rng(seed)
    s = int(rng.integers(0, 40))
    m = int(rng.choice([rng.integers(s, 60), rng.integers(s, n - s + 1), n - rng.integers(s, 60)]))
    near = {c + d for c in (m, n - m) for d in rng.integers(-45, 46, size=12).tolist() if 0 <= c + d <= n}
    far = rng.integers(0, n + 1, size=6).tolist()
    return s, m, sorted(near | set(far) | {0, n})


@pytest.mark.parametrize("n", [2**18, 2**20])
@pytest.mark.parametrize("seed", range(6))
def test_log_prob_cells_are_the_point_law_bit_for_bit(n, seed):
    s, m, radii = _seeded_cells(n, seed)
    z_max = 60
    r, z, lp = delta0_log_prob_cells(n, s, m, radii, z_max)
    cells = list(zip(r.tolist(), z.tolist()))
    assert cells == sorted(set(cells))  # r ascending, then z ascending, each once
    for (ri, zi), lpi in zip(cells, lp.tolist()):
        assert lpi == delta0_point_log_prob(n, s, m, ri, zi) > -inf
    # every cell left out is off the support or of the wrong parity
    kept = set(cells)
    for ri in radii:
        for zi in range(1, z_max + 1):
            if (ri, zi) not in kept:
                assert delta0_point_log_prob(n, s, m, ri, zi) == -inf


def test_log_prob_cells_are_the_point_law_on_every_small_cell():
    # every (s, m) at n = 10, also m > n - s, where the hypergeometric
    # support, not the drop, bounds Z from below
    n, radii = 10, list(range(11))
    for s in range(n + 1):
        for m in range(n + 1):
            r, z, lp = delta0_log_prob_cells(n, s, m, radii, n + 2)
            law = dict(zip(zip(r.tolist(), z.tolist()), lp.tolist()))
            assert len(law) == r.size
            for ri in radii:
                for zi in range(1, n + 3):
                    assert law.get((ri, zi), -inf) == delta0_point_log_prob(n, s, m, ri, zi)


def test_log_prob_cells_reach_support_cells_of_both_parities():
    # the seeded grids above hold cells, at odd and even drops
    z = np.concatenate([delta0_log_prob_cells(n, *_seeded_cells(n, seed), 60)[1]
                        for n in (2**18, 2**20) for seed in range(6)])
    assert z.size > 100 and {1, 2} <= set(z.tolist())


@pytest.mark.parametrize("n", [10, 2**20])
def test_log_prob_cells_rows_are_the_per_parent_calls_concatenated(n):
    # one call over the (s, m, r) rows of several parents, of mixed s, equals
    # one call per (s, m), concatenated in row order, bit for bit; radius 0
    # is in every parent's radii and holds no cell
    if n == 10:
        parents = [(s, m, list(range(11))) for s in range(6) for m in range(s, 11)]
    else:
        parents = [_seeded_cells(n, seed) for seed in range(6)]
    assert len({s for s, _, _ in parents}) > 1 and all(0 in radii for *_, radii in parents)
    s = np.concatenate([np.full(len(radii), si) for si, _, radii in parents])
    m = np.concatenate([np.full(len(radii), mi) for _, mi, radii in parents])
    r = np.concatenate([radii for *_, radii in parents])
    rows = delta0_log_prob_cells(n, s, m, r, 60)
    per_parent = [delta0_log_prob_cells(n, *parent, 60) for parent in parents]
    for got, want in zip(rows, (np.concatenate(a) for a in zip(*per_parent))):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rows[2].size and 0 not in rows[0]
    empty = delta0_log_prob_cells(n, np.array([], dtype=int), np.array([], dtype=int), [], 60)
    assert [a.size for a in empty] == [0, 0, 0]


def test_log_prob_cells_edge_cases():
    n = 64
    r, z, lp = delta0_log_prob_cells(n, 2, 2, [], 10)
    assert r.size == z.size == lp.size == 0
    assert delta0_log_prob_cells(n, 2, 2, [2, 3], 0)[2].size == 0  # no drop z in [1, 0]
    for m, radii in [(65, [1]), (-1, [1]), (2, [65]), (2, [-1, 3])]:
        with pytest.raises(ValueError):
            delta0_log_prob_cells(n, 0, m, radii, 5)


def test_log_mode_agrees_with_exact():
    worst = 0.0
    n = 64
    for s in (1, 3, 8):
        for m in (s, 2 * s, 20, 32):
            for r in (1, 2, 7, 33, 63):
                exact = delta0_pmf(ProgressParams(n, s, m, r))
                for z in range(1, s + 1):
                    pe = float(exact.get(z, 0))
                    if pe == 0.0:
                        assert delta0_point_log_prob(n, s, m, r, z) == float("-inf")
                        continue
                    pl = exp(delta0_point_log_prob(n, s, m, r, z))
                    worst = max(worst, abs(pl - pe) / pe)
    assert worst < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_pmf_normalises(data):
    n = data.draw(st.integers(2, 40))
    s = data.draw(st.integers(0, n // 2))
    m = data.draw(st.integers(s, n - s))
    r = data.draw(st.integers(0, n))
    pmf = delta0_pmf(ProgressParams(n, s, m, r))
    assert sum(pmf.values()) == 1
    assert all(0 <= k <= s for k in pmf)

