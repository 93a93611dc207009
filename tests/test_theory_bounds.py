from math import e, exp, log

import pytest

from parallel_ea.theory.bounds import (
    BOUNDS,
    adaptive_ub,
    coupon_bound,
    cutoff_fixed_ea,
    cutoff_leadingones,
    cutoff_onemax,
    get_bound,
    hcy_onemax,
    lb_leadingones,
    lb_nlogn_term,
    lb_parallel_term,
    lb_unique,
    ln_plus,
    ub_leadingones,
)


def test_ln_plus():
    assert ln_plus(1.0) == 1.0
    assert ln_plus(e**2) == pytest.approx(2.0)
    assert ln_plus(0.5) == 1.0
    with pytest.raises(ValueError):
        ln_plus(0.0)


def test_lb_unique_sequential_regime():
    # at lambda = 1 the n log n term dominates: 0.9 n ln n
    for n in (10, 100, 1000, 10**6):
        assert lb_unique(n, 1, 0.1) == pytest.approx(0.9 * n * log(n))


def test_lb_unique_parallel_regime():
    # n=1000, lambda=e^10, delta=0.5: lambda-term e^10 * 1000/600 dominates
    lam = exp(10.0)
    value = lb_unique(1000, lam, 0.5)
    assert value == pytest.approx(lam * 1000 / 600.0)
    assert value > 0.5 * 1000 * log(1000)
    assert value == pytest.approx(36710.8, abs=1.0)


def test_lb_unique_validation():
    with pytest.raises(ValueError):
        lb_unique(2, 1, 0.5)
    with pytest.raises(ValueError):
        lb_unique(100, 0.5, 0.5)
    with pytest.raises(ValueError):
        lb_unique(100, 1, 0.0)


def test_lb_unique_monotone():
    lams = [e, 10, 100, 1000, 10**6]
    vals = [lb_unique(500, l, 0.5) for l in lams]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    ns = [10, 50, 300, 2000]
    vals_n = [lb_unique(n, 64, 0.5) for n in ns]
    assert all(a < b for a, b in zip(vals_n, vals_n[1:]))


def test_term_curves():
    assert lb_parallel_term(500, 64) == pytest.approx(64 * 500 / (60 * log(64)))
    assert lb_nlogn_term(500, 0.5) == pytest.approx(0.5 * 500 * log(500))


def test_adaptive_ub_formula():
    # explicit constants from the drift argument
    value = adaptive_ub(1000, 512)
    expected = (3 + e) * 512 * 1000 / log(512) + e * 1000 * (2 + log(1000))
    assert value == pytest.approx(expected)
    # formula value at lambda = e^5 (the stated formula, computed directly)
    v2 = adaptive_ub(1000, exp(5.0))
    assert v2 == pytest.approx((3 + e) * exp(5.0) * 1000 / 5 + e * 1000 * (2 + log(1000)))


def test_asymptotic_shapes_are_flagged():
    for bound_id in ("lb-leadingones", "ub-leadingones", "hcy-onemax",
                     "cutoff-onemax", "cutoff-leadingones", "cutoff-fixed-ea"):
        assert get_bound(bound_id).asymptotic_only
    for bound_id in ("lb-unique", "adaptive-ub", "lb-parallel-term", "lb-nlogn-term"):
        assert not get_bound(bound_id).asymptotic_only


def test_bound_registry():
    assert get_bound("lb-unique")(n=1000, lam=1, delta=0.1) == pytest.approx(0.9 * 1000 * log(1000))
    with pytest.raises(ValueError):
        get_bound("missing")
    assert set(BOUNDS) >= {"lb-unique", "adaptive-ub", "cutoff-onemax"}


def test_shape_curves_total():
    assert lb_leadingones(100, 1) == pytest.approx(100 + 100**2)
    assert ub_leadingones(100, 50) == pytest.approx(50 * 100 + 10000)
    assert cutoff_leadingones(150) == 150
    assert cutoff_onemax(10**6) > 0
    assert cutoff_fixed_ea(4) > 0  # ln+ clamps keep small n total
    assert hcy_onemax(100, 2) > 0


def test_coupon_bound():
    threshold, prob = coupon_bound(100, 1.0)
    assert threshold == 0.0
    assert prob == 0.0
    threshold, _ = coupon_bound(10**6, 0.5)
    assert threshold == pytest.approx(0.5 * (10**6 - 1) * log(10**6))
    assert threshold == pytest.approx(6.9077e6, rel=1e-3)
    with pytest.raises(ValueError):
        coupon_bound(100, 0.0)


def test_coupon_survival_inequality_directly():
    for n in (10, 100, 1000):
        for delta in (0.3, 0.5, 0.9):
            lhs = (1 - 1 / n) ** ((1 - delta) * (n - 1) * log(n))
            assert lhs >= n ** (-(1 - delta)) - 1e-15
