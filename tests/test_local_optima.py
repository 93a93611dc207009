import pytest

from parallel_ea.bitstring import BitString
from parallel_ea.objectives.local_optima import (
    is_local_optimum,
    jump_local_optima,
    local_optima,
    maxsat_hard_local_optima,
    two_cliques_local_optima,
    twomax_local_optima,
)
from parallel_ea.objectives.registry import make_objective


def members(target, n):
    return {v for v in range(1 << n) if target.contains(BitString(n, v))}


def test_twomax_local_optima_exhaustive():
    obj = make_objective("twomax", 6)
    scan = local_optima(obj)
    assert members(scan, 6) == {0, 63}
    assert members(twomax_local_optima(6), 6) == {0, 63}


def test_jump_local_optima_exhaustive():
    n, k = 8, 2
    obj = make_objective("jump", n, k=k)
    scan = local_optima(obj)
    expected = {v for v in range(1 << n) if bin(v).count("1") == n - k} | {(1 << n) - 1}
    assert members(scan, n) == expected
    assert members(jump_local_optima(n, k), n) == expected
    assert scan.size_bound >= len(expected)


def test_maxsat_local_optima_exhaustive():
    n = 5
    obj = make_objective("maxsat-hard", n)
    scan = local_optima(obj)
    expected = {1 << i for i in range(n)} | {(1 << n) - 1}
    assert members(scan, n) == expected
    assert members(maxsat_hard_local_optima(n), n) == expected


def test_two_cliques_local_optima_exhaustive():
    n = 6
    obj = make_objective("two-cliques-mincut", n)
    scan = local_optima(obj)
    lone = {1 << i for i in range(n)} | {((1 << n) - 1) ^ (1 << i) for i in range(n)}
    aligned = {0b111000, 0b000111}
    assert members(scan, n) == lone | aligned
    assert members(two_cliques_local_optima(n), n) == lone | aligned


def test_knapsack_local_optima_scan_is_authoritative():
    # scan under the capacity-overflow penalty: the global optimum (all small),
    # the all-big selection, and every {one small, one big} pair
    n = 5
    obj = make_objective("knapsack-hard", n)
    scan = members(local_optima(obj), n)
    small_mask = 0b00111
    all_big = 0b11000
    pairs = {
        (1 << s) | (1 << b)
        for s in range(3)
        for b in range(3, 5)
    }
    assert scan == {small_mask, all_big} | pairs


def test_is_local_optimum_direction_aware():
    obj = make_objective("two-cliques-mincut", 6)
    assert is_local_optimum(obj, BitString.from_str("010000"))
    assert not is_local_optimum(obj, BitString.from_str("000000"))
    om = make_objective("onemax", 6)
    assert is_local_optimum(om, BitString.ones(6))
    assert not is_local_optimum(om, BitString.zeros(6))


def test_capacity_error_beyond_20():
    obj = make_objective("onemax", 21)
    with pytest.raises(ValueError):
        local_optima(obj)


def test_local_target_through_registry():
    obj = make_objective("twomax", 6, target="local")
    assert obj.target.contains(BitString.zeros(6))
    assert obj.target.contains(BitString.ones(6))
    assert not obj.target.contains(BitString.from_str("110000"))
