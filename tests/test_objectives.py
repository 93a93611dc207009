import pytest

from parallel_ea.bitstring import BitString, hamming_ball_size, hamming_distance
from parallel_ea.objectives import (
    GraphInstance,
    MonotonePolynomial,
    PartitionInstance,
    PeakSpec,
    TargetSet,
    bichromatic_edges,
    cliff_d,
    colouring_objective,
    gen_partition_random,
    gen_planted_3sat,
    gen_two_cliques,
    hiff,
    jump_k,
    knapsack_hard,
    leadingones,
    leadingzeros,
    make_objective,
    matching_literals,
    maxsat_hard_count,
    maxsat_hard_enum_count,
    monotone_poly,
    monotone_poly_objective,
    nearest_peak,
    onemax,
    partition_makespan,
    peaks_objective,
    planted_3sat_objective,
    sat_count,
    twomax,
    twomax_prime,
    two_cliques_cut,
    weighted_nearest_peak,
)


def bs(s):
    return BitString.from_str(s)


def all_points(n):
    return (BitString(n, v) for v in range(1 << n))


# ---------------------------------------------------------------- simple

def test_onemax():
    assert onemax(bs("1111")) == 4
    assert onemax(bs("0000")) == 0
    assert onemax(bs("1010")) == 2


def test_leadingones_leadingzeros():
    assert leadingones(bs("1101")) == 2
    assert leadingones(bs("0111")) == 0
    assert leadingzeros(bs("0011")) == 2 == leadingones(bs("1100"))


def test_twomax():
    assert twomax(bs("1111")) == 4
    assert twomax(bs("0000")) == 4
    assert twomax(bs("1100")) == 2
    assert twomax_prime(bs("1111")) == 5
    assert twomax_prime(bs("0000")) == 4


def test_hiff():
    assert hiff(bs("1111")) == 12
    assert hiff(bs("0000")) == 12
    assert hiff(bs("1100")) == 8
    with pytest.raises(ValueError):
        hiff(bs("110"))


def test_hiff_against_recursive_oracle():
    def oracle(bits):
        # independent recursive formulation
        if len(bits) == 1:
            return 1
        half = len(bits) // 2
        left, right = bits[:half], bits[half:]
        block = len(bits) if len(set(bits)) == 1 else 0
        return oracle(left) + oracle(right) + block

    for x in all_points(8):
        assert hiff(x) == oracle(list(x))


def test_jump():
    assert jump_k(bs("11111"), 2) == 7
    assert jump_k(bs("11100"), 2) == 5
    assert jump_k(bs("11110"), 2) == 1
    with pytest.raises(ValueError):
        jump_k(bs("11111"), 6)
    with pytest.raises(ValueError):
        jump_k(bs("11111"), 0)


def test_cliff():
    assert cliff_d(bs("111111"), 2) == 4.5
    assert cliff_d(bs("111100"), 2) == 4
    assert cliff_d(bs("111110"), 2) == 3.5
    with pytest.raises(ValueError):
        cliff_d(bs("111"), 4)


# ---------------------------------------------------------------- graphs

def four_cycle():
    return GraphInstance(4, ((0, 1), (1, 2), (2, 3), (3, 0)))


def test_bichromatic_edges():
    g = four_cycle()
    assert bichromatic_edges(g, bs("0101")) == 4
    assert bichromatic_edges(g, bs("0000")) == 0
    assert bichromatic_edges(g, bs("1111")) == 0
    assert bichromatic_edges(g, bs("0011")) == 2
    with pytest.raises(ValueError):
        bichromatic_edges(g, bs("010"))


def test_graph_validation():
    with pytest.raises(ValueError):
        GraphInstance(3, ((0, 0),))
    with pytest.raises(ValueError):
        GraphInstance(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        GraphInstance(3, ((0, 5),))


def test_two_cliques():
    g = gen_two_cliques(4)
    assert set(g.edges) == {(0, 1), (2, 3)}
    assert two_cliques_cut(g, bs("0011")) == 0
    assert two_cliques_cut(g, bs("0000")) == 3  # |E| + 1
    g6 = gen_two_cliques(6)
    assert two_cliques_cut(g6, bs("010000")) == 2  # n/2 - 1 by degree count
    with pytest.raises(ValueError):
        gen_two_cliques(5)
    with pytest.raises(ValueError):
        gen_two_cliques(2)


def test_bipartite_proper_colourings_maximise():
    # connected bipartite graphs: exactly the two proper 2-colourings win
    cases = [
        GraphInstance(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))),  # path
        GraphInstance(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0))),  # even cycle
        GraphInstance(7, ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6))),  # tree
    ]
    for g in cases:
        best = max(bichromatic_edges(g, x) for x in all_points(g.n))
        winners = [x for x in all_points(g.n) if bichromatic_edges(g, x) == best]
        assert best == len(g.edges)
        assert len(winners) == 2
        assert winners[0] == winners[1].complement()


# ------------------------------------------------------------- partition

def test_partition_makespan():
    assert partition_makespan(PartitionInstance((1.0, 1.0)), bs("01")) == 1
    assert partition_makespan(PartitionInstance((1.0, 1.0)), bs("00")) == 2
    assert partition_makespan(PartitionInstance((3.0, 2.0, 1.0)), bs("100")) == 3


def test_gen_partition_random():
    a = gen_partition_random(50, "uniform", seed=9)
    b = gen_partition_random(50, "uniform", seed=9)
    assert a == b
    c = gen_partition_random(50, "uniform", seed=10)
    assert a != c
    assert all(0 < s <= 1 for s in a.sizes)
    big = gen_partition_random(10_000, "uniform", seed=1)
    mean = sum(big.sizes) / len(big.sizes)
    assert 0.45 <= mean <= 0.55
    expo = gen_partition_random(10_000, "exponential", seed=2)
    assert all(s > 0 for s in expo.sizes)
    assert 0.9 <= sum(expo.sizes) / len(expo.sizes) <= 1.1
    with pytest.raises(ValueError):
        gen_partition_random(5, "gaussian", seed=0)


# -------------------------------------------------------------- knapsack

def test_knapsack_hard_n5():
    obj = knapsack_hard(5)
    # objects: 3 small (w=v=5), 2 big (w=v=6), capacity 15
    assert obj.evaluate(bs("11100")) == 15  # all small = capacity
    assert obj.target.contains(bs("11100"))
    assert obj.evaluate(bs("00000")) == 0
    assert obj.evaluate(bs("11111")) == 15 - 27  # weight 27 over capacity 15
    with pytest.raises(ValueError):
        knapsack_hard(4)


def test_knapsack_hard_unique_optimum_exhaustive():
    for n in (5, 7, 9):
        obj = knapsack_hard(n)
        vals = {x.value: obj.evaluate(x) for x in all_points(n)}
        best = max(vals.values())
        winners = [v for v, f in vals.items() if f == best]
        assert best == (n + 1) // 2 * n
        assert winners == [(1 << ((n + 1) // 2)) - 1]


# ---------------------------------------------------------------- maxsat

def test_maxsat_hard_examples():
    assert maxsat_hard_count(bs("11111")) == 35
    assert maxsat_hard_count(bs("10000")) == 31
    assert maxsat_hard_count(bs("11000")) == 29
    assert maxsat_hard_enum_count(bs("11111")) == 35
    assert maxsat_hard_enum_count(bs("10000")) == 31
    assert maxsat_hard_enum_count(bs("11000")) == 29


def test_maxsat_closed_form_equals_enumeration_n8():
    for x in all_points(8):
        assert maxsat_hard_count(x) == maxsat_hard_enum_count(x)


# ------------------------------------------------------------ planted sat

def test_planted_sat_satisfies_all_for_every_seed():
    for seed in range(6):
        inst = gen_planted_3sat(20, 120, seed=seed)
        assert sat_count(inst, inst.planted) == inst.m


def test_planted_sat_clause_shape():
    inst = gen_planted_3sat(12, 50, seed=3)
    for clause in inst.clauses:
        assert len({abs(l) for l in clause}) == 3
        assert matching_literals(clause, inst.planted) in (1, 2, 3)


def test_planted_sat_match_fractions():
    # defaults c1 = 3/7, c3 = 1/7
    inst = gen_planted_3sat(50, 10_000, seed=11)
    ones = sum(1 for c in inst.clauses if matching_literals(c, inst.planted) == 1)
    assert 0.40 <= ones / inst.m <= 0.46
    threes = sum(1 for c in inst.clauses if matching_literals(c, inst.planted) == 3)
    assert 0.11 <= threes / inst.m <= 0.18


def test_planted_sat_validation():
    with pytest.raises(ValueError):
        gen_planted_3sat(10, 5, c1=0.8, c3=0.3, seed=0)
    with pytest.raises(ValueError):
        gen_planted_3sat(10, 0, seed=0)


def test_sat_count_against_bruteforce():
    inst = gen_planted_3sat(8, 40, seed=5)

    def oracle(x):
        sat = 0
        for clause in inst.clauses:
            ok = False
            for lit in clause:
                v = abs(lit) - 1
                ok = ok or ((lit > 0) == (x[v] == 1))
            sat += ok
        return sat

    for x in all_points(8):
        assert sat_count(inst, x) == oracle(x)


# ----------------------------------------------------------------- peaks

def test_nearest_peak():
    c = bs("000000")
    peak = PeakSpec(c, height=10.0, slope=1.0)
    assert nearest_peak([peak], c) == 10.0
    assert nearest_peak([peak], bs("111000")) == 7.0
    with pytest.raises(ValueError):
        nearest_peak([], c)


def test_weighted_nearest_peak_is_pointwise_max_bruteforce():
    peaks = [
        PeakSpec(bs("000000"), height=12.0, slope=1.0),
        PeakSpec(bs("111111"), height=4.0, slope=2.0),
    ]
    for x in all_points(6):
        expected = max(p.height - p.slope * hamming_distance(x, p.centre) for p in peaks)
        assert weighted_nearest_peak(peaks, x) == expected
    # tall peak dominates at the shallow peak's own centre
    shallow_centre = peaks[1].centre
    assert weighted_nearest_peak(peaks, shallow_centre) == 12.0 - 6.0


def test_nearest_peak_tie_break():
    a = PeakSpec(bs("0000"), height=5.0, slope=1.0)
    b = PeakSpec(bs("1111"), height=9.0, slope=1.0)
    mid = bs("1100")  # equidistant
    assert nearest_peak([a, b], mid) == 9.0 - 2.0


# ------------------------------------------------------ monotone polynomials

def test_monotone_poly():
    poly = MonotonePolynomial(((2.0, frozenset({0, 1})),))
    assert monotone_poly(poly, bs("11")) == 2.0
    poly2 = MonotonePolynomial(((1.0, frozenset({0})), (3.0, frozenset({1, 2}))))
    assert monotone_poly(poly2, bs("101")) == 1.0
    assert monotone_poly(poly2, bs("111")) == 4.0  # 1^n always optimal
    with pytest.raises(ValueError):
        monotone_poly(poly2, bs("11"))
    with pytest.raises(ValueError):
        MonotonePolynomial(((0.0, frozenset({0})),))


# ------------------------------------------------------------- symmetry

@pytest.mark.parametrize("n", [8, 10])
def test_bitflip_symmetry_exhaustive(n):
    part = gen_partition_random(n, "uniform", seed=4)
    g = gen_two_cliques(n)
    funcs = [
        twomax,
        lambda x: bichromatic_edges(g, x),
        lambda x: partition_makespan(part, x),
    ]
    if n & (n - 1) == 0:
        funcs.append(hiff)
    for v in range(1 << (n - 1)):  # pair x with its complement once
        x = BitString(n, v)
        xc = x.complement()
        for f in funcs:
            assert f(x) == f(xc)


# ----------------------------------------------------------- target sets

def assert_target_is_argmax(obj):
    points = list(all_points(obj.n))
    values = [obj.evaluate(x) for x in points]
    best = max(values)
    argmax = [x.value for x, v in zip(points, values) if v == best]
    assert [x.value for x in points if obj.target.contains(x)] == argmax


def test_colouring_target_is_exhaustive_argmax():
    odd_cycle = GraphInstance(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen = GraphInstance(10, tuple(outer + spokes + inner))
    for g in (odd_cycle, petersen):
        assert_target_is_argmax(colouring_objective(g))


@pytest.mark.parametrize("weighted", [False, True], ids=["nearest", "weighted"])
def test_peaks_target_is_exhaustive_argmax(weighted):
    cases = [
        [PeakSpec(bs("00000000"), 12.0, 1.0), PeakSpec(bs("11111111"), 4.0, 2.0)],
        # equal heights: both centres are optima
        [PeakSpec(bs("0000000000"), 5.0, 1.0), PeakSpec(bs("1111100000"), 5.0, 0.5)],
        [PeakSpec(bs("10101010"), 3.0, 0.25), PeakSpec(bs("11110000"), 7.5, 3.0),
         PeakSpec(bs("00001111"), 7.0, 0.1)],
    ]
    for peaks in cases:
        assert_target_is_argmax(peaks_objective(peaks, weighted=weighted))


def test_monotone_poly_target_is_exhaustive_argmax():
    poly = MonotonePolynomial((
        (2.0, frozenset({0, 1})),
        (0.5, frozenset({2})),
        (1.0, frozenset({3, 4, 5})),
        (3.0, frozenset({1, 5})),
    ))
    obj = monotone_poly_objective(poly, 8)  # variables 6 and 7 are free
    assert_target_is_argmax(obj)
    assert _count_members(obj.target, 8) == obj.target.size_bound == 4


def test_planted_sat_target_matches_sat_count():
    inst = gen_planted_3sat(10, 40, seed=4)
    obj = planted_3sat_objective(inst)
    members = 0
    for x in all_points(10):
        assert obj.target.contains(x) == (sat_count(inst, x) == inst.m)
        members += obj.target.contains(x)
    assert members >= 1  # the planted assignment



def _count_members(target, n):
    return sum(1 for x in all_points(n) if target.contains(x))


def test_target_size_bounds_exhaustive():
    cases = [
        make_objective("onemax", 12),
        make_objective("twomax", 12),
        make_objective("hiff", 16),
        make_objective("jump", 12, k=3),
        make_objective("two-cliques-mincut", 12),
        make_objective("knapsack-hard", 11),
        make_objective("maxsat-hard", 10),
        make_objective("partition", 10, distribution="uniform", seed=3),
    ]
    for obj in cases:
        members = _count_members(obj.target, obj.n)
        assert 1 <= members <= obj.target.size_bound


def test_within_distance_target():
    n = 10
    centres = [BitString.zeros(n), BitString.ones(n)]
    t = TargetSet.within_distance(centres, 2)
    true_size = _count_members(t, n)
    assert true_size <= 2 * hamming_ball_size(n, 2)
    assert t.contains(bs("1100000000"))
    assert not t.contains(bs("1110000000"))
    base = TargetSet.from_points(centres)
    # within-distance(d) of S contains S
    for x in all_points(n):
        if base.contains(x):
            assert t.contains(x)


def test_objective_registry_and_errors():
    obj = make_objective("cliff", 8, d=2)
    assert obj.evaluate(BitString.ones(8)) == 6.5
    with pytest.raises(ValueError):
        make_objective("nope", 8)
    with pytest.raises(ValueError):
        make_objective("onemax", 8, target="weird")
