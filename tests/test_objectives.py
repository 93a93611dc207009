import hashlib
import random

import pytest

from parallel_ea.bitstring import BitString, hamming_ball_size
from parallel_ea.objectives.base import TargetSet
from parallel_ea.objectives.functions import (
    cliff_d,
    hiff,
    jump_k,
    leadingones,
    leadingzeros,
    onemax,
    twomax,
    twomax_prime,
)
from parallel_ea.objectives.instances import (
    GraphInstance,
    PartitionInstance,
    bichromatic_edges,
    gen_partition_random,
    gen_planted_3sat,
    gen_two_cliques,
    knapsack_hard,
    maxsat_hard_count,
    partition_makespan,
    planted_3sat_objective,
    sat_count,
    two_cliques_cut,
)
from parallel_ea.objectives.registry import make_objective, objective_names

from references import matching_literals, maxsat_hard_enum_count


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


# ------------------------------------------------------------ value pins

# Per registry objective: (n, params) for the exhaustive scan of {0,1}^n and
# (n, params) for 64 seeded points near n = 200, and the sha256 of their
# values.  The hash covers the name, direction, target kind, size bound and
# description and the metadata keys of both builds, then
# repr((evaluate(x), target.contains(x))) per point, so an int that becomes
# a float, or a float that moves by one ulp, changes it.
VALUE_PINS = {
    "cliff": ((12, {"d": 3}), (200, {"d": 3}),
              "4627b0c585e9f030bc3556c1c877548e769a5bd80ca9f5c9ecf964e3dbd7516b"),
    "hiff": ((8, {}), (256, {}),
             "ed846eb2cbd9d4d853a2f4a574a142017413ca5fa6e99b35d6392deec1cdaa61"),
    "jump": ((12, {"k": 2}), (200, {"k": 2}),
             "844d0593145b195807e100ad69811d8df0e771183f36a22225facb799b33f6d0"),
    "knapsack-hard": ((11, {}), (201, {}),
                      "cb518745a8631c195b192ef49e9f21396639e2fe0251cd6f8a476110ad3cba7f"),
    "leadingones": ((12, {}), (200, {}),
                    "e103eb6b36fded7be37f4cb654d94f9353114687fb1d4712746475c62ae0714f"),
    "leadingzeros": ((12, {}), (200, {}),
                     "1b2dd8568d14b300825987410b4e3ba89f804f2dd4e263719a439044d979c501"),
    "maxsat-hard": ((12, {}), (200, {}),
                    "c795ef45219a0fceb81fb5f63ce778d0034316fd7fce2109f4a4bfb4e16ee950"),
    "onemax": ((12, {}), (200, {}),
               "28faf925245c5e291e0073186fa01fa1d7924195c6eed96eb122b313c6285c34"),
    # the optimum scan is capped at n <= 20
    "partition": ((12, {"seed": 3}), (20, {"seed": 3}),
                  "1fc3c5bc87fd960481ad9b76f128c32ed4f8000287a356a1832424fd789df43a"),
    "planted-3sat": ((12, {"m": 40}), (200, {"m": 800}),
                     "ae178e9040b6c0becfe660aa0d80a9dc263493d592bc8490497fcc4f84f46e50"),
    "two-cliques-mincut": ((12, {}), (200, {}),
                           "261b70012fc52ce3b945259d27b4c4f01a4072bbe922a63ff20ab645d1a5d394"),
    "twomax": ((12, {}), (200, {}),
               "24cb2e26aff9aed1c8f104e1b305fce99b210345a6932d489c611e2c36f792a8"),
    "twomax-prime": ((12, {}), (200, {}),
                     "113e5d2c31d3dc578d571d052bc253065b62ffb966dc363710aaa9f1bad643ee"),
}


def test_value_pins_cover_the_registry():
    assert sorted(VALUE_PINS) == objective_names()


@pytest.mark.parametrize("name", sorted(VALUE_PINS))
def test_objective_values_pinned(name):
    (n, params), (big, big_params), expected = VALUE_PINS[name]
    h = hashlib.sha256()

    def feed(obj, points):
        t = obj.target
        h.update(repr((obj.name, obj.direction, t.kind, t.size_bound, t.description,
                       sorted(obj.metadata))).encode())
        for x in points:
            h.update(repr((obj.evaluate(x), t.contains(x))).encode())

    feed(make_objective(name, n, **params), all_points(n))
    rnd = random.Random(2024)
    feed(make_objective(name, big, **big_params),
         (BitString(big, rnd.getrandbits(big)) for _ in range(64)))
    assert h.hexdigest() == expected
