import contextlib
import hashlib
import io
import json
from fractions import Fraction
from math import exp, inf, lgamma, log, nan, sqrt

import numpy as np
import pytest

from parallel_ea import cli
from parallel_ea.theory import lemmas, pmf
from parallel_ea.theory.lemmas import (
    D_DROP_CHAIN,
    D_FREE_RIDERS,
    ETA_DROP_CHAIN,
    ETA_FREE_RIDERS,
    GAMMA_POTENTIAL,
    LemmaReport,
    MAX_VIOLATIONS_KEPT,
    MULTIBIT_GRID_POINTS,
    MULTIBIT_S,
    _geometric_grid,
    expected_max_bound,
    mgf_series_value,
    multibit_nstar,
    verify_chvatal,
    verify_coupon,
    verify_delta_symmetry,
    verify_hypergeom_tail,
    verify_improve_prob,
    verify_max_geometric,
    verify_mgf_bound,
    verify_multibit_progress,
)
from parallel_ea.theory.pmf import (
    ProgressParams,
    _delta0_counts,
    delta0_pmf,
    delta0_point_log_prob,
    delta0_point_prob,
    hypergeom_pmf,
)

from references import _delta0_tail_counts, delta0_tail_prob, delta_symmetry_report, drop_chain_series


def test_hypergeom_tail_small_grid():
    report = verify_hypergeom_tail(32)
    assert report.passed
    assert report.points_checked > 0
    assert report.max_slack <= 1 + 1e-12


def test_hypergeom_tail_trivial_cases():
    # z = 0: bound is 1; beyond support the pmf is 0
    assert hypergeom_pmf(16, 5, 4, 0) <= 1
    assert hypergeom_pmf(16, 3, 4, 4) == 0


def test_improve_prob_small_grid():
    report = verify_improve_prob(32)
    assert report.passed
    assert report.max_slack <= 1 + 1e-12


def test_improve_prob_spot_value():
    # n=64, s=m=8, r=64: radius n flips every zero, so the drop is 0
    p = delta0_point_prob(64, 8, 8, 64, 2)
    assert float(p) <= 0.5
    assert p == 0
    # a nonzero cell of the same grid stays under the bound as well
    p2 = delta0_point_prob(64, 8, 8, 14, 2)
    assert 0 < float(p2) <= 0.5


def test_chvatal_small_grid():
    report = verify_chvatal(32)
    assert report.passed


def test_chvatal_spot_values():
    # m = s: the bound exp(-(m-s)^2/(2r)) is 1, and the exact tail a probability
    assert float(delta0_tail_prob(32, 4, 4, 8)) <= 1.0
    # n=64, m-s=16, r=8: exact tail under e^-16
    assert float(delta0_tail_prob(64, 4, 20, 8)) <= exp(-16.0)


def test_chvatal_exact_tail_is_fraction():
    tail = delta0_tail_prob(32, 2, 10, 5)
    assert isinstance(tail, Fraction)


def test_mgf_bound_small_grid_and_series():
    report = verify_mgf_bound(32, (1, 64))
    assert report.passed
    series = report.details["series"]
    assert series["1"]["series"] == pytest.approx(8.0, rel=1e-9)
    assert series["64"]["series"] == pytest.approx(512.0, rel=1e-9)


def test_mgf_series_closed_form():
    # gamma = ln((3/4) sqrt 2) turns the series into 2 lam * sum (3/4)^z
    assert GAMMA_POTENTIAL == pytest.approx(log(0.75 * sqrt(2.0)))
    assert mgf_series_value(1.0) == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(ValueError):
        mgf_series_value(1.0, gamma=log(2.0))


def test_mgf_premise_spot_value():
    # grid point s=m=4, r=3, z=1: P <= 2^(1/2) trivially, exact value under it
    p = delta0_point_prob(128, 4, 4, 3, 1)
    assert float(p) <= 2 ** 0.5


def test_multibit_domain_error():
    with pytest.raises(ValueError) as err:
        verify_multibit_progress(4096)
    assert "n*" in str(err.value)


def test_multibit_small_supported_n():
    n = 2**18
    assert multibit_nstar(n) >= 2
    report = verify_multibit_progress(n, z_max=60)
    assert report.passed
    assert report.max_slack > 0  # grid reaches points with nonzero probability


def test_multibit_refuses_a_grid_without_drops():
    # z_max = 0 checks no point and would pass vacuously
    for z_max in (0, -3):
        with pytest.raises(ValueError, match="z_max"):
            verify_multibit_progress(2**18, z_max=z_max)


def scalar_multibit(n, z_max):
    """The multibit check one point at a time through delta0_point_log_prob:
    the reference the array verifier must reproduce bit for bit."""
    nstar = multibit_nstar(n)
    report = LemmaReport(
        lemma="multibit",
        grid=(
            f"n={n}, s in {MULTIBIT_S}, m in [s,2n*] u [n-2n*,n-s] plus "
            f"{MULTIBIT_GRID_POINTS}-point geometric middle grid, r geometric + near-support, "
            f"z in [1,{z_max}]"
        ),
        details={"n_star": nstar},
    )
    log_low_bound = 2.0 * log(16.0 * nstar / n)
    log2 = log(2.0)
    two_nstar = int(2 * nstar)
    radii = set(_geometric_grid(2, n - 2))
    middle = _geometric_grid(two_nstar + 1, n - two_nstar - 1)

    for s in MULTIBIT_S:  # s <= 2 <= n*
        low = list(range(s, two_nstar + 1))
        for m in low + [n - m for m in low] + middle:
            regime = "middle" if two_nstar < m < n - two_nstar else "low/high"
            near = {c + d for c in (m, n - m) for d in range(-2, 3) if 2 <= c + d <= n - 2}
            for r in sorted(radii | near):
                # log bound at z is base - z * slope
                if regime == "middle":
                    m_sym, r_sym = (m, r) if m <= n / 2 else (n - m, n - r)
                    base, slope = -((m_sym - s) ** 2) / (2 * r_sym), 0.0
                else:
                    base, slope = log_low_bound, log2
                report.points_checked += z_max
                for z in range(1, z_max + 1):
                    lp = delta0_point_log_prob(n, s, m, r, z)
                    if lp == -inf:
                        continue
                    log_bound = base - z * slope
                    report.observe(exp(lp - log_bound),
                                   {"s": s, "m": m, "r": r, "z": z, "regime": regime}
                                   if lp > log_bound + 1e-12 else None)
    return report


@pytest.mark.parametrize("z_max", [60, 200])
def test_multibit_report_is_the_scalar_report(z_max):
    n = 2**18
    report = verify_multibit_progress(n, z_max=z_max)
    assert report.passed
    assert report.to_json() == scalar_multibit(n, z_max).to_json()


def test_multibit_violations_are_the_scalar_violations(monkeypatch):
    # both versions read pmf.lgamma; lowering every lgamma by 40 raises each
    # log-probability by 40 nats, past the bound at more points than a report keeps
    n, z_max = 2**18, 60
    monkeypatch.setattr(pmf, "lgamma", lambda x: lgamma(x) - 40.0)
    capped = verify_multibit_progress(n, z_max=z_max)
    monkeypatch.setattr(lemmas, "MAX_VIOLATIONS_KEPT", 10**6)
    every = verify_multibit_progress(n, z_max=z_max)
    reference = scalar_multibit(n, z_max)
    assert not reference.passed and len(reference.violations) > MAX_VIOLATIONS_KEPT
    # every violation in loop order, each with its slack, then the first ones kept
    assert every.to_json() == reference.to_json()
    reference.violations = reference.violations[:MAX_VIOLATIONS_KEPT]
    assert capped.to_json() == reference.to_json()


def test_multibit_parity_empty_support():
    # r=2, z=1 with m=s: progress would need an odd hypergeometric step
    from math import inf
    n = 2**18
    assert delta0_point_log_prob(n, 2, 2, 2, 1) == -inf


def test_delta_symmetry_report():
    report = verify_delta_symmetry(12)
    assert report.passed
    assert report.points_checked > 0


def test_delta_symmetry_counts_decide_as_the_fraction_pmfs():
    for n in range(21):
        assert verify_delta_symmetry(n).to_json() == delta_symmetry_report(n).to_json()


def test_expected_max_bound_examples():
    assert expected_max_bound(1.0, 1.0, 1) == 1.0
    assert expected_max_bound(log(1.5), 2.0, 100) == pytest.approx(15.5336, abs=2e-4)
    # doubling lambda adds ln(2)/eta
    eta = 0.37
    delta = expected_max_bound(eta, 2.0, 64) - expected_max_bound(eta, 2.0, 32)
    assert delta == pytest.approx(log(2.0) / eta)
    with pytest.raises(ValueError):
        expected_max_bound(0.0, 2.0, 4)


def test_mc_max_geometric():
    result = verify_max_geometric(lam=100, trials=4000, seed=5).details
    assert result["pass"]
    assert 6.0 <= result["sample_mean"] <= 9.0
    assert result["bound"] == pytest.approx(
        expected_max_bound(ETA_FREE_RIDERS, D_FREE_RIDERS, 100)
    )


def test_verify_max_geometric_report_json():
    report = verify_max_geometric(lam=50, trials=2000, seed=1)
    assert report.passed
    parsed = json.loads(report.to_json())
    assert parsed["pass"] is True
    assert parsed["lemma"] == "mgf-max"


def test_verify_coupon():
    report = verify_coupon(delta=0.5)
    assert report.passed
    for point in report.details["points"]:
        assert point["survival"] >= point["floor"]


def test_drop_chain_constants():
    # the geometric chain at eta = ln(4/3) closes to exactly 9 + 6 sqrt(2)
    assert ETA_DROP_CHAIN == pytest.approx(log(4.0 / 3.0))
    assert D_DROP_CHAIN == pytest.approx(9.0 + 6.0 * sqrt(2.0))
    assert drop_chain_series() == pytest.approx(D_DROP_CHAIN, rel=1e-12)
    # explicit O(log lambda) expected-max curve built from those constants
    assert expected_max_bound(ETA_DROP_CHAIN, D_DROP_CHAIN, 64) == pytest.approx(
        (log(D_DROP_CHAIN * 64) + 1) / log(4.0 / 3.0)
    )
    gap = (expected_max_bound(ETA_DROP_CHAIN, D_DROP_CHAIN, 2048)
           - expected_max_bound(ETA_DROP_CHAIN, D_DROP_CHAIN, 1024))
    assert gap == pytest.approx(log(2.0) / log(4.0 / 3.0))


def test_backends_cross_validate():
    # the exact big-rational and log-gamma backends agree pointwise, over a
    # spread of (s, m, r) cells at each n
    for n in (64, 128):
        step = n // 8
        for s in range(0, n // 2 + 1, step):
            for m in range(s, n - s + 1, step):
                for r in range(0, n + 1, step):
                    exact = delta0_pmf(ProgressParams(n, s, m, r))
                    for z in range(1, s + 1):
                        p_exact = float(exact.get(z, 0))
                        if p_exact:
                            p_log = exp(delta0_point_log_prob(n, s, m, r, z))
                            assert abs(p_log - p_exact) < 1e-10 * p_exact, (n, s, m, r, z)


def test_report_violation_capture():
    report = verify_hypergeom_tail(8)
    report.record({"m": 1}, 2.0)
    assert not report.passed
    assert report.to_dict()["pass"] is False
    assert report.violations[0]["slack"] == 2.0



def _closed_form_grid_size(verify, n):
    h, e = n // 2, n // 8
    return {
        # sum over 0 <= m, r <= n of min(m, r) + 1 values of z
        verify_hypergeom_tail: (n + 1) ** 2 + n * (n + 1) * (2 * n + 1) // 6,
        # sum over s <= m <= n/8 of n radii times s drops
        verify_improve_prob: n * e * (e + 1) * (e + 2) // 6,
        # m + 1 potentials per m <= n/2, n radii each
        verify_chvatal: n * (h + 1) * (h + 2) // 2,
        # sum over s <= n/8 of n/2 - s + 1 parents, n + 1 radii and s drops
        verify_mgf_bound: (n + 1) * ((h + 1) * e * (e + 1) // 2 - e * (e + 1) * (2 * e + 1) // 6),
    }[verify]


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize(
    "verify",
    [verify_hypergeom_tail, verify_improve_prob, verify_chvatal, verify_mgf_bound],
    ids=["hypergeom-tail", "improve-prob", "chvatal", "mgf"],
)
def test_grid_points_match_closed_form(verify, n):
    # every point of the stated grid is checked, none twice
    report = verify(n)
    assert report.passed
    assert report.points_checked == _closed_form_grid_size(verify, n)


# The four exact grids one cell at a time, with one big-integer comparison
# each: the references the float-filtered verifiers must reproduce byte for
# byte.  They read lemmas._comb_table when called, as the verifiers do.


def scalar_hypergeom_tail(n):
    report = LemmaReport(lemma="hypergeom-tail", grid=f"n={n}, all 0<=m,r<=n, z in support")
    ci = lemmas._comb_table(n)
    for m in range(n + 1):
        for r in range(n + 1):
            den = ci[n][r]
            den_f = float(den)
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
                    report.observe(num / den_f / (ci[r][z] * (m / n) ** z))
                if 2 * z >= r and ci[r][z] > four_z:
                    report.record({"m": m, "r": r, "z": z, "which": "4^z-bound"}, inf)
    return report


def scalar_improve_prob(n):
    report = LemmaReport(lemma="improve-prob", grid=f"n={n}, s<=m<={n // 8}, r in [1,{n}], z>=1")
    ci = lemmas._comb_table(n)
    for m in range(n // 8 + 1):
        for s in range(m + 1):
            for r in range(1, n + 1):
                den = ci[n][r]
                den_f = float(den)
                counts = _delta0_counts(ci, n, s, m, r)
                report.points_checked += s
                for z in range(1, s + 1):
                    num = counts[z]
                    if num * num << z > den * den:
                        report.record({"s": s, "m": m, "r": r, "z": z}, inf)
                    if num:
                        report.observe(num / den_f / 0.5 ** (z / 2))
    return report


def scalar_chvatal(n):
    report = LemmaReport(lemma="chvatal", grid=f"n={n}, s<=m<={n // 2}, r in [1,{n}]")
    ci = lemmas._comb_table(n)
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


def scalar_mgf_bound(n, lam=(1, 64, 4096)):
    report = LemmaReport(
        lemma="mgf",
        grid=f"n={n}, s<={n // 8}, s<=m<={n // 2}, r in [0,{n}], z in [1,s]",
    )
    ci = lemmas._comb_table(n)
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
                    if num * num << z > 4 * den * den:
                        report.record({"s": s, "m": m, "r": r, "z": z}, inf)
                    report.observe((num / den_f) / (2.0 * 0.5 ** (z / 2)))
    series = {}
    for lam_v in lam:
        value = mgf_series_value(float(lam_v))
        target = 8.0 * lam_v
        series[str(lam_v)] = {"series": value, "eight_lambda": target}
        if abs(value - target) > 1e-9 * target:
            report.record({"lambda": lam_v, "series": value}, value / target)
    report.details["gamma"] = GAMMA_POTENTIAL
    report.details["series"] = series
    return report


EXACT_GRIDS = {
    "hypergeom-tail": (verify_hypergeom_tail, scalar_hypergeom_tail),
    "improve-prob": (verify_improve_prob, scalar_improve_prob),
    "chvatal": (verify_chvatal, scalar_chvatal),
    "mgf": (verify_mgf_bound, scalar_mgf_bound),
}


@pytest.mark.parametrize("n", [16, 33, 64, 128])  # odd n floors n/8 and n/2
@pytest.mark.parametrize("lemma", list(EXACT_GRIDS))
def test_exact_grid_report_is_the_scalar_report(lemma, n):
    verify, scalar = EXACT_GRIDS[lemma]
    assert verify(n).to_json() == scalar(n).to_json()


# sha256 of `parallel-ea verify --lemma X --n 128` stdout from the scalar
# loops, so that editing a reference above cannot hide a changed report
PINNED_STDOUT_128 = {
    "hypergeom-tail": "2dd575f00eec54951dfe116506cdecdd23c289ae71322a360c2bbc87d214a4b5",
    "improve-prob": "aba3fd1467a36ff084d6d31e9ccff4ee08f13a9e83c49cf4015f2bcbb60a4fa7",
    "chvatal": "bff974ca88459a5145122323f7a77fa71ec0a5155d49408b91eb49f6b98a7965",
    "mgf": "2b27041fabe6b15d2fb442676cfc64682c46cb70e0085988a76f6e745a4af225",
}


@pytest.mark.parametrize("lemma", list(PINNED_STDOUT_128))
def test_exact_grid_stdout_is_pinned(lemma):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--lemma", lemma, "--n", "128"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED_STDOUT_128[lemma]


# sha256 of `parallel-ea verify --lemma X --n N` stdout off n = 128: slices of
# width 1 and the m = 0 row (n = 1, 2), odd n (3, 61), an even middle
# parent (200), the hypergeom-tail cap (512) and an odd n next to it (511),
# and both ends of the improve-prob and mgf grids
PINNED_STDOUT = {
    ("hypergeom-tail", 1): "e2f0863832931589551602912287d6dafbf431b43efb41e1ca853926d1daecc0",
    ("hypergeom-tail", 2): "6ac309314813b7fac48d15d6da4451b6562ce9561eeaeb7392912e908e85a93c",
    ("hypergeom-tail", 3): "d65b8ed3173efdfdc47659ee18306395ed2245ba91544a2322cab053ec53ce02",
    ("hypergeom-tail", 61): "7b08c80c7907af70b43d248be34ebd6aa47a9a2570f18641438e541b0181b733",
    ("hypergeom-tail", 200): "a858da85a66c6da7818f05615129376f0b0085bd407c28d815b69c443a932db2",
    ("hypergeom-tail", 511): "ebcde2e4411b3af9c91dc6f756fcbfbbf573e606badf1523765d9a28f334b7e8",
    ("hypergeom-tail", 512): "bc846fd79bc89d234c039b6c13307e2ab7b1a617c42d87661c77919ded94524d",
    ("chvatal", 1): "ab1385436e23e244b693f494135d0134014e28b2699b5857947345aca8420dd7",
    ("chvatal", 2): "f3a779d2636b1704461addc828c7859486d7facbf7825ca478bc86c50fcefd80",
    ("chvatal", 61): "3e3802c17d30c1b199e7c854e45848a280b4988a2746091f4ec0c62c800fe481",
    ("chvatal", 512): "8ec0c786ac07a1d363997a5ef6b9445674b4c5ad8ea73d3d036cd3325d08b7d9",
    ("improve-prob", 8): "94f40d20403cd2c19d4f71b001e8dfd266e72eb3f10fcc4abccc7f60f7258af1",
    ("improve-prob", 61): "186e5af8f363d9cf566f6a43f1430b657d8a2d51029ebf38f993afd674696c73",
    ("improve-prob", 300): "b232bd327783e86c3f95b82e0c6681944592b1ce13687b7a965402af3ee95329",
    ("mgf", 8): "22ad36c9c91d44fc557a1462691cd6eb5c8d629897163f3287d46556d7c80d44",
    ("mgf", 61): "bcc985d5f2d907fbe334cea29dc45bc5894b621832f2ab3f230cd260cf2de0c3",
    ("mgf", 300): "fda849deb36edb2de05a081febf11a259423397496613dd9a85cd29859178994",
    # taken from the Fraction pmfs' verifier, before the count comparison
    ("delta-symmetry", 32): "1efc0567283af9d152d2a91e4db849cd6fbff4304e533a02be61e29eb8f6aa36",
}


@pytest.mark.parametrize("lemma, n", list(PINNED_STDOUT))
def test_exact_grid_stdout_is_pinned_off_128(lemma, n):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--lemma", lemma, "--n", str(n)]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED_STDOUT[lemma, n]


# sha256 of `parallel-ea verify --lemma multibit --n N` stdout from the
# per-(s, m) array verifier, so that a rewrite of the grid cannot change a byte
PINNED_MULTIBIT_STDOUT = {
    2**18: "a8a6d7a7cf2c883260a12da10e41cb66e17cb418722b64e7e948d632b949b48e",
    2**19: "29081be985eaa11453e05b70cf553a54774cfa3c0290d1a35571006975be8f2f",
    2**20: "0788ef132a4611166cf8d23be018d0e3274355bd525d2106014302b6574f5462",
    2**22: "52509b12e2403ed9e1f773329254c558ad8391b69d1168994adde887e2c71ac4",
}


@pytest.mark.parametrize("n", list(PINNED_MULTIBIT_STDOUT))
def test_multibit_stdout_is_pinned(n):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--lemma", "multibit", "--n", str(n)]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED_MULTIBIT_STDOUT[n]


@pytest.mark.parametrize("verify", [verify_improve_prob, verify_mgf_bound, verify_chvatal])
def test_float_slack_grids_stop_where_binomials_overflow(verify):
    # their slacks divide by float(C(n, r)), which overflows from n = 1030 on,
    # and chvatal's cells past it would all fall through to the exact check
    with pytest.raises(ValueError, match="n <= 1029"):
        verify(1030)


def _doctored_row_n(change):
    """A Pascal table whose row n is changed entry by entry; both the
    verifiers and the references read it through lemmas._comb_table."""
    pascal = lemmas._comb_table

    def table(n):
        rows = pascal(n)
        rows[n] = [change(c) for c in rows[n]]
        return rows

    return table


DOCTORED = {
    # C(n, r) over 2^16 (at least 1): each probability up to 2^16 times too large
    "deflated": lambda c: max(1, c >> 16),
    # C(n, r) times 2^40: C(n, z) > 4^z near z = n/2
    "inflated": lambda c: c << 40,
}


@pytest.mark.parametrize("lemma, doctoring", [(lemma, "deflated") for lemma in EXACT_GRIDS]
                         + [("hypergeom-tail", "inflated")])
def test_exact_grid_violations_are_the_scalar_violations(monkeypatch, lemma, doctoring):
    verify, scalar = EXACT_GRIDS[lemma]
    n = 33
    monkeypatch.setattr(lemmas, "_comb_table", _doctored_row_n(DOCTORED[doctoring]))
    capped = verify(n)
    monkeypatch.setattr(lemmas, "MAX_VIOLATIONS_KEPT", 10**6)
    every = verify(n)
    reference = scalar(n)
    assert not reference.passed and len(reference.violations) > MAX_VIOLATIONS_KEPT
    # every violation in loop order, each with its slack, then the first ones kept
    assert every.to_json() == reference.to_json()
    reference.violations = reference.violations[:MAX_VIOLATIONS_KEPT]
    assert capped.to_json() == reference.to_json()


def _gathered_counts(cf, n, m):
    # C(m, Z) C(n - m, r - Z) over (r, Z) by fancy indexing, 0 where r < Z
    r, z = np.arange(n + 1)[:, None], np.arange(m + 1)
    return np.where(r >= z, cf[m, z] * cf[n - m][np.maximum(r - z, 0)], 0.0)


@pytest.mark.parametrize("n", [1, 2, 33, 128])
def test_count_table_is_the_gathered_product(n):
    cf = lemmas._float_table(lemmas._comb_table(n))
    count = lemmas._count_tables(cf)
    for m in range(n + 1):
        table = count(cf[m, :m + 1], m)
        want = _gathered_counts(cf, n, m)
        assert table.shape == want.shape and table.tobytes() == want.tobytes()


def _gathered_band(cf, q, n, m):
    # C(m, Z) C(n - m, d) q[Z + d, Z] over (Z, d) by fancy indexing
    z, d = np.arange(m + 1)[:, None], np.arange(n - m + 1)
    return cf[m, z] * cf[n - m, d] * q[z + d, z]


@pytest.mark.parametrize("n", [1, 2, 33, 128])
def test_band_slice_is_the_gathered_product(n):
    cf = lemmas._float_table(lemmas._comb_table(n))
    q = np.random.default_rng(n).random(cf.shape)  # any q: every cell of it is read in place
    for m in range(n + 1):
        band = lemmas._band_slice(cf, q, cf[m, :m + 1], m)
        want = _gathered_band(cf, q, n, m)
        assert band.shape == want.shape and band.tobytes() == want.tobytes()


def _four_fails_loop(ci, n):
    fails = np.zeros((n + 1, n + 1), dtype=bool)
    for r in range(n + 1):
        for z in range((r + 1) // 2, r + 1):
            fails[r, z] = ci[r][z] > 4**z
    return fails


@pytest.mark.parametrize("doctoring", [None, *DOCTORED])
def test_four_fails_is_the_double_loop(doctoring):
    table = lemmas._comb_table if doctoring is None else _doctored_row_n(DOCTORED[doctoring])
    failing = 0
    for n in range(65):
        ci = table(n)
        fails = lemmas._four_fails(ci, n)
        assert np.array_equal(fails, _four_fails_loop(ci, n))
        failing += int(fails.sum())
    # only the inflated row n breaks C(r, z) <= 4^z
    assert (failing > 0) == (doctoring == "inflated")


@pytest.mark.parametrize("doctoring", [None, "deflated"])
@pytest.mark.parametrize("lemma", list(EXACT_GRIDS))
def test_float_cells_that_are_not_finite_go_to_the_exact_check(monkeypatch, lemma, doctoring):
    # NaN over the middle of the widest rows, as _float_table leaves the
    # entries past 2^1024 from n = 1030 on; the references read no float table
    verify, scalar = EXACT_GRIDS[lemma]
    n = 33
    floats = lemmas._float_table

    def table(ci):
        cf = floats(ci)
        for a in range(n - 3, n + 1):
            cf[a, a // 3:a - a // 3 + 1] = nan
        return cf

    if doctoring:
        monkeypatch.setattr(lemmas, "_comb_table", _doctored_row_n(DOCTORED[doctoring]))
    monkeypatch.setattr(lemmas, "_float_table", table)
    assert verify(n).to_json() == scalar(n).to_json()


def test_float_filter_checks_every_slack_that_is_not_finite():
    # each decide clears the margin; cell 0 holds the largest finite slack
    seen = []

    def exact(i):
        seen.append(i)
        return (i,), [], None

    grid = lemmas._FloatFilter(LemmaReport(lemma="x", grid="x"))
    clean = grid.settle(np.full(4, -1.0), np.array([0.5, 0.25, inf, nan]), np.ones(4, dtype=bool), exact)
    assert sorted(seen) == [0, 2, 3] and not clean
