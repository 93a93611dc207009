"""Reference implementations that the tests check the package against.

Each is a slow, literal form of a law or count that the package computes
another way: the full offspring distribution by enumeration, the tail of
the potential drop by summing its hypergeometric terms, the complement
symmetry of its law by comparing Fraction pmfs, the drop chain's
constants and geometric series, and the hard MaxSat and planted 3-SAT
counts by walking every clause.  None of them is reached by the CLI, the harness or the
benchmark, so they live with the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, inf, log, sqrt
from typing import Sequence

from parallel_ea.bitstring import BitString, hamming_distance
from parallel_ea.theory.lemmas import LemmaReport, _geometric_sum
from parallel_ea.theory.pmf import ProgressParams, _delta0_tail_support, delta0_pmf
from parallel_ea.variation import UnaryOperator, radius_pmf


def transition_prob(op: UnaryOperator, x: BitString, y: BitString) -> Fraction:
    """Exact P(y | x); depends on (x, y) only through their Hamming distance."""
    n = x.n
    d = hamming_distance(x, y)
    pmf = radius_pmf(op, n)
    return pmf.get(d, Fraction(0)) / comb(n, d)


def exact_distribution(op: UnaryOperator, x: BitString) -> dict[int, Fraction]:
    """Full offspring distribution {packed value: probability}; small n only."""
    n = x.n
    if n > 14:
        raise ValueError("exact distribution is exponential in n; use n <= 14")
    out = {}
    for v in range(1 << n):
        pr = transition_prob(op, x, BitString(n, v))
        if pr:
            out[v] = pr
    return out


def _delta0_tail_counts(rows: Sequence[Sequence], n: int, m: int, r: int) -> list:
    """tails[s] = C(n, r) P(Delta_0 > 0) for 0 <= s <= m, read off suffix sums of
    C(m, Z) C(n-m, r-Z) in a zero-padded binomial table rows[a][b] = C(a, b)."""
    suffix = [0] * (n + 2)  # suffix[Z] = C(n, r) P(Z' >= Z)
    for zh in range(min(m, r), -1, -1):
        suffix[zh] = suffix[zh + 1] + rows[m][zh] * rows[n - m][r - zh]
    return [suffix[_delta0_tail_support(s, m, r).start] for s in range(m + 1)]


def delta0_tail_prob(n: int, s: int, m: int, r: int) -> Fraction:
    """Exact P(Delta_0 > 0) = P(Z > (r + m - s) / 2)."""
    num = sum(comb(m, zh) * comb(n - m, r - zh) for zh in _delta0_tail_support(s, m, r))
    return Fraction(num, comb(n, r))


def delta_symmetry_report(n: int) -> LemmaReport:
    """`verify_delta_symmetry` by comparing the two Fraction pmfs at each cell."""
    report = LemmaReport(lemma="delta-symmetry", grid=f"n={n}, 0<=s<=n/2, s<=m<=n-s, 0<=r<=n")
    for s in range(n // 2 + 1):
        for m in range(s, n - s + 1):
            for r in range(n + 1):
                a = delta0_pmf(ProgressParams(n, s, m, r))
                b = delta0_pmf(ProgressParams(n, s, n - m, n - r))
                report.points_checked += 1
                if a != b:
                    report.record({"s": s, "m": m, "r": r}, inf)
    report.max_slack = 1.0
    return report


# the expected-max chain of the potential drop: its mgf exponent eta and
# the constant D its series closes to, which no verifier reads
ETA_DROP_CHAIN = log(4.0 / 3.0)
D_DROP_CHAIN = 9.0 + 6.0 * sqrt(2.0)


def drop_chain_series(rel_tol: float = 1e-15) -> float:
    """sum_z 2^(-z/2) (4/3)^z, the mgf of the per-step drop chain at
    eta = ln(4/3); closes to 9 + 6 sqrt(2)."""
    return _geometric_sum(1.0, (4.0 / 3.0) / sqrt(2.0), rel_tol)


def maxsat_hard_enum_count(x: BitString) -> int:
    """maxsat_hard_count by explicit clause enumeration, O(n^3)."""
    n = x.n
    bits = list(x)
    sat = 0
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(j + 1, n):
                if k == i:
                    continue
                if bits[i] or not bits[j] or not bits[k]:
                    sat += 1
    sat += sum(bits)
    return sat


def matching_literals(clause: Sequence[int], planted: BitString) -> int:
    """How many of the clause's literals the planted assignment satisfies."""
    return sum(1 for lit in clause if (lit > 0) == (planted[abs(lit) - 1] == 1))
