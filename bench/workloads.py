"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed and the round
index, so round r of a given seed always runs the same operations.
`ops(r, tracer)` lists the round's operations as thunks; each thunk is one
timed repetition, and worker.py runs the reference loop between them.
`collect` and `check` run outside the timed body and compare the
program's outputs with oracles.py.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from tracing import Tracer


def _seed_int(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


@dataclass
class RoundResult:
    ops: int = 0  # operations attempted: optimisation runs or lemma verifications
    evals: int = 0  # fitness evaluations, or grid points checked
    generations: int = 0
    failed: list = field(default_factory=list)  # operations that did not complete
    wrong: list = field(default_factory=list)  # wrong outputs of completed operations
    data: dict = field(default_factory=dict)  # inputs to the cross-round checks


def _check_run(tag: str, rec, lam: int, n: int, result: RoundResult) -> None:
    """Per-run invariants of every search workload."""
    result.ops += 1
    result.evals += rec.evaluations_used
    result.generations += rec.generations_used
    if not rec.hit_target:
        result.failed.append(f"{tag}: target not hit in {rec.evaluations_used} evaluations")
        return
    if rec.evaluations_used != lam * (rec.generations_used + 1):
        result.wrong.append(f"{tag}: {rec.evaluations_used} evaluations != "
                            f"lambda*(generations+1) = {lam * (rec.generations_used + 1)}")
    if not 1 <= rec.first_hit_evaluation <= rec.evaluations_used:
        result.wrong.append(f"{tag}: first hit {rec.first_hit_evaluation} outside "
                            f"[1, {rec.evaluations_used}]")
    if rec.best_fitness != n:
        result.wrong.append(f"{tag}: hit the target with best fitness {rec.best_fitness} != {n}")


def _collect_runs(r: int, records, dims: dict) -> RoundResult:
    """records: (tag, lambda, RunRecord) of each run in the round; dims: tag -> n."""
    result = RoundResult()
    for tag, lam, rec in records:
        _check_run(f"round {r} {tag} seed {rec.seed}", rec, lam, dims[tag], result)
        result.data.setdefault(tag, []).append(rec.first_hit_evaluation)
    return result


def _z_check(label: str, values: list, mean: float, var: float) -> list[str]:
    z = oracles.z_score(values, mean, var)
    if abs(z) > oracles.Z_LIMIT:
        return [f"{label}: mean {statistics.fmean(values):.1f} over {len(values)} runs is "
                f"{z:+.2f} standard errors from the exact {mean:.1f}"]
    return []


class OnemaxLargeLambda:
    """Adaptive (1+lambda) EA on onemax through harness.run_experiment."""

    name = "onemax-large-lambda"
    key = 1
    n = 1000
    lambdas = (128, 512)
    reps = 1  # runs per lambda per round, one run_experiment call each
    chi_calls, chi_lam, chi_zeros = 400, 128, 200

    def __init__(self, seed: int, scratch: Path):
        from parallel_ea import harness

        self.harness = harness
        self.seed = seed
        self.csv = scratch / f"{self.name}-{seed}.csv"
        self.copy = scratch / f"{self.name}-{seed}-roundtrip.csv"

    def _spec(self, master_seed: int, lam: int, budget: int):
        return self.harness.ExperimentSpec(
            objective={"name": "onemax", "n": self.n},
            algorithm={"algorithm": "one-plus-lambda-adaptive", "budget": budget},
            repetitions=1,
            lambdas=[lam],
            output=str(self.csv),
            master_seed=master_seed,
        )

    def warm_up(self) -> None:
        self.csv.unlink(missing_ok=True)
        self.harness.run_experiment(self._spec(0, 2, 64), workers=1)
        self.harness.read_runs(str(self.csv))

    def ops(self, r: int, tracer: Tracer | None):
        self.csv.unlink(missing_ok=True)
        specs = [self._spec(_seed_int(self.seed, self.key, r, k), lam, 10**7)
                 for k in range(self.reps) for lam in self.lambdas]
        run = self._run if tracer is None else functools.partial(self._traced_run, tracer)
        return [functools.partial(run, spec) for spec in specs]

    def _run(self, spec):
        return self.harness.run_experiment(spec, workers=1)

    def _traced_run(self, tracer: Tracer, spec):
        # the harness caches built objectives: empty the cache so that the
        # traced build is used, then put the untraced one back
        cache = self.harness._OBJECTIVE_CACHE
        saved = dict(cache)
        cache.clear()
        try:
            return tracer.wrap("harness", self.harness.run_experiment)(spec, workers=1)
        finally:
            cache.clear()
            cache.update(saved)

    def collect(self, r: int, summaries) -> RoundResult:
        result = RoundResult()
        rows = self.harness.read_runs(str(self.csv))
        if len(rows) != len(summaries):
            result.wrong.append(f"round {r}: CSV holds {len(rows)} rows for {len(summaries)} runs")
        for row, summary in zip(rows, summaries):
            _check_run(f"round {r} {row['run_id']} lambda={row['lambda']}", _RowRecord(row),
                       row["lambda"], self.n, result)
            floor = oracles.first_hit_floor(self.n, row["lambda"])
            first = row["first_hit_evaluation"]
            if first is not None and first < floor:
                result.wrong.append(f"round {r} {row['run_id']}: first hit {first} below the "
                                    f"lower bound {floor:.0f}")
            stats = summary.per_lambda[0]
            if (stats.lam, stats.mean_evaluations) != (row["lambda"], row["evaluations"]):
                result.wrong.append(f"round {r} {row['run_id']}: summary (lambda={stats.lam}, "
                                    f"{stats.mean_evaluations}) disagrees with the CSV row")
        self.copy.unlink(missing_ok=True)
        self.harness.append_rows(str(self.copy), rows)
        if self.harness.read_runs(str(self.copy)) != rows:
            result.wrong.append(f"round {r}: CSV rows do not round-trip through read_runs")
        result.data = {"evals": [(row["lambda"], row["evaluations"]) for row in rows],
                       "csv_bytes": self.csv.stat().st_size}
        return result

    def check(self, results: list[RoundResult]) -> list[str]:
        wrong = []
        for lam in self.lambdas:
            evals = [e for res in results for l, e in res.data["evals"] if l == lam]
            bound = oracles.adaptive_upper_bound(self.n, lam)
            if statistics.fmean(evals) > bound:
                wrong.append(f"lambda={lam}: mean evaluations {statistics.fmean(evals):.0f} "
                             f"above the upper bound {bound:.0f}")
        return wrong + self._one_generation_law()

    def _one_generation_law(self) -> list[str]:
        """One generation from a parent with chi_zeros zeros, against
        P(i' >= j) = P(Y >= j)^lambda at the adaptive rate."""
        from parallel_ea import AlgoConfig, BitString, run_one_plus_lambda
        from parallel_ea.objectives.functions import onemax_objective

        n, lam, i = self.n, self.chi_lam, self.chi_zeros
        obj = onemax_objective(n)
        counts = np.zeros(i + 1)
        for k in range(self.chi_calls):
            rng = _rng(self.seed, self.key, 1 << 20, k)
            mask = sum(1 << int(z) for z in rng.choice(n, i, replace=False))
            parent = BitString(n, ((1 << n) - 1) ^ mask)
            cfg = AlgoConfig("one-plus-lambda-adaptive", n=n, lam=lam, budget=1 + lam, seed=k)
            rec = run_one_plus_lambda(cfg, obj, rng, initial=parent)
            if rec.generations_used != 1:
                return [f"one-generation call ran {rec.generations_used} generations"]
            counts[n - int(rec.best_fitness)] += 1
        pmf = oracles.one_generation_pmf(n, i, lam, oracles.adaptive_rate(i, n, lam))
        p = oracles.chi_square_p(counts, pmf)
        if p < oracles.CHI2_ALPHA:
            return [f"one-generation zero counts fail the chi-square test: p = {p:.2e}"]
        return []


class _RowRecord:
    """A CSV row seen through the RunRecord field names."""

    def __init__(self, row: dict):
        self.evaluations_used = row["evaluations"]
        self.generations_used = row["generations"]
        self.hit_target = row["hit_target"]
        self.first_hit_evaluation = row["first_hit_evaluation"]
        self.best_fitness = row["best_fitness"]


class LeadingonesSmallLambda:
    """Fixed-rate (1+1) and (1+2) EA with p = 1/n, and RLS, on leadingones."""

    name = "leadingones-small-lambda"
    key = 2
    n = 150
    reps = 3  # seeds per round; each seed runs all three algorithms
    algos = (("ea-1", "one-plus-lambda-fixed", 1), ("ea-2", "one-plus-lambda-fixed", 2),
             ("rls", "rls", 1))

    def __init__(self, seed: int, scratch: Path):
        from parallel_ea import algorithms
        from parallel_ea.objectives.functions import leadingones_objective

        self.algorithms = algorithms
        self.build = functools.partial(leadingones_objective, self.n)
        self.obj = self.build()
        self.seed = seed

    def _ops(self, r: int, obj, budget: int):
        ops = []
        for k in range(self.reps):
            s = _seed_int(self.seed, self.key, r, k)
            for a, (tag, algo, lam) in enumerate(self.algos):
                p = None if algo == "rls" else 1.0 / self.n
                cfg = self.algorithms.AlgoConfig(algo, n=self.n, lam=lam, p=p, budget=budget, seed=s)
                ops.append(functools.partial(self._run, tag, cfg, obj, (s, a)))
        return ops

    def _run(self, tag, cfg, obj, key):
        alg = self.algorithms
        run = alg.run_rls if cfg.algorithm == "rls" else alg.run_one_plus_lambda
        return tag, cfg.lam, run(cfg, obj, _rng(*key))

    def warm_up(self) -> None:
        for op in self._ops(0, self.obj, 200)[: len(self.algos)]:
            op()

    def ops(self, r: int, tracer: Tracer | None):
        obj = self.obj if tracer is None else tracer.objective(tracer.wrap("objectives.build", self.build)())
        return self._ops(r, obj, 10**8)

    def collect(self, r: int, records) -> RoundResult:
        return _collect_runs(r, records, {tag: self.n for tag, _, _ in self.algos})

    def check(self, results: list[RoundResult]) -> list[str]:
        ea = [v for res in results for v in res.data["ea-1"]]
        rls = [v for res in results for v in res.data["rls"]]
        return (_z_check("(1+1) EA on leadingones", ea,
                         *oracles.leadingones_ea_moments(self.n, 1.0 / self.n))
                + _z_check("RLS on leadingones", rls, *oracles.leadingones_rls_moments(self.n)))


class GenericHistory:
    """run_generic_parallel with the best-so-far policy and p = 1/n: onemax
    at lambda=1, and twomax at lambda=8 with mirrored sampling.

    n is 200, not 500: the archive copy makes a run's cost grow with the
    square of its evaluations, so at n=500 one onemax run took 1.5 s with a
    50% spread, and the few runs that fit in a measurement left evals_per_s
    13-18% and runs_per_s 18-29% apart from seed to seed (quartile distance
    over median).  At n=200 the policy's rescan and the runner's own loop,
    which holds the copies, still take 80% of the traced time.
    """

    name = "generic-history"
    key = 3
    n = 200
    # (tag, objective, lambda, mirror, runs per round): a lambda=1 onemax run
    # costs 0.2 s with a 90% spread, a twomax one 0.06 s with 40%, so the
    # round leans on the second to keep the per-round figures close
    settings = (("onemax-1", "onemax", 1, False, 2), ("twomax-8", "twomax", 8, True, 6))

    def __init__(self, seed: int, scratch: Path):
        from parallel_ea import algorithms, variation
        from parallel_ea.objectives.functions import onemax_objective, twomax_objective

        self.algorithms = algorithms
        self.op = variation.standard_mutation(1.0 / self.n)
        self.builders = {"onemax": functools.partial(onemax_objective, self.n),
                         "twomax": functools.partial(twomax_objective, self.n)}
        self.objs = {name: build() for name, build in self.builders.items()}
        self.seed = seed

    def _ops(self, r: int, objs, tracer: Tracer | None, budget: int):
        ops = []
        for k in range(max(runs for *_, runs in self.settings)):
            s = _seed_int(self.seed, self.key, r, k)
            for a, (tag, obj_name, lam, mirror, runs) in enumerate(self.settings):
                if k >= runs:
                    continue
                policy = self.algorithms.make_best_so_far_policy(lam, self.op)
                if tracer is not None:
                    policy = tracer.wrap("algorithms.policy", policy)
                cfg = self.algorithms.AlgoConfig("generic-parallel", n=self.n, lam=lam, budget=budget, seed=s)
                ops.append(functools.partial(self._run, tag, policy, cfg, objs[obj_name], (s, a), mirror))
        return ops

    def _run(self, tag, policy, cfg, obj, key, mirror):
        return tag, cfg.lam, self.algorithms.run_generic_parallel(policy, cfg, obj, _rng(*key), mirror=mirror)

    def warm_up(self) -> None:
        for op in self._ops(0, self.objs, None, 64)[: len(self.settings)]:
            op()

    def ops(self, r: int, tracer: Tracer | None):
        objs = self.objs
        if tracer is not None:
            objs = {name: tracer.objective(tracer.wrap("objectives.build", build)())
                    for name, build in self.builders.items()}
        return self._ops(r, objs, tracer, 10**8)

    def collect(self, r: int, records) -> RoundResult:
        return _collect_runs(r, records, {tag: self.n for tag, *_ in self.settings})

    def check(self, results: list[RoundResult]) -> list[str]:
        hits = [v for res in results for v in res.data["onemax-1"]]
        return _z_check("generic runner, onemax lambda=1", hits,
                        *oracles.onemax_ea_moments(self.n, 1.0 / self.n))


class TheoryGrids:
    """`parallel-ea verify --lemma ...` through cli.main, stdout captured."""

    name = "theory-grids"
    key = 4
    commands = (("hypergeom-tail", 128), ("chvatal", 128), ("mgf", 128), ("multibit", 1 << 20))
    expected_points = {
        "hypergeom-tail": oracles.hypergeom_tail_points,
        "chvatal": oracles.chvatal_points,
        "mgf": oracles.mgf_points,
        "multibit": oracles.multibit_points,
    }
    logpmf_cells = 200

    def __init__(self, seed: int, scratch: Path):
        from parallel_ea import cli

        self.cli = cli
        self.seed = seed
        self.first = None

    @staticmethod
    def _verify(main, lemma: str, n: int) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", "--lemma", lemma, "--n", str(n)])
        return code, out.getvalue()

    def warm_up(self) -> None:
        for lemma, _ in self.commands[:3]:
            self._verify(self.cli.main, lemma, 16)

    def ops(self, r: int, tracer: Tracer | None):
        main = self.cli.main if tracer is None else tracer.wrap("cli", self.cli.main)
        return [functools.partial(self._verify, main, lemma, n) for lemma, n in self.commands]

    def collect(self, r: int, outputs) -> RoundResult:
        result = RoundResult(data={"points": {}})
        for (lemma, n), (code, text) in zip(self.commands, outputs):
            result.ops += 1
            if code != 0:
                result.failed.append(f"round {r} verify {lemma} n={n}: exit code {code}")
                continue
            report = json.loads(text)
            result.evals += report["points_checked"]
            result.data["points"][lemma] = report["points_checked"]
            expected = self.expected_points[lemma](n)
            if report["lemma"] != lemma or not report["pass"] or report["violations"]:
                result.wrong.append(f"round {r} verify {lemma}: report does not pass")
            if report["points_checked"] != expected:
                result.wrong.append(f"round {r} verify {lemma} n={n}: {report['points_checked']} "
                                    f"points checked, the grid has {expected}")
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            result.wrong.append(f"round {r}: reports differ from round 0")
        return result

    def check(self, results: list[RoundResult]) -> list[str]:
        """delta0_point_log_prob at seeded cells against scipy's hypergeometric pmf."""
        from parallel_ea.theory.pmf import delta0_point_log_prob

        rng = _rng(self.seed, self.key, 1 << 20)
        wrong, cells = [], 0
        while cells < self.logpmf_cells:
            n = int(rng.choice([128, 1 << 20]))
            m, r = (int(v) for v in rng.integers(1, n, size=2))
            zh = int(rng.integers(max(0, r - (n - m)), min(m, r) + 1))
            s_lo, s_hi = max(0, 1 + r + m - 2 * zh), min(m, n - m)
            if s_lo > s_hi:
                continue
            s = int(rng.integers(s_lo, s_hi + 1))
            z = 2 * zh - r + s - m
            got = delta0_point_log_prob(n, s, m, r, z)
            want = oracles.hypergeom_logpmf(n, m, r, zh)
            cells += 1
            if not abs(got - want) <= 1e-6 * max(1.0, abs(want)):
                wrong.append(f"delta0_point_log_prob({n}, {s}, {m}, {r}, {z}) = {got}, "
                             f"scipy hypergeom logpmf = {want}")
        return wrong[:10]


WORKLOADS = {w.name: w for w in (OnemaxLargeLambda, LeadingonesSmallLambda, GenericHistory, TheoryGrids)}
