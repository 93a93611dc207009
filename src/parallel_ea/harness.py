"""Experiment runner: repetition sweeps, CSV reporting, bound checks.

All randomness flows from one master seed; run i of lambda-index j always
gets the stream (master, j, i), so reruns are byte-identical regardless of
worker scheduling.  Output is CSV plus JSON summaries; plotting is left to
external tools.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from math import log
from typing import Optional, Sequence

from .algorithms import AlgoConfig, check_elitist_run, run_one_plus_lambda
from .objectives.base import Objective, check_int, is_int
from .objectives.registry import make_objective
from .rng import derive_rng, derive_run_seed
from .theory.bounds import DEFAULT_DELTA, BoundSpec, get_bound, ln_plus
from .variation import resolve_p


def _parse_number(text: str) -> int | float:
    """Inverse of _format_row on numbers: "20" is the int 20, "20.0" a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


# The CSV schema: column order, and the parser read_runs applies to each column.
_CSV_SCHEMA = {
    "run_id": str,
    "problem": str,
    "n": int,
    "lambda": int,
    "algo": str,
    "p_mode": str,
    "seed": int,
    "evaluations": int,
    "generations": int,
    "hit_target": lambda text: text == "true",
    "first_hit_evaluation": lambda text: None if text == "" else int(text),
    "best_fitness": _parse_number,
}
CSV_COLUMNS = list(_CSV_SCHEMA)

_ALGORITHM_KEYS = ("algorithm", "p", "budget")

WORKERS_ENV = "PARALLEL_EA_WORKERS"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    """One experiment: an objective, an algorithm, repetitions per lambda."""

    objective: dict  # {"name", "n", optional params, optional "seed"}
    algorithm: dict  # {"algorithm", optional "p" (fixed-rate EA only), optional integer "budget"}
    repetitions: int
    lambdas: list[int]
    target: str = "global"
    bounds: list[str] = field(default_factory=list)
    output: Optional[str] = None
    master_seed: int = 0

    def __post_init__(self) -> None:
        for key, ok, kind in (
            ("objective", isinstance(self.objective, dict), "an object"),
            ("algorithm", isinstance(self.algorithm, dict), "an object"),
            ("repetitions", is_int(self.repetitions), "an integer"),
            ("lambdas", isinstance(self.lambdas, (list, tuple)) and all(map(is_int, self.lambdas)),
             "a list of integers"),
            ("target", isinstance(self.target, str), "a string"),
            ("bounds", isinstance(self.bounds, (list, tuple))
             and all(isinstance(b, str) for b in self.bounds), "a list of bound ids"),
            ("output", self.output is None or isinstance(self.output, str), "a path string"),
            ("master_seed", is_int(self.master_seed), "an integer"),
        ):
            if not ok:
                raise ConfigError(f"{key} must be {kind}, got {getattr(self, key)!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if not self.lambdas:
            raise ConfigError("lambdas must list at least one lambda")
        if "name" not in self.objective or "n" not in self.objective:
            raise ConfigError("objective spec needs 'name' and 'n'")
        if not is_int(self.objective["n"]):
            raise ConfigError(f"objective n must be an integer, got {self.objective['n']!r}")
        for bound_id in self.bounds:
            get_bound(bound_id)  # raises on unknown ids

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        data = json.loads(text)
        keys = [f.name for f in fields(cls)]
        required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
        if not isinstance(data, dict):
            faults = ["not a JSON object"]
        else:
            faults = [f"unknown key {k!r}" for k in data if k not in keys]
            faults += [f"missing key {k!r}" for k in required if k not in data]
        if faults:
            raise ConfigError(f"bad spec ({', '.join(faults)}); allowed keys: {', '.join(keys)}; "
                              f"required: {', '.join(required)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


@dataclass
class LambdaStats:
    lam: int
    runs: int
    hit_rate: float
    mean_evaluations: float
    median_evaluations: float
    min_evaluations: int
    max_evaluations: int
    mean_generations: float
    median_generations: float
    min_generations: int
    max_generations: int
    bound_values: dict = field(default_factory=dict)
    bound_ratios: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SweepSummary:
    spec_problem: str
    n: int
    algo: str
    master_seed: int
    per_lambda: list[LambdaStats]

    def to_dict(self) -> dict:
        return {
            "problem": self.spec_problem,
            "n": self.n,
            "algo": self.algo,
            "master_seed": self.master_seed,
            "per_lambda": [s.to_dict() for s in self.per_lambda],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def table(self) -> list[dict]:
        """Mean evaluations / generations vs lambda, ready for plotting."""
        rows = []
        for s in self.per_lambda:
            denom = s.lam * self.n / ln_plus(s.lam) + self.n * log(self.n)
            rows.append(
                {
                    "lambda": s.lam,
                    "mean_evaluations": s.mean_evaluations,
                    "mean_generations": s.mean_generations,
                    "hit_rate": s.hit_rate,
                    "normalised_mean_evaluations": s.mean_evaluations / denom,
                }
            )
        return rows


_OBJECTIVE_CACHE: dict = {}


def _build_objective(objective_spec: dict, target: str):
    key = (json.dumps(objective_spec, sort_keys=True), target)
    if key not in _OBJECTIVE_CACHE:
        name, n = objective_spec["name"], int(objective_spec["n"])
        params = {k: v for k, v in objective_spec.items() if k not in ("name", "n")}
        try:
            _OBJECTIVE_CACHE[key] = make_objective(name, n, target=target, **params)
        except TypeError as exc:
            raise ConfigError(f"objective {name!r} rejects its parameters {params}: {exc}") from None
    return _OBJECTIVE_CACHE[key]


def _plan(spec: ExperimentSpec) -> tuple[Objective, list[AlgoConfig]]:
    """Build the objective and one checked AlgoConfig per lambda entry, and
    check that the output path, if any, opens for appending.

    This is the only reader of spec.algorithm.  It runs in the calling
    process, so every refusal is a ConfigError before any task or worker
    exists; the harness runs only what `check_elitist_run` accepts.
    """
    algo = spec.algorithm
    faults = [f"unknown key {k!r}" for k in algo if k not in _ALGORITHM_KEYS]
    if "algorithm" not in algo:
        faults.append("missing key 'algorithm'")
    if faults:
        raise ConfigError(f"bad algorithm spec ({', '.join(faults)}); allowed keys: "
                          f"{', '.join(_ALGORITHM_KEYS)}; required: algorithm")
    budget = algo.get("budget", AlgoConfig.budget)
    try:
        check_int("algorithm budget", budget, 1)
        obj = _build_objective(spec.objective, spec.target)
        p = algo.get("p")
        if p is not None:
            p = resolve_p(p, obj.n)
        cfgs = [AlgoConfig(algo["algorithm"], n=obj.n, lam=lam, p=p, budget=budget)
                for lam in spec.lambdas]
        for cfg in cfgs:
            check_elitist_run(cfg, obj)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if spec.output:
        try:
            open(spec.output, "a").close()
        except OSError as exc:
            raise ConfigError(f"cannot append runs to {spec.output}: {exc.strerror}") from None
    return obj, cfgs


def _execute_run(task: tuple) -> dict:
    """Worker entry point: one run of a checked config on the cached objective."""
    objective, target, cfg, run_id = task
    obj = _build_objective(objective, target)
    record = run_one_plus_lambda(cfg, obj, derive_rng(cfg.seed))
    return dict(zip(CSV_COLUMNS, (
        run_id, obj.name, cfg.n, cfg.lam, cfg.algorithm, cfg.p_mode, cfg.seed,
        record.evaluations_used, record.generations_used, record.hit_target,
        record.first_hit_evaluation, record.best_fitness,
    )))


def _format_row(row: dict) -> list[str]:
    out = []
    for col in CSV_COLUMNS:
        v = row[col]
        if v is None:
            out.append("")
        elif isinstance(v, bool):
            out.append("true" if v else "false")
        else:
            out.append(repr(v) if isinstance(v, float) else str(v))
    return out


def append_rows(path: str, rows: Sequence[dict]) -> None:
    new_file = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if new_file:
            writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(_format_row(row))


def read_runs(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is not None:  # None: an empty file, which has no rows
            missing = [col for col in CSV_COLUMNS if col not in reader.fieldnames]
            if missing:
                raise ConfigError(f"{path}: the CSV header lacks the column(s) {', '.join(missing)}")
        rows = []
        for rec in reader:
            if None in rec or None in rec.values():  # DictReader's marks of a long or short row
                raise ConfigError(f"{path}, line {reader.line_num}: the row does not have the "
                                  f"header's {len(reader.fieldnames)} fields")
            rows.append({col: parse(rec[col]) for col, parse in _CSV_SCHEMA.items()})
        return rows


def _worker_count() -> int:
    return max(1, int(os.environ.get(WORKERS_ENV, "1")))


def run_experiment(spec: ExperimentSpec, workers: Optional[int] = None) -> SweepSummary:
    """R independent runs per lambda; rows appended to spec.output if set.

    Seeds derive from (master, lambda index, repetition index); the row
    order and all values are independent of the worker count.  The pool
    holds at most one worker per run.
    """
    workers = workers if workers is not None else _worker_count()
    obj, cfgs = _plan(spec)
    reps = spec.repetitions
    tasks = [
        (spec.objective, spec.target, replace(cfg, seed=derive_run_seed(spec.master_seed, li, ri)),
         f"{spec.master_seed}-{li}-{ri}")
        for li, cfg in enumerate(cfgs)
        for ri in range(reps)
    ]
    workers = min(workers, len(tasks))  # a fork pool starts every worker up front
    if workers > 1:
        # about four chunks per worker: no worker idles while another holds
        # the whole sweep, and few tasks go one by one
        chunksize = max(1, len(tasks) // (4 * workers))
        # imported here: a serial run never loads the pool or multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_execute_run, tasks, chunksize=chunksize))
    else:
        rows = [_execute_run(t) for t in tasks]

    if spec.output:
        append_rows(spec.output, rows)

    per_lambda = []
    for li, lam in enumerate(spec.lambdas):
        group = rows[li * reps:(li + 1) * reps]  # rows come back in task order
        evals = [r["evaluations"] for r in group]
        gens = [r["generations"] for r in group]
        stats = LambdaStats(
            lam=lam,
            runs=len(group),
            hit_rate=sum(r["hit_target"] for r in group) / len(group),
            mean_evaluations=statistics.fmean(evals),
            median_evaluations=statistics.median(evals),
            min_evaluations=min(evals),
            max_evaluations=max(evals),
            mean_generations=statistics.fmean(gens),
            median_generations=statistics.median(gens),
            min_generations=min(gens),
            max_generations=max(gens),
        )
        for bound_id in spec.bounds:
            value = get_bound(bound_id)(n=obj.n, lam=lam, delta=DEFAULT_DELTA)
            stats.bound_values[bound_id] = value
            stats.bound_ratios[bound_id] = stats.mean_evaluations / value if value else None
        per_lambda.append(stats)

    return SweepSummary(
        spec_problem=spec.objective["name"],
        n=obj.n,
        algo=cfgs[0].algorithm,
        master_seed=spec.master_seed,
        per_lambda=per_lambda,
    )


def check_lower_bound(
    rows: Sequence[dict] | str,
    bound: BoundSpec | str,
    safety: float = 1.0,
    delta: float = DEFAULT_DELTA,
) -> dict:
    """Count runs that hit the target strictly before safety * bound value.

    For the explicit-constant bounds this count must be zero; asymptotic
    shapes are rejected because a constant-1 curve cannot gate pass/fail.
    """
    if not safety >= 0:  # also refuses NaN
        raise ConfigError(f"safety must be >= 0, got {safety}: a negative or NaN threshold "
                          "cannot flag a run")
    if isinstance(rows, str):
        rows = read_runs(rows)
    if not rows:
        raise ConfigError("no runs to check: a bound check over zero rows would pass vacuously")
    if isinstance(bound, str):
        bound = get_bound(bound)
    if bound.asymptotic_only:
        raise ConfigError(
            f"bound {bound.id!r} is asymptotic-only (constant 1); it cannot be "
            "used as an empirical pass/fail threshold"
        )
    violations = []
    for row in rows:
        threshold = safety * bound(n=row["n"], lam=row["lambda"], delta=delta)
        fh = row["first_hit_evaluation"]
        if fh is not None and fh < threshold:
            violations.append({"run_id": row["run_id"], "first_hit": fh, "threshold": threshold})
    return {
        "bound": bound.id,
        "safety": safety,
        "rows_checked": len(rows),
        "violations": len(violations),
        "violating_runs": violations[:25],
        "pass": not violations,
    }
