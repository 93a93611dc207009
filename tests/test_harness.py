import functools
import json
import math
import os
import subprocess
import sys
from types import ModuleType

import pytest

import parallel_ea
import parallel_ea.objectives
import parallel_ea.theory
from parallel_ea.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentSpec,
    append_rows,
    check_lower_bound,
    read_runs,
    run_experiment,
)


def onemax_spec(tmp_path, name, **overrides):
    base = dict(
        objective={"name": "onemax", "n": 30},
        algorithm={"algorithm": "one-plus-lambda-fixed", "budget": 200_000},
        repetitions=5,
        lambdas=[2],
        output=str(tmp_path / name),
        master_seed=77,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentSpec(objective={"name": "onemax", "n": 5}, algorithm={"algorithm": "rls"},
                       repetitions=0, lambdas=[1])
    with pytest.raises(ConfigError):
        ExperimentSpec(objective={"name": "onemax", "n": 5}, algorithm={"algorithm": "rls"},
                       repetitions=1, lambdas=[])
    with pytest.raises(ConfigError):
        ExperimentSpec(objective={"n": 5}, algorithm={"algorithm": "rls"},
                       repetitions=1, lambdas=[1])
    with pytest.raises(ValueError):
        ExperimentSpec(objective={"name": "onemax", "n": 5}, algorithm={"algorithm": "rls"},
                       repetitions=1, lambdas=[1], bounds=["no-such-bound"])


BAD_OBJECTIVES = {
    "onemax-k": ({"name": "onemax", "n": 30, "k": 2}, "'onemax'.*'k'"),
    "jump-k-0": ({"name": "jump", "n": 30, "k": 0}, "jump gap k .* got 0"),
    "jump-k-str": ({"name": "jump", "n": 30, "k": "2"}, "jump gap k .* got '2'"),
    "jump-k-float": ({"name": "jump", "n": 30, "k": 2.5}, "jump gap k .* got 2.5"),
    "jump-k-bool": ({"name": "jump", "n": 30, "k": True}, "jump gap k .* got True"),
    "cliff-d-above-n": ({"name": "cliff", "n": 10, "d": 11}, "cliff depth d .* got 11"),
    "hiff-n-10": ({"name": "hiff", "n": 10}, "power of two, got 10"),
    "planted-3sat-seed-float": ({"name": "planted-3sat", "n": 20, "m": 40, "seed": 1.5},
                                "seed .* got 1.5"),
}


@pytest.mark.parametrize("case", BAD_OBJECTIVES)
def test_bad_objective_param_fails_before_fan_out(tmp_path, monkeypatch, case):
    def no_pool(*args, **kwargs):
        raise AssertionError("the worker pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    objective, message = BAD_OBJECTIVES[case]
    spec = onemax_spec(tmp_path, "bad.csv", objective=objective)
    with pytest.raises(ConfigError, match=message):
        run_experiment(spec, workers=2)
    assert not (tmp_path / "bad.csv").exists()


FIXED, ADAPTIVE = "one-plus-lambda-fixed", "one-plus-lambda-adaptive"
BAD_PLANS = {
    "rls-lambda-2": ({"algorithm": "rls"}, [2], "onemax"),
    "generic-parallel": ({"algorithm": "generic-parallel"}, [2], "onemax"),
    "adaptive-leadingzeros": ({"algorithm": ADAPTIVE}, [2], "leadingzeros"),
    "unknown-key": ({"algorithm": FIXED, "budjet": 100}, [2], "onemax"),
    "p-with-rls": ({"algorithm": "rls", "p": 0.1}, [1], "onemax"),
    "p-with-adaptive": ({"algorithm": ADAPTIVE, "p": "1/n"}, [2], "onemax"),
    "p-not-a-rate": ({"algorithm": FIXED, "p": "abc"}, [2], "onemax"),
    "p-one": ({"algorithm": FIXED, "p": 1.0}, [2], "onemax"),
    "budget-float": ({"algorithm": FIXED, "budget": 3.7}, [1], "onemax"),
    "budget-bool": ({"algorithm": FIXED, "budget": True}, [1], "onemax"),
    "budget-str": ({"algorithm": FIXED, "budget": "1e3"}, [1], "onemax"),
    "budget-below-lambda": ({"algorithm": FIXED, "budget": 1}, [2], "onemax"),
    "lambda-zero": ({"algorithm": "rls"}, [0], "onemax"),
}


@pytest.mark.parametrize("case", BAD_PLANS)
def test_bad_algorithm_fails_before_fan_out(tmp_path, monkeypatch, case):
    def no_pool(*args, **kwargs):
        raise AssertionError("the worker pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    algorithm, lambdas, name = BAD_PLANS[case]
    spec = onemax_spec(tmp_path, "bad.csv", objective={"name": name, "n": 30},
                       algorithm=algorithm, lambdas=lambdas)
    with pytest.raises(ConfigError):
        run_experiment(spec, workers=2)
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_unwritable_output_fails_before_any_run(tmp_path, monkeypatch, workers):
    from parallel_ea import harness

    def no_pool(*args, **kwargs):
        raise AssertionError("the worker pool was started")

    ran = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(harness, "run_one_plus_lambda", lambda *args, **kwargs: ran.append(args))
    spec = onemax_spec(tmp_path, "unused.csv", output=str(tmp_path))  # a directory
    with pytest.raises(ConfigError, match="cannot append runs to"):
        run_experiment(spec, workers=workers)
    assert ran == []


@pytest.mark.parametrize("case", BAD_PLANS)
def test_run_with_bad_algorithm_exits_2(tmp_path, capsys, case):
    from parallel_ea.cli import main

    algorithm, lambdas, name = BAD_PLANS[case]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"objective": {"name": name, "n": 30}, "algorithm": algorithm,
                                "repetitions": 2, "lambdas": lambdas}))
    assert main(["run", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_spec_json_round_trip():
    spec = ExperimentSpec(
        objective={"name": "jump", "n": 12, "k": 2},
        algorithm={"algorithm": "one-plus-lambda-fixed", "p": "1/n", "budget": 1000},
        repetitions=2,
        lambdas=[1, 4],
        bounds=["lb-unique"],
        master_seed=5,
    )
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec


def test_identical_spec_identical_csv_bytes(tmp_path):
    run_experiment(onemax_spec(tmp_path, "a.csv"))
    run_experiment(onemax_spec(tmp_path, "b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_worker_pool_matches_serial(tmp_path):
    run_experiment(onemax_spec(tmp_path, "serial.csv"), workers=1)
    run_experiment(onemax_spec(tmp_path, "pool.csv"), workers=2)
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pool.csv").read_bytes()


def test_worker_pool_matches_serial_on_bit_strings(tmp_path):
    # onemax and the fixed-rate EA on leadingones run on chains; the adaptive
    # EA on leadingones samples bit strings from each run's buffered stream
    spec = functools.partial(onemax_spec, tmp_path, objective={"name": "leadingones", "n": 30},
                             algorithm={"algorithm": "one-plus-lambda-adaptive", "budget": 200_000},
                             lambdas=[1, 3])
    run_experiment(spec("serial.csv"), workers=1)
    run_experiment(spec("pool.csv"), workers=2)
    serial = (tmp_path / "serial.csv").read_bytes()
    assert serial == (tmp_path / "pool.csv").read_bytes()
    assert len(read_runs(str(tmp_path / "serial.csv"))) == 10


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records how it was sized and maps
    serially in this process, so no worker starts."""

    made: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize):
        self.made.append((self.max_workers, chunksize))
        return map(fn, tasks)


@pytest.mark.parametrize("workers, lambdas, reps, sized", [
    (2, [1, 256], 3, (2, 1)),  # six runs: one at a time, not all in one chunk
    (8, [2], 3, (3, 1)),       # no more workers than runs
    (2, [2, 4], 40, (2, 10)),  # about four chunks per worker
    (4, [2], 1, None),         # one run needs no pool
])
def test_worker_pool_is_sized_from_the_runs(tmp_path, monkeypatch, workers, lambdas, reps, sized):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "made", [])
    spec = functools.partial(onemax_spec, tmp_path, lambdas=lambdas, repetitions=reps)
    run_experiment(spec("pool.csv"), workers=workers)
    run_experiment(spec("serial.csv"), workers=1)
    assert RecordingPool.made == ([] if sized is None else [sized])
    assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_csv_round_trip(tmp_path):
    spec = onemax_spec(tmp_path, "r.csv")
    run_experiment(spec)
    rows = read_runs(spec.output)
    assert len(rows) == 5
    for row in rows:
        assert set(row) == set(CSV_COLUMNS)
        assert row["problem"] == "onemax"
        assert row["lambda"] == 2
        assert row["evaluations"] == 2 * (row["generations"] + 1)
        if row["hit_target"]:
            assert row["first_hit_evaluation"] <= row["evaluations"]
        else:
            assert row["first_hit_evaluation"] is None
    append_rows(spec.output, rows)  # rows round-trip through the writer
    assert len(read_runs(spec.output)) == 10


@pytest.mark.parametrize("objective", [{"name": "onemax", "n": 30},
                                       {"name": "partition", "n": 12, "seed": 3}])
def test_csv_rows_round_trip_bytes(tmp_path, objective):
    # onemax writes integer fitness values, partition floats; the small
    # budget leaves partition runs that end without a hit
    spec = onemax_spec(tmp_path, "a.csv", objective=objective,
                       algorithm={"algorithm": "one-plus-lambda-fixed", "budget": 2_000})
    run_experiment(spec)
    rows = read_runs(spec.output)
    if objective["name"] == "partition":
        assert all(isinstance(row["best_fitness"], float) for row in rows)
        assert any(row["first_hit_evaluation"] is None for row in rows)
    append_rows(str(tmp_path / "b.csv"), rows)
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


def test_initial_batch_hit_rate_matches_exact_probability(tmp_path):
    # budget = lambda: only the initial batch runs; for onemax n=10,
    # lambda=1024 the hit probability is 1 - (1 - 2^-10)^1024 ~ 0.6325
    spec = ExperimentSpec(
        objective={"name": "onemax", "n": 10},
        algorithm={"algorithm": "one-plus-lambda-fixed", "budget": 1024},
        repetitions=200,
        lambdas=[1024],
        output=str(tmp_path / "init.csv"),
        master_seed=99,
    )
    summary = run_experiment(spec)
    stats = summary.per_lambda[0]
    assert stats.mean_generations == 0
    exact = 1 - (1 - 2**-10) ** 1024
    assert abs(exact - 0.6325) < 1e-3
    assert 0.50 <= stats.hit_rate <= 0.75


def test_summary_stats_and_bounds(tmp_path):
    spec = onemax_spec(tmp_path, "s.csv", bounds=["lb-unique", "adaptive-ub"], lambdas=[1, 8])
    summary = run_experiment(spec)
    assert [s.lam for s in summary.per_lambda] == [1, 8]
    for stats in summary.per_lambda:
        assert stats.min_evaluations <= stats.median_evaluations <= stats.max_evaluations
        assert 0.0 <= stats.hit_rate <= 1.0
        assert set(stats.bound_values) == {"lb-unique", "adaptive-ub"}
        assert stats.bound_ratios["lb-unique"] > 0
    parsed = json.loads(summary.to_json())
    assert parsed["problem"] == "onemax"


def test_repeated_lambda_entries_are_summarised_apart(tmp_path):
    spec = onemax_spec(tmp_path, "twice.csv", lambdas=[1, 1], repetitions=3)
    summary = run_experiment(spec)
    rows = read_runs(spec.output)
    for li, stats in enumerate(summary.per_lambda):
        own = rows[3 * li:3 * li + 3]
        assert {r["run_id"].rsplit("-", 1)[0] for r in own} == {f"77-{li}"}
        assert stats.runs == 3
        assert stats.mean_evaluations == sum(r["evaluations"] for r in own) / 3
        assert stats.max_generations == max(r["generations"] for r in own)


def test_sweep_generations_decrease_with_lambda(tmp_path):
    spec = ExperimentSpec(
        objective={"name": "onemax", "n": 60},
        algorithm={"algorithm": "one-plus-lambda-fixed", "budget": 10**6},
        repetitions=10,
        lambdas=[1, 4, 16],
        output=None,
        master_seed=13,
    )
    summary = run_experiment(spec)
    gens = [s.mean_generations for s in summary.per_lambda]
    assert gens[0] > gens[-1]
    table = summary.table()
    assert [row["lambda"] for row in table] == [1, 4, 16]
    assert all("normalised_mean_evaluations" in row for row in table)


def test_check_lower_bound(tmp_path):
    spec = onemax_spec(tmp_path, "c.csv", repetitions=10)
    run_experiment(spec)
    rows = read_runs(spec.output)
    report = check_lower_bound(rows, "lb-unique", safety=0.0)
    assert report["violations"] == 0 and report["pass"]
    # a huge safety factor must flag every hitting run
    hits = sum(1 for r in rows if r["first_hit_evaluation"] is not None)
    report2 = check_lower_bound(rows, "lb-unique", safety=1e9)
    assert report2["violations"] == hits
    # file-path input works too
    report3 = check_lower_bound(spec.output, "lb-unique", safety=0.0)
    assert report3["rows_checked"] == len(rows)


def test_check_rejects_asymptotic_bounds(tmp_path):
    spec = onemax_spec(tmp_path, "d.csv", repetitions=2)
    run_experiment(spec)
    with pytest.raises(ConfigError):
        check_lower_bound(spec.output, "hcy-onemax")


def test_threshold_arithmetic():
    from parallel_ea.theory.bounds import get_bound

    term = get_bound("lb-parallel-term")(n=500, lam=64)
    assert term == pytest.approx(64 * 500 / (60 * math.log(64)))
    assert term == pytest.approx(128.25, abs=0.05)
    full = get_bound("lb-unique")(n=500, lam=64, delta=0.5)
    assert full == pytest.approx(0.5 * 500 * math.log(500))


def test_rls_through_harness(tmp_path):
    spec = ExperimentSpec(
        objective={"name": "onemax", "n": 40},
        algorithm={"algorithm": "rls", "budget": 10**6},
        repetitions=3,
        lambdas=[1],
        output=str(tmp_path / "rls.csv"),
        master_seed=21,
    )
    summary = run_experiment(spec)
    assert summary.per_lambda[0].hit_rate == 1.0
    with pytest.raises(ConfigError):
        run_experiment(ExperimentSpec(
            objective={"name": "onemax", "n": 40},
            algorithm={"algorithm": "rls", "budget": 10**6},
            repetitions=1,
            lambdas=[2],
            master_seed=1,
        ))


def test_objective_params_flow_through(tmp_path):
    spec = ExperimentSpec(
        objective={"name": "jump", "n": 10, "k": 2},
        algorithm={"algorithm": "one-plus-lambda-fixed", "budget": 50_000},
        repetitions=2,
        lambdas=[2],
        master_seed=3,
    )
    summary = run_experiment(spec)
    assert summary.spec_problem == "jump"
    assert summary.per_lambda[0].runs == 2


def test_import_loads_no_process_pool():
    # a serial run never needs concurrent.futures or multiprocessing, so
    # importing the package must not load them; a fresh interpreter sees it
    src = os.path.dirname(os.path.dirname(parallel_ea.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    check = ("import sys, parallel_ea; "
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_packages_export_only_the_names_callers_reach_through_them():
    # each name is imported from the module that defines it; the top level
    # keeps the six names bench/ and the README reach as parallel_ea.<name>
    def public(package):
        return {name for name, value in vars(package).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}

    assert public(parallel_ea) == {"AlgoConfig", "BitString", "append_rows", "read_runs",
                                   "run_generic_parallel", "run_one_plus_lambda"}
    assert public(parallel_ea.objectives) == set()
    assert public(parallel_ea.theory) == set()
