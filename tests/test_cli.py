import json
import math
from types import SimpleNamespace

import pytest

from parallel_ea import cli
from parallel_ea.cli import main
from parallel_ea.harness import CSV_COLUMNS
from parallel_ea.theory import lemmas


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bounds_command(capsys):
    code, out = run_cli(capsys, "bounds", "--id", "lb-unique", "--n", "1000",
                        "--lambda", "1", "--delta", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.9 * 1000 * math.log(1000))
    assert payload["asymptotic_only"] is False


@pytest.mark.parametrize("argv", [
    ["--n", "1000", "--lambda", "nan"],
    ["--n", "inf"],
    ["--n", "1000", "--lambda=-inf"],
    ["--n", "1000", "--delta", "nan"],
    ["--n", "1e300", "--lambda", "1e300"],
], ids=["lambda-nan", "n-inf", "lambda-minus-inf", "delta-nan", "value-overflows"])
def test_bounds_refuses_non_finite_numbers(capsys, argv):
    assert main(["bounds", "--id", "lb-unique", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bound 'lb-unique' ") and captured.err.count("\n") == 1


def test_bounds_unknown_id(capsys):
    code = main(["bounds", "--id", "nonsense", "--n", "10"])
    assert code == 2


def test_verify_improve_prob(capsys):
    code, out = run_cli(capsys, "verify", "--lemma", "improve-prob", "--n", "48")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["lemma"] == "improve-prob"


def test_verify_mgf_small(capsys):
    code, out = run_cli(capsys, "verify", "--lemma", "mgf", "--n", "32", "--lambda", "1", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["series"]["64"]["series"] == pytest.approx(512.0)


def test_verify_mgf_max_and_coupon(capsys):
    code, out = run_cli(capsys, "verify", "--lemma", "mgf-max", "--trials", "2000")
    assert code == 0
    code, out = run_cli(capsys, "verify", "--lemma", "coupon")
    assert code == 0


# each --lemma id with small inputs; written out here, not read from the CLI's table
LEMMA_ARGS = {
    "hypergeom-tail": ["--n", "16"],
    "improve-prob": ["--n", "16"],
    "chvatal": ["--n", "16"],
    "mgf": ["--n", "16"],
    "multibit": ["--n", str(2**18)],
    "delta-symmetry": ["--n", "12"],
    "mgf-max": ["--trials", "200"],
    "coupon": [],
}


@pytest.mark.parametrize("lemma", list(LEMMA_ARGS))
def test_every_lemma_id_runs_its_verifier(capsys, lemma):
    code, out = run_cli(capsys, "verify", "--lemma", lemma, *LEMMA_ARGS[lemma])
    assert code == 0
    payload = json.loads(out)
    assert payload["lemma"] == lemma and payload["pass"] is True
    assert payload["points_checked"] >= 1


def test_delta_symmetry_prints_the_verifier_report(capsys):
    code, out = run_cli(capsys, "verify", "--lemma", "delta-symmetry", "--n", "12")
    assert code == 0
    assert out == lemmas.verify_delta_symmetry(12).to_json() + "\n"


def test_lemma_choices_are_the_lemma_ids():
    commands = next(a for a in cli._build_parser()._actions if a.dest == "command")
    lemma = next(a for a in commands.choices["verify"]._actions if a.dest == "lemma")
    assert sorted(lemma.choices) == sorted(LEMMA_ARGS)


@pytest.mark.parametrize("argv", [
    ["coupon", "--lambda", "0", "--trials", "0"],
    ["chvatal", "--n", "16", "--trials", "5", "--lambda", "3"],
    ["mgf-max", "--n", "16"],
    ["mgf", "--n", "16", "--seed", "1"],
    ["multibit", "--delta", "0.5"],
    ["mgf-max", "--lambda", "3", "4"],
], ids=["coupon-lambda-trials", "chvatal-trials-lambda", "mgf-max-n", "mgf-seed", "multibit-delta",
        "mgf-max-two-lambdas"])
def test_verify_refuses_options_the_lemma_does_not_read(capsys, argv):
    assert main(["verify", "--lemma", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: verify --lemma {argv[0]} ")


def test_verify_multibit_domain_error(capsys):
    code = main(["verify", "--lemma", "multibit", "--n", "1024"])
    assert code == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["verify", "--lemma", "chvatal", "--n", "-3"],
    ["verify", "--lemma", "improve-prob", "--n", "0"],
    ["verify", "--lemma", "mgf", "--n", "0"],
    ["verify", "--lemma", "mgf", "--lambda", "0"],
    ["verify", "--lemma", "mgf-max", "--trials", "0"],
    ["verify", "--lemma", "multibit", "--n", "1"],
    ["check", "--csv", "EMPTY", "--bound", "lb-unique"],
    ["verify", "--lemma", "chvatal", "--n", "1030"],
    ["verify", "--lemma", "delta-symmetry", "--n", "-1"],
], ids=["chvatal-n-negative", "improve-prob-n-0", "mgf-n-0", "mgf-lambda-0", "mgf-max-trials-0",
        "multibit-n-1", "check-no-rows", "chvatal-n-1030", "delta-symmetry-n-negative"])
def test_check_over_nothing_exits_2(tmp_path, capsys, argv):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main([str(empty) if a == "EMPTY" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "--csv", "HEADER", "--bound", "lb-unique"],
    ["check", "--csv", "DIR", "--bound", "lb-unique"],
    ["run", "--spec", "DIR"],
    ["run", "--objective", "onemax", "--n", "10", "--reps", "2", "--out", "DIR"],
    ["check", "--csv", "SHORT", "--bound", "lb-unique"],
], ids=["check-csv-header-a-b", "check-csv-dir", "run-spec-dir", "run-out-dir",
        "check-csv-short-row"])
def test_unreadable_input_exits_2(tmp_path, capsys, argv):
    header = tmp_path / "header.csv"
    header.write_text("a,b\n1,2\n")
    short = tmp_path / "short.csv"
    short.write_text(",".join(CSV_COLUMNS) + "\n1-0-0,onemax,20\n")
    paths = {"HEADER": str(header), "DIR": str(tmp_path), "SHORT": str(short)}
    assert main([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("message", ["", "Unable to allocate 1.46 TiB for an array with shape "
                                     "(2000000000, 100) and data type int64"], ids=["bare", "numpy"])
@pytest.mark.parametrize("argv", [
    ["verify", "--lemma", "mgf-max", "--trials", "2000000000"],
    ["run", "--objective", "onemax", "--n", "10", "--lambda", "100000000000",
     "--budget", "1000000000000"],
], ids=["verify-mgf-max", "run"])
def test_out_of_memory_exits_2(capsys, monkeypatch, argv, message):
    # the stand-ins raise as numpy does for an array it cannot allocate, so
    # the test allocates nothing
    def refuse(*args, **kwargs):
        raise MemoryError(message)
    monkeypatch.setattr(lemmas, "verify_max_geometric", refuse)
    monkeypatch.setattr(cli, "run_experiment", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("safety", ["-1", "nan"])
def test_check_refuses_safety_that_cannot_flag(tmp_path, capsys, safety):
    runs = tmp_path / "runs.csv"
    run_cli(capsys, "run", "--objective", "onemax", "--n", "20", "--reps", "3", "--out", str(runs))
    assert main(["check", "--csv", str(runs), "--bound", "lb-unique", f"--safety={safety}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: safety ") and captured.err.count("\n") == 1


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_lemma_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lemma", "lemma-of-doom"])
    assert exc.value.code == 2


def test_run_command(tmp_path, capsys):
    out_csv = tmp_path / "runs.csv"
    code, out = run_cli(
        capsys, "run", "--objective", "onemax", "--n", "25", "--lambda", "2",
        "--reps", "3", "--budget", "100000", "--seed", "5", "--out", str(out_csv),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["per_lambda"][0]["runs"] == 3
    assert out_csv.exists()


def test_run_with_spec_file(tmp_path, capsys):
    spec = {
        "objective": {"name": "jump", "n": 10, "k": 2},
        "algorithm": {"algorithm": "one-plus-lambda-fixed", "budget": 20000},
        "repetitions": 2,
        "lambdas": [2],
        "master_seed": 9,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "run", "--spec", str(path))
    assert code == 0
    assert json.loads(out)["problem"] == "jump"


@pytest.mark.parametrize("bad", ['{"objective": {"name": "onemax", "n": 10}, '
                                 '"algorithm": {"algorithm": "rls"}, "repetitions": 1, '
                                 '"lambdas": [1], "lambda": 3}',
                                 '{"objective": {"name": "onemax", "n": 10}}',
                                 '[1, 2]'], ids=["unknown-key", "missing-key", "not-an-object"])
def test_run_with_bad_spec_file_exits_2(tmp_path, capsys, bad):
    path = tmp_path / "spec.json"
    path.write_text(bad)
    assert main(["run", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "allowed keys: objective, algorithm, repetitions, lambdas" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("repetitions", "3"), ("lambdas", "4"), ("lambdas", [2.5]),
                                        ("master_seed", "7"), ("objective", "onemax"),
                                        ("algorithm", "rls"), ("objective", {"name": "onemax", "n": [1]}),
                                        ("output", True), ("bounds", "lb-unique"), ("target", 1)],
                         ids=["repetitions-str", "lambdas-str", "lambdas-float", "master_seed-str",
                              "objective-str", "algorithm-str", "objective-n-list", "output-bool",
                              "bounds-str", "target-int"])
def test_run_with_wrong_typed_spec_value_exits_2(tmp_path, capsys, key, value):
    spec = {"objective": {"name": "onemax", "n": 10}, "algorithm": {"algorithm": "rls"},
            "repetitions": 1, "lambdas": [1], key: value}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and " must be " in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_run_with_unknown_objective_param_exits_2(capsys):
    assert main(["run", "--objective", "onemax", "--n", "10", "--param", "k=2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: objective 'onemax'") and err.count("\n") == 1
    assert "'k'" in err and "Traceback" not in err


def test_run_with_wrong_typed_objective_param_exits_2(tmp_path, capsys):
    spec = {"objective": {"name": "jump", "n": 10, "k": "2"}, "algorithm": {"algorithm": "rls"},
            "repetitions": 1, "lambdas": [1]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: jump gap k must be an integer in [1, 10], got '2'\n"


def test_run_adaptive_without_all_ones_target_exits_2(capsys):
    assert main(["run", "--objective", "leadingzeros", "--n", "10",
                 "--algo", "one-plus-lambda-adaptive"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'leadingzeros'" in err and "Traceback" not in err


def test_run_missing_args_exits_2(capsys):
    assert main(["run"]) == 2
    assert main(["sweep", "--objective", "onemax", "--n", "10"]) == 2


def test_sweep_command(capsys):
    code, out = run_cli(
        capsys, "sweep", "--objective", "onemax", "--n", "20", "--lambdas", "1,4",
        "--reps", "2", "--budget", "50000", "--seed", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert [row["lambda"] for row in payload["table"]] == [1, 4]


def test_check_command(tmp_path, capsys):
    out_csv = tmp_path / "check.csv"
    run_cli(
        capsys, "run", "--objective", "onemax", "--n", "30", "--lambda", "2",
        "--reps", "4", "--budget", "100000", "--seed", "8", "--out", str(out_csv),
    )
    code, out = run_cli(capsys, "check", "--csv", str(out_csv), "--bound", "lb-unique",
                        "--safety", "0.0")
    assert code == 0
    assert json.loads(out)["pass"] is True
    # asymptotic bound refused with exit 2
    assert main(["check", "--csv", str(out_csv), "--bound", "hcy-onemax"]) == 2


def test_check_missing_csv_exits_2(capsys):
    assert main(["check", "--csv", "/no/such/file.csv", "--bound", "lb-unique"]) == 2


def test_objective_param_passthrough(capsys):
    code, out = run_cli(
        capsys, "run", "--objective", "jump", "--n", "10", "--param", "k=2",
        "--lambda", "1", "--reps", "1", "--budget", "20000",
    )
    assert code == 0
    assert json.loads(out)["problem"] == "jump"


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    specs = []
    monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or SimpleNamespace(to_dict=dict))
    argv = ["run", "--objective", "jump", "--n", "10", "--lambda", "1"]
    assert main(argv + ["--bound", "lb-unique", "--param", "k=2"]) == 0
    assert main(argv) == 0
    capsys.readouterr()
    first, second = specs
    assert first.bounds == ["lb-unique"] and first.objective["k"] == 2
    # the append options start empty again, not from the first call's lists
    assert second.bounds == [] and "k" not in second.objective
    # verify's --n defaults to GRID_N after a call that gave it
    for n in ("16", None):
        assert main(["verify", "--lemma", "chvatal"] + (["--n", n] if n else [])) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["grid"].startswith(f"n={n or cli.GRID_N},")
    assert cli._build_parser().parse_args(["verify", "--lemma", "chvatal"]).n is None
