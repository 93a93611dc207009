import json
import math

import pytest

from parallel_ea.cli import main


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
], ids=["chvatal-n-negative", "improve-prob-n-0", "mgf-n-0", "mgf-lambda-0", "mgf-max-trials-0",
        "multibit-n-1", "check-no-rows"])
def test_check_over_nothing_exits_2(tmp_path, capsys, argv):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main([str(empty) if a == "EMPTY" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


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
