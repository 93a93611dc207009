"""Command-line surface: run, sweep, verify, bounds, check.

Exit status 0 on success / a passing verification, 1 on a failed
verification or bound check, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .harness import ConfigError, ExperimentSpec, check_lower_bound, run_experiment
from .theory import bounds as bounds_mod
from .theory import lemmas


def _one_lambda(args: argparse.Namespace) -> Optional[int]:
    """The single --lambda value of a lemma that takes one, or None."""
    if not args.lam:
        return None
    if len(args.lam) > 1:
        raise ConfigError(f"verify --lemma {args.lemma} takes one --lambda value, got {len(args.lam)}")
    return args.lam[0]


def _given(**kwargs) -> dict:
    """The options the user gave; the verifier's own defaults fill the rest."""
    return {k: v for k, v in kwargs.items() if v is not None}


GRID_N = 128  # verify's --n when the option is not given

# verify --lemma id -> (the options it reads, its verifier on the parsed
# args); verify refuses every other option.  Each verifier reads its lemma
# function off the lemmas module when called, so a patched attribute is used.
VERIFIERS = {
    "hypergeom-tail": (("n",), lambda args: lemmas.verify_hypergeom_tail(args.n)),
    "improve-prob": (("n",), lambda args: lemmas.verify_improve_prob(args.n)),
    "chvatal": (("n",), lambda args: lemmas.verify_chvatal(args.n)),
    "multibit": (("n",), lambda args: lemmas.verify_multibit_progress(args.n)),
    "delta-symmetry": (("n",), lambda args: lemmas.verify_delta_symmetry(args.n)),
    "mgf": (("n", "lam"), lambda args: lemmas.verify_mgf_bound(args.n, **_given(lam=args.lam or None))),
    "mgf-max": (("lam", "trials", "seed"), lambda args: lemmas.verify_max_geometric(**_given(
        lam=_one_lambda(args), trials=args.trials, seed=args.seed))),
    "coupon": (("delta",), lambda args: lemmas.verify_coupon(**_given(delta=args.delta))),
}
_VERIFY_FLAGS = {"n": "--n", "lam": "--lambda", "trials": "--trials", "seed": "--seed", "delta": "--delta"}


@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parallel-ea",
        description="Lambda-parallel unary unbiased search: experiments, "
        "bound curves and inequality verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment (spec JSON or flags)")
    _add_experiment_args(run_p, multi_lambda=False)

    sweep_p = sub.add_parser("sweep", help="lambda sweep with summary tables")
    _add_experiment_args(sweep_p, multi_lambda=True)

    verify_p = sub.add_parser("verify", help="verify a stated inequality on its grid")
    verify_p.add_argument("--lemma", required=True, choices=tuple(VERIFIERS))
    verify_p.add_argument("--n", type=int, help=f"grid dimension (default {GRID_N})")
    verify_p.add_argument("--lambda", "--lam", dest="lam", type=int, nargs="*", default=None)
    verify_p.add_argument("--trials", type=int)
    verify_p.add_argument("--seed", type=int)
    verify_p.add_argument("--delta", type=float)

    bounds_p = sub.add_parser("bounds", help="evaluate a bound curve")
    bounds_p.add_argument("--id", required=True)
    bounds_p.add_argument("--n", type=float, required=True)
    bounds_p.add_argument("--lambda", "--lam", dest="lam", type=float, default=1.0)
    bounds_p.add_argument("--delta", type=float, default=bounds_mod.DEFAULT_DELTA)

    check_p = sub.add_parser("check", help="check CSV runs against a lower bound")
    check_p.add_argument("--csv", required=True)
    check_p.add_argument("--bound", required=True)
    check_p.add_argument("--safety", type=float, default=1.0)
    check_p.add_argument("--delta", type=float, default=bounds_mod.DEFAULT_DELTA)

    return parser


def _add_experiment_args(p: argparse.ArgumentParser, multi_lambda: bool) -> None:
    p.add_argument("--spec", help="experiment spec JSON file")
    p.add_argument("--objective", help="objective name (e.g. onemax)")
    p.add_argument("--n", type=int)
    if multi_lambda:
        p.add_argument("--lambdas", help="comma-separated lambda list, e.g. 1,2,8,32")
    else:
        p.add_argument("--lambda", "--lam", dest="lam", type=int, default=1)
    p.add_argument("--algo", default="one-plus-lambda-fixed")
    p.add_argument("--p", help="mutation rate (number or 'c/n')")
    p.add_argument("--budget", type=int, default=10**9)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", default="global", choices=("global", "local"))
    p.add_argument("--bound", action="append", default=[], help="bound id to overlay")
    p.add_argument("--out", help="CSV output path (appended)")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="objective parameter, e.g. k=2 or seed=7")


def _parse_params(items: Sequence[str]) -> dict:
    out = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _spec_from_args(args: argparse.Namespace, multi_lambda: bool) -> ExperimentSpec:
    if args.spec:
        with open(args.spec) as fh:
            return ExperimentSpec.from_json(fh.read())
    if not args.objective or args.n is None:
        raise ConfigError("need --spec, or --objective with --n")
    if multi_lambda:
        if not args.lambdas:
            raise ConfigError("sweep needs --lambdas")
        lambdas = [int(v) for v in args.lambdas.split(",")]
    else:
        lambdas = [args.lam]
    objective = {"name": args.objective, "n": args.n, **_parse_params(args.param)}
    algorithm = {"algorithm": args.algo, "budget": args.budget}
    if args.p is not None:
        algorithm["p"] = args.p
    return ExperimentSpec(
        objective=objective,
        algorithm=algorithm,
        repetitions=args.reps,
        lambdas=lambdas,
        target=args.target,
        bounds=args.bound,
        output=args.out,
        master_seed=args.seed,
    )


def _cmd_experiment(args: argparse.Namespace, multi_lambda: bool) -> int:
    spec = _spec_from_args(args, multi_lambda)
    summary = run_experiment(spec)
    out = summary.to_dict()
    if multi_lambda:
        out["table"] = summary.table()
    print(json.dumps(out, indent=2))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reads, verifier = VERIFIERS[args.lemma]
    unread = [flag for dest, flag in _VERIFY_FLAGS.items()
              if dest not in reads and getattr(args, dest) is not None]
    if unread:
        raise ConfigError(f"verify --lemma {args.lemma} does not read {', '.join(unread)}; "
                          f"it reads {', '.join(_VERIFY_FLAGS[dest] for dest in reads)}")
    if args.n is None:
        args.n = GRID_N
    report = verifier(args)
    print(report.to_json())
    return 0 if report.passed else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    bound = bounds_mod.get_bound(args.id)
    kwargs = {"n": args.n, "lam": args.lam, "delta": args.delta}
    value = bound(**kwargs)
    print(
        json.dumps(
            {
                "id": bound.id,
                "value": value,
                "asymptotic_only": bound.asymptotic_only,
                "constants": bound.constants,
                "params": {k: kwargs[k] for k in bound.params},
            },
            indent=2,
        )
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    report = check_lower_bound(args.csv, args.bound, safety=args.safety, delta=args.delta)
    print(json.dumps(report, indent=2))
    return 0 if report["pass"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_experiment(args, multi_lambda=False)
        if args.command == "sweep":
            return _cmd_experiment(args, multi_lambda=True)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "check":
            return _cmd_check(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
