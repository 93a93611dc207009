"""Per-layer metrics from the traced rounds.

Times are self times at reference speed (raw self time / round scale),
summed over the traced rounds: `_us` metrics per evaluation (grid point
in theory-grids), `_s` metrics per round.  Counts come from round 0, whose
inputs depend on the seed alone.  Layers a workload does not reach read 0.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path

from tracing import LEMMAS, ROUND_SPAN

# (metric, unit); the same list is in BENCHMARK.json under per_layer.
PER_LAYER = [
    ("variation.apply_calls", "count"),
    ("variation.apply_us", "us/eval"),
    ("variation.clone_ratio", "ratio"),
    ("variation.mirrored_calls", "count"),
    ("variation.mirrored_us", "us/eval"),
    ("bitstring.random_bitstring_calls", "count"),
    ("bitstring.random_bitstring_us", "us/eval"),
    ("objectives.evaluate_calls", "count"),
    ("objectives.evaluate_us", "us/eval"),
    ("objectives.target_calls", "count"),
    ("objectives.target_us", "us/eval"),
    ("objectives.build_s", "s"),
    ("algorithms.self_us_per_eval", "us/eval"),
    ("algorithms.policy_us_per_round", "us/round"),
    ("algorithms.evals", "count"),
    ("algorithms.generations", "count"),
    ("harness.self_s", "s"),
    ("harness.csv_bytes", "B"),
    *[(f"theory.{lemma}_{kind}", unit) for lemma in LEMMAS for kind, unit in (("s", "s"), ("points", "count"))],
    ("theory.pmf_log_calls", "count"),
    ("theory.pmf_log_us", "us/eval"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_share", "ratio"),
]

# per-evaluation time metrics and the span each is the self time of
_US_PER_EVAL = {
    "variation.apply_us": "variation.apply",
    "variation.mirrored_us": "variation.mirrored",
    "bitstring.random_bitstring_us": "bitstring.random_bitstring",
    "objectives.evaluate_us": "objectives.evaluate",
    "objectives.target_us": "objectives.target",
    "algorithms.self_us_per_eval": "algorithms.run",
    "theory.pmf_log_us": "theory.pmf_log",
}
_S_PER_ROUND = {
    "objectives.build_s": "objectives.build",
    "harness.self_s": "harness",
    "cli.self_s": "cli",
    **{f"theory.{lemma}_s": f"theory.{lemma}" for lemma in LEMMAS},
}
_CALLS = {
    "variation.apply_calls": "variation.apply",
    "variation.mirrored_calls": "variation.mirrored",
    "bitstring.random_bitstring_calls": "bitstring.random_bitstring",
    "objectives.evaluate_calls": "objectives.evaluate",
    "objectives.target_calls": "objectives.target",
    "theory.pmf_log_calls": "theory.pmf_log",
}


def layer_metrics(tracers: list, trace_file: Path) -> tuple[dict, dict]:
    """(per-layer metrics, raw self us/eval per span); writes the spans to trace_file."""
    self_ref: dict[str, float] = defaultdict(float)
    self_raw: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    clones = evals = 0
    traced_s = untraced_s = 0.0
    for rec, res, tracer in tracers:
        for layer, s in tracer.self_s.items():
            self_ref[layer] += s / rec["scale"]
            self_raw[layer] += s
        calls.update(tracer.calls)
        clones += tracer.clones
        evals += res.evals
        traced_s += rec["ref_time_s"]
        untraced_s += rec["untraced_ref_time_s"]
    rounds = len(tracers)
    _, first, first_tracer = tracers[0]

    m = {name: self_ref[span] / evals * 1e6 for name, span in _US_PER_EVAL.items()}
    m.update({name: self_ref[span] / rounds for name, span in _S_PER_ROUND.items()})
    m.update({name: first_tracer.calls[span] for name, span in _CALLS.items()})
    applies = calls["variation.apply"]
    policy_calls = calls["algorithms.policy"]
    m.update({
        "variation.clone_ratio": clones / applies if applies else 0.0,
        "algorithms.policy_us_per_round": self_ref["algorithms.policy"] / policy_calls * 1e6 if policy_calls else 0.0,
        "algorithms.evals": first.evals if first_tracer.calls["algorithms.run"] else 0,
        "algorithms.generations": first.generations,
        "harness.csv_bytes": first.data.get("csv_bytes", 0),
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.self_share": sum(s for layer, s in self_ref.items() if layer != ROUND_SPAN) / traced_s,
    })
    points = first.data.get("points", {})
    m.update({f"theory.{lemma}_points": points.get(lemma, 0) for lemma in LEMMAS})

    trace_file.write_text(json.dumps(
        [{"round": rec["round"], "scale": rec["scale"], "time_s": rec["time_s"], "evals": res.evals,
          **tracer.summary()} for rec, res, tracer in tracers], indent=1))
    raw = {layer: s / evals * 1e6 for layer, s in self_raw.items()}
    return {name: m[name] for name, _ in PER_LAYER}, raw
