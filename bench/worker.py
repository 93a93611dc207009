"""One workload process: set up, run timed rounds, check the outputs.

Started by run.py, once per set-up sample and once for the measured body.
Prints one JSON object on the last line of its standard output.

Timing.  A round is a list of operations, each timed alone.  While an
operation runs, SIGALRM interrupts it every SAMPLE_INTERVAL_S for one pass
of a fixed pure-Python reference loop, so the machine's speed is sampled
uniformly in time, inside long operations too.  The speed factor of a
pass is NOMINAL_PASS_S / its duration, and a round's time at reference
speed is its time net of the passes times the trimmed mean speed factor
of the passes taken during it.  The machine's speed drifts by up to 2x
within seconds; dense samples follow that drift where a pass before and
after each operation did not.  In traced mode every round runs twice on
the same inputs, untraced then traced, and the traced copy carries the
per-layer spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from layers import layer_metrics
from tracing import ROUND_SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent

# Median pass of reference() on the machine the README figures come from.
NOMINAL_PASS_S = 0.0020
SAMPLE_INTERVAL_S = 0.1
MIN_SELF_SHARE = 0.95  # layer self times / traced time, the README's tolerance


def reference() -> float:
    """Seconds for one pass of a fixed pure-Python loop of integer
    arithmetic, dict stores and short-lived tuples."""
    t0 = time.perf_counter()
    acc, table, out = 1, {}, []
    for i in range(4000):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        table[acc & 1023] = i
        out.append(divmod(acc, i + 1))
        if len(out) > 64:
            out.clear()
    return time.perf_counter() - t0


class SpeedSampler:
    """Reference passes on SIGALRM while `active`; their time is kept out of
    the operation's time and, through tracer.exclude, out of every span."""

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.overhead_s = 0.0
        self.active = False
        self.tracer: Tracer | None = None

    def _sample(self, signum, frame) -> None:
        if not self.active:
            return
        t0 = time.perf_counter()
        d = reference()
        dt = time.perf_counter() - t0
        self.speeds.append(NOMINAL_PASS_S / d)
        self.overhead_s += dt
        if self.tracer is not None:
            self.tracer.exclude(dt)

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def mean_speed(speeds: list[float]) -> float:
    """Trimmed mean speed factor: a pass that was descheduled reads far too
    slow for the 0.1 s it stands for, so the tenth of passes at each end is
    left out.  With no pass at all, one is taken now."""
    speeds = sorted(speeds or [NOMINAL_PASS_S / reference()])
    trim = len(speeds) // 10
    return statistics.fmean(speeds[trim:len(speeds) - trim])


def _timed_round(wl, r: int, tracer: Tracer | None, sampler: SpeedSampler) -> tuple[dict, list]:
    """Runs round r's operations; returns its timing record and raw outputs."""
    ops = wl.ops(r, tracer)
    if tracer is not None:
        ops = [tracer.wrap(ROUND_SPAN, op) for op in ops]
    sampler.tracer = tracer
    first = len(sampler.speeds)
    raw, time_s = [], 0.0
    for op in ops:
        overhead = sampler.overhead_s
        sampler.active = True
        t0 = time.perf_counter()
        raw.append(op())
        dt = time.perf_counter() - t0
        sampler.active = False
        time_s += dt - (sampler.overhead_s - overhead)
    speeds = sampler.speeds[first:]
    speed = mean_speed(speeds)
    rec = {"round": r, "traced": tracer is not None, "ops": len(ops), "time_s": time_s,
           "ref_time_s": time_s * speed, "scale": 1 / speed, "samples": len(speeds)}
    return rec, raw


def run_body(wl, seconds: float, trace: bool, sampler: SpeedSampler):
    """Whole rounds while the next one is expected to end less than half a
    round after `seconds`.

    Returns every round's timing record, the untraced rounds' results and,
    in traced mode, (record, result, tracer) of each traced copy.
    """
    rounds, results, tracers = [], [], []
    start = time.perf_counter()
    r = 0
    while True:
        rec, raw = _timed_round(wl, r, None, sampler)
        res = wl.collect(r, raw)
        rounds.append(rec)
        results.append(res)
        if trace:
            tracer = Tracer()
            with tracer.installed():
                rec_t, raw_t = _timed_round(wl, r, tracer, sampler)
            res_t = wl.collect(r, raw_t)
            if (res_t.evals, res_t.ops) != (res.evals, res.ops):
                res_t.wrong.append(f"round {r}: traced copy did {res_t.evals} evaluations in "
                                   f"{res_t.ops} operations, untraced {res.evals} in {res.ops}")
            rec_t["untraced_ref_time_s"] = rec["ref_time_s"]
            rounds.append(rec_t)
            tracers.append((rec_t, res_t, tracer))
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed * (2 * r + 1) / (2 * r) > seconds:
            return rounds, results, tracers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, Path(args.scratch))
    wl.warm_up()
    out = {"setup_s": time.monotonic() - args.t0}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    with SpeedSampler() as sampler:
        rounds, results, tracers = run_body(wl, args.seconds, bool(args.trace), sampler)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks import scipy
    every = results + [res for _, res, _ in tracers]
    untraced = [rec for rec in rounds if not rec["traced"]]
    out.update(
        rounds=rounds,
        attempted=sum(res.ops for res in every),
        failed=[f for res in every for f in res.failed],
        wrong=[w for res in every for w in res.wrong] + wl.check(results),
        peak_rss_mb=rss_mb,
        # medians over the untraced rounds, at reference speed: now and then
        # the machine slows the program more than the reference loop, and a
        # median keeps such a round from moving the figure
        evals_per_s=statistics.median(res.evals / rec["ref_time_s"] for rec, res in zip(untraced, results)),
        runs_per_s=statistics.median(res.ops / rec["ref_time_s"] for rec, res in zip(untraced, results)),
        raw_evals_per_s=statistics.median(res.evals / rec["time_s"] for rec, res in zip(untraced, results)),
    )
    if tracers:
        trace_file = Path(args.scratch) / f"trace-{args.workload}-{args.seed}.json"
        out["layers"], out["layers_raw_us_per_eval"] = layer_metrics(tracers, trace_file)
        share = out["layers"]["trace.self_share"]
        if share < MIN_SELF_SHARE:
            out["wrong"].append(f"layer self times cover {share:.3f} of the traced time, "
                                f"below {MIN_SELF_SHARE}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
