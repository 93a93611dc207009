"""Benchmark of the parallel_ea toolkit, run from the root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up is sampled in SETUP_SAMPLES fresh processes (the last one also
runs the measured body), and the printed set-up time is their median wall
time.  The body runs whole rounds for about S seconds, checks every
output, and the last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  The lines before it give the raw round times, reference-loop
times and scale factors.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole command, set-up samples included

END_TO_END = {"evals_per_s": "1/s", "runs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _worker(args, scratch: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch), "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "parallel_ea" / "__init__.py").is_file():
        print(f"error: no parallel_ea sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    try:
        setups = [_worker(args, scratch, deadline, True) for _ in range(SETUP_SAMPLES - 1)]
        body = _worker(args, scratch, deadline, False)
    except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples = [s["setup_s"] for s in setups + [body]]

    print(f"workload {args.workload} seed {args.seed}: {len(body['rounds'])} timed rounds")
    for rec in body["rounds"]:
        print(f"  round {rec['round']}{' traced' if rec['traced'] else ''}: {rec['ops']} operations, "
              f"{rec['time_s']:.4f} s raw, {rec['ref_time_s']:.4f} s at reference speed "
              f"(scale {rec['scale']:.4f} from {rec['samples']} reference passes)")
    print(f"  evals/s (median over rounds) raw {body['raw_evals_per_s']:.1f}, "
          f"at reference speed {body['evals_per_s']:.1f}")
    print("  set-up samples: " + ", ".join(f"{s:.4f}" for s in setup_samples) + " s")
    if "layers_raw_us_per_eval" in body:
        print("  raw self us/eval per span: " + ", ".join(
            f"{k} {v:.4f}" for k, v in sorted(body["layers_raw_us_per_eval"].items())))
    for msg in body["failed"] + body["wrong"]:
        print(f"  CHECK: {msg}")

    if args.trace:
        metrics = {name: {"value": body["layers"][name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {"evals_per_s": body["evals_per_s"], "runs_per_s": body["runs_per_s"],
                  "setup_s": statistics.median(setup_samples), "peak_rss_mb": body["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not body["wrong"], "attempted": body["attempted"],
                      "failed": len(body["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
