#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print all of their metrics.

    python3 perfbench/report.py --seed 1

Each workload runs in its own process through run.py, once with --trace 0 for
the end-to-end metrics and once with --trace 1 for the per-layer ones. The
report prints the metrics by name and unit, the digests of both runs, and the
machine. It exits non-zero if any run fails a check, or if the traced and
untraced runs of one workload disagree on a digest: tracing must not change
what the program computes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The (record, result) a run.py process printed; exits on any failure."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{workload} --trace {trace}: exit code {proc.returncode}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        plain, plain_result = run(workload, args.seed, args.seconds, 0)
        traced, traced_result = run(workload, args.seed, args.seconds, 1)
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s a run, "
              f"{plain['samples']} operations in {plain['units']} units untraced)")
        print("  machine: " + ", ".join(f"{k}={v}" for k, v in plain["machine"].items()))
        print("  workload properties: " + json.dumps(plain["properties"]))
        for name, (value, unit) in plain["named"].items():
            print(f"  {name:<36} {value:14.4f} {unit}")
        for name, m in plain_result["metrics"].items():
            print(f"  {name:<36} {m['value']:14.4f} {m['unit']}")
        print("  per layer (traced run):")
        for name, m in traced_result["metrics"].items():
            print(f"    {name:<34} {m['value']:14.4f} {m['unit']}")
        if traced["absent_spans"]:
            print("  absent spans: " + ", ".join(traced["absent_spans"]))
        if traced["counter_errors"]:
            print(f"  counters that could not read their calls: {traced['counter_errors']}")
        for name, digest in plain["digests"].items():
            print(f"  digest {name}: {digest}")
        if plain["digests"] != traced["digests"]:
            print("  DIGESTS DIFFER between the untraced and traced runs")
            ok = False
        for result in (plain_result, traced_result):
            print(f"  correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
