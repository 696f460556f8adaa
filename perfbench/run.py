#!/usr/bin/env python3
"""Run one maxcosine benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload train_base --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from `src/`,
never from an installed copy. `--trace 0` prints the end-to-end metrics of
BENCHMARK.json, `--trace 1` the per-layer ones, from spans installed around
the program's public functions. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before it
is a record of the run (machine, digests, workload properties). The exit code
is 0 only if every output check passed.

`setup_s` is the median of several set-ups, each the first in its own process,
so first-call costs count as a real job pays them. This process times its own
set-up; with `--trace 0` it also starts `run.py --setup-only` for each further
sample, at even intervals of the measured loop and outside its timing, so the
set-up samples see the same phases of the host's speed as the operations do.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: the model's matrix-vector products gained nothing from a
# second thread on a 2-core machine, and a fixed count keeps runs comparable.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5      # cold set-ups timed per run, this process's own included
SETUP_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import maxcosine from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import maxcosine

    if not Path(maxcosine.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"maxcosine was imported from {maxcosine.__file__}, not {ROOT / 'src'}")


def machine(seed: int, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "workload_seed": seed,
    }


def timed_setup(workload, seed: int, workdir: Path) -> tuple[dict, float]:
    begin = time.perf_counter()
    st = workload.setup(seed, workdir)
    return st, time.perf_counter() - begin


def cold_setup(args) -> float:
    """Seconds of one set-up that is the first in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with {proc.returncode}: {proc.stderr}")
    return float(proc.stdout.split()[-1])


def measure(workload, st, seconds: float, tracer, pauses: int, pause) -> dict:
    """Closed loop of timed units for `seconds`. With a tracer, every unit runs
    twice on the same inputs, untraced then traced, so the tracing overhead is
    the difference between the two. `pause()` runs `pauses` times between units,
    evenly spread over the loop, and its time does not count towards `seconds`."""
    untraced, traced, problems = [], [], []
    elapsed, paused = 0.0, 0
    while not untraced or elapsed < seconds:
        begin = time.perf_counter()
        untraced.append(workload.run(st))
        if tracer is not None:
            with tracer.installed():
                traced.append(workload.run(st))
            tracer.end_op()
        for unit in untraced[-1:] + traced[-1:]:
            problems += workload.check(st, unit)
            unit.outputs = None  # keep only timings, so memory does not grow with the run
        elapsed += time.perf_counter() - begin
        while paused < pauses and elapsed >= seconds * (paused + 1) / (pauses + 1):
            pause()
            paused += 1
    for _ in range(paused, pauses):
        pause()
    return {"untraced": untraced, "traced": traced, "problems": problems}


def end_to_end(units, setup_s: list[float]) -> dict:
    op_ms = [ms for u in units for ms in u.op_ms]
    return {
        "throughput_per_s": sum(u.items for u in units) * 1e9 / sum(u.ns for u in units),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10, method="inclusive")[-1]
        if len(op_ms) > 1 else op_ms[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_s),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        st, own_setup_s = timed_setup(workload, args.seed, workdir)
        if args.setup_only:
            print(repr(own_setup_s))
            return 0
        setup_s = [own_setup_s]
        tracer = tracing.Tracer() if args.trace else None
        run = measure(workload, st, args.seconds, tracer,
                      0 if args.trace else SETUP_SAMPLES - 1,  # setup_s is not a per-layer metric
                      lambda: setup_s.append(cold_setup(args)))
        units = run["untraced"] + run["traced"]
        failed = sum(u.failed for u in units)
        values = end_to_end(run["untraced"], setup_s)
        named = workload.named(values, run["untraced"])  # workload-specific names
        if tracer is not None:
            ns = sum(u.ns for u in run["traced"])
            values.update(tracing.layer_metrics(
                tracer, ns, sum(u.ns for u in run["untraced"]),
                sum(len(u.op_ms) for u in run["traced"]), workload.library_bytes(st)))
        record = {
            "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "machine": machine(args.seed, threads),
            "setup_samples_s": setup_s,
            "units": len(run["untraced"]), "samples": sum(len(u.op_ms) for u in run["untraced"]),
            "named": named, "digests": workload.digests(st),
            "properties": workload.properties(st),
            "absent_spans": tracer.absent if tracer is not None else [],
            "counter_errors": dict(tracer.counter_errors) if tracer is not None else {},
            "problems": run["problems"],
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for problem in run["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {record['units']} units, "
          f"{record['samples']} operations, trace {args.trace}")
    for name, (value, unit) in named.items():
        print(f"  {name:<36} {value:14.4f} {unit}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({"record": record}))
    attempted = sum(len(u.op_ms) for u in units)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
