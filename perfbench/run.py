#!/usr/bin/env python3
"""srgate benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload simulate-pinned --seed 42 --seconds 12 --trace 0
    python3 perfbench/run.py --all                  # every workload, one table
    python3 perfbench/run.py --workload frames-clip --trace 1

One run of one workload:

1. set up the inputs in fresh processes, ``SETUP_REPEATS`` times, and
   take the median as ``setup_s`` (``import srgate`` plus input building);
2. in one more fresh process, run the workload's operation in a closed
   loop for ``--seconds``, then check every operation's outputs;
3. print one JSON object as the last line of standard output:
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``items_per_s``, ``peak_rss_mb``, ``setup_s``); with ``--trace 1`` they
are the per-layer ones, and the spans go to ``.perfbench/traces/``.
All files stay under ``.perfbench/`` in the checkout; inputs and outputs
are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOAD_NAMES = ("simulate-pinned", "log-audit-10x", "threshold-search", "frames-clip")
SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    pass


def child(args: list[str], result_path: str, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON report."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], cwd=ROOT, env=env, timeout=remaining,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the worker and waited for it
        raise BenchError(f"worker {args[:2]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    with open(result_path) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = os.path.join(ROOT, ".perfbench", f"work-{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    result_path = os.path.join(work, "result.json")
    try:
        setups = [
            child(["setup", name, str(seed), work, result_path], result_path, deadline)["setup_s"]
            for _ in range(1 if trace else SETUP_REPEATS)
        ]
        rep = child(
            ["measure", name, str(seed), work, result_path, repr(seconds), "1" if trace else "0"],
            result_path,
            deadline,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in rep["errors"]:
        print(f"{name}: check failed: {line}", file=sys.stderr)
    print(f"{name}: setup {setups}, untraced op walls {rep['walls']}", file=sys.stderr)
    if trace:
        from tracing import LAYER_METRICS

        metrics = {k: {"value": rep["layer"][k], "unit": u} for k, u in LAYER_METRICS.items()}
    else:
        wall = statistics.median(rep["walls"])
        values = {
            "wall_s": wall,
            "items_per_s": rep["items"] / wall,
            "peak_rss_mb": rep["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "srgate", "__init__.py")):
        raise BenchError(f"no srgate sources under {os.path.join(ROOT, 'src')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true", help="run every workload, print a table")
    parser.add_argument("--seed", type=int, default=42, help="input seed (default: the pinned 42)")
    parser.add_argument("--seconds", type=float, default=12.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    sys.path.insert(0, HERE)
    try:
        check_checkout()
        if args.workload:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
            return 0
        results = {}
        for name in WORKLOAD_NAMES:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
            results[name] = res
            rate = res["failed"] / res["attempted"]
            print(f"{name}  (seed {args.seed}, {res['attempted']} ops)")
            for key, m in res["metrics"].items():
                print(f"  {key:34s} {m['value']:>16.6g} {m['unit']}")
            print(f"  {'error_rate':34s} {rate:>16.6g} failed/attempted")
        print(json.dumps(results))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
