"""Decision counters at seed 42: what srgate decides on the pinned inputs.

Runs three benchmark workloads traced (``perfbench/run.py --trace 1``) and
compares each decision counter with its expected value: gate levels and
reasons, guard calls and triggers, bootstrap evaluations, validations, cost
accumulations, evaluated records and threshold-surface pairs and cells. Any
change to a gate, guard, bootstrap or validation path that moves a count
fails here. Prints "every decision counter matches", or one line per counter
that differs, and exits 1 if any does.

Run from the root of a checkout (pytest does not collect it):

    python tests/decision_counters.py
"""

import json, subprocess, sys
want = {
    "simulate-pinned": {
        "gating.level.none": 2185, "gating.level.2x": 5035, "gating.level.4x": 2783,
        "gating.reason.uncovered_default": 686,
        "guard.apply_guard_calls": 7818, "guard.triggered": 1432,
        "calibration.bootstrap_evals": 4000, "records.validate_calls": 10003,
        "simulate.evaluate_records": 10003,
    },
    "log-audit-10x": {
        "gating.gate_adaptive_calls": 200060,
        "gating.level.none": 44284, "gating.level.2x": 100824, "gating.level.4x": 54952,
        "gating.reason.uncovered_default": 13908,
        "guard.apply_guard_calls": 77888, "guard.triggered": 14124,
        "records.validate_calls": 300090, "costs.accumulate_cost_calls": 25,
        "simulate.evaluate_records": 100030,
    },
    "threshold-search": {
        "kernels.surface_pairs": 10541, "kernels.surface_cells": 105441623,
    },
}
bad = []
for workload, counters in want.items():
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "42", "--seconds", "1", "--trace", "1"]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    for name, value in counters.items():
        got = metrics.get(name, {}).get("value")
        if got != value:
            bad.append(f"{workload} {name}: {got}, expected {value}")
print("\n".join(bad) or "every decision counter matches")
sys.exit(1 if bad else 0)
