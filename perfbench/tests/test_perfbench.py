"""Tests of the benchmark itself (not of srgate).

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import csv
import dataclasses
import filecmp
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from srgate import cli, config, gating, records, simulate  # noqa: E402


# --- seeded inputs ---------------------------------------------------------------

def _write_audit_log(path, seed):
    records.write_log(workloads.audit_records(seed, n_per_class=30), path)


def test_same_seed_gives_byte_identical_log(tmp_path):
    a, b, c = (str(tmp_path / f"{k}.log") for k in "abc")
    _write_audit_log(a, 7)
    _write_audit_log(b, 7)
    _write_audit_log(c, 8)
    assert filecmp.cmp(a, b, shallow=False)
    assert not filecmp.cmp(a, c, shallow=False)


def test_same_seed_gives_byte_identical_frames(tmp_path):
    frames = workloads.WORKLOADS["frames-clip"]
    frames.build(5, str(tmp_path / "a"))
    frames.build(5, str(tmp_path / "b"))
    frames.build(6, str(tmp_path / "c"))
    for pa, pb, pc in zip(
        workloads.frame_paths(str(tmp_path / "a")),
        workloads.frame_paths(str(tmp_path / "b")),
        workloads.frame_paths(str(tmp_path / "c")),
    ):
        assert filecmp.cmp(pa, pb, shallow=False)
        assert not filecmp.cmp(pa, pc, shallow=False)


def test_pgm_encodings_load_back_exactly(tmp_path):
    sr, _ = workloads.frame_arrays(3)
    for ascii_format in (True, False):
        path = tmp_path / f"f{int(ascii_format)}.pgm"
        path.write_bytes(workloads.pgm_bytes(sr[0], ascii_format, "test"))
        img = workloads.quality.load_pgm(str(path))
        assert (img.pixels == sr[0] / 255.0).all()


# --- output checks ------------------------------------------------------------------

def _gate_run(tmp_path):
    log = str(tmp_path / "audit.log")
    _write_audit_log(log, 11)
    out = str(tmp_path / "gate")
    assert cli.run_cli(["gate", "--log", log, "--adaptive", "--out", out]) == 0
    arrays = checks.read_log_arrays(log)
    oracle = checks.oracle_adaptive_gate(
        arrays["confidence"], arrays["criticality"], arrays["blur"], arrays["lighting"]
    )
    return os.path.join(out, "decisions.csv"), arrays, oracle


def test_checker_accepts_clean_decisions(tmp_path):
    path, arrays, oracle = _gate_run(tmp_path)
    assert checks.check_decisions(path, arrays, *oracle) == []


def test_checker_rejects_one_flipped_level(tmp_path):
    path, arrays, oracle = _gate_run(tmp_path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    level_col = rows[0].index("level")
    row = rows[5]
    row[level_col] = "4x" if row[level_col] != "4x" else "none"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    errors = checks.check_decisions(path, arrays, *oracle)
    assert len(errors) == 1 and "row 6" in errors[0]


def test_audit_scores_follow_the_sr_effect_model():
    recs = workloads.audit_records(9, n_per_class=300)
    levels, _, _ = checks.oracle_adaptive_gate(
        *(np.array([getattr(r, k) for r in recs]) for k in ("confidence", "criticality", "blur", "lighting"))
    )
    score = np.array([r.artifact_score for r in recs])
    effect = config.ExperimentConfig().scenario.sr_effect
    assert ((score >= effect.clean_score_range[0]) & (score <= effect.hallucinated_score_range[1])).all()
    assert not (score[levels == 0] > 0.5).any()
    # 0.15 of 2x and 0.25 of 4x records look hallucinated
    share = np.mean(score[levels != 0] > 0.5)
    assert 0.13 < share < 0.25


def test_guard_check_redraws_simulate_scores(tmp_path):
    out = str(tmp_path)
    argv = ["simulate", "--seed", "3", "--n-per-class", "60", "--subjects", "24",
            "--resamples", "5", "--out", out]
    assert cli.run_cli(argv) == 0
    assert checks.check_simulate({"seed": 3}, out, {"rc": [0]}) == []
    # scores drawn for another seed do not match the program's
    errors = checks.check_simulate({"seed": 4}, out, {"rc": [0]})
    assert any("p_artifact" in e for e in errors)


def test_checker_rejects_wrong_optimum():
    recs = simulate.sample_stream(config.BehaviorConfidenceModel(), 30, 4, 3)
    params, profile = records.UtilityParams(), workloads.costs.CostProfile()
    res = gating.optimize_thresholds(recs, params, profile, grid_step=0.01)
    assert checks.check_optimum(res, recs, params, profile, "outcome") == []
    worst = min(res.surface, key=lambda s: s.mean_utility)
    wrong = dataclasses.replace(
        res, tau_low=worst.tau_low, tau_high=worst.tau_high, mean_utility=worst.mean_utility
    )
    assert checks.check_optimum(wrong, recs, params, profile, "outcome")


# --- tracing -------------------------------------------------------------------------

def test_self_time_on_hand_built_tree():
    # root [0, 10] has children [1, 3] and [2, 6] (overlapping: union [1, 6])
    # and a timed aggregate of 0.5 s; child [2, 6] has a grandchild [3, 4].
    spans = [
        tracing.Span("root", 0.0, 10.0, None, inner_s=0.5),
        tracing.Span("a", 1.0, 3.0, 0),
        tracing.Span("b", 2.0, 6.0, 0),
        tracing.Span("c", 3.0, 4.0, 2),
        tracing.Span("late", 9.5, 12.0, 0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == [10.0 - 5.0 - 0.5 - 0.5, 2.0, 3.0, 1.0, 2.5]


def test_instrumentation_counts_and_restores(tmp_path):
    originals = (simulate.gate_adaptive, gating.gate_adaptive, cli.run_cli)
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer):
        rc = cli.run_cli(
            ["simulate", "--seed", "1", "--n-per-class", "20", "--subjects", "4",
             "--resamples", "5", "--out", str(tmp_path)]
        )
    assert rc == 0
    assert (simulate.gate_adaptive, gating.gate_adaptive, cli.run_cli) == originals
    m = tracing.layer_metrics(tracer)
    n = 20 * records.NUM_CLASSES
    assert m["cli.ops"] == 1
    assert m["gating.gate_adaptive_calls"] == n
    assert m["gating.level.none"] + m["gating.level.2x"] + m["gating.level.4x"] == n
    assert m["records.write_log_records"] == n
    assert m["calibration.bootstrap_evals"] == 4 * 5 + m["calibration.bootstrap_rejected"]
    assert m["calibration.bootstrap.aupr_s"] > 0
    assert m["calibration.fold_metrics_s"] > 0 and m["calibration.report_self_s"] > 0
    assert m["costs.accumulate_cost_calls"] == 1 + 4  # pooled plus one per fold
    assert set(m) | {"process.cpu_s", "trace.overhead_s"} == set(tracing.LAYER_METRICS)
