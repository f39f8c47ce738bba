"""`simulate.decide`, the one loop that picks each record's SR level, and the
identities between subcommands: `guard` is `loso-eval --policy gate`
without the report, `gate --adaptive` enhances exactly the records that
`loso-eval --policy gate_adaptive` enhances, and `loso-eval` on a
`simulate` run's stream and echo writes that run's outputs."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import make_record
from srgate import simulate
from srgate.cli import run_cli
from srgate.config import POLICIES, ExperimentConfig
from srgate.gating import AdaptiveTauConfig, Thresholds, gate, gate_adaptive
from srgate.records import GateReason, SRLevel, write_log
from srgate.simulate import DECISION, decide, evaluate_records, sample_stream

CONFIGS = {
    "default": ExperimentConfig(),
    "moved": ExperimentConfig(
        thresholds=Thresholds(tau_low=0.4, tau_high=0.8, critical_cut=0.6),
        adaptive=AdaptiveTauConfig(tau_base=0.8, alpha_blur=0.1, alpha_light=-0.2),
    ),
}


def _records():
    """Random records over the whole confidence range, either criticality and
    any blur and lighting, plus records on each threshold of both configs."""
    rng = np.random.default_rng(11)
    recs = [
        make_record(
            confidence=float(rng.uniform(0.15, 1.0)), predicted=int(rng.integers(0, 7)),
            criticality=int(rng.integers(0, 2)), blur=float(rng.random() * 0.1),
            lighting=float(rng.random()), clip=f"c{i}",
        )
        for i in range(400)
    ]
    for i, p in enumerate((0.4, 0.6, 0.7, 0.8, 0.85, 0.9)):
        for criticality in (0, 1):
            recs.append(make_record(confidence=p, criticality=criticality, clip=f"t{i}{criticality}"))
    return recs


def _scalar(policy: str, r, config: ExperimentConfig):
    """(level, reason, hex of tau_used) of one record, from the scalar gates."""
    if policy == "fixed_none":
        return SRLevel.NONE, None, float.hex(math.nan)
    if policy == "fixed_4x":
        return SRLevel.X4, None, float.hex(math.nan)
    if policy == "gate":
        d = gate(r.confidence, r.criticality, config.thresholds)
    else:
        d = gate_adaptive(r, config.thresholds, config.adaptive)
    return d.level, d.reason, float.hex(d.tau_used)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
@pytest.mark.parametrize("policy", POLICIES)
def test_decide_matches_scalar_gates(policy, config):
    recs = _records()
    got = decide(recs, policy, config)
    assert got.dtype == DECISION and got.shape == (len(recs),)
    reasons = [None, *GateReason]  # code -1 (a fixed policy) reads as None
    for r, (level, code, tau_used) in zip(recs, got.tolist()):
        assert (level, reasons[code + 1], float.hex(tau_used)) == _scalar(policy, r, config)
    if policy.startswith("fixed"):
        assert (got["reason"] == -1).all() and np.isnan(got["tau_used"]).all()
    else:
        assert len(set(got["reason"].tolist())) == len(GateReason)


@pytest.mark.parametrize("policy", POLICIES)
def test_decide_of_no_records_is_empty(policy):
    got = decide([], policy, ExperimentConfig())
    assert got.dtype == DECISION and got.shape == (0,)


def test_decide_rejects_an_unknown_policy_naming_it():
    recs = _records()
    for run in (decide, lambda *args: evaluate_records(*args, seed=1)):
        with pytest.raises(ValueError, match="^unknown policy 'sometimes_4x'; choose one of "):
            run(recs, "sometimes_4x", ExperimentConfig())


@pytest.mark.parametrize("policy", ["gate", "gate_adaptive"])
def test_decide_calls_the_gate_by_module_name_once_per_record(monkeypatch, policy):
    # a policy's gate function has the policy's name
    calls = []
    real = getattr(simulate, policy)
    monkeypatch.setattr(simulate, policy, lambda *args: calls.append(1) or real(*args))
    recs = _records()
    decide(recs, policy, ExperimentConfig())
    assert len(calls) == len(recs)


# --- identities between subcommands ---------------------------------------------


@pytest.fixture
def scored_log(tmp_path):
    """A log whose records carry an upstream artifact score, about half of
    them over the guard's default threshold."""
    rng = np.random.default_rng(6)
    recs = sample_stream(ExperimentConfig().scenario.model, 60, 6, seed=5)
    recs = [replace(r, artifact_score=float(rng.random())) for r in recs]
    path = tmp_path / "scored.log"
    write_log(recs, str(path))
    return str(path)


def _rows(path, keys):
    with open(path, newline="") as fh:
        return [[row[k] for k in keys] for row in csv.DictReader(fh)]


def _loso_eval(log, out, policy, extra=()):
    argv = ["loso-eval", "--log", log, "--policy", policy, "--resamples", "0", "--seed", "1"]
    assert run_cli([*argv, "--out", str(out), *extra]) == 0
    return out / "guard_outcomes.csv"


@pytest.mark.parametrize(
    "extra",
    [[], ["--no-guard"], ["--guard-threshold", "0.3", "--guard-discount", "0.2", "--guard-absolute"]],
    ids=["default", "no-guard", "absolute"],
)
def test_guard_rows_are_loso_eval_gate_outcomes(scored_log, tmp_path, extra):
    assert run_cli(["guard", "--log", scored_log, "--out", str(tmp_path / "g"), *extra]) == 0
    outcomes = _loso_eval(scored_log, tmp_path / "e", "gate", extra)
    keys = ["clip_id", "triggered", "used_sr", "final_confidence"]
    guard_rows = _rows(tmp_path / "g" / "guard.csv", keys)
    assert guard_rows == _rows(outcomes, keys)
    triggered = sum(row[1] == "True" for row in guard_rows)
    assert (triggered == 0) == (extra == ["--no-guard"])
    # and its levels are the fixed gate's
    assert run_cli(["gate", "--log", scored_log, "--out", str(tmp_path / "d")]) == 0
    levels = _rows(tmp_path / "g" / "guard.csv", ["clip_id", "level"])
    assert levels == _rows(tmp_path / "d" / "decisions.csv", ["clip_id", "level"])


def test_gate_adaptive_enhances_what_loso_eval_gate_adaptive_enhances(scored_log, tmp_path):
    assert run_cli(["gate", "--log", scored_log, "--adaptive", "--out", str(tmp_path / "d")]) == 0
    outcomes = _loso_eval(scored_log, tmp_path / "e", "gate_adaptive")
    decided = _rows(tmp_path / "d" / "decisions.csv", ["clip_id", "level"])
    scored = _rows(outcomes, ["clip_id", "used_sr", "triggered"])
    assert [c for c, _ in decided] == [c for c, _, _ in scored]
    enhanced = [level != "none" for _, level in decided]
    assert enhanced == ["True" in (used_sr, triggered) for _, used_sr, triggered in scored]
    assert 0 < sum(enhanced) < len(enhanced)


def test_loso_eval_of_a_simulate_stream_under_its_echo_writes_the_same_outputs(tmp_path):
    sim = tmp_path / "sim"
    argv = ["simulate", "--n-per-class", "300", "--subjects", "6", "--seed", "5", "--resamples", "200"]
    assert run_cli([*argv, "--out", str(sim)]) == 0
    echo = json.loads((sim / "effective_config.json").read_text(encoding="utf-8"))
    assert echo["scenario"]["sr_effect"]["hallucination_enabled"]
    del echo["n_per_class"], echo["subjects"]
    log = str(sim / "stream.log")
    config = tmp_path / "echo.json"
    config.write_text(json.dumps({**echo, "subcommand": "loso-eval", "log": log}), encoding="utf-8")
    loso = tmp_path / "loso"
    assert run_cli(["loso-eval", "--log", log, "--config", str(config), "--out", str(loso)]) == 0
    for name in ("report.json", "guard_outcomes.csv", "reliability.csv"):
        assert (loso / name).read_bytes() == (sim / name).read_bytes(), name
