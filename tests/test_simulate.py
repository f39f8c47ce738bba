from __future__ import annotations

import json
from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy import integrate, stats

import reference_decide as ref
from helpers import count_conversions, make_record, random_records
from srgate import calibration
from srgate.config import (
    CONF_FLOOR,
    BehaviorConfidenceModel,
    ExperimentConfig,
    MixtureSpec,
    ScenarioConfig,
    SrEffectConfig,
    TruncatedNormalSpec,
)
from srgate.errors import (
    InvalidModelParams,
    MalformedRecord,
    SchemaMismatch,
    TooFewSubjects,
)
from srgate.costs import accumulate_cost
from srgate.records import (
    CLASSES,
    NUM_CLASSES,
    PredictionRecord,
    SRLevel,
    record_arrays,
    validate_record,
)
from srgate.simulate import (
    evaluate_records,
    final_arrays,
    loso_splits,
    read_report,
    render_report,
    report_from_dict,
    report_to_dict,
    run_experiment,
    run_experiment_with_outcomes,
    sample_stream,
    write_report,
)

FAST = ExperimentConfig(resamples=0)


def small_stream(n_per_class=40, subjects=6, seed=123):
    return sample_stream(FAST.scenario.model, n_per_class, subjects, seed)


# --- LOSO ---------------------------------------------------------------------

def test_loso_one_fold_per_subject_ordered():
    recs = small_stream(subjects=24)
    folds = loso_splits(recs)
    assert len(folds) == 24
    assert [f.test_subject for f in folds] == sorted(f.test_subject for f in folds)


def test_loso_two_subjects_minimal():
    recs = small_stream(n_per_class=3, subjects=2)
    folds = loso_splits(recs)
    assert len(folds) == 2
    for fold in folds:
        assert len(fold.train_subjects) == 1
        assert fold.test_subject not in fold.train_subjects


def test_loso_single_subject_rejected():
    recs = small_stream(n_per_class=3, subjects=1)
    with pytest.raises(TooFewSubjects):
        loso_splits(recs)


def test_loso_partition_invariants_random_logs():
    rng = np.random.default_rng(0)
    recs = random_records(rng, 200, n_subjects=9)
    folds = loso_splits(recs)
    seen = []
    for fold in folds:
        test_ids = [r.clip_id for r in recs if r.subject_id == fold.test_subject]
        seen.extend(test_ids)
        assert fold.test_subject not in fold.train_subjects
        assert set(fold.train_subjects) | {fold.test_subject} == {
            r.subject_id for r in recs
        }
    assert sorted(seen) == sorted(r.clip_id for r in recs)


# --- sampling ------------------------------------------------------------------

def test_sample_stream_confidences_in_support():
    recs = small_stream()
    for r in recs:
        assert CONF_FLOOR <= r.confidence <= 1.0
        assert abs(sum(r.probs) - 1.0) < 1e-9
        assert abs(max(r.probs) - r.confidence) < 1e-12


def test_sample_stream_is_deterministic():
    a = small_stream(seed=9)
    b = small_stream(seed=9)
    assert a == b
    assert a != small_stream(seed=10)


def test_sample_stream_balanced_and_validated():
    recs = small_stream(n_per_class=25, subjects=5)
    assert len(recs) == 25 * NUM_CLASSES
    per_class = {k: 0 for k in range(NUM_CLASSES)}
    for r in recs:
        per_class[r.true_class] += 1
        assert validate_record(r) == []
        assert r.criticality == int(CLASSES[r.predicted_class].critical)
    assert set(per_class.values()) == {25}


def test_sample_stream_truncated_normal_mean_matches_quadrature():
    spec = TruncatedNormalSpec(0.87, 0.12)
    model = BehaviorConfidenceModel(
        distributions=(spec,) * NUM_CLASSES
    )
    recs = sample_stream(model, n_per_class=14286, n_subjects=10, seed=77)
    sample_mean = float(np.mean([r.confidence for r in recs]))

    dens = lambda x: stats.norm.pdf(x, 0.87, 0.12)
    mass, _ = integrate.quad(dens, CONF_FLOOR, 1.0)
    first, _ = integrate.quad(lambda x: x * dens(x), CONF_FLOOR, 1.0)
    want = first / mass
    assert abs(sample_mean - want) < 0.01


def test_sample_stream_mixture_draws_both_components():
    mix = MixtureSpec(0.5, TruncatedNormalSpec(0.3, 0.02), TruncatedNormalSpec(0.9, 0.02))
    model = BehaviorConfidenceModel(distributions=(mix,) * NUM_CLASSES)
    recs = sample_stream(model, 300, 4, seed=3)
    confs = np.array([r.confidence for r in recs])
    assert (confs < 0.5).any() and (confs > 0.7).any()


def test_nested_mixture_round_trips_and_draws_every_component():
    inner = MixtureSpec(0.5, TruncatedNormalSpec(0.3, 0.02), TruncatedNormalSpec(0.6, 0.02))
    mix = MixtureSpec(0.5, inner, TruncatedNormalSpec(0.9, 0.02))
    model = BehaviorConfidenceModel(distributions=(mix,) * NUM_CLASSES)
    cfg = ExperimentConfig(scenario=ScenarioConfig(model=model))
    from srgate.config import experiment_from_dict, experiment_to_dict

    assert experiment_from_dict(json.loads(json.dumps(experiment_to_dict(cfg)))) == cfg
    confs = np.array([r.confidence for r in sample_stream(model, 300, 4, seed=3)])
    assert (confs < 0.4).any() and ((confs > 0.5) & (confs < 0.7)).any() and (confs > 0.8).any()


@pytest.mark.parametrize("targets", [(7,), (-1,), (6, 99)])
def test_hallucination_targets_must_be_class_ids(targets):
    with pytest.raises(InvalidModelParams, match="hallucination_targets"):
        SrEffectConfig(hallucination_targets=targets)


def test_model_param_validation():
    with pytest.raises(InvalidModelParams):
        TruncatedNormalSpec(0.5, 0.0)
    with pytest.raises(InvalidModelParams):
        TruncatedNormalSpec(1.5, 0.1)
    with pytest.raises(InvalidModelParams):
        MixtureSpec(1.5, TruncatedNormalSpec(0.5, 0.1), TruncatedNormalSpec(0.6, 0.1))
    with pytest.raises(InvalidModelParams):
        BehaviorConfidenceModel(distributions=(TruncatedNormalSpec(0.5, 0.1),) * 3)
    with pytest.raises(InvalidModelParams):
        SrEffectConfig(hallucination_rate_x4=1.5)


# --- experiment runner -------------------------------------------------------------

def test_fixed_none_on_calibrated_stream_is_well_calibrated():
    recs = sample_stream(FAST.scenario.model, 1429, 24, seed=42)
    report = run_experiment(recs, "fixed_none", FAST, seed=42)
    assert report.calibration.ece <= 0.02
    assert report.cost.mean_gflops == pytest.approx(2.3, abs=1e-9)
    assert report.guard.n_sr == 0


def test_fixed_4x_costs_base_plus_increment_exactly():
    recs = small_stream()
    report = run_experiment(recs, "fixed_4x", FAST, seed=1)
    assert report.cost.mean_gflops == pytest.approx(18.7, abs=1e-9)
    assert report.cost.histogram == (0, 0, len(recs))


def test_gate_policy_cost_between_extremes():
    recs = small_stream(n_per_class=80)
    report = run_experiment(recs, "gate", FAST, seed=1)
    hist = report.cost.histogram
    assert hist[0] > 0 and hist[2] > 0
    assert 2.3 < report.cost.mean_gflops < 18.7


def test_run_experiment_rejects_bad_policy_and_records():
    recs = small_stream(n_per_class=4)
    with pytest.raises(ValueError):
        run_experiment(recs, "sometimes_4x", FAST, seed=1)
    broken = [replace(recs[0], confidence=0.1)] + recs[1:]
    with pytest.raises(MalformedRecord):
        run_experiment(broken, "gate", FAST, seed=1)


def test_run_experiment_deterministic_and_thread_invariant():
    recs = small_stream(n_per_class=30, subjects=5)
    cfg = FAST.with_overrides(resamples=25)
    r1 = run_experiment(recs, "gate_adaptive", cfg, seed=5)
    r2 = run_experiment(recs, "gate_adaptive", cfg, seed=5)
    assert render_report(r1) == render_report(r2)


def test_fold_counts_sum_to_total():
    recs = small_stream(n_per_class=20, subjects=7)
    report = run_experiment(recs, "gate", FAST, seed=2)
    assert sum(f.n for f in report.folds) == report.n == len(recs)
    assert len(report.folds) == 7


def test_guard_never_increases_critical_false_positives():
    # randomized scenario family: artifact scores stay separable around the
    # trigger threshold, rates and inflation vary
    rng = np.random.default_rng(99)
    for trial in range(5):
        effect = SrEffectConfig(
            hallucination_rate_x2=float(rng.uniform(0.05, 0.4)),
            hallucination_rate_x4=float(rng.uniform(0.05, 0.4)),
            inflation_range=(0.05, float(rng.uniform(0.1, 0.4))),
        )
        cfg = FAST.with_overrides(
            scenario=ScenarioConfig(FAST.scenario.model, effect)
        )
        recs = sample_stream(cfg.scenario.model, 60, 5, seed=trial)
        guarded = evaluate_records(recs, "gate_adaptive", cfg, seed=trial)
        unguarded = evaluate_records(
            recs, "gate_adaptive", cfg.with_overrides(guard_enabled=False), seed=trial
        )
        assert _critical_fp_by_loop(_finals(recs, guarded), 0.5) <= _critical_fp_by_loop(
            _finals(recs, unguarded), 0.5
        )


def test_synthetic_effects_disabled_uses_recorded_artifact_scores():
    effect = SrEffectConfig(uplift_enabled=False, hallucination_enabled=False)
    cfg = FAST.with_overrides(scenario=ScenarioConfig(FAST.scenario.model, effect))
    recs = small_stream(n_per_class=10, subjects=3)
    flagged = [replace(r, artifact_score=0.9) for r in recs]
    outcomes = evaluate_records(flagged, "fixed_4x", cfg, seed=0)
    assert all(o.triggered for o in outcomes)
    plain = evaluate_records(recs, "fixed_4x", cfg, seed=0)
    assert not any(o.triggered for o in plain)
    for r, o in zip(recs, plain):
        assert o.pred is None
        assert o.confidence == r.confidence


def _finals(recs, outcomes):
    # each record's final state, rebuilt one record at a time by the frozen reference
    return [
        r
        if o.pred is None
        else PredictionRecord(
            *ref.rebuild(ref.Record(*astuple(r)), o.pred, o.confidence, o.p_artifact)
        )
        for r, o in zip(recs, outcomes)
    ]


def _critical_fp_by_loop(finals, cut):
    # the record-level definition, one final record at a time
    return sum(
        1
        for f in finals
        if not CLASSES[f.true_class].critical
        and CLASSES[f.predicted_class].critical
        and f.confidence > cut
    )


def _log_driven(recs, cfg):
    # recorded artifact scores, a third of them above the guard threshold
    effect = SrEffectConfig(uplift_enabled=False, hallucination_enabled=False)
    cfg = cfg.with_overrides(scenario=ScenarioConfig(cfg.scenario.model, effect))
    scores = np.random.default_rng(8).uniform(0.0, 0.75, len(recs))
    return [replace(r, artifact_score=float(a)) for r, a in zip(recs, scores)], cfg


@pytest.mark.parametrize("scenario", ["synthetic", "log_driven"])
def test_array_scoring_matches_record_level_definitions(scenario):
    recs = small_stream(n_per_class=30, subjects=4, seed=17)
    cfg = FAST.with_overrides(critical_fp_conf_cut=0.4)
    if scenario == "log_driven":
        recs, cfg = _log_driven(recs, cfg)
    report, outcomes = run_experiment_with_outcomes(recs, "gate_adaptive", cfg, seed=9)

    cut = cfg.critical_fp_conf_cut
    levels = [o.level for o in outcomes]
    assert report.cost == accumulate_cost(levels, cfg.costs)
    n_sr = sum(1 for lvl in levels if lvl != SRLevel.NONE)
    n_triggered = sum(1 for o in outcomes if o.triggered)
    assert 0 < n_triggered < n_sr
    assert report.guard.n_sr == n_sr
    assert report.guard.n_triggered == n_triggered
    assert report.guard.trigger_rate == n_triggered / n_sr
    finals = _finals(recs, outcomes)
    assert report.guard.critical_false_positives == _critical_fp_by_loop(finals, cut) > 0

    assert [f.test_subject for f in report.folds] == ["S01", "S02", "S03", "S04"]
    for fold in report.folds:
        pairs = [(f, o) for f, o in zip(finals, outcomes) if f.subject_id == fold.test_subject]
        mine = [o for _, o in pairs]
        fold_finals = [f for f, _ in pairs]
        assert fold.n == len(mine)
        assert fold.accuracy.hex() == calibration.accuracy(fold_finals).hex()
        assert fold.ece.hex() == calibration.ece(fold_finals, cfg.bins).hex()
        assert fold.brier.hex() == calibration.brier(fold_finals).hex()
        fold_cost = accumulate_cost([o.level for o in mine], cfg.costs)
        assert fold.mean_gflops.hex() == fold_cost.mean_gflops.hex()
        assert fold.guard_triggers == sum(1 for o in mine if o.triggered)
        assert fold.critical_false_positives == _critical_fp_by_loop(fold_finals, cut)


def _reference_final(r, o, config):
    """Record r's final state by the frozen reference, given its outcome."""
    rr = ref.Record(*astuple(r))
    if o.level == SRLevel.NONE:
        return rr
    s = ref.Settings(
        guard_enabled=config.guard_enabled,
        guard_threshold=config.guard_threshold,
        guard_discount=config.guard_discount,
        guard_relative=config.guard_relative,
    )
    effect = config.scenario.sr_effect
    synthetic = effect.hallucination_enabled or effect.uplift_enabled
    # a synthetic SR effect draws its own artifact score; a log carries one
    p_artifact = o.p_artifact if synthetic else r.artifact_score
    _, confidence, triggered = ref.guard_outcome(rr, int(o.level), p_artifact, s)
    if triggered:
        return ref.rebuild(rr, ref.predicted_class(rr), confidence, p_artifact)
    if synthetic:
        # every enhanced record gets the SR output's vector
        return ref.rebuild(rr, o.pred, o.confidence, p_artifact)
    return rr


@pytest.mark.parametrize("case", ["absolute_to_zero", "relative_on_0.15", "synthetic"])
def test_final_columns_equal_the_frozen_rebuild(case):
    rng = np.random.default_rng(5)
    if case == "synthetic":
        cfg, policy = FAST, "gate_adaptive"
        recs = small_stream(n_per_class=30, subjects=4, seed=3)
    else:
        effect = SrEffectConfig(uplift_enabled=False, hallucination_enabled=False)
        cfg = FAST.with_overrides(scenario=ScenarioConfig(FAST.scenario.model, effect))
        if case == "absolute_to_zero":
            cfg = cfg.with_overrides(guard_relative=False, guard_discount=1.0)
        policy = "fixed_4x"
        # records that stand (no score, or under the threshold) and records the
        # guard reverts, among them confidence 0.15, which the discount takes below 1/K
        scores = [None, 0.2, 0.9]
        recs = [
            replace(r, artifact_score=scores[i % 3])
            for i, r in enumerate(random_records(rng, 60, n_subjects=3))
        ]
        recs += [
            make_record(confidence=0.15, predicted=k, subject=f"S0{k % 3 + 1}", artifact_score=0.9)
            for k in range(NUM_CLASSES)
        ]
    outcomes = evaluate_records(recs, policy, cfg, seed=4)
    final = final_arrays(record_arrays(recs), outcomes)
    want = [_reference_final(r, o, cfg) for r, o in zip(recs, outcomes)]

    assert final.probs.tobytes() == np.array([w.probs for w in want]).tobytes()
    assert final.confidence.tobytes() == np.array([w.confidence for w in want]).tobytes()
    assert final.pred.tolist() == [ref.predicted_class(w) for w in want]
    assert final.criticality.tolist() == [w.criticality for w in want]
    assert final.correct.tolist() == [ref.predicted_class(w) == w.true_class for w in want]
    triggered = [o.triggered for o in outcomes]
    assert any(triggered) and not all(triggered)
    if case != "synthetic":
        assert (final.confidence < CONF_FLOOR).any()
        assert any(o.pred is None for o in outcomes)


@pytest.mark.parametrize("scenario", ["synthetic", "log_driven"])
def test_experiment_converts_its_records_once(monkeypatch, scenario):
    recs = small_stream(n_per_class=10, subjects=3, seed=2)
    cfg = FAST.with_overrides(resamples=5)
    if scenario == "log_driven":
        recs, cfg = _log_driven(recs, cfg)
    calls = count_conversions(monkeypatch)
    run_experiment_with_outcomes(recs, "gate_adaptive", cfg, seed=1)
    assert calls == [len(recs)]


# --- report persistence ----------------------------------------------------------------

def test_report_roundtrip_deep_equality(tmp_path):
    recs = small_stream(n_per_class=15, subjects=4)
    report = run_experiment(
        recs, "gate_adaptive", FAST.with_overrides(resamples=10), seed=3
    )
    path = tmp_path / "report.json"
    write_report(report, str(path))
    loaded = read_report(str(path))
    assert loaded == report


def test_report_schema_mismatch(tmp_path):
    recs = small_stream(n_per_class=5, subjects=3)
    report = run_experiment(recs, "gate", FAST, seed=4)
    obj = report_to_dict(report)
    obj["schema_version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaMismatch):
        read_report(str(path))
    with pytest.raises(SchemaMismatch):
        report_from_dict(obj)


def test_report_with_24_subjects_serializes_24_folds(tmp_path):
    recs = small_stream(n_per_class=24, subjects=24)
    report = run_experiment(recs, "gate", FAST, seed=6)
    path = tmp_path / "r.json"
    write_report(report, str(path))
    data = json.loads(path.read_text())
    assert len(data["folds"]) == 24


def test_report_config_echo_reproduces_run():
    recs = small_stream(n_per_class=12, subjects=4)
    cfg = FAST.with_overrides(bins=12, guard_threshold=0.6)
    report = run_experiment(recs, "gate_adaptive", cfg, seed=8)
    from srgate.config import experiment_from_dict

    rebuilt_cfg = experiment_from_dict(report.config)
    again = run_experiment(
        recs, report.config["policy"], rebuilt_cfg, seed=report.config["seed"]
    )
    assert render_report(again) == render_report(report)
