from __future__ import annotations

import gc
import json
import logging
import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from helpers import make_record, random_records
from srgate.config import ExperimentConfig
from srgate.errors import (
    EmptyInput,
    EmptyLog,
    MalformedRecord,
    MissingProbs,
    MissingTableEntry,
    ProbSumViolation,
)
from srgate.records import (
    CLASSES,
    NUM_CLASSES,
    SRLevel,
    UtilityParams,
    default_delta_acc_table,
    ingest_log,
    make_classes,
    record_arrays,
    record_to_obj,
    subjects_of,
    validate_record,
    write_log,
)
from srgate.simulate import EvalOutcome, sample_stream


def test_taxonomy_has_seven_classes_with_default_critical_set():
    assert len(CLASSES) == 7
    critical = {c.name for c in CLASSES if c.critical}
    assert critical == {"drowsiness", "phone_call", "texting"}
    assert [c.id for c in CLASSES] == list(range(7))


def test_critical_set_configurable_but_never_empty():
    classes = make_classes({"drinking"})
    assert [c.name for c in classes if c.critical] == ["drinking"]
    with pytest.raises(ValueError):
        make_classes(set())
    with pytest.raises(ValueError):
        make_classes({"nonexistent"})


def test_ingest_preserves_file_order(tmp_path):
    path = tmp_path / "preds.log"
    recs = [make_record(clip="a", subject="S01"), make_record(clip="b", subject="S02")]
    write_log(recs, str(path))
    loaded = ingest_log(str(path))
    assert [r.clip_id for r in loaded] == ["a", "b"]
    assert loaded == recs


def test_ingest_rejects_bad_prob_sum(tmp_path):
    path = tmp_path / "preds.log"
    rec = make_record()
    obj = record_to_obj(rec)
    obj["probs"] = [0.5, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05]
    obj["confidence"] = 0.5
    import json

    path.write_text(json.dumps(record_to_obj(rec)) + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(ProbSumViolation) as exc:
        ingest_log(str(path))
    assert exc.value.line_no == 2


def test_ingest_counts_24_subjects(tmp_path):
    path = tmp_path / "preds.log"
    recs = [
        make_record(subject=f"S{i:02d}", clip=f"c{i}_{j}")
        for i in range(1, 25)
        for j in range(3)
    ]
    write_log(recs, str(path))
    assert len(subjects_of(ingest_log(str(path)))) == 24


def test_ingest_empty_log_raises(tmp_path):
    path = tmp_path / "empty.log"
    path.write_text("\n\n")
    with pytest.raises(EmptyLog):
        ingest_log(str(path))


def test_ingest_unknown_keys_strict_vs_lenient(tmp_path, caplog):
    import json

    path = tmp_path / "preds.log"
    obj = record_to_obj(make_record())
    obj["mystery"] = 1
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(MalformedRecord):
        ingest_log(str(path), strict=True)
    assert len(ingest_log(str(path), strict=False)) == 1


def test_ingest_invalid_json_names_line(tmp_path):
    path = tmp_path / "preds.log"
    path.write_text("{not json}\n")
    with pytest.raises(MalformedRecord) as exc:
        ingest_log(str(path))
    assert exc.value.line_no == 1


def test_validate_one_hot_record_is_ok():
    r = make_record(confidence=1.0, predicted=0, true_class=0)
    assert r.probs[0] == 1.0
    assert validate_record(r) == []


def test_validate_confidence_must_match_top1():
    r = make_record(confidence=0.7)
    bad = replace(r, confidence=0.9)
    violations = validate_record(bad)
    assert any(v.field == "confidence" for v in violations)


def test_validate_criticality_domain():
    r = make_record()
    bad = replace(r, criticality=2)
    violations = validate_record(bad)
    assert any(v.field == "criticality" and "{0,1}" in v.rule for v in violations)


@pytest.mark.parametrize("loss", [float("nan"), float("inf"), -0.1])
def test_validate_perceptual_loss_finite_and_nonnegative(loss):
    violations = validate_record(make_record(perceptual_loss=loss))
    assert [v.field for v in violations] == ["perceptual_loss"]


def test_roundtrip_preserves_fields(tmp_path):
    rng = np.random.default_rng(11)
    recs = random_records(rng, 60)
    recs[0] = make_record(artifact_score=0.4, perceptual_loss=0.2, ssim_vs_hr=0.9, clip="opt")
    path = tmp_path / "round.log"
    write_log(recs, str(path))
    loaded = ingest_log(str(path))
    assert len(loaded) == len(recs)
    for a, b in zip(recs, loaded):
        assert a.subject_id == b.subject_id and a.clip_id == b.clip_id
        assert a.true_class == b.true_class and a.criticality == b.criticality
        assert math.isclose(a.confidence, b.confidence, abs_tol=1e-12)
        for pa, pb in zip(a.probs, b.probs):
            assert math.isclose(pa, pb, abs_tol=1e-12)
        assert a.artifact_score == b.artifact_score
        assert a.perceptual_loss == b.perceptual_loss
        assert a.ssim_vs_hr == b.ssim_vs_hr


def test_every_ingested_record_validates(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "preds.log"
    write_log(random_records(rng, 40), str(path))
    for r in ingest_log(str(path)):
        assert validate_record(r) == []


def test_record_arrays_match_record_properties():
    recs = random_records(np.random.default_rng(4), 40)
    # a tie between classes 0 and 1: the first maximum is the prediction
    tie_probs = (0.4, 0.4, 0.2, 0.0, 0.0, 0.0, 0.0)
    recs.append(replace(make_record(true_class=1), probs=tie_probs, confidence=0.4))
    a = record_arrays(recs)
    assert a.pred.tolist() == [r.predicted_class for r in recs]
    assert a.correct.tolist() == [r.correct for r in recs]
    assert a.pred[-1] == 0 and not a.correct[-1]
    assert a.confidence.tolist() == [r.confidence for r in recs]
    assert a.probs.tolist() == [list(r.probs) for r in recs]
    dtypes = (a.confidence.dtype, a.probs.dtype, a.true_class.dtype, a.pred.dtype, a.correct.dtype)
    assert dtypes == (np.float64, np.float64, np.int64, np.int64, np.bool_)
    with pytest.raises(EmptyInput):
        record_arrays([])
    with pytest.raises(MissingProbs):
        record_arrays([replace(recs[0], probs=())])


def test_utility_params_defaults_and_table():
    u = UtilityParams()
    assert u.lam == 0.3
    assert u.w_crit == 2.5
    assert u.w_normal == 1.0
    for cid in range(NUM_CLASSES):
        assert u.gain(cid, SRLevel.NONE) == 0.0
    # 4x column carries the per-behavior enhancement gains
    assert u.gain(6, SRLevel.X4) == pytest.approx(0.263, abs=1e-12)
    assert u.gain(0, SRLevel.X4) == pytest.approx(0.064, abs=1e-12)
    assert 0.0 < u.gain(6, SRLevel.X2) < u.gain(6, SRLevel.X4)


def test_utility_params_rejects_incomplete_table():
    table = default_delta_acc_table()
    del table[(3, SRLevel.X2)]
    with pytest.raises(MissingTableEntry):
        UtilityParams(delta_acc_table=table)


def test_utility_weight_uses_criticality_flag():
    u = UtilityParams()
    assert u.weight(1) == 2.5
    assert u.weight(0) == 1.0


def _stream_log(tmp_path, n_per_class, n_subjects, **optional):
    recs = sample_stream(ExperimentConfig().scenario.model, n_per_class, n_subjects, seed=5)
    path = tmp_path / "stream.log"
    write_log([replace(r, **optional) for r in recs], str(path))
    return str(path)


def test_ingest_reads_utf8_text_and_every_newline_convention(tmp_path):
    lines = [json.dumps(record_to_obj(make_record(subject=s)), ensure_ascii=False)
             for s in ("Zoë", "S02", "Zoë")]
    path = tmp_path / "preds.log"
    path.write_bytes("\r".join(lines).encode("utf-8") + b"\r\n")
    assert [r.subject_id for r in ingest_log(str(path))] == ["Zoë", "S02", "Zoë"]


def test_lenient_ingest_warns_once_for_all_unknown_keys(tmp_path, caplog):
    objs = [record_to_obj(make_record(clip=f"c{i}")) for i in range(3)]
    objs[1]["mystery"] = 1
    objs[2].update(zeta=2, mystery=1)
    path = tmp_path / "preds.log"
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))
    with caplog.at_level(logging.WARNING, logger="srgate.records"):
        assert len(ingest_log(str(path))) == 3
    assert [r.getMessage() for r in caplog.records] == [
        "ignoring unknown keys ['mystery', 'zeta'] on 2 line(s), first on line 2"
    ]


def test_ingest_shares_repeated_probabilities_and_subject_ids(tmp_path):
    got = ingest_log(_stream_log(tmp_path, 20, 4))
    for r in got:
        nonzero = [p for p in r.probs if p]
        assert len({id(p) for p in nonzero}) == len(set(nonzero))
        assert r.confidence is r.probs[r.predicted_class]
    ids = {}
    for r in got:
        ids.setdefault(r.subject_id, set()).add(id(r.subject_id))
    assert len(ids) == 4 and all(len(one) == 1 for one in ids.values())


def test_ingest_keeps_the_sign_of_each_zero(tmp_path):
    obj = record_to_obj(make_record(confidence=0.5))
    obj["probs"] = [0.5, -0.0, 0.5, 0.0, -0.0, 0.0, 0.0]
    path = tmp_path / "preds.log"
    path.write_text(json.dumps(obj) + "\n")
    [r] = ingest_log(str(path))
    assert [math.copysign(1.0, p) for p in r.probs] == [1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0]
    assert r.probs[0] is r.probs[2] is r.confidence


@pytest.mark.parametrize(
    "value",
    [make_record(confidence=0.9), EvalOutcome(None, 0.9, SRLevel.NONE, False, False, None)],
    ids=["PredictionRecord", "EvalOutcome"],
)
def test_types_kept_per_record_are_slotted_and_frozen(value):
    assert not hasattr(value, "__dict__")
    with pytest.raises(FrozenInstanceError):
        value.confidence = 0.5
    changed = replace(value, confidence=0.5)
    assert (changed.confidence, value.confidence) == (0.5, 0.9)


def test_ingest_keeps_few_live_bytes_per_record(tmp_path):
    """Live bytes per ingested record, optional fields present: 698 before
    the records were slotted and shared their repeated values, 455 after
    (Python 3.11, 64-bit)."""
    path = _stream_log(tmp_path, 715, 24, artifact_score=0.3, perceptual_loss=0.5, ssim_vs_hr=0.9)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = ingest_log(path)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(got) == 5005
    assert live / len(got) < 575
