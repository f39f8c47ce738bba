from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srgate.errors import DimensionMismatch, GuardOnNonSR
from srgate.gating import Thresholds, gate
from srgate.guard import apply_guard, artifact_score_heuristic, label_artifact
from srgate.quality import Clip, GrayImage
from srgate.records import SRLevel

T = Thresholds()


def test_label_artifact_rule():
    assert label_artifact(0.65, 0.1) is True     # low structural similarity
    assert label_artifact(0.9, 0.35) is True     # high perceptual loss
    assert label_artifact(0.70, 0.30) is False   # both boundaries are strict


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-1, 1), st.floats(0, 1),
    st.floats(0, 0.5), st.floats(0, 0.5),
)
def test_label_artifact_monotone(ssim_value, loss, ssim_drop, loss_bump):
    if label_artifact(ssim_value, loss):
        assert label_artifact(ssim_value - ssim_drop, loss)
        assert label_artifact(ssim_value, loss + loss_bump)


def test_apply_guard_trigger_discounts_relative():
    d = gate(0.55, 0, T)
    assert d.level == SRLevel.X4
    out = apply_guard(0.6, d.level, 0.8)
    assert out.triggered and not out.used_sr
    assert out.final_confidence == pytest.approx(0.68, abs=1e-12)
    assert out.p_artifact == 0.6


def test_apply_guard_passthrough_below_threshold():
    out = apply_guard(0.4, SRLevel.X2, 0.8)
    assert not out.triggered and out.used_sr
    assert out.final_confidence == 0.8


def test_apply_guard_threshold_is_strict():
    out = apply_guard(0.5, SRLevel.X4, 0.9)
    assert not out.triggered
    assert out.final_confidence == 0.9


def test_apply_guard_rejects_non_sr_decision():
    d = gate(0.95, 0, T)
    assert d.level == SRLevel.NONE
    with pytest.raises(GuardOnNonSR):
        apply_guard(0.9, d.level, 0.9)


def test_apply_guard_absolute_mode():
    out = apply_guard(0.9, SRLevel.X4, 0.8, relative_discount=False)
    assert out.final_confidence == pytest.approx(0.65, abs=1e-12)
    floor = apply_guard(0.9, SRLevel.X4, 0.1, relative_discount=False)
    assert floor.final_confidence == 0.0


@settings(max_examples=80, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
def test_apply_guard_never_increases_confidence(p_artifact, confidence):
    out = apply_guard(p_artifact, SRLevel.X2, confidence)
    assert 0.0 <= out.final_confidence <= confidence


def test_guard_cannot_double_discount():
    out = apply_guard(0.7, SRLevel.X4, 0.8)
    assert out.triggered
    # a reverted outcome no longer carries an SR level, so re-guarding the
    # record means passing NONE, which is rejected
    with pytest.raises(GuardOnNonSR):
        apply_guard(out.p_artifact, SRLevel.NONE, out.final_confidence)


# --- heuristic artifact scorer ----------------------------------------------------------

def _static_clip(rng, frames=4, size=8):
    frame = GrayImage(size, size, rng.random((size, size)))
    return Clip(tuple(frame for _ in range(frames)))


def test_heuristic_zero_for_identical_static_clips():
    rng = np.random.default_rng(0)
    clip = _static_clip(rng)
    assert artifact_score_heuristic(clip, clip) == 0.0


def test_heuristic_flags_flipped_middle_frame():
    rng = np.random.default_rng(1)
    base = _static_clip(rng, frames=3)
    flipped = GrayImage(8, 8, 1.0 - base.frames[1].pixels)
    corrupted = Clip((base.frames[0], flipped, base.frames[2]))
    static_score = artifact_score_heuristic(base, base)
    corrupted_score = artifact_score_heuristic(corrupted, base)
    assert corrupted_score > static_score


def test_heuristic_rejects_mismatched_clips():
    rng = np.random.default_rng(2)
    a = _static_clip(rng, frames=3)
    b = _static_clip(rng, frames=4)
    with pytest.raises(DimensionMismatch):
        artifact_score_heuristic(a, b)
    c = Clip(tuple(GrayImage(4, 4, rng.random((4, 4))) for _ in range(3)))
    with pytest.raises(DimensionMismatch):
        artifact_score_heuristic(a, c)


def test_heuristic_score_stays_in_unit_interval():
    rng = np.random.default_rng(3)
    a = Clip(tuple(GrayImage(8, 8, rng.random((8, 8))) for _ in range(4)))
    b = Clip(tuple(GrayImage(8, 8, rng.random((8, 8))) for _ in range(4)))
    score = artifact_score_heuristic(a, b)
    assert 0.0 <= score <= 1.0
