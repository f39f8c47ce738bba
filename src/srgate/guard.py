"""Artifact safety filter for super-resolved outputs.

Enhancement can hallucinate structure that was never in the scene. The
guard consumes an artifact probability (from an upstream detector or the
heuristic scorer below), reverts to the low-resolution input when it
exceeds the trigger threshold, and discounts the surviving confidence by
15% (relative by default; an absolute variant is available).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GuardOnNonSR
from .quality import Clip, ssim, temporal_inconsistency
from .records import SRLevel

SSIM_ARTIFACT_CUT = 0.7
PERCEPTUAL_LOSS_CUT = 0.3
DEFAULT_TRIGGER = 0.5
DEFAULT_DISCOUNT = 0.15


@dataclass(frozen=True)
class GuardOutcome:
    used_sr: bool
    final_confidence: float
    p_artifact: float
    triggered: bool


def label_artifact(ssim_vs_hr: float, perceptual_loss: float) -> bool:
    """Artifact labeling rule for SR output versus ground-truth HR."""
    return ssim_vs_hr < SSIM_ARTIFACT_CUT or perceptual_loss > PERCEPTUAL_LOSS_CUT


def apply_guard(
    p_artifact: float,
    level: SRLevel,
    confidence: float,
    threshold: float = DEFAULT_TRIGGER,
    discount: float = DEFAULT_DISCOUNT,
    relative_discount: bool = True,
) -> GuardOutcome:
    """Revert-and-discount policy for one enhanced record.

    Only meaningful when SR was actually used; level NONE raises
    GuardOnNonSR, which also makes double application impossible (a reverted
    outcome is no longer an SR decision). An int outside the levels raises
    ValueError.
    """
    if SRLevel(level) == SRLevel.NONE:
        raise GuardOnNonSR("guard applies only when SR was used")
    triggered = p_artifact > threshold
    if not triggered:
        return GuardOutcome(
            used_sr=True,
            final_confidence=confidence,
            p_artifact=p_artifact,
            triggered=False,
        )
    if relative_discount:
        final = confidence * (1.0 - discount)
    else:
        final = confidence - discount
    final = min(1.0, max(0.0, final))
    return GuardOutcome(
        used_sr=False, final_confidence=final, p_artifact=p_artifact, triggered=True
    )


def artifact_score_heuristic(clip_sr: Clip, clip_lr_upsampled: Clip) -> float:
    """Detector stand-in: the mean of temporal churn and divergence from the
    LR upsample, clamped to [0,1].

    Static, faithful enhancements score 0; flicker or content not present
    in the upsampled LR reference pushes the score toward 1.
    """
    if len(clip_sr) != len(clip_lr_upsampled):
        raise DimensionMismatch(
            f"frame counts differ: {len(clip_sr)} vs {len(clip_lr_upsampled)}"
        )
    if not clip_sr.frames[0].same_shape(clip_lr_upsampled.frames[0]):
        raise DimensionMismatch("clip resolutions differ")
    structural = 1.0 - float(
        np.mean(
            [
                ssim(a, b)
                for a, b in zip(clip_sr.frames, clip_lr_upsampled.frames)
            ]
        )
    )
    score = 0.5 * temporal_inconsistency(clip_sr) + 0.5 * structural
    return min(1.0, max(0.0, score))
