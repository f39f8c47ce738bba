"""Scenario and experiment configuration, with dict round-trips.

Every knob of a run lives in one of these dataclasses. `experiment_to_dict`
and `experiment_from_dict` convert them losslessly through the `schema`
codec, so a run's effective-config echo can be fed back in to reproduce it
byte-for-byte.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

from . import schema
from .costs import CostProfile
from .errors import InvalidModelParams
from .gating import AdaptiveTauConfig, Thresholds
from .guard import DEFAULT_DISCOUNT, DEFAULT_TRIGGER
from .records import (
    CLASS_NAMES,
    NUM_CLASSES,
    SRLevel,
    UtilityParams,
    default_delta_acc_table,
)

POLICIES = ("fixed_none", "fixed_4x", "gate", "gate_adaptive")

# reliability bins and CI resamples a run accepts; far more would not fit in memory
MAX_BINS, MAX_RESAMPLES = 1000, 100_000

# A 7-way classifier's top-1 probability cannot fall below 1/7; confidence
# draws are truncated accordingly.
CONF_FLOOR = 1.0 / NUM_CLASSES


@dataclass(frozen=True)
class TruncatedNormalSpec:
    """Normal(mu, sigma) rejection-sampled into the confidence support. With
    mu in it and sigma <= 10, at least about 3.4% of the mass lies in it, so
    a draw takes about 30 tries at most on average."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not CONF_FLOOR <= self.mu <= 1.0:
            raise InvalidModelParams(f"mu {self.mu} outside [1/{NUM_CLASSES},1]")
        if not 0.0 < self.sigma <= 10.0:
            raise InvalidModelParams(f"sigma {self.sigma} outside (0,10]")


@dataclass(frozen=True)
class MixtureSpec:
    """Two-component mixture (bimodal confidence); a component may itself
    be a mixture."""

    weight_first: float
    first: Distribution
    second: Distribution

    def __post_init__(self):
        if not 0.0 <= self.weight_first <= 1.0:
            raise InvalidModelParams(f"mixture weight {self.weight_first} outside [0,1]")


Distribution = TruncatedNormalSpec | MixtureSpec

_PHONE_USE_BIMODAL = MixtureSpec(
    0.5, TruncatedNormalSpec(0.55, 0.10), TruncatedNormalSpec(0.85, 0.08)
)

# Confidence behavior per class: consistent high confidence for normal
# driving, bimodal for phone-related behaviors (easy vs occluded poses),
# widest spread for drowsiness.
DEFAULT_DISTRIBUTIONS: tuple[Distribution, ...] = (
    TruncatedNormalSpec(0.87, 0.12),  # normal_driving
    _PHONE_USE_BIMODAL,               # texting
    _PHONE_USE_BIMODAL,               # phone_call
    TruncatedNormalSpec(0.78, 0.15),  # reaching_behind
    TruncatedNormalSpec(0.80, 0.14),  # adjusting_radio
    TruncatedNormalSpec(0.79, 0.15),  # drinking
    TruncatedNormalSpec(0.65, 0.23),  # drowsiness
)


@dataclass(frozen=True)
class BehaviorConfidenceModel:
    """Per-class confidence distribution plus the correctness link.

    The link is calibrated by default (P(correct | p) = p); a nonzero
    miscalibration_delta shifts accuracy relative to confidence.
    """

    distributions: tuple[Distribution, ...] = field(
        default=DEFAULT_DISTRIBUTIONS, metadata={"keyed_by": (CLASS_NAMES,)}
    )
    miscalibration_delta: float = 0.0

    def __post_init__(self):
        if len(self.distributions) != NUM_CLASSES:
            raise InvalidModelParams(
                f"need {NUM_CLASSES} class distributions, got {len(self.distributions)}"
            )

    def p_correct(self, confidence: float) -> float:
        return min(1.0, max(0.0, confidence + self.miscalibration_delta))


# Per-behavior top-1 accuracy without enhancement, used to turn the
# accuracy-gain table into odds multipliers for the synthetic SR effect.
BASE_LR_ACCURACY = (0.357, 0.224, 0.203, 0.189, 0.197, 0.221, 0.147)


def _odds(q: float) -> float:
    return q / (1.0 - q)


def _uplifts(level: SRLevel) -> tuple[float, ...]:
    table = default_delta_acc_table()
    out = []
    for cid in range(NUM_CLASSES):
        base = BASE_LR_ACCURACY[cid]
        gained = base + table[(cid, level)]
        out.append(_odds(gained) / _odds(base))
    return tuple(out)


@dataclass(frozen=True)
class SrEffectConfig:
    """Synthetic model of what enhancement does to a prediction.

    Uplift multiplies the odds of a correct classification by a per-class
    factor (keyed by the true behavior). Hallucination corrupts a random
    subset of enhanced records: the prediction flips to a critical target
    class with inflated confidence, and the artifact score lands in the
    hallucinated range instead of the clean range. Scores of clean and
    hallucinated records are separable by default, which is what makes the
    guard's no-new-false-positives property hold.
    """

    uplift_enabled: bool = True
    uplift_x2: tuple[float, ...] = field(default_factory=lambda: _uplifts(SRLevel.X2))
    uplift_x4: tuple[float, ...] = field(default_factory=lambda: _uplifts(SRLevel.X4))
    hallucination_enabled: bool = True
    hallucination_rate_x2: float = 0.15
    hallucination_rate_x4: float = 0.25
    hallucination_targets: tuple[int, ...] = (6,)  # drowsiness
    inflation_range: tuple[float, float] = (0.10, 0.30)
    clean_score_range: tuple[float, float] = (0.02, 0.45)
    hallucinated_score_range: tuple[float, float] = (0.55, 0.95)

    def __post_init__(self):
        for name in ("uplift_x2", "uplift_x4"):
            values = getattr(self, name)
            if len(values) != NUM_CLASSES or any(v < 1.0 for v in values):
                raise InvalidModelParams(f"{name} must hold {NUM_CLASSES} factors >= 1")
        for name in ("hallucination_rate_x2", "hallucination_rate_x4"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise InvalidModelParams(f"{name} must lie in [0,1]")
        for name in ("inflation_range", "clean_score_range", "hallucinated_score_range"):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi <= 1.0:
                raise InvalidModelParams(f"{name} must hold 0 <= lo <= hi <= 1, got {[lo, hi]}")
        if not self.hallucination_targets:
            raise InvalidModelParams("need at least one hallucination target class")
        if not all(0 <= t < NUM_CLASSES for t in self.hallucination_targets):
            raise InvalidModelParams(
                f"hallucination_targets must be class ids in 0..{NUM_CLASSES - 1}"
            )

    def hallucination_rate(self, level: SRLevel) -> float:
        if not self.hallucination_enabled:
            return 0.0
        return self.hallucination_rate_x2 if level == SRLevel.X2 else self.hallucination_rate_x4

    def uplift(self, level: SRLevel, class_id: int) -> float:
        if not self.uplift_enabled:
            return 1.0
        values = self.uplift_x2 if level == SRLevel.X2 else self.uplift_x4
        return values[class_id]


@dataclass(frozen=True)
class ScenarioConfig:
    model: BehaviorConfidenceModel = field(default_factory=BehaviorConfidenceModel)
    sr_effect: SrEffectConfig = field(default_factory=SrEffectConfig)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a policy run depends on besides the records and the seed."""

    thresholds: Thresholds = field(default_factory=Thresholds)
    adaptive: AdaptiveTauConfig = field(default_factory=AdaptiveTauConfig)
    utility: UtilityParams = field(default_factory=UtilityParams)
    costs: CostProfile = field(default_factory=CostProfile)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    guard_enabled: bool = True
    guard_threshold: float = DEFAULT_TRIGGER
    guard_discount: float = DEFAULT_DISCOUNT
    guard_relative: bool = True
    bins: int = 10
    resamples: int = 1000
    ci_level: float = 0.95
    critical_fp_conf_cut: float = 0.5

    def __post_init__(self):
        # these arrive from flags and config files; bool is an int subclass
        def number(value, kind) -> bool:
            return isinstance(value, kind) and not isinstance(value, bool)

        if not (number(self.bins, numbers.Integral) and 1 <= self.bins <= MAX_BINS):
            raise ValueError(f"bins must be an integer in [1, {MAX_BINS}], got {self.bins!r}")
        if not (number(self.resamples, numbers.Integral) and 0 <= self.resamples <= MAX_RESAMPLES):
            raise ValueError(
                f"resamples must be an integer in [0, {MAX_RESAMPLES}], got {self.resamples!r}"
            )
        if not (number(self.ci_level, numbers.Real) and 0.0 < self.ci_level < 1.0):
            raise ValueError(f"ci_level must be a number in (0, 1), got {self.ci_level!r}")
        for name in ("guard_threshold", "guard_discount", "critical_fp_conf_cut"):
            value = getattr(self, name)
            if not (number(value, numbers.Real) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")

    def with_overrides(self, **kw) -> "ExperimentConfig":
        return replace(self, **kw)


# --- dict round-trips -----------------------------------------------------------

def experiment_to_dict(c: ExperimentConfig) -> dict:
    return schema.encode(c)


def experiment_from_dict(d: Mapping) -> ExperimentConfig:
    """The ExperimentConfig a whole config spells. Keys other than its
    fields are a run's flat keys (seed, policy, ...) and are skipped here."""
    names = [f.name for f in fields(ExperimentConfig)]
    return schema.decode(ExperimentConfig, {k: d[k] for k in names if k in d}, "")
