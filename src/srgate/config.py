"""Scenario and experiment configuration, with dict round-trips.

Every knob of a run lives in one of these dataclasses. `*_to_dict` /
`*_from_dict` convert losslessly so a run's effective-config echo can be
fed back in to reproduce it byte-for-byte.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

from .costs import CostProfile, LevelCost
from .errors import InvalidModelParams
from .gating import AdaptiveTauConfig, Thresholds
from .records import (
    CLASS_NAMES,
    NUM_CLASSES,
    SRLevel,
    UtilityParams,
    class_by_name,
    default_delta_acc_table,
)

POLICIES = ("fixed_none", "fixed_4x", "gate", "gate_adaptive")

# A 7-way classifier's top-1 probability cannot fall below 1/7; confidence
# draws are truncated accordingly.
CONF_FLOOR = 1.0 / NUM_CLASSES


@dataclass(frozen=True)
class TruncatedNormalSpec:
    """Normal(mu, sigma) rejection-sampled into the confidence support."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0:
            raise InvalidModelParams(f"mu {self.mu} outside [0,1]")
        if not 0.0 < self.sigma <= 10.0:
            raise InvalidModelParams(f"sigma {self.sigma} outside (0,10]")


@dataclass(frozen=True)
class MixtureSpec:
    """Two-component mixture of truncated normals (bimodal confidence)."""

    weight_first: float
    first: TruncatedNormalSpec
    second: TruncatedNormalSpec

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

    distributions: tuple[Distribution, ...] = DEFAULT_DISTRIBUTIONS
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
        if not self.hallucination_targets:
            raise InvalidModelParams("need at least one hallucination target class")

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
    guard_threshold: float = 0.5
    guard_discount: float = 0.15
    guard_relative: bool = True
    bins: int = 10
    resamples: int = 1000
    ci_level: float = 0.95
    critical_fp_conf_cut: float = 0.5

    def __post_init__(self):
        # these arrive from flags and config files; bool is an int subclass
        def number(value, kind) -> bool:
            return isinstance(value, kind) and not isinstance(value, bool)

        if not (number(self.bins, numbers.Integral) and self.bins >= 1):
            raise ValueError(f"bins must be an integer >= 1, got {self.bins!r}")
        if not (number(self.resamples, numbers.Integral) and self.resamples >= 0):
            raise ValueError(f"resamples must be an integer >= 0, got {self.resamples!r}")
        if not (number(self.ci_level, numbers.Real) and 0.0 < self.ci_level < 1.0):
            raise ValueError(f"ci_level must be a number in (0, 1), got {self.ci_level!r}")

    def with_overrides(self, **kw) -> "ExperimentConfig":
        return replace(self, **kw)


# --- dict round-trips -----------------------------------------------------------

def require_bool(value, key: str) -> bool:
    """`value` itself if it is a bool; anything else raises ValueError naming
    `key`, since truthiness would read a string such as "false" as on."""
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def thresholds_to_dict(t: Thresholds) -> dict:
    return {"tau_low": t.tau_low, "tau_high": t.tau_high, "critical_cut": t.critical_cut}


def thresholds_from_dict(d: Mapping) -> Thresholds:
    return Thresholds(**d)


def adaptive_to_dict(a: AdaptiveTauConfig) -> dict:
    return {
        "tau_base": a.tau_base,
        "alpha_blur": a.alpha_blur,
        "alpha_light": a.alpha_light,
        "clamp": list(a.clamp),
        "blur_ref": a.blur_ref,
    }


def adaptive_from_dict(d: Mapping) -> AdaptiveTauConfig:
    d = dict(d)
    d["clamp"] = tuple(d.get("clamp", (0.0, 1.0)))
    return AdaptiveTauConfig(**d)


def utility_to_dict(u: UtilityParams) -> dict:
    table = {
        name: {
            level.label: u.delta_acc_table[(cid, level)] for level in SRLevel
        }
        for cid, name in enumerate(CLASS_NAMES)
    }
    return {
        "lambda": u.lam,
        "w_crit": u.w_crit,
        "w_normal": u.w_normal,
        "delta_acc_table": table,
    }


def utility_from_dict(d: Mapping) -> UtilityParams:
    table = {}
    for name, by_level in d["delta_acc_table"].items():
        cid = class_by_name(name).id
        for level in SRLevel:
            table[(cid, level)] = float(by_level[level.label])
    return UtilityParams(
        lam=float(d["lambda"]),
        w_crit=float(d["w_crit"]),
        w_normal=float(d.get("w_normal", 1.0)),
        delta_acc_table=table,
    )


def costs_to_dict(c: CostProfile) -> dict:
    def entry(e: LevelCost) -> dict:
        return {"gflops": e.gflops, "latency_ms": e.latency_ms, "power_w": e.power_w}

    return {
        "none": entry(c.none),
        "x2": entry(c.x2),
        "x4": entry(c.x4),
        "utility_dimension": c.utility_dimension,
    }


def costs_from_dict(d: Mapping) -> CostProfile:
    return CostProfile(
        none=LevelCost(**d["none"]),
        x2=LevelCost(**d["x2"]),
        x4=LevelCost(**d["x4"]),
        utility_dimension=d.get("utility_dimension", "gflops"),
    )


def _distribution_to_dict(dist: Distribution) -> dict:
    if isinstance(dist, TruncatedNormalSpec):
        return {"type": "truncated_normal", "mu": dist.mu, "sigma": dist.sigma}
    return {
        "type": "mixture",
        "weight_first": dist.weight_first,
        "first": _distribution_to_dict(dist.first),
        "second": _distribution_to_dict(dist.second),
    }


def _distribution_from_dict(d: Mapping) -> Distribution:
    if d["type"] == "truncated_normal":
        return TruncatedNormalSpec(mu=float(d["mu"]), sigma=float(d["sigma"]))
    if d["type"] == "mixture":
        return MixtureSpec(
            weight_first=float(d["weight_first"]),
            first=_distribution_from_dict(d["first"]),
            second=_distribution_from_dict(d["second"]),
        )
    raise InvalidModelParams(f"unknown distribution type {d['type']!r}")


def model_to_dict(m: BehaviorConfidenceModel) -> dict:
    return {
        "distributions": {
            name: _distribution_to_dict(m.distributions[cid])
            for cid, name in enumerate(CLASS_NAMES)
        },
        "miscalibration_delta": m.miscalibration_delta,
    }


def model_from_dict(d: Mapping) -> BehaviorConfidenceModel:
    dists = tuple(
        _distribution_from_dict(d["distributions"][name]) for name in CLASS_NAMES
    )
    return BehaviorConfidenceModel(
        distributions=dists,
        miscalibration_delta=float(d.get("miscalibration_delta", 0.0)),
    )


def sr_effect_to_dict(s: SrEffectConfig) -> dict:
    return {
        "uplift_enabled": s.uplift_enabled,
        "uplift_x2": list(s.uplift_x2),
        "uplift_x4": list(s.uplift_x4),
        "hallucination_enabled": s.hallucination_enabled,
        "hallucination_rate_x2": s.hallucination_rate_x2,
        "hallucination_rate_x4": s.hallucination_rate_x4,
        "hallucination_targets": list(s.hallucination_targets),
        "inflation_range": list(s.inflation_range),
        "clean_score_range": list(s.clean_score_range),
        "hallucinated_score_range": list(s.hallucinated_score_range),
    }


def sr_effect_from_dict(d: Mapping) -> SrEffectConfig:
    return SrEffectConfig(
        uplift_enabled=require_bool(d["uplift_enabled"], "uplift_enabled"),
        uplift_x2=tuple(float(v) for v in d["uplift_x2"]),
        uplift_x4=tuple(float(v) for v in d["uplift_x4"]),
        hallucination_enabled=require_bool(d["hallucination_enabled"], "hallucination_enabled"),
        hallucination_rate_x2=float(d["hallucination_rate_x2"]),
        hallucination_rate_x4=float(d["hallucination_rate_x4"]),
        hallucination_targets=tuple(int(v) for v in d["hallucination_targets"]),
        inflation_range=tuple(float(v) for v in d["inflation_range"]),
        clean_score_range=tuple(float(v) for v in d["clean_score_range"]),
        hallucinated_score_range=tuple(float(v) for v in d["hallucinated_score_range"]),
    )


def scenario_to_dict(s: ScenarioConfig) -> dict:
    return {"model": model_to_dict(s.model), "sr_effect": sr_effect_to_dict(s.sr_effect)}


def scenario_from_dict(d: Mapping) -> ScenarioConfig:
    return ScenarioConfig(
        model=model_from_dict(d["model"]),
        sr_effect=sr_effect_from_dict(d["sr_effect"]),
    )


def experiment_to_dict(c: ExperimentConfig) -> dict:
    return {
        "thresholds": thresholds_to_dict(c.thresholds),
        "adaptive": adaptive_to_dict(c.adaptive),
        "utility": utility_to_dict(c.utility),
        "costs": costs_to_dict(c.costs),
        "scenario": scenario_to_dict(c.scenario),
        "guard_enabled": c.guard_enabled,
        "guard_threshold": c.guard_threshold,
        "guard_discount": c.guard_discount,
        "guard_relative": c.guard_relative,
        "bins": c.bins,
        "resamples": c.resamples,
        "ci_level": c.ci_level,
        "critical_fp_conf_cut": c.critical_fp_conf_cut,
    }


def experiment_from_dict(d: Mapping) -> ExperimentConfig:
    missing = [f.name for f in fields(ExperimentConfig) if f.name not in d]
    if missing:
        raise ValueError(
            f"experiment config lacks keys {missing}; "
            "an effective_config.json holds them all"
        )
    return ExperimentConfig(
        thresholds=thresholds_from_dict(d["thresholds"]),
        adaptive=adaptive_from_dict(d["adaptive"]),
        utility=utility_from_dict(d["utility"]),
        costs=costs_from_dict(d["costs"]),
        scenario=scenario_from_dict(d["scenario"]),
        guard_enabled=require_bool(d["guard_enabled"], "guard_enabled"),
        guard_threshold=float(d["guard_threshold"]),
        guard_discount=float(d["guard_discount"]),
        guard_relative=require_bool(d["guard_relative"], "guard_relative"),
        bins=d["bins"],
        resamples=d["resamples"],
        ci_level=d["ci_level"],
        critical_fp_conf_cut=float(d["critical_fp_conf_cut"]),
    )
