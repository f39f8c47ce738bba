"""Utility-based SR-level selection and threshold analysis.

The policy maps (confidence p, criticality c) to an enhancement level:
skip when confident and non-critical, 2x in the mid band, 4x when unsure
or when a critical behavior is predicted below the critical cut. The 4x
conditions take precedence (safety first), and the corner the piecewise
policy leaves open (critical but very confident) resolves to no
enhancement tagged `uncovered_default` so audits can find those records.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .costs import CostProfile
from .errors import EmptyInput
from .records import (
    GateDecision,
    GateReason,
    PredictionRecord,
    RecordArrays,
    SRLevel,
    UtilityParams,
    record_arrays,
)

_LEVELS = (SRLevel.NONE, SRLevel.X2, SRLevel.X4)


@dataclass(frozen=True)
class Thresholds:
    tau_low: float = 0.60
    tau_high: float = 0.85
    critical_cut: float = 0.70

    def __post_init__(self):
        if not 0.0 <= self.tau_low < self.tau_high <= 1.0:
            raise ValueError(
                f"need 0 <= tau_low < tau_high <= 1, got ({self.tau_low}, {self.tau_high})"
            )
        if not 0.0 <= self.critical_cut <= 1.0:
            raise ValueError("critical_cut must lie in [0,1]")


@dataclass(frozen=True)
class AdaptiveTauConfig:
    """Quality-conditioned adjustment of the high-confidence threshold.

    Signed defaults raise the threshold on degraded imagery (blurry or
    dark frames trigger more enhancement). blur_ref bounds the blur term:
    raw Laplacian variance is divided by blur_ref and clamped at 1.
    """

    tau_base: float = 0.85
    alpha_blur: float = 0.05
    alpha_light: float = -0.05
    clamp: tuple[float, float] = (0.0, 1.0)
    blur_ref: float = 0.05

    def __post_init__(self):
        lo, hi = self.clamp
        if lo > hi:
            raise ValueError("clamp bounds out of order")
        if self.blur_ref <= 0:
            raise ValueError("blur_ref must be positive")


def expected_utility(delta_acc: float, w: float, cost: float, lam: float) -> float:
    """Expected utility of an enhancement: weighted accuracy gain minus
    lam-scaled compute cost."""
    return delta_acc * w - lam * cost


def delta_acc_estimate(
    params: UtilityParams, class_id: int, level: SRLevel, p: float
) -> float:
    """Expected accuracy improvement: the per-class gain shrinks as
    confidence rises (nothing left to fix at p=1)."""
    if level == SRLevel.NONE:
        return 0.0
    return params.gain(class_id, level) * (1.0 - p)


def normalize_blur(blur: float, blur_ref: float) -> float:
    """Map raw Laplacian variance onto [0,1] relative to blur_ref."""
    return min(blur / blur_ref, 1.0)


def adaptive_tau(cfg: AdaptiveTauConfig, blur_norm: float, light: float) -> float:
    value = cfg.tau_base + cfg.alpha_blur * blur_norm + cfg.alpha_light * light
    lo, hi = cfg.clamp
    return min(hi, max(lo, value))


def _gate_scalar(
    p: float, c: int, tau_low: float, tau_high: float, critical_cut: float
) -> tuple[SRLevel, GateReason]:
    if p <= tau_low:
        return SRLevel.X4, GateReason.LOW_CONF_4X
    if c == 1 and p < critical_cut:
        return SRLevel.X4, GateReason.CRITICAL_4X
    if p > tau_high:
        if c == 0:
            return SRLevel.NONE, GateReason.HIGH_CONF_SKIP
        return SRLevel.NONE, GateReason.UNCOVERED_DEFAULT
    return SRLevel.X2, GateReason.MID_CONF_2X


def gate(p: float, c: int, t: Thresholds) -> GateDecision:
    """Apply the threshold policy to one record.

    Utility audit entries are zero here; use gate_adaptive (or
    utilities_by_level) when the expected-utility evidence is wanted.
    """
    level, reason = _gate_scalar(p, c, t.tau_low, t.tau_high, t.critical_cut)
    return GateDecision(level=level, tau_used=t.tau_high, utility_by_level=(0.0, 0.0, 0.0), reason=reason)


def utilities_by_level(
    class_id: int, p: float, c: int, params: UtilityParams, costs: CostProfile
) -> tuple[float, float, float]:
    """Per-level expected utility for the audit trail (NONE is always 0).

    Equal, bit for bit, to ``expected_utility(delta_acc_estimate(...),
    params.weight(c), costs.utility_cost(level), params.lam)`` per level,
    with the gains and costs read from their cached tables.
    """
    w = params.weight(c)
    lam = params.lam
    _, g2, g4 = params.gain_table[class_id]
    c0, c2, c4 = costs.utility_costs()
    q = 1.0 - p
    return (
        expected_utility(0.0, w, c0, lam),
        expected_utility(g2 * q, w, c2, lam),
        expected_utility(g4 * q, w, c4, lam),
    )


def gate_adaptive(
    r: PredictionRecord,
    t: Thresholds,
    cfg: AdaptiveTauConfig,
    params: UtilityParams,
    costs: CostProfile,
) -> GateDecision:
    """Threshold gate with the quality-adaptive high threshold and a filled
    utility audit trail."""
    tau_eff = adaptive_tau(cfg, normalize_blur(r.blur, cfg.blur_ref), r.lighting)
    level, reason = _gate_scalar(
        r.confidence, r.criticality, t.tau_low, tau_eff, t.critical_cut
    )
    utils = utilities_by_level(r.predicted_class, r.confidence, r.criticality, params, costs)
    return GateDecision(level=level, tau_used=tau_eff, utility_by_level=utils, reason=reason)


# --- realized-utility objective over threshold grids --------------------------

# the two scorings of the accuracy-gain term (see utility_matrix)
OBJECTIVES = ("outcome", "heuristic")

def utility_matrix(
    records: Sequence[PredictionRecord] | RecordArrays,
    params: UtilityParams,
    costs: CostProfile,
    objective: str = "outcome",
) -> np.ndarray:
    """(n, 3) matrix of realized per-record utility at each level.

    records may also be given as their ``record_arrays``, so a caller that
    already holds the arrays does not convert the records twice.
    objective='outcome' scores the accuracy-gain term by the record's
    realized error (labels are known here); 'heuristic' falls back to the
    1-p expectation for label-free logs.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    a = records if isinstance(records, RecordArrays) else record_arrays(records)
    factor = (1.0 - a.correct.astype(np.float64)) if objective == "outcome" else 1.0 - a.confidence
    w = np.where(a.criticality == 1, params.w_crit, params.w_normal)
    gain_table = np.array(params.gain_table, dtype=np.float64)
    cost_norm = np.array(costs.utility_costs(), dtype=np.float64)
    return gain_table[a.pred] * (factor * w)[:, None] - params.lam * cost_norm[None, :]


@dataclass(frozen=True)
class SurfacePoint:
    tau_low: float
    tau_high: float
    mean_utility: float


@dataclass(frozen=True)
class OptimizeResult:
    tau_low: float
    tau_high: float
    mean_utility: float
    surface: tuple[SurfacePoint, ...]


def threshold_grid(grid_step: float) -> list[float]:
    """Multiples of grid_step inside [0,1]."""
    count = int(math.floor(1.0 / grid_step + 1e-9))
    return [i * grid_step for i in range(count + 1)]


def optimize_thresholds(
    records: Sequence[PredictionRecord],
    params: UtilityParams,
    costs: CostProfile,
    grid_step: float = 0.05,
    critical_cut: float = 0.70,
    objective: str = "outcome",
) -> OptimizeResult:
    """Exhaustive grid search maximizing mean realized utility.

    The surface is piecewise-constant in the thresholds, so the grid search
    is exact at grid resolution. Ties break toward larger tau_high, then
    larger tau_low.
    """
    if not records:
        raise EmptyInput("no records")
    if not 0.0 < grid_step <= 0.25:
        raise ValueError("grid_step must lie in (0, 0.25]")
    grid = np.array(threshold_grid(grid_step))
    # every pair lo < hi, in the order of a loop over lo, then hi
    lo_idx, hi_idx = np.triu_indices(grid.size, k=1)
    lo_arr, hi_arr = grid[lo_idx], grid[hi_idx]
    a = record_arrays(records)
    util = utility_matrix(a, params, costs, objective)
    means, _ = kernels.utility_surface(
        a.confidence, a.criticality, util, lo_arr, hi_arr, critical_cut
    )
    surface = tuple(
        map(SurfacePoint, lo_arr.tolist(), hi_arr.tolist(), means.tolist())
    )
    best = surface[np.lexsort((lo_arr, hi_arr, means))[-1]]
    return OptimizeResult(best.tau_low, best.tau_high, best.mean_utility, surface)


MAX_SWEEP_STEPS = 1000  # the sweep evaluates steps**2 threshold pairs


def check_sweep_settings(rel_range, steps, objective: str) -> None:
    """Raise ValueError naming the first sweep setting that is unusable."""
    # all three may come from a config file; bool is an int subclass
    if isinstance(rel_range, bool) or not (
        isinstance(rel_range, numbers.Real) and 0.0 <= rel_range < 1.0
    ):
        raise ValueError(f"rel_range must be a number in [0, 1), got {rel_range!r}")
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if rel_range != 0.0 and not 2 <= steps <= MAX_SWEEP_STEPS:
        raise ValueError(f"steps must lie in [2, {MAX_SWEEP_STEPS}], got {steps}")
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")


@dataclass(frozen=True)
class SweepRow:
    scale_low: float
    scale_high: float
    mean_utility: float
    mean_cost_gflops: float
    n_none: int
    n_2x: int
    n_4x: int


def sensitivity_sweep(
    records: Sequence[PredictionRecord],
    t: Thresholds,
    params: UtilityParams,
    costs: CostProfile,
    rel_range: float = 0.25,
    steps: int = 5,
    objective: str = "outcome",
) -> list[SweepRow]:
    """Policy behavior under multiplicative threshold perturbation.

    Each threshold is scaled by factors spanning [1-rel_range, 1+rel_range]
    (clamped back into [0,1]); one row per (scale_low, scale_high) grid
    point. rel_range=0 degenerates to the single unperturbed row.
    """
    if not records:
        raise EmptyInput("no records")
    check_sweep_settings(rel_range, steps, objective)
    if rel_range == 0.0:
        scales = np.array([1.0])
    else:
        scales = np.linspace(1.0 - rel_range, 1.0 + rel_range, steps)
    # one row per (scale_low, scale_high), scale_low varying slowest
    scale_lo, scale_hi = (g.ravel() for g in np.meshgrid(scales, scales, indexing="ij"))
    lo_arr = np.clip(scale_lo * t.tau_low, 0.0, 1.0)
    hi_arr = np.clip(scale_hi * t.tau_high, 0.0, 1.0)
    a = record_arrays(records)
    util = utility_matrix(a, params, costs, objective)
    means, hist = kernels.utility_surface(
        a.confidence, a.criticality, util, lo_arr, hi_arr, t.critical_cut
    )
    n = len(records)
    gflops = np.array([costs.total(level, "gflops") for level in _LEVELS])
    rows = []
    for j, (sl, sh) in enumerate(zip(scale_lo, scale_hi)):
        mean_cost = float(hist[j].astype(np.float64) @ gflops) / n
        rows.append(
            SweepRow(
                scale_low=float(sl),
                scale_high=float(sh),
                mean_utility=float(means[j]),
                mean_cost_gflops=mean_cost,
                n_none=int(hist[j, 0]),
                n_2x=int(hist[j, 1]),
                n_4x=int(hist[j, 2]),
            )
        )
    return rows

