"""Resource cost accounting, relative efficiency, and Pareto extraction."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyInput, ZeroNormalizer
from .records import SRLevel


@dataclass(frozen=True)
class LevelCost:
    gflops: float
    latency_ms: float
    power_w: float


COST_DIMENSIONS = tuple(f.name for f in fields(LevelCost))


# The 2x defaults interpolate the measured none/4x endpoints: enhancement
# increments scale with output pixel count, and 2x produces a quarter of
# the 4x pixels.
DEFAULT_NONE = LevelCost(gflops=2.3, latency_ms=32.0, power_w=8.3)
DEFAULT_X2 = LevelCost(gflops=6.4, latency_ms=59.75, power_w=12.825)
DEFAULT_X4 = LevelCost(gflops=18.7, latency_ms=143.0, power_w=26.4)


@dataclass(frozen=True)
class CostProfile:
    """Per-level pipeline costs; level NONE is the no-enhancement baseline.

    `utility_dimension` selects which dimension feeds the gating utility;
    its per-level value there is the enhancement increment over NONE,
    normalized so the 4x increment costs 1.0.
    """

    none: LevelCost = DEFAULT_NONE
    x2: LevelCost = DEFAULT_X2
    x4: LevelCost = DEFAULT_X4
    utility_dimension: str = "gflops"

    def __post_init__(self):
        self.per_level(self.utility_dimension)  # rejects an unknown dimension
        for dim in COST_DIMENSIONS:
            none, x2, x4 = self.per_level(dim)
            if any(v < 0 for v in (none, x2, x4)):
                raise ValueError(f"{dim} costs must be >= 0")
            if not none <= x2 <= x4:
                raise ValueError(f"{dim} costs must be non-decreasing in SR level")

    def per_level(self, dimension: str) -> tuple[float, float, float]:
        """The `dimension` cost of each level, NONE first."""
        if dimension not in COST_DIMENSIONS:
            raise ValueError(f"unknown cost dimension {dimension!r}")
        return tuple(getattr(entry, dimension) for entry in (self.none, self.x2, self.x4))

    def utility_costs(self) -> tuple[float, float, float]:
        """Normalized cost per level used by the utility tradeoff: NONE=0, X4=1."""
        costs = self.per_level(self.utility_dimension)
        base, denom = costs[0], costs[2] - costs[0]
        if denom == 0.0:
            return (0.0, 0.0, 0.0)
        return tuple((c - base) / denom for c in costs)


@dataclass(frozen=True)
class CostSummary:
    """Aggregated spend of a decision sequence."""

    n: int
    histogram: tuple[int, int, int]  # counts per level, NONE first
    total_gflops: float
    total_latency_ms: float
    total_power_w: float

    @property
    def mean_gflops(self) -> float:
        return self.total_gflops / self.n


def accumulate_cost(levels: Iterable[SRLevel] | np.ndarray, profile: CostProfile) -> CostSummary:
    """Sum the per-record cost of each chosen level (base + increment).

    `levels` may also be a 1-D integer (not bool) array of level values.
    """
    if not isinstance(levels, np.ndarray):
        levels = np.fromiter((int(SRLevel(level)) for level in levels), dtype=np.int64)
    if (
        levels.ndim != 1
        or levels.dtype.kind not in "iu"
        or (levels.size and not 0 <= levels.min() <= levels.max() < len(SRLevel))
    ):
        raise ValueError(f"level values must lie in 0..{len(SRLevel) - 1}")
    counts = np.bincount(levels, minlength=len(SRLevel)).tolist()
    n = sum(counts)
    if n == 0:
        raise EmptyInput("no decisions to accumulate")
    totals = {
        f"total_{dim}": sum(count * cost for count, cost in zip(counts, profile.per_level(dim)))
        for dim in COST_DIMENSIONS
    }
    return CostSummary(n=n, histogram=tuple(counts), **totals)


@dataclass(frozen=True)
class MethodPoint:
    """One method in accuracy/cost space for frontier and efficiency tables."""

    name: str
    accuracy: float
    cost: float
    fps: float
    power_w: float

    def __post_init__(self):
        # each check fails on NaN
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must lie in [0,1]")
        if not all(0.0 < v < math.inf for v in (self.cost, self.fps, self.power_w)):
            raise ValueError("cost, fps and power must be positive and finite")


def efficiency(m: MethodPoint, baseline: MethodPoint) -> float:
    """Accuracy gain over baseline, scaled by throughput per watt."""
    return (m.accuracy - baseline.accuracy) * m.fps / m.power_w


def relative_efficiency(
    m: MethodPoint, baseline: MethodPoint, ref: MethodPoint | None = None
) -> float:
    """Efficiency of `m` normalized by a designated reference method.

    The baseline's own efficiency is zero by construction, so the baseline
    row is defined as 1.0 by convention and cannot serve as the reference
    for other rows.
    """
    if m == baseline:
        return 1.0
    ref_eff = efficiency(ref, baseline) if ref is not None else 0.0
    if ref_eff == 0.0:
        raise ZeroNormalizer(
            "reference efficiency is zero; designate a non-baseline reference"
        )
    return efficiency(m, baseline) / ref_eff


def pareto_frontier(points: Sequence[MethodPoint]) -> list[MethodPoint]:
    """Non-dominated points (maximize accuracy, minimize cost), cost-ascending.

    Points with identical coordinates do not dominate each other, so exact
    duplicates on the frontier are all retained.
    """
    frontier: list[MethodPoint] = []
    best_acc = -float("inf")
    by_cost = operator.attrgetter("cost")
    for _, same_cost in itertools.groupby(sorted(points, key=by_cost), key=by_cost):
        group = list(same_cost)
        group_max = max(p.accuracy for p in group)
        if group_max > best_acc:
            frontier.extend(p for p in group if p.accuracy == group_max)
            best_acc = group_max
    return frontier
