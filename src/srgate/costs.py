"""Resource cost accounting, relative efficiency, and Pareto extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyInput, ZeroNormalizer
from .records import SRLevel

COST_DIMENSIONS = ("gflops", "latency_ms", "power_w")


@dataclass(frozen=True)
class LevelCost:
    gflops: float
    latency_ms: float
    power_w: float

    def get(self, dimension: str) -> float:
        if dimension not in COST_DIMENSIONS:
            raise ValueError(f"unknown cost dimension {dimension!r}")
        return getattr(self, dimension)


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
        if self.utility_dimension not in COST_DIMENSIONS:
            raise ValueError(f"unknown cost dimension {self.utility_dimension!r}")
        for dim in COST_DIMENSIONS:
            values = [self.none.get(dim), self.x2.get(dim), self.x4.get(dim)]
            if any(v < 0 for v in values):
                raise ValueError(f"{dim} costs must be >= 0")
            if not values[0] <= values[1] <= values[2]:
                raise ValueError(f"{dim} costs must be non-decreasing in SR level")

    def entry(self, level: SRLevel) -> LevelCost:
        return (self.none, self.x2, self.x4)[int(level)]

    def total(self, level: SRLevel, dimension: str | None = None) -> float:
        return self.entry(level).get(dimension or self.utility_dimension)

    def increment(self, level: SRLevel, dimension: str | None = None) -> float:
        dim = dimension or self.utility_dimension
        return self.entry(level).get(dim) - self.none.get(dim)

    def utility_costs(self) -> tuple[float, float, float]:
        """Normalized cost per level used by the utility tradeoff: NONE=0, X4=1."""
        denom = self.increment(SRLevel.X4)
        if denom == 0.0:
            return (0.0, 0.0, 0.0)
        return tuple(self.increment(level) / denom for level in SRLevel)


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

    `levels` may also be an integer array of level values.
    """
    if not isinstance(levels, np.ndarray):
        levels = np.fromiter((int(SRLevel(level)) for level in levels), dtype=np.int64)
    counts = np.bincount(levels, minlength=len(SRLevel)).tolist()
    if len(counts) != len(SRLevel):
        raise ValueError(f"level values must lie in 0..{len(SRLevel) - 1}")
    n = sum(counts)
    if n == 0:
        raise EmptyInput("no decisions to accumulate")
    totals = {
        dim: sum(
            counts[int(level)] * profile.total(level, dim) for level in SRLevel
        )
        for dim in COST_DIMENSIONS
    }
    return CostSummary(
        n=n,
        histogram=tuple(counts),
        total_gflops=totals["gflops"],
        total_latency_ms=totals["latency_ms"],
        total_power_w=totals["power_w"],
    )


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
    if not points:
        return []
    ordered = sorted(points, key=lambda p: p.cost)
    frontier: list[MethodPoint] = []
    best_acc = -float("inf")
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j].cost == ordered[i].cost:
            j += 1
        group = ordered[i:j]
        group_max = max(p.accuracy for p in group)
        if group_max > best_acc:
            frontier.extend(p for p in group if p.accuracy == group_max)
            best_acc = group_max
        i = j
    return frontier
