from __future__ import annotations

import numpy as np
import pytest

from helpers import pareto_oracle, random_records
from srgate.costs import (
    CostProfile,
    LevelCost,
    MethodPoint,
    accumulate_cost,
    efficiency,
    pareto_frontier,
    relative_efficiency,
)
from srgate.errors import EmptyInput, ZeroNormalizer
from srgate.gating import Thresholds, sensitivity_sweep
from srgate.records import SRLevel, UtilityParams

C = CostProfile()


def test_default_profile_uses_measured_endpoint_costs():
    assert C.none.gflops == 2.3
    assert C.x4.gflops == 18.7
    assert C.none.gflops < C.x2.gflops < C.x4.gflops


def test_accumulate_cost_counts_a_level_array_like_a_level_list():
    levels = [SRLevel.X4, SRLevel.NONE, SRLevel.X2, SRLevel.X4, SRLevel.NONE, SRLevel.X4]
    want = accumulate_cost(levels, C)
    got = accumulate_cost(np.array(levels, dtype=np.int64), C)
    assert got == want
    assert got.histogram == (2, 1, 3)
    assert all(type(v) is int for v in got.histogram)
    with pytest.raises(EmptyInput):
        accumulate_cost(np.array([], dtype=np.int64), C)
    with pytest.raises(ValueError):
        accumulate_cost(np.array([0, 3]), C)


def test_accumulate_cost_names_the_level_range():
    # above the top, negative, float, 2-D, bool, and a uint64 past the top
    for levels in (
        np.array([0, 3]),
        np.array([-1]),
        np.array([0.5]),
        np.array([[0, 1]]),
        np.array([True, False]),
        np.array([0, 2**63], dtype=np.uint64),
    ):
        with pytest.raises(ValueError, match=r"^level values must lie in 0\.\.2$"):
            accumulate_cost(levels, C)


def test_utility_cost_normalization():
    none, x2, x4 = C.utility_costs()
    assert none == 0.0
    assert x4 == 1.0
    assert x2 == pytest.approx(0.25, abs=1e-12)


def test_profile_rejects_decreasing_costs():
    with pytest.raises(ValueError):
        CostProfile(x2=LevelCost(1.0, 59.75, 12.825))


def test_accumulate_all_none_is_base_cost():
    summary = accumulate_cost([SRLevel.NONE] * 10, C)
    assert summary.mean_gflops == pytest.approx(2.3, abs=1e-12)
    assert summary.histogram == (10, 0, 0)


def test_accumulate_zero_increment_profile():
    flat = CostProfile(
        none=LevelCost(2.3, 30.0, 8.0),
        x2=LevelCost(2.3, 30.0, 8.0),
        x4=LevelCost(2.3, 30.0, 8.0),
    )
    summary = accumulate_cost([SRLevel.NONE, SRLevel.X2, SRLevel.X4], flat)
    assert summary.mean_gflops == pytest.approx(2.3, abs=1e-12)
    assert flat.utility_costs()[SRLevel.X4] == 0.0


def test_accumulate_even_mix_of_none_and_4x():
    levels = [SRLevel.NONE] * 5 + [SRLevel.X4] * 5
    summary = accumulate_cost(levels, C)
    assert summary.mean_gflops == pytest.approx(10.5, abs=1e-12)


def test_accumulate_empty_raises():
    with pytest.raises(EmptyInput):
        accumulate_cost([], C)


def test_accumulate_concatenation_linearity():
    rng = np.random.default_rng(0)
    a = [SRLevel(int(x)) for x in rng.integers(0, 3, 40)]
    b = [SRLevel(int(x)) for x in rng.integers(0, 3, 60)]
    total_ab = accumulate_cost(a + b, C)
    total_a = accumulate_cost(a, C)
    total_b = accumulate_cost(b, C)
    assert total_ab.total_gflops == pytest.approx(
        total_a.total_gflops + total_b.total_gflops, abs=1e-9
    )
    assert total_ab.n == total_a.n + total_b.n



def _random_profile(rng: np.random.Generator) -> CostProfile:
    """Non-decreasing non-negative costs per dimension; small integers give ties
    and flat (zero-increment) dimensions."""
    columns = [
        np.sort(rng.integers(0, 4, 3) if rng.random() < 0.3 else rng.uniform(0, 50, 3))
        for _ in range(3)
    ]
    none, x2, x4 = (LevelCost(*(float(col[i]) for col in columns)) for i in range(3))
    dimension = ("gflops", "latency_ms", "power_w")[int(rng.integers(0, 3))]
    return CostProfile(none=none, x2=x2, x4=x4, utility_dimension=dimension)


def test_cost_arithmetic_is_bit_exact_in_level_order():
    """Totals, utility costs and sweep means equal the plain formulas with
    the operands in level order, compared by ==, so a reordered sum fails."""
    rng = np.random.default_rng(16)
    recs = random_records(rng, 60)
    for _ in range(200):
        profile = _random_profile(rng)
        levels = [SRLevel(int(x)) for x in rng.integers(0, 3, int(rng.integers(1, 40)))]
        counts = [levels.count(level) for level in SRLevel]
        summary = accumulate_cost(levels, profile)
        for dim, total in (
            ("gflops", summary.total_gflops),
            ("latency_ms", summary.total_latency_ms),
            ("power_w", summary.total_power_w),
        ):
            c = [getattr(profile.none, dim), getattr(profile.x2, dim), getattr(profile.x4, dim)]
            assert total == counts[0] * c[0] + counts[1] * c[1] + counts[2] * c[2]

        u = [getattr(e, profile.utility_dimension) for e in (profile.none, profile.x2, profile.x4)]
        denom = u[2] - u[0]
        want = (0.0, 0.0, 0.0) if denom == 0.0 else tuple((v - u[0]) / denom for v in u)
        assert profile.utility_costs() == want

        gflops = np.array([profile.none.gflops, profile.x2.gflops, profile.x4.gflops])
        for row in sensitivity_sweep(recs, Thresholds(), UtilityParams(), profile, steps=3):
            hist = np.array([row.n_none, row.n_2x, row.n_4x], dtype=np.float64)
            assert row.mean_cost_gflops == float(hist @ gflops) / len(recs)


# --- relative efficiency --------------------------------------------------------------

BASE = MethodPoint("bicubic", 0.30, 1.0, 20.0, 5.0)


def test_relative_efficiency_baseline_is_one_by_convention():
    ref = MethodPoint("ref", 0.35, 2.0, 2.0, 1.0)
    assert relative_efficiency(BASE, BASE, ref) == 1.0


def test_relative_efficiency_zero_gain_is_zero():
    same_acc = MethodPoint("m", 0.30, 2.0, 10.0, 5.0)
    ref = MethodPoint("ref", 0.35, 2.0, 2.0, 1.0)
    assert relative_efficiency(same_acc, BASE, ref) == 0.0


def test_relative_efficiency_hand_case():
    # eff(m) = (0.40-0.30)*10/5 = 0.2; reference efficiency pinned at 0.1
    m = MethodPoint("m", 0.40, 2.0, 10.0, 5.0)
    ref = MethodPoint("ref", 0.35, 2.0, 2.0, 1.0)
    assert efficiency(ref, BASE) == pytest.approx(0.1, abs=1e-12)
    assert relative_efficiency(m, BASE, ref) == pytest.approx(2.0, abs=1e-12)


def test_relative_efficiency_sign_tracks_accuracy_gap():
    ref = MethodPoint("ref", 0.35, 2.0, 2.0, 1.0)
    worse = MethodPoint("w", 0.25, 2.0, 10.0, 5.0)
    better = MethodPoint("b", 0.45, 2.0, 10.0, 5.0)
    assert relative_efficiency(worse, BASE, ref) < 0
    assert relative_efficiency(better, BASE, ref) > 0


def test_relative_efficiency_requires_nonzero_reference():
    m = MethodPoint("m", 0.40, 2.0, 10.0, 5.0)
    with pytest.raises(ZeroNormalizer):
        relative_efficiency(m, BASE, BASE)
    with pytest.raises(ZeroNormalizer):
        relative_efficiency(m, BASE, None)


# --- pareto frontier ----------------------------------------------------------------------

def _pt(name, cost, acc):
    return MethodPoint(name, acc, cost, 1.0, 1.0)


def test_pareto_three_point_hand_case():
    points = [_pt("a", 1.0, 0.50), _pt("b", 2.0, 0.60), _pt("c", 3.0, 0.55)]
    frontier = pareto_frontier(points)
    assert [(p.cost, p.accuracy) for p in frontier] == [(1.0, 0.50), (2.0, 0.60)]


def test_pareto_single_and_empty():
    only = _pt("x", 1.0, 0.4)
    assert pareto_frontier([only]) == [only]
    assert pareto_frontier([]) == []


def test_pareto_duplicates_both_retained():
    a = _pt("a", 1.0, 0.5)
    b = _pt("b", 1.0, 0.5)
    frontier = pareto_frontier([a, b])
    assert len(frontier) == 2


def test_pareto_equal_accuracy_cheaper_wins():
    cheap = _pt("cheap", 1.0, 0.5)
    dear = _pt("dear", 2.0, 0.5)
    assert pareto_frontier([cheap, dear]) == [cheap]


def test_pareto_matches_bruteforce_oracle_random_sets():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 25))
        # coarse grid so duplicates and ties occur
        points = [
            _pt(f"p{i}", float(rng.integers(1, 6)), float(rng.integers(1, 6)) / 10)
            for i in range(n)
        ]
        got = sorted(
            pareto_frontier(points), key=lambda p: (p.cost, -p.accuracy, p.name)
        )
        want = pareto_oracle(points)
        assert [(p.name, p.cost, p.accuracy) for p in got] == [
            (p.name, p.cost, p.accuracy) for p in want
        ]
        # output of the library call is cost-ascending
    costs = [p.cost for p in pareto_frontier(points)]
    assert costs == sorted(costs)
