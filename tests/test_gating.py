from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_record, random_records
from srgate.costs import CostProfile
from srgate.errors import EmptyInput
from srgate.gating import (
    MAX_SWEEP_STEPS,
    AdaptiveTauConfig,
    Thresholds,
    adaptive_tau,
    check_sweep_settings,
    delta_acc_estimate,
    expected_utility,
    gate,
    gate_adaptive,
    normalize_blur,
    optimize_thresholds,
    sensitivity_sweep,
    utility_matrix,
)
from srgate.records import (
    NUM_CLASSES,
    GateReason,
    RecordArrays,
    SRLevel,
    UtilityParams,
    record_arrays,
)

T = Thresholds()
U = UtilityParams()
C = CostProfile()


# --- expected utility ---------------------------------------------------------

def test_expected_utility_hand_cases():
    assert expected_utility(0.10, 2.5, 0.5, 0.3) == pytest.approx(0.10, abs=1e-12)
    assert expected_utility(0.0, 7.0, 0.0, 9.0) == 0.0
    # drowsiness 4x gain at full weight and unit cost
    assert expected_utility(0.263, 2.5, 1.0, 0.3) == pytest.approx(0.3575, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(0, 5),
    st.floats(0, 2), st.floats(0, 2), st.floats(0, 1),
)
def test_expected_utility_linear_in_gain_and_cost(d1, d2, w, c1, c2, lam):
    left = expected_utility(d1 + d2, w, 0.0, lam)
    assert left == pytest.approx(
        expected_utility(d1, w, 0.0, lam) + expected_utility(d2, w, 0.0, lam),
        abs=1e-12,
    )
    both = expected_utility(0.0, w, c1 + c2, lam)
    assert both == pytest.approx(
        expected_utility(0.0, w, c1, lam) + expected_utility(0.0, w, c2, lam),
        abs=1e-12,
    )


def test_delta_acc_estimate_cases():
    assert delta_acc_estimate(U, 6, SRLevel.X4, 0.0) == pytest.approx(0.263, abs=1e-12)
    assert delta_acc_estimate(U, 3, SRLevel.NONE, 0.2) == 0.0
    assert delta_acc_estimate(U, 6, SRLevel.X4, 0.5) == pytest.approx(0.1315, abs=1e-12)


# --- the gate -------------------------------------------------------------------

@pytest.mark.parametrize(
    "p,c,level,reason",
    [
        (0.90, 0, SRLevel.NONE, GateReason.HIGH_CONF_SKIP),
        (0.70, 0, SRLevel.X2, GateReason.MID_CONF_2X),
        (0.60, 0, SRLevel.X4, GateReason.LOW_CONF_4X),
        (0.85, 0, SRLevel.X2, GateReason.MID_CONF_2X),
        (0.65, 1, SRLevel.X4, GateReason.CRITICAL_4X),
        (0.90, 1, SRLevel.NONE, GateReason.UNCOVERED_DEFAULT),
    ],
)
def test_gate_branches(p, c, level, reason):
    d = gate(p, c, T)
    assert d.level == level
    assert d.reason == reason
    assert d.tau_used == T.tau_high


def test_gate_totality_and_monotonicity_fine_grid():
    grid = np.arange(0, 1001) / 1000.0
    for c in (0, 1):
        prev = None
        for p in grid:
            d = gate(float(p), c, T)
            assert d.level in (SRLevel.NONE, SRLevel.X2, SRLevel.X4)
            if prev is not None:
                # increasing p never increases the enhancement level
                assert d.level <= prev
            prev = d.level


def test_thresholds_validation():
    with pytest.raises(ValueError):
        Thresholds(tau_low=0.9, tau_high=0.8)
    with pytest.raises(ValueError):
        Thresholds(critical_cut=1.2)


# --- adaptive threshold ------------------------------------------------------------

def test_adaptive_tau_hand_case():
    cfg = AdaptiveTauConfig(tau_base=0.85, alpha_blur=0.05, alpha_light=-0.10)
    assert adaptive_tau(cfg, 0.2, 0.5) == pytest.approx(0.81, abs=1e-12)


def test_adaptive_tau_zero_coefficients():
    cfg = AdaptiveTauConfig(tau_base=0.85, alpha_blur=0.0, alpha_light=0.0)
    assert adaptive_tau(cfg, 0.7, 0.2) == 0.85


def test_adaptive_tau_clamps():
    cfg = AdaptiveTauConfig(tau_base=0.98, alpha_blur=0.5, alpha_light=0.0)
    assert adaptive_tau(cfg, 1.0, 0.0) == 1.0


def test_normalize_blur_saturates():
    assert normalize_blur(0.01, 0.05) == pytest.approx(0.2)
    assert normalize_blur(2.0, 0.05) == 1.0


def test_gate_adaptive_zero_coefficients_equals_plain_gate():
    cfg = AdaptiveTauConfig(tau_base=T.tau_high, alpha_blur=0.0, alpha_light=0.0)
    rng = np.random.default_rng(21)
    for r in random_records(rng, 200):
        plain = gate(r.confidence, r.criticality, T)
        adap = gate_adaptive(r, T, cfg)
        assert adap.level == plain.level
        assert adap.reason == plain.reason


def test_gate_adaptive_raised_tau_pulls_record_into_2x():
    cfg = AdaptiveTauConfig(tau_base=0.85, alpha_blur=0.05, alpha_light=0.0)
    r = make_record(confidence=0.86, predicted=0, true_class=0, blur=1.0, lighting=0.4)
    assert gate(r.confidence, r.criticality, T).level == SRLevel.NONE
    d = gate_adaptive(r, T, cfg)
    assert d.tau_used == pytest.approx(0.90, abs=1e-12)
    assert d.level == SRLevel.X2


def _expected_utilities(params, costs, class_id, c, p):
    """The audit of one record by the scalar formula, NONE first."""
    return [
        expected_utility(
            delta_acc_estimate(params, class_id, level, p),
            params.weight(c),
            costs.utility_costs()[level],
            params.lam,
        )
        for level in SRLevel
    ]


def test_gate_adaptive_none_utility_is_zero():
    rng = np.random.default_rng(22)
    recs = random_records(rng, 50)
    util = utility_matrix(recs, U, C, "heuristic")
    for r, row in zip(recs, util):
        want = _expected_utilities(U, C, r.predicted_class, r.criticality, r.confidence)[0]
        assert want == 0.0
        assert row[0] == want


def _odd_gains():
    # gains that share no digits with the defaults, per class and level
    table = {}
    for cid in range(NUM_CLASSES):
        table[(cid, SRLevel.NONE)] = 0.0
        table[(cid, SRLevel.X2)] = 0.037 * (cid + 1) + 1e-3 / 3
        table[(cid, SRLevel.X4)] = 0.061 * (cid + 2) / 7
    return table


@pytest.mark.parametrize(
    "params",
    [
        U,
        UtilityParams(lam=0.173, w_crit=3.7, w_normal=1.3, delta_acc_table=_odd_gains()),
        UtilityParams(lam=0.0, w_crit=1.0, delta_acc_table=_odd_gains()),
    ],
)
@pytest.mark.parametrize(
    "costs", [C, CostProfile(utility_dimension="latency_ms"), CostProfile(utility_dimension="power_w")]
)
def test_utilities_by_level_bit_identical_to_expected_utility(params, costs):
    # the heuristic rows of utility_matrix are the per-level audit that
    # gate --adaptive writes; each equals the scalar formula bit for bit
    grid = [
        (class_id, c, p)
        for class_id in range(NUM_CLASSES)
        for c in (0, 1)
        for p in (0.0, 1 / 7, 0.5, 1.0)
    ]
    pred = np.array([class_id for class_id, _, _ in grid], dtype=np.int64)
    arrays = RecordArrays(
        confidence=np.array([p for _, _, p in grid]),
        criticality=np.array([c for _, c, _ in grid], dtype=np.uint8),
        probs=np.zeros((len(grid), NUM_CLASSES)),
        true_class=pred,
        pred=pred,
        correct=np.ones(len(grid), dtype=bool),
        subject=np.zeros(len(grid), dtype=np.int64),
    )
    util = utility_matrix(arrays, params, costs, "heuristic")
    for (class_id, c, p), row in zip(grid, util.tolist()):
        want = _expected_utilities(params, costs, class_id, c, p)
        assert [v.hex() for v in row] == [v.hex() for v in want]


def _frozen_outcome_utility(a, params, costs):
    # utility_matrix's expression before the grouping of the heuristic audit
    factor = 1.0 - a.correct.astype(np.float64)
    w = np.where(a.criticality == 1, params.w_crit, params.w_normal)
    gain_table = np.array(params.gain_table, dtype=np.float64)
    cost_norm = np.array(costs.utility_costs(), dtype=np.float64)
    return gain_table[a.pred] * (factor * w)[:, None] - params.lam * cost_norm[None, :]


def test_outcome_utility_rows_equal_the_frozen_expression():
    negative = {key: -value for key, value in _odd_gains().items()}
    params_list = [
        U,
        UtilityParams(lam=0.173, w_crit=3.7, w_normal=1.3, delta_acc_table=_odd_gains()),
        UtilityParams(lam=0.0, w_crit=1.0, delta_acc_table=_odd_gains()),
        UtilityParams(lam=0.0, w_normal=0.0, delta_acc_table=negative),
    ]
    costs_list = [
        C,
        CostProfile(utility_dimension="latency_ms"),
        CostProfile(utility_dimension="power_w"),
    ]
    rng = np.random.default_rng(26)
    recs = random_records(rng, 400)
    arrays = record_arrays(recs)
    assert 0 < np.count_nonzero(arrays.correct) < len(recs)
    assert 0 < np.count_nonzero(arrays.criticality) < len(recs)
    for params in params_list:
        for costs in costs_list:
            got = utility_matrix(arrays, params, costs, "outcome")
            assert got.tobytes() == _frozen_outcome_utility(arrays, params, costs).tobytes()


def test_gain_table_rows_follow_class_ids():
    params = UtilityParams(delta_acc_table=_odd_gains())
    assert params.gain_table == tuple(
        tuple(params.gain(k, level) for level in SRLevel) for k in range(NUM_CLASSES)
    )


# --- threshold optimization -----------------------------------------------------------

def _planted_table():
    """Custom gain table: class 0 pays off at 4x, class 1 at 2x."""
    table = {}
    for cid in range(7):
        for level in SRLevel:
            table[(cid, level)] = 0.0
    table[(0, SRLevel.X4)] = 0.8
    table[(0, SRLevel.X2)] = 0.1
    table[(1, SRLevel.X2)] = 0.3
    table[(1, SRLevel.X4)] = 0.31
    return table


def _planted_records():
    """Utility surface engineered to peak exactly at (0.55, 0.80)."""
    recs = []

    def add(n, conf, predicted, correct, clip_prefix):
        for i in range(n):
            recs.append(
                make_record(
                    confidence=conf,
                    predicted=predicted,
                    true_class=predicted if correct else (predicted + 1) % 7,
                    criticality=0,
                    subject=f"S{i % 3:02d}",
                    clip=f"{clip_prefix}{i}",
                )
            )

    add(30, 0.50, 0, False, "low")     # wants 4x: +0.5 each when tau_low >= 0.50
    add(30, 0.52, 0, False, "low2")    # pushes tau_low to 0.55 specifically
    add(30, 0.60, 0, True, "mid")      # correct: any enhancement is pure cost
    add(30, 0.78, 1, False, "gain2x")  # wants 2x: +0.225 when tau_high >= 0.78
    add(30, 0.83, 2, True, "stop")     # punishes tau_high >= 0.83
    add(30, 0.95, 2, True, "top")      # punishes tau_high >= 0.95
    return recs


def test_optimize_thresholds_recovers_planted_maximum():
    params = UtilityParams(delta_acc_table=_planted_table())
    result = optimize_thresholds(_planted_records(), params, C, grid_step=0.05)
    assert (result.tau_low, result.tau_high) == (0.55, 0.80)


def test_optimize_thresholds_flat_surface_tiebreak():
    # single confident record: every threshold pair with tau_high < 1 skips it
    recs = [make_record(confidence=1.0, predicted=0, true_class=0, criticality=0)]
    result = optimize_thresholds(recs, U, C, grid_step=0.05)
    assert result.tau_high == pytest.approx(0.95)
    assert result.tau_low == pytest.approx(0.90)


def _surface_oracle(records, params, costs, grid_step, critical_cut=0.70):
    """Independent per-point loop over the same objective."""
    util = utility_matrix(records, params, costs, "outcome")
    count = int(math.floor(1.0 / grid_step + 1e-9))
    grid = [i * grid_step for i in range(count + 1)]
    surface = {}
    for lo in grid:
        for hi in grid:
            if not lo < hi:
                continue
            total = 0.0
            for i, r in enumerate(records):
                p, c = r.confidence, r.criticality
                if p <= lo:
                    lvl = 2
                elif c == 1 and p < critical_cut:
                    lvl = 2
                elif p > hi:
                    lvl = 0
                else:
                    lvl = 1
                total += util[i, lvl]
            surface[(lo, hi)] = total / len(records)
    return surface


def test_surface_matches_pointwise_oracle():
    rng = np.random.default_rng(23)
    recs = random_records(rng, 300)
    result = optimize_thresholds(recs, U, C, grid_step=0.05)
    oracle = _surface_oracle(recs, U, C, 0.05)
    assert len(result.surface) == len(oracle)
    for point in result.surface:
        want = oracle[(point.tau_low, point.tau_high)]
        assert point.mean_utility == pytest.approx(want, abs=1e-12)
    best = max(oracle.values())
    assert result.mean_utility == pytest.approx(best, abs=1e-12)


def test_optimize_thresholds_empty_and_bad_step():
    with pytest.raises(EmptyInput):
        optimize_thresholds([], U, C, grid_step=0.05)
    with pytest.raises(ValueError):
        optimize_thresholds([make_record()], U, C, grid_step=0.5)


def test_optimize_thresholds_takes_grid_steps_up_to_a_quarter_only():
    recs = random_records(np.random.default_rng(5), 50)
    with pytest.raises(ValueError, match=r"grid_step must lie in \(0, 0\.25\]"):
        optimize_thresholds(recs, U, C, grid_step=0.0)
    result = optimize_thresholds(recs, U, C, grid_step=0.25)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    want = [(lo, hi) for i, lo in enumerate(grid) for hi in grid[i + 1 :]]
    assert [(p.tau_low, p.tau_high) for p in result.surface] == want


# --- sensitivity sweep -------------------------------------------------------------------

def test_sweep_degenerate_range_is_identity():
    rng = np.random.default_rng(24)
    recs = random_records(rng, 100)
    rows = sensitivity_sweep(recs, T, U, C, rel_range=0.0)
    assert len(rows) == 1
    assert rows[0].scale_low == 1.0 and rows[0].scale_high == 1.0
    assert rows[0].n_none + rows[0].n_2x + rows[0].n_4x == 100


def test_sweep_saturated_stream_all_none():
    # every record confident and non-critical; keep the scaled tau_high
    # below the confidence so the skip branch fires at every grid point
    recs = [
        make_record(confidence=0.99, predicted=0, true_class=0, criticality=0, clip=f"c{i}")
        for i in range(40)
    ]
    rows = sensitivity_sweep(recs, T, U, C, rel_range=0.15, steps=5)
    for row in rows:
        assert (row.n_none, row.n_2x, row.n_4x) == (40, 0, 0)
        assert row.mean_utility == 0.0
        assert row.mean_cost_gflops == pytest.approx(C.none.gflops, abs=1e-12)


def test_sweep_rows_match_independent_recomputation():
    rng = np.random.default_rng(25)
    recs = random_records(rng, 150)
    rows = sensitivity_sweep(recs, T, U, C, rel_range=0.25, steps=3)
    util = utility_matrix(recs, U, C, "outcome")
    assert len(rows) == 9
    for row in rows:
        lo = min(1.0, max(0.0, row.scale_low * T.tau_low))
        hi = min(1.0, max(0.0, row.scale_high * T.tau_high))
        total = 0.0
        hist = [0, 0, 0]
        for i, r in enumerate(recs):
            p, c = r.confidence, r.criticality
            if p <= lo:
                lvl = 2
            elif c == 1 and p < T.critical_cut:
                lvl = 2
            elif p > hi:
                lvl = 0
            else:
                lvl = 1
            total += util[i, lvl]
            hist[lvl] += 1
        assert row.mean_utility == pytest.approx(total / len(recs), abs=1e-12)
        assert (row.n_none, row.n_2x, row.n_4x) == tuple(hist)


def test_sweep_validates_inputs():
    with pytest.raises(EmptyInput):
        sensitivity_sweep([], T, U, C)
    with pytest.raises(ValueError):
        sensitivity_sweep([make_record()], T, U, C, rel_range=0.25, steps=1)
    with pytest.raises(ValueError, match="steps"):
        sensitivity_sweep([make_record()], T, U, C, rel_range=0.25, steps=MAX_SWEEP_STEPS + 1)
    with pytest.raises(ValueError, match="objective"):
        sensitivity_sweep([make_record()], T, U, C, objective="best")
    # the largest sweep allowed is accepted without evaluating anything
    check_sweep_settings(0.25, MAX_SWEEP_STEPS, "outcome")
