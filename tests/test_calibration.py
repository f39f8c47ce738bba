from __future__ import annotations

import math
from dataclasses import astuple
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    aupr_oracle,
    auroc_oracle,
    brier_oracle,
    ece_oracle,
    make_record,
    random_records,
)
from srgate.calibration import (
    _aupr_by_draw,
    aupr,
    aupr_arrays,
    auroc,
    bootstrap_ci,
    brier,
    brier_arrays,
    calibration_report,
    ece,
    per_class_ranking,
    reliability_bins,
)
from srgate import calibration, gating
from srgate.errors import (
    DegenerateLabels,
    EmptyInput,
    MetricUndefinedOnResample,
)
from srgate.config import ExperimentConfig
from srgate.costs import CostProfile
from srgate.records import ROW_BLOCK, PredictionRecord, RecordArrays, UtilityParams, record_arrays
from srgate.simulate import loso_splits, run_experiment


def _scored_records(confidences, corrects):
    """Records whose confidence and correctness are pinned directly."""
    recs = []
    for i, (conf, ok) in enumerate(zip(confidences, corrects)):
        recs.append(
            make_record(
                confidence=conf,
                predicted=0,
                true_class=0 if ok else 1,
                clip=f"c{i}",
            )
        )
    return recs


# --- records or their arrays ------------------------------------------------------

_U, _C, _T = UtilityParams(), CostProfile(), gating.Thresholds()


def _hexes(values) -> list[str]:
    """Each value as the ``float.hex`` of its float, for a bit-exact match."""
    return [float(v).hex() for v in values]


def _gating_results(records) -> list[list[str]]:
    """The utility matrix, threshold search and sweep of `records` under both
    objectives, every number as hex."""
    out = []
    for objective in gating.OBJECTIVES:
        util = gating.utility_matrix(records, _U, _C, objective)
        found = gating.optimize_thresholds(records, _U, _C, 0.05, objective=objective)
        rows = gating.sensitivity_sweep(records, _T, _U, _C, 0.25, 3, objective)
        out += [_hexes(util.ravel()), _hexes(astuple(found)[:3]), _hexes(chain(*found.surface))]
        out += [_hexes(astuple(row)) for row in rows]
    return out


def test_metrics_on_record_arrays_equal_metrics_on_records():
    recs = random_records(np.random.default_rng(41), 97)
    a = record_arrays(recs)
    rows = np.array([3, 5, 8, 13, 21, 34, 55, 89])
    part = [recs[i] for i in rows]
    picked = RecordArrays(*(column[rows] for column in a))
    for records, arrays in ((recs, a), (part, picked)):
        assert calibration.accuracy(arrays).hex() == calibration.accuracy(records).hex()
        assert ece(arrays, 7).hex() == ece(records, 7).hex()
        assert brier(arrays).hex() == brier(records).hex()
        assert reliability_bins(arrays, 4) == reliability_bins(records, 4)
        assert per_class_ranking(arrays) == per_class_ranking(records)
        assert _gating_results(arrays) == _gating_results(records)


def test_metrics_on_empty_record_arrays_raise_like_empty_records():
    a = record_arrays(random_records(np.random.default_rng(2), 5))
    none = RecordArrays(*(column[:0] for column in a))
    for fn in (calibration.accuracy, ece, brier, reliability_bins, per_class_ranking):
        with pytest.raises(EmptyInput):
            fn(none)
    for kwargs in ({}, {"resampling": calibration.SubjectResampling(none, seed=0)}):
        with pytest.raises(EmptyInput):
            bootstrap_ci(none, "ece", **kwargs)
    with pytest.raises(EmptyInput):
        calibration_report(none, ci_metrics=["ece"])
    with pytest.raises(ValueError):
        ece(a, 0)
    for objective in gating.OBJECTIVES:
        with pytest.raises(EmptyInput):
            gating.utility_matrix(none, _U, _C, objective)
        with pytest.raises(EmptyInput):
            gating.optimize_thresholds(none, _U, _C, objective=objective)
        with pytest.raises(EmptyInput):
            gating.sensitivity_sweep(none, _T, _U, _C, objective=objective)
    # emptiness is checked before the bin count, and the bin count in one place
    with pytest.raises(EmptyInput):
        ece(none, 0)
    with pytest.raises(EmptyInput):
        calibration.ece_arrays(none.confidence, none.correct, 0)
    for bad_bins in (
        lambda: calibration.ece_arrays(a.confidence, a.correct, 0),
        lambda: bootstrap_ci(a, "ece", n_resamples=3, bins=0),
        lambda: reliability_bins(a, 0),
        lambda: calibration_report(a, bins=0, ci_metrics=["ece"]),
    ):
        with pytest.raises(ValueError, match="m must be >= 1"):
            bad_bins()


# --- reliability bins ------------------------------------------------------------

def test_bins_hand_case():
    recs = _scored_records([0.95, 0.95, 0.65, 0.55], [True, True, True, True])
    bins = reliability_bins(recs, 10)
    counts = {(b.lo, b.hi): b.count for b in bins if b.count}
    assert counts == {(0.9, 1.0): 2, (0.6, 0.7): 1, (0.5, 0.6): 1}
    assert sum(b.count for b in bins) == 4


def test_bins_zero_confidence_lands_in_first_bin():
    recs = _scored_records([0.0], [False])
    bins = reliability_bins(recs, 10)
    assert bins[0].count == 1
    assert bins[0].lo == 0.0


def test_bins_single_bin_degenerate():
    recs = _scored_records([0.2, 0.9, 0.5], [True, False, True])
    (only,) = reliability_bins(recs, 1)
    assert only.count == 3
    assert only.accuracy == pytest.approx(2 / 3)


def test_bins_mean_conf_inside_edges():
    rng = np.random.default_rng(0)
    recs = random_records(rng, 200)
    for b in reliability_bins(recs, 10):
        if b.count:
            assert b.lo <= b.mean_conf <= b.hi + 1e-12


# --- ECE ---------------------------------------------------------------------------

def test_ece_perfectly_calibrated_perfect_predictions():
    recs = _scored_records([1.0, 1.0, 1.0], [True, True, True])
    assert ece(recs, 10) == 0.0


def test_ece_hand_case_0425():
    recs = _scored_records([0.95, 0.95, 0.65, 0.55], [True, False, True, True])
    assert ece(recs, 10) == pytest.approx(0.425, abs=1e-12)


def test_ece_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        recs = random_records(rng, int(rng.integers(2, 120)))
        want = ece_oracle(
            [r.confidence for r in recs], [r.correct for r in recs], 10
        )
        assert ece(recs, 10) == pytest.approx(want, abs=1e-12)


def test_ece_permutation_invariant_and_bounded():
    rng = np.random.default_rng(2)
    recs = random_records(rng, 97)
    shuffled = list(recs)
    rng.shuffle(shuffled)
    assert ece(recs) == pytest.approx(ece(shuffled), abs=1e-15)
    assert 0.0 <= ece(recs) <= 1.0


def test_ece_empty_raises():
    with pytest.raises(EmptyInput):
        ece([])


# --- Brier ---------------------------------------------------------------------------

def test_brier_one_hot_correct_is_zero():
    recs = [make_record(confidence=1.0, predicted=2, true_class=2)]
    assert brier(recs) == 0.0


def test_brier_two_class_hand_cases():
    r1 = PredictionRecord("s", "a", 0, (0.8, 0.2), 0.8, 0, 0.0, 0.5)
    assert brier([r1]) == pytest.approx(0.08, abs=1e-12)
    r2 = PredictionRecord("s", "b", 1, (0.5, 0.5), 0.5, 0, 0.0, 0.5)
    assert brier([r2]) == pytest.approx(0.5, abs=1e-12)


def _one_hot_brier(probs, true_class):
    # the whole-matrix formula: an (n, K) one-hot beside the (n, K) difference
    onehot = np.zeros_like(probs)
    onehot[np.arange(probs.shape[0]), true_class] = 1.0
    return float(np.mean(np.sum((probs - onehot) ** 2, axis=1)))


@pytest.mark.parametrize("k", [2, 7, 8, 12])
def test_brier_arrays_equal_the_one_hot_formula_bit_for_bit(k):
    # numpy sums a row of 8 or more entries pairwise, so only the same
    # expression per row keeps every bit; n spans three row blocks
    rng = np.random.default_rng(k)
    n = 2 * ROW_BLOCK + 123
    probs = rng.dirichlet(np.ones(k), size=n)
    true_class = rng.integers(0, k, n)
    picked = np.sort(rng.choice(n, n // 2, replace=False))
    for rows in (slice(None), slice(1, None, 3), slice(None, 5), picked):
        p, t = probs[rows], true_class[rows]
        assert brier_arrays(p, t).hex() == _one_hot_brier(p, t).hex()
    assert not probs[1::3].flags.c_contiguous


def test_brier_matches_oracle_and_decomposition():
    rng = np.random.default_rng(3)
    recs = random_records(rng, 150)
    want = brier_oracle([r.probs for r in recs], [r.true_class for r in recs])
    assert brier(recs) == pytest.approx(want, abs=1e-12)
    # one-hot two-class predictions: brier is exactly twice the error rate
    hard = []
    for i in range(100):
        correct = bool(rng.integers(0, 2))
        hard.append(
            PredictionRecord(
                "s", f"h{i}", 0 if correct else 1, (1.0, 0.0), 1.0, 0, 0.0, 0.5
            )
        )
    err_rate = sum(1 for r in hard if r.true_class != 0) / len(hard)
    assert brier(hard) == pytest.approx(2 * err_rate, abs=1e-12)


# --- AUROC / AUPR -------------------------------------------------------------------

def test_auroc_hand_cases():
    assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    assert auroc([0.9, 0.8, 0.4, 0.3], [1, 0, 1, 0]) == pytest.approx(0.75, abs=1e-12)


def test_auroc_degenerate_labels():
    with pytest.raises(DegenerateLabels):
        auroc([0.1, 0.2], [1, 1])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 5.0))
def test_auroc_monotone_transform_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 60))
    scores = rng.random(n)
    labels = rng.integers(0, 2, n).astype(bool)
    if labels.all() or not labels.any():
        labels[0] = True
        labels[1] = False
    base = auroc(scores, labels)
    transformed = auroc(np.exp(scale * scores), labels)
    assert transformed == pytest.approx(base, abs=1e-12)


def test_auroc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(4, 60))
        scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, n).astype(bool)
        if labels.all() or not labels.any():
            labels[0] = True
            labels[1] = False
        want = auroc_oracle(scores.tolist(), labels.tolist())
        assert auroc(scores, labels) == pytest.approx(want, abs=1e-12)


def test_aupr_hand_cases():
    assert aupr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    got = aupr([0.9, 0.8, 0.4, 0.3], [1, 0, 1, 0])
    assert got == pytest.approx(0.5 + 0.5 * (2 / 3), abs=1e-12)


def test_aupr_matches_oracle_with_ties():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(3, 80))
        # quantize scores so tied groups occur
        scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, n).astype(bool)
        if not labels.any():
            labels[0] = True
        want = aupr_oracle(scores.tolist(), labels.tolist())
        assert aupr(scores, labels) == pytest.approx(want, abs=1e-12)


def test_aupr_one_iff_perfect_ranking():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(3, 40))
        scores = rng.random(n)
        labels = rng.integers(0, 2, n).astype(bool)
        if not labels.any():
            labels[0] = True
        value = aupr(scores, labels)
        assert 0.0 <= value <= 1.0
        pos = scores[labels]
        neg = scores[~labels]
        perfect = neg.size == 0 or pos.min() > neg.max()
        assert (value == 1.0) == perfect


def test_aupr_requires_positives():
    with pytest.raises(DegenerateLabels):
        aupr([0.4, 0.2], [0, 0])


@pytest.mark.parametrize("decimals", [1, 3])
def test_aupr_weights_count_records_repeated(decimals):
    rng = np.random.default_rng(40 + decimals)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        scores = np.round(rng.random(n), decimals)
        labels = rng.random(n) < 0.3
        weights = rng.integers(0, 4, size=n)
        repeated = np.repeat(np.arange(n), weights)
        try:
            want = aupr_arrays(scores[repeated], labels[repeated])
        except DegenerateLabels:
            with pytest.raises(DegenerateLabels):
                aupr_arrays(scores, labels, weights)
            continue
        assert aupr_arrays(scores, labels, weights).hex() == want.hex()


def _frozen_pr_curve_arrays(scores, labels, weights=None):
    """pr_curve_arrays as it stood before its presorted and tie-free fast
    paths: always a stable sort, always the tie-group gathers."""
    labels = labels.astype(bool)
    if weights is None:
        weights = np.ones(scores.size, dtype=np.int64)
    else:
        kept = np.flatnonzero(weights > 0)
        scores, labels, weights = scores[kept], labels[kept], weights[kept]
    n_pos = int(weights[labels].sum())
    if n_pos == 0:
        raise DegenerateLabels("need at least one positive")
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_weights = weights[order]
    last = np.nonzero(np.diff(sorted_scores))[0]
    ends = np.append(last, scores.size - 1)
    tp = np.cumsum(np.where(labels[order], sorted_weights, 0))[ends]
    predicted = np.cumsum(sorted_weights)[ends]
    return sorted_scores[ends], tp / predicted, tp / n_pos


def _frozen_aupr_arrays(scores, labels, weights=None):
    _, precision, recall = _frozen_pr_curve_arrays(scores, labels, weights)
    prev_recall = np.concatenate(([0.0], recall[:-1]))
    return float(np.sum((recall - prev_recall) * precision))


def _pr_case(rng, kind):
    n = 1 if kind == "single" else int(rng.integers(2, 60))
    if kind == "large-ties":
        # more than 128 steps, so np.sum adds them in blocks, pairwise
        n = int(rng.integers(2_000, 20_001))
    decimals = {"presorted-ties": 2, "unsorted-ties": 2, "zero-weight-ties": 1}.get(kind, 12)
    scores = np.round(rng.random(n), decimals)
    if kind == "large-ties":
        # one or two tie pairs among distinct scores, presorted or not
        for _ in range(int(rng.integers(1, 3))):
            i, j = rng.choice(n, size=2, replace=False)
            scores[j] = scores[i]
        if rng.random() < 0.5:
            scores = -np.sort(-scores, kind="stable")
    if kind.startswith("presorted"):
        scores = -np.sort(-scores, kind="stable")
        if kind == "presorted-distinct":
            scores = np.unique(scores)[::-1]
    if kind == "nan":
        scores[rng.integers(0, n, size=2)] = np.nan
    if kind == "signed-zero":
        scores = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    labels = rng.random(scores.size) < 0.4
    if kind == "no-positive":
        labels[:] = False
    if kind == "int-labels":
        labels = labels * rng.integers(1, 3, size=labels.size)
    weights = None
    if kind != "unweighted" and not (kind == "large-ties" and rng.random() < 0.5):
        weights = rng.integers(0, 4, size=scores.size)
        if kind == "zero-weights":
            weights[rng.random(scores.size) < 0.5] = 0
        if kind == "zero-weight-ties":
            # a record dropped from inside a tie group
            scores[1] = scores[0]
            weights[rng.integers(0, 2)] = 0
    return scores, labels, weights


@pytest.mark.parametrize(
    "kind",
    ["presorted-distinct", "presorted-ties", "unsorted", "unsorted-ties", "zero-weights",
     "single", "no-positive", "unweighted", "nan", "signed-zero", "int-labels",
     "large-ties", "zero-weight-ties"],
)
def test_pr_curve_fast_paths_match_frozen_reference(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    degenerate = 0
    for _ in range(200):
        scores, labels, weights = _pr_case(rng, kind)
        try:
            want = _frozen_pr_curve_arrays(scores, labels, weights)
        except DegenerateLabels:
            degenerate += 1
            with pytest.raises(DegenerateLabels):
                calibration.pr_curve_arrays(scores, labels, weights)
            with pytest.raises(DegenerateLabels):
                aupr_arrays(scores, labels, weights)
            continue
        got = calibration.pr_curve_arrays(scores, labels, weights)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert aupr_arrays(scores, labels, weights).hex() == (
            _frozen_aupr_arrays(scores, labels, weights).hex()
        )
    assert (degenerate == 200) == (kind == "no-positive")


def test_equal_infinite_scores_form_one_step():
    # as equal finite scores do; inf - inf is NaN, so a np.diff test would split them
    finite = np.array([1.0, 1.0, 0.5, 0.0, 0.0])
    scores = np.array([np.inf, np.inf, 0.5, -np.inf, -np.inf])
    labels = np.array([True, False, True, False, True])
    got = calibration.pr_curve_arrays(scores, labels)
    want = calibration.pr_curve_arrays(finite, labels)
    assert got[0].tolist() == [np.inf, 0.5, -np.inf]
    for g, w in zip(got[1:], want[1:]):
        assert g.tobytes() == w.tobytes()
    assert aupr_arrays(scores, labels).hex() == aupr_arrays(finite, labels).hex()


# --- bootstrap ------------------------------------------------------------------------

def test_bootstrap_single_subject_zero_width():
    rng = np.random.default_rng(6)
    recs = random_records(rng, 30, n_subjects=1)
    point = ece(recs)
    lo, hi = bootstrap_ci(recs, "ece", n_resamples=20, seed=3)
    assert lo == hi == pytest.approx(point, abs=1e-12)


def test_bootstrap_same_seed_bit_identical():
    rng = np.random.default_rng(7)
    recs = random_records(rng, 60, n_subjects=5)
    a = bootstrap_ci(recs, "ece", n_resamples=100, seed=11)
    b = bootstrap_ci(recs, "ece", n_resamples=100, seed=11)
    assert a == b


def reference_resampler(records, metric_fn, n_resamples, level, seed):
    """Independent reimplementation of the documented resampling protocol."""
    groups: dict[str, list] = {}
    for r in records:
        groups.setdefault(r.subject_id, []).append(r)
    subjects = sorted(groups)
    values = []
    attempt = 0
    while len(values) < n_resamples:
        rng = np.random.default_rng([seed, attempt])
        draw = rng.integers(0, len(subjects), size=len(subjects))
        attempt += 1
        sample = []
        for d in draw:
            sample.extend(groups[subjects[int(d)]])
        try:
            values.append(metric_fn(sample))
        except (DegenerateLabels, EmptyInput):
            continue
    alpha = (1 - level) / 2
    lo, hi = np.quantile(np.array(values), [alpha, 1 - alpha], method="linear")
    return float(lo), float(hi)


def _aupr_of_class(k):
    return lambda rs: aupr([r.probs[k] for r in rs], [r.true_class == k for r in rs])


@pytest.mark.parametrize(
    "metric,class_id,reference",
    [
        pytest.param("ece", None, ece, id="ece"),
        pytest.param("aupr", 6, _aupr_of_class(6), id="aupr"),
        pytest.param("brier", None, brier, id="brier"),
    ],
)
def test_bootstrap_matches_reference_resampler_small(metric, class_id, reference):
    rng = np.random.default_rng(8)
    recs = random_records(rng, 24, n_subjects=3)
    got = bootstrap_ci(recs, metric, n_resamples=32, level=0.95, seed=5, class_id=class_id)
    want = reference_resampler(recs, reference, 32, 0.95, 5)
    assert got == want


def _assert_draws_score_as_concatenation(scores, labels, groups, draws) -> int:
    """Each draw's AUPR equals aupr_arrays on the concatenated resample, bit
    for bit, or both raise; returns how many draws were degenerate."""
    subject = np.empty(scores.size, dtype=np.int64)
    for s, members in enumerate(groups):
        subject[members] = s
    evaluate = _aupr_by_draw(scores, labels, subject)
    degenerate = 0
    for draw in draws:
        idx = np.concatenate([groups[d] for d in draw])
        try:
            want = aupr_arrays(scores[idx], labels[idx])
        except DegenerateLabels:
            degenerate += 1
            with pytest.raises(DegenerateLabels):
                evaluate(draw)
            continue
        assert evaluate(draw).hex() == want.hex()
    return degenerate


def _random_case(rng, n_subjects, decimals, positive_rate):
    sizes = rng.integers(1, 12, size=n_subjects)
    subject = np.repeat(np.arange(n_subjects), sizes)
    rng.shuffle(subject)
    groups = [np.flatnonzero(subject == s) for s in range(n_subjects)]
    scores = np.round(rng.random(subject.size), decimals)
    labels = rng.random(subject.size) < positive_rate
    return scores, labels, groups


@pytest.mark.parametrize("decimals", [1, 2, 3, 4])
@pytest.mark.parametrize("positive_rate", [0.03, 0.3, 0.8])
def test_aupr_draw_matches_concatenated_resample(decimals, positive_rate):
    rng = np.random.default_rng(1000 * decimals + int(100 * positive_rate))
    degenerate = 0
    for _ in range(60):
        n_subjects = int(rng.integers(1, 7))
        scores, labels, groups = _random_case(rng, n_subjects, decimals, positive_rate)
        draws = [rng.integers(0, n_subjects, size=n_subjects) for _ in range(8)]
        degenerate += _assert_draws_score_as_concatenation(scores, labels, groups, draws)
    if positive_rate < 0.1:
        assert degenerate > 0  # the rare class leaves some draws without a positive


def test_aupr_draw_single_subject():
    scores = np.round(np.random.default_rng(12).random(30), 1)
    labels = np.arange(30) % 4 == 0
    groups = [np.arange(30)]
    _assert_draws_score_as_concatenation(scores, labels, groups, [np.array([0])])
    with pytest.raises(DegenerateLabels):
        _aupr_by_draw(scores, np.zeros(30, dtype=bool), np.zeros(30, dtype=np.int64))(np.array([0]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text("bBa\u00e9\u03a91\U0001f600", min_size=1, max_size=2), max_size=40))
@example(["b", "a", "\u00e9", "b", "B", "a"])
def test_subject_groups_and_codes_equal_a_dict_oracle(ids):
    # ids in first-appearance order, which sorting reorders
    recs = [make_record(subject=s, clip=f"c{i}") for i, s in enumerate(ids)]
    rows: dict[str, list[int]] = {}
    for i, s in enumerate(ids):
        rows.setdefault(s, []).append(i)
    subjects, groups = calibration.subject_groups(recs)
    assert subjects == sorted(rows)
    assert [g.tolist() for g in groups] == [rows[s] for s in subjects]
    if recs:
        assert record_arrays(recs).subject.tolist() == [subjects.index(s) for s in ids]


def test_aupr_draw_tie_group_positive_of_undrawn_subject():
    # Subject 0 holds a record in every tie group, subject 1 a positive in
    # about half of them. Drawing subject 0 twice keeps each shared tie group
    # through 0's record, often a negative, although 1's positive was not
    # drawn; those groups must still count as kept and add a 0.0 term.
    rng = np.random.default_rng(13)
    levels = np.round(np.linspace(0.05, 0.95, 19), 2)
    scores, labels, subject = [], [], []
    for level in levels:
        scores.append(level)
        labels.append(bool(rng.random() < 0.4))
        subject.append(0)
        if rng.random() < 0.5:
            scores.append(level)
            labels.append(True)
            subject.append(1)
    subject = np.array(subject)
    groups = [np.flatnonzero(subject == s) for s in range(2)]
    scores, labels = np.array(scores), np.array(labels)
    draws = [np.array(d) for d in ([0, 0], [0, 1], [1, 1], [1, 0])]
    _assert_draws_score_as_concatenation(scores, labels, groups, draws)


def test_bootstrap_interval_within_resample_extremes():
    rng = np.random.default_rng(9)
    recs = random_records(rng, 80, n_subjects=6)
    lo, hi = bootstrap_ci(recs, "accuracy", n_resamples=64, seed=2)
    assert lo <= hi
    assert 0.0 <= lo and hi <= 1.0


@pytest.mark.parametrize("level", [0.0, 1.0])
def test_bootstrap_rejects_a_level_at_either_end(level):
    recs = random_records(np.random.default_rng(9), 40, n_subjects=4)
    with pytest.raises(ValueError, match=r"level must lie in \(0,1\)"):
        bootstrap_ci(recs, "accuracy", n_resamples=8, level=level, seed=2)


def test_bootstrap_takes_a_single_resample():
    recs = random_records(np.random.default_rng(9), 40, n_subjects=4)
    lo, hi = bootstrap_ci(recs, "accuracy", n_resamples=1, seed=2)
    assert 0.0 <= lo == hi <= 1.0


def test_bootstrap_skips_degenerate_resamples():
    # subject A has positives for class 0, subject B has none: resamples
    # drawing only B are undefined for AUPR and must be replaced
    recs = []
    for i in range(6):
        recs.append(make_record(predicted=0, true_class=0, confidence=0.9, subject="A", clip=f"a{i}"))
    for i in range(6):
        recs.append(make_record(predicted=1, true_class=1, confidence=0.8, subject="B", clip=f"b{i}"))
    lo, hi = bootstrap_ci(recs, "aupr", class_id=0, n_resamples=50, seed=1)
    assert 0.0 <= lo <= hi <= 1.0


def test_bootstrap_raises_when_metric_never_defined():
    recs = [make_record(predicted=1, true_class=1, clip=f"c{i}", subject=f"S{i%2}") for i in range(8)]
    with pytest.raises(MetricUndefinedOnResample):
        bootstrap_ci(recs, "aupr", class_id=0, n_resamples=10, seed=0)


@pytest.mark.parametrize(
    "metric, class_id, missing",
    [("aupr", 0, "positive"), ("auroc", 0, "positive"), ("auroc", 1, "negative")],
)
def test_bootstrap_fails_before_any_draw_on_a_metric_no_draw_defines(
    monkeypatch, metric, class_id, missing
):
    recs = [make_record(predicted=1, true_class=1, clip=f"c{i}", subject=f"S{i%2}") for i in range(8)]
    a = record_arrays(recs)
    resampling = calibration.SubjectResampling(a, seed=0)
    draws = []
    monkeypatch.setattr(resampling, "draw", lambda attempt: draws.append(attempt))
    with pytest.raises(MetricUndefinedOnResample) as info:
        bootstrap_ci(a, metric, class_id=class_id, n_resamples=10, seed=0, resampling=resampling)
    assert draws == []
    message = str(info.value)
    assert f"{metric} of class {class_id}" in message
    assert f"no {missing} record" in message
    assert "defined resamples" in message


def test_calibration_report_gives_no_ci_to_a_ranking_metric_without_a_point_value():
    # class 0 has no record: its AUPR and AUROC are None, and so are their CIs
    recs = [
        make_record(predicted=k, true_class=k if i % 3 else 3 - k, confidence=0.5 + 0.04 * i,
                    clip=f"c{i}", subject=f"S{i % 4}")
        for i in range(12)
        for k in (1, 2)
    ]
    kept = ("ece", "aupr:1", "auroc:2")
    report = calibration_report(
        recs, ci_metrics=("aupr:0", *kept, "auroc:0"), n_resamples=20, seed=3
    )
    assert report.per_class_aupr[0] is None and report.per_class_auroc[0] is None
    assert report.ci == calibration_report(recs, ci_metrics=kept, n_resamples=20, seed=3).ci
    assert list(report.ci) == list(kept)


def test_bootstrap_aupr_with_only_positive_records_is_defined():
    # AUPR needs positives only, so a set without negatives is not rejected
    recs = [
        make_record(predicted=1, true_class=1, confidence=0.5 + 0.05 * i, clip=f"c{i}", subject=f"S{i%2}")
        for i in range(8)
    ]
    assert bootstrap_ci(recs, "aupr", class_id=1, n_resamples=10, seed=0) == (1.0, 1.0)


# --- report assembly ----------------------------------------------------------------------

def test_report_cis_equal_standalone_bootstrap_calls():
    rng = np.random.default_rng(14)
    recs = random_records(rng, 150, n_subjects=6)
    names = ["ece", "brier", "accuracy", "aupr:6", "auroc:2"]
    report = calibration_report(recs, ci_metrics=names, n_resamples=40, level=0.9, seed=8)
    for name in names:
        metric, _, k = name.partition(":")
        lo, hi = bootstrap_ci(
            recs, metric, n_resamples=40, level=0.9, seed=8, class_id=int(k) if k else None
        )
        assert report.ci[name] == (lo, hi, 0.9)
    again = calibration_report(recs, ci_metrics=names, n_resamples=40, level=0.9, seed=8)
    assert again == report
    # the records' columns carry their subjects, so they give the same CIs
    columns = calibration_report(
        record_arrays(recs), ci_metrics=names, n_resamples=40, level=0.9, seed=8
    )
    for name in names:
        assert [x.hex() for x in columns.ci[name][:2]] == [x.hex() for x in report.ci[name][:2]]


def test_report_on_a_row_selection_resamples_only_its_subjects():
    rng = np.random.default_rng(17)
    recs = random_records(rng, 150, n_subjects=6)
    a = record_arrays(recs)
    rows = np.flatnonzero(a.subject != 0)  # every subject but the first
    picked = RecordArrays(*(column[rows] for column in a))
    names = ["ece", "brier", "accuracy", "aupr:6", "auroc:2"]
    want = calibration_report([recs[i] for i in rows], ci_metrics=names, n_resamples=30, seed=2)
    got = calibration_report(picked, ci_metrics=names, n_resamples=30, seed=2)
    assert got.n == want.n == rows.size
    for name in names:
        assert [x.hex() for x in got.ci[name][:2]] == [x.hex() for x in want.ci[name][:2]]


def test_report_cis_are_bit_identical_with_the_folds_subject_groups(monkeypatch):
    rng = np.random.default_rng(16)
    recs = random_records(rng, 150, n_subjects=6)
    # the CIs resample by the subject column, whose groups are the folds' rows
    folds = [fold.rows.tolist() for fold in loso_splits(recs)]
    resampling = calibration.SubjectResampling(record_arrays(recs), seed=8)
    assert [rows.tolist() for rows in resampling.groups] == folds
    # an experiment groups its records once, in loso_splits; its pooled
    # report's CIs group the subject column of its final columns
    calls = []
    real = calibration.subject_groups
    monkeypatch.setattr(calibration, "subject_groups", lambda rs: calls.append(1) or real(rs))
    run_experiment(recs, "gate_adaptive", ExperimentConfig(resamples=5), seed=1)
    assert len(calls) == 1


def test_bootstrap_rejects_resampling_of_other_records_or_seed():
    rng = np.random.default_rng(15)
    recs = random_records(rng, 40, n_subjects=4)
    a = record_arrays(recs)
    resampling = calibration.SubjectResampling(a, seed=3)
    shared = bootstrap_ci(a, "ece", n_resamples=16, seed=3, resampling=resampling)
    assert shared == bootstrap_ci(recs, "ece", n_resamples=16, seed=3)
    with pytest.raises(ValueError, match="other records or another seed"):
        bootstrap_ci(a, "ece", n_resamples=16, seed=4, resampling=resampling)
    with pytest.raises(ValueError, match="other records or another seed"):
        bootstrap_ci(recs[:-1], "ece", n_resamples=16, seed=3, resampling=resampling)


def test_calibration_report_counts_and_ci_keys():
    rng = np.random.default_rng(11)
    recs = random_records(rng, 120, n_subjects=5)
    report = calibration_report(
        recs, bins=10, ci_metrics=["ece", "aupr:6"], n_resamples=25, seed=4
    )
    assert report.n == 120
    assert sum(b.count for b in report.bins) == 120
    assert set(report.ci) == {"ece", "aupr:6"}
    lo, hi, level = report.ci["ece"]
    assert lo <= report.ece <= hi or math.isclose(lo, hi)
    assert level == 0.95
    assert set(report.per_class_aupr) == set(range(7))


def test_aupr_of_presorted_tied_scores_finds_the_tie():
    # already in descending order, but not strictly: the tie is one step
    scores = np.array([0.9, 0.9, 0.5])
    labels = np.array([True, False, True])
    assert aupr_arrays(scores, labels) == 0.5833333333333333
