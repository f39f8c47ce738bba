"""Safety-centric evaluation: reliability bins, ECE, Brier, ranking metrics,
and subject-level bootstrap confidence intervals.

Record-level operations wrap array-level implementations so the bootstrap
can resample cheaply; both routes share the same arithmetic. They also
take the records' ``RecordArrays``, or any row selection of it, so a
caller that holds the arrays does not convert the records again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateLabels,
    EmptyInput,
    MetricUndefinedOnResample,
    MissingProbs,
)
from .records import PredictionRecord, RecordArrays, record_arrays

Records = Sequence[PredictionRecord] | RecordArrays


@dataclass(frozen=True)
class ReliabilityBin:
    """One confidence bin of a reliability diagram.

    Bin m covers ((m-1)/M, m/M], except the first bin which also includes 0.
    Empty bins report zero count with mean_conf and accuracy of 0.
    """

    lo: float
    hi: float
    count: int
    mean_conf: float
    accuracy: float


@dataclass(frozen=True)
class CalibrationReport:
    ece: float
    brier: float
    bins: tuple[ReliabilityBin, ...]
    per_class_auroc: Mapping[int, float | None]
    per_class_aupr: Mapping[int, float | None]
    n: int
    ci: Mapping[str, tuple[float, float, float]] | None = None


# --- array-level metric cores --------------------------------------------------

def bin_indices(conf: np.ndarray, m: int) -> np.ndarray:
    """0-based bin index per confidence; lower-closed first bin."""
    idx = np.ceil(conf * m).astype(np.int64)
    np.clip(idx, 1, m, out=idx)
    return idx - 1


def _bin_stats(conf: np.ndarray, correct: np.ndarray, m: int):
    idx = bin_indices(conf, m)
    counts = np.bincount(idx, minlength=m)
    conf_sums = np.bincount(idx, weights=conf, minlength=m)
    acc_sums = np.bincount(idx, weights=correct.astype(np.float64), minlength=m)
    return counts, conf_sums, acc_sums


def ece_arrays(conf: np.ndarray, correct: np.ndarray, m: int = 10) -> float:
    if conf.size == 0:
        raise EmptyInput("no records")
    counts, conf_sums, acc_sums = _bin_stats(conf, correct, m)
    nz = counts > 0
    gaps = np.abs(acc_sums[nz] / counts[nz] - conf_sums[nz] / counts[nz])
    return float(np.sum(counts[nz] / conf.size * gaps))


def brier_arrays(probs: np.ndarray, true_class: np.ndarray) -> float:
    if probs.size == 0:
        raise EmptyInput("no records")
    onehot = np.zeros_like(probs)
    onehot[np.arange(probs.shape[0]), true_class] = 1.0
    return float(np.mean(np.sum((probs - onehot) ** 2, axis=1)))


def auroc_arrays(scores: np.ndarray, labels: np.ndarray) -> float:
    labels = labels.astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("need at least one positive and one negative")
    # average ranks over tied score groups (Mann-Whitney half-credit)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    avg_ranks = (ends - counts + 1 + ends) / 2.0
    rank_sum_pos = float(avg_ranks[inverse][labels].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def pr_curve_arrays(
    scores: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None
):
    """Precision/recall at each distinct score threshold, descending.

    Tied scores form a single step. Integer `weights`, if given, count each
    record that many times (0 drops it), so the curve is exactly that of the
    records repeated. Returns (thresholds, precision, recall).

    Two fast paths skip work that cannot change the result. Scores already
    in descending order (as the bootstrap passes them) are not sorted again,
    since a stable sort of such input is the identity; NaN fails that test
    and takes the sort. When no two scores tie, every record ends its own
    step, so the cumulative counts are returned without gathering group ends
    (the thresholds may then be `scores` itself).
    """
    if weights is None:
        weights = np.ones(scores.size, dtype=np.int64)
    else:
        # integer indices: gathering by a boolean mask is several times slower
        kept = np.flatnonzero(weights > 0)
        scores, labels, weights = scores[kept], labels[kept], weights[kept]
    if not (scores[1:] <= scores[:-1]).all():
        order = np.argsort(-scores, kind="mergesort")
        scores, labels, weights = scores[order], labels[order], weights[order]
    # labels count by truth value; integer weights make the running sums
    # exact, so the last is the total
    tp = np.cumsum(np.where(labels, weights, 0))
    n_pos = int(tp[-1]) if tp.size else 0
    if n_pos == 0:
        raise DegenerateLabels("need at least one positive")
    predicted = np.cumsum(weights)
    # a tied group ends where the next score differs, and at the last record
    last = np.flatnonzero(np.diff(scores))
    if last.size < scores.size - 1:
        ends = np.append(last, scores.size - 1)
        scores, tp, predicted = scores[ends], tp[ends], predicted[ends]
    precision = tp / predicted
    recall = tp / n_pos
    return scores, precision, recall


def aupr_arrays(
    scores: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None
) -> float:
    """Average precision over the descending-score sweep (step interpolation).

    `weights` are integer record multiplicities, as in ``pr_curve_arrays``.
    """
    _, precision, recall = pr_curve_arrays(scores, labels, weights)
    prev_recall = np.concatenate(([0.0], recall[:-1]))
    return float(np.sum((recall - prev_recall) * precision))


# --- record-level operations ----------------------------------------------------

def _arrays(records: Records, m: int | None = None) -> RecordArrays:
    """The arrays of `records`, converted only if they are records.

    Checks emptiness first, then the bin count `m` if one is given.
    """
    given = isinstance(records, RecordArrays)
    if (records.confidence.size if given else len(records)) == 0:
        raise EmptyInput("no records")
    if m is not None and m < 1:
        raise ValueError("m must be >= 1")
    return records if given else record_arrays(records)


def reliability_bins(records: Records, m: int = 10) -> list[ReliabilityBin]:
    a = _arrays(records, m)
    counts, conf_sums, acc_sums = _bin_stats(a.confidence, a.correct, m)
    bins = []
    for i in range(m):
        count = int(counts[i])
        bins.append(
            ReliabilityBin(
                lo=i / m,
                hi=(i + 1) / m,
                count=count,
                mean_conf=float(conf_sums[i] / count) if count else 0.0,
                accuracy=float(acc_sums[i] / count) if count else 0.0,
            )
        )
    return bins


def ece(records: Records, m: int = 10) -> float:
    """Bin-weighted mean absolute gap between confidence and accuracy."""
    a = _arrays(records, m)
    return ece_arrays(a.confidence, a.correct, m)


def brier(records: Records) -> float:
    """Mean squared distance between probability vectors and one-hot labels."""
    a = _arrays(records)
    return brier_arrays(a.probs, a.true_class)


def accuracy(records: Records) -> float:
    return float(np.mean(_arrays(records).correct))


def auroc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Probability a random positive outranks a random negative (ties half)."""
    return auroc_arrays(np.asarray(scores, dtype=np.float64), np.asarray(labels))


def aupr(scores: Sequence[float], labels: Sequence[bool]) -> float:
    return aupr_arrays(np.asarray(scores, dtype=np.float64), np.asarray(labels))


# --- subject-level bootstrap ------------------------------------------------------

MAX_ATTEMPT_FACTOR = 10


def subject_groups(records: Sequence[PredictionRecord]):
    """Sorted subject ids and, for each, the ascending indices of its records."""
    groups: dict[str, list[int]] = {}
    for i, r in enumerate(records):
        groups.setdefault(r.subject_id, []).append(i)
    subjects = sorted(groups)
    return subjects, [np.array(groups[s], dtype=np.int64) for s in subjects]


def _aupr_by_draw(
    scores: np.ndarray, labels: np.ndarray, groups: Sequence[np.ndarray]
) -> Callable[[np.ndarray], float]:
    """AUPR of a subject draw, scored without building the resample.

    A draw holding subject s w_s times is the records weighted by w_s, which
    ``aupr_arrays`` scores exactly as the concatenated resample, bit for bit.
    The scores are sorted once here, so ``pr_curve_arrays`` skips its sort.
    """
    subject = np.empty(scores.size, dtype=np.int64)
    for s, members in enumerate(groups):
        subject[members] = s
    order = np.argsort(-scores, kind="mergesort")
    scores, labels, subject = scores[order], labels[order], subject[order]
    n_subjects = len(groups)

    def evaluate(draw: np.ndarray) -> float:
        return aupr_arrays(scores, labels, np.bincount(draw, minlength=n_subjects)[subject])

    return evaluate


class SubjectResampling:
    """The subject groups, arrays and draws of some records, shared by the
    bootstrap CIs of one report.

    Draw k is ``default_rng([seed, k]).integers(0, n, n)`` for n subjects.
    Draws are made on first use and kept, so the CIs of one report group
    and convert the records once and build each generator once. Make one
    per report, never per process: a table that outlived its report would
    make later runs read warmer than a user's single run. `arrays`, if
    given, are ``record_arrays(records)``, already built by the caller.
    """

    def __init__(
        self, records: Sequence[PredictionRecord], seed: int, arrays: RecordArrays | None = None
    ):
        self.records = records
        self.seed = seed
        _, self.groups = subject_groups(records)
        self.arrays = record_arrays(records) if arrays is None else arrays
        self._draws: list[np.ndarray] = []

    def draw(self, attempt: int) -> np.ndarray:
        draws = self._draws
        n = len(self.groups)
        while len(draws) <= attempt:
            draws.append(np.random.default_rng([self.seed, len(draws)]).integers(0, n, size=n))
        return draws[attempt]


def _resolve_metric(
    metric: str,
    bins: int,
    class_id: int | None,
    resampling: SubjectResampling,
) -> Callable[[np.ndarray], float]:
    """Bind a metric to the evaluation of one subject draw over the records.

    AUPR scores the draw directly; every other metric scores the
    concatenated resample of the drawn subjects' records.
    """
    groups = resampling.groups

    def on_resample(fn: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], float]:
        return lambda draw: fn(np.concatenate([groups[d] for d in draw]))

    a = resampling.arrays
    if metric == "ece":
        return on_resample(lambda idx: ece_arrays(a.confidence[idx], a.correct[idx], bins))
    if metric == "brier":
        return on_resample(lambda idx: brier_arrays(a.probs[idx], a.true_class[idx]))
    if metric == "accuracy":
        return on_resample(lambda idx: float(np.mean(a.correct[idx])))
    if metric in ("auroc", "aupr"):
        if class_id is None:
            raise ValueError(f"{metric} needs class_id")
        scores = a.probs[:, class_id]
        labels = a.true_class == class_id
        # a resample holds only these records, so no draw can define a
        # ranking metric that the whole set leaves undefined
        positives = int(np.count_nonzero(labels))
        if positives == 0 or (metric == "auroc" and positives == labels.size):
            missing = "positive" if positives == 0 else "negative"
            raise MetricUndefinedOnResample(
                f"{metric} of class {class_id}: no {missing} record in the set,"
                " so no resample is defined (0 defined resamples, no draw made)"
            )
        if metric == "aupr":
            return _aupr_by_draw(scores, labels, groups)
        return on_resample(lambda idx: auroc_arrays(scores[idx], labels[idx]))
    raise ValueError(f"unknown metric {metric!r}")


def bootstrap_ci(
    records: Sequence[PredictionRecord],
    metric: str,
    n_resamples: int = 1000,
    level: float = 0.95,
    seed: int = 0,
    bins: int = 10,
    class_id: int | None = None,
    *,
    resampling: SubjectResampling | None = None,
) -> tuple[float, float]:
    """Percentile interval from resampling subjects with replacement.

    All of a subject's records travel together. Resample k draws from the
    deterministic substream ``default_rng([seed, k])`` where k counts
    attempts, so results are bit-reproducible and order-independent.
    `metric` is named: "ece", "brier", "accuracy", "aupr" or "auroc" (the
    last two of `class_id`). Resamples on which the metric is undefined
    (e.g. no positives for AUPR) are skipped and replaced, up to 10x
    n_resamples attempts. An AUPR or AUROC that the whole set leaves
    undefined (no positive record, or for AUROC no negative) is undefined
    on every draw, so it raises before the first one.

    AUPR resamples are scored as the presorted records weighted by the
    draw's subject multiplicities (see ``_aupr_by_draw``), bit-identical to
    ``aupr_arrays`` on the concatenated resample; every other metric scores
    the concatenated resample itself. Since the records arrive in
    descending score order, ``pr_curve_arrays`` skips its sort, and on
    distinct scores its tie-group gathers too.

    `resampling`, a ``SubjectResampling`` of these records and `seed`,
    supplies their subject groups, arrays and draws, so the CIs of one
    report share them instead of each grouping and converting the records
    and building the same generators; the interval is the same either way.
    """
    if not records:
        raise EmptyInput("no records")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0,1)")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    if resampling is None:
        resampling = SubjectResampling(records, seed)
    elif resampling.records is not records or resampling.seed != seed:
        raise ValueError("resampling was made for other records or another seed")
    eval_metric = _resolve_metric(metric, bins, class_id, resampling)

    values = np.empty(n_resamples, dtype=np.float64)
    got = 0
    max_attempts = MAX_ATTEMPT_FACTOR * n_resamples
    for attempt in range(max_attempts):
        if got == n_resamples:
            break
        try:
            values[got] = eval_metric(resampling.draw(attempt))
        except (DegenerateLabels, EmptyInput, MissingProbs):
            continue
        got += 1
    if got < n_resamples:
        raise MetricUndefinedOnResample(
            f"only {got}/{n_resamples} defined resamples after {max_attempts} attempts"
        )
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(values, [alpha, 1.0 - alpha], method="linear")
    return float(lo), float(hi)


def per_class_ranking(
    records: Records, class_ids: Sequence[int] | None = None
) -> tuple[dict[int, float | None], dict[int, float | None]]:
    """One-vs-rest AUROC and AUPR per class; None where undefined."""
    a = _arrays(records)
    ids = list(class_ids) if class_ids is not None else list(range(a.probs.shape[1]))
    aurocs: dict[int, float | None] = {}
    auprs: dict[int, float | None] = {}
    for k in ids:
        scores = a.probs[:, k]
        labels = a.true_class == k
        try:
            aurocs[k] = auroc_arrays(scores, labels)
        except DegenerateLabels:
            aurocs[k] = None
        try:
            auprs[k] = aupr_arrays(scores, labels)
        except DegenerateLabels:
            auprs[k] = None
    return aurocs, auprs


def calibration_report(
    records: Sequence[PredictionRecord],
    bins: int = 10,
    ci_metrics: Sequence[str] | None = None,
    n_resamples: int = 1000,
    level: float = 0.95,
    seed: int = 0,
    arrays: RecordArrays | None = None,
) -> CalibrationReport:
    """Full calibration summary, optionally with bootstrap CIs.

    ci_metrics entries are "ece", "brier", "accuracy", or "aupr:<class_id>" /
    "auroc:<class_id>" for one-vs-rest ranking CIs. The point metrics share
    one conversion of the records to arrays, which the CIs share with their
    subject groups and draws (``SubjectResampling``). Given `arrays` (row i
    for record i) are scored instead; the records then give the CIs' subjects.
    """
    a = _arrays(records if arrays is None else arrays, bins)
    bin_list = reliability_bins(a, bins)
    aurocs, auprs = per_class_ranking(a)
    ci = None
    if ci_metrics:
        ci = {}
        resampling = SubjectResampling(records, seed, arrays=a)
        for name in ci_metrics:
            metric, _, class_part = name.partition(":")
            class_id = int(class_part) if class_part else None
            lo, hi = bootstrap_ci(
                records,
                metric,
                n_resamples=n_resamples,
                level=level,
                seed=seed,
                bins=bins,
                class_id=class_id,
                resampling=resampling,
            )
            ci[name] = (lo, hi, level)
    return CalibrationReport(
        ece=ece(a, bins),
        brier=brier(a),
        bins=tuple(bin_list),
        per_class_auroc=aurocs,
        per_class_aupr=auprs,
        n=len(records),
        ci=ci,
    )
