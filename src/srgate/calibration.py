"""Safety-centric evaluation: reliability bins, ECE, Brier, ranking metrics,
and subject-level bootstrap confidence intervals.

Record-level operations wrap array-level implementations so the bootstrap
can resample cheaply; both routes share the same arithmetic. Each takes
records or their ``RecordArrays`` (any row selection), resolved by
``records.as_columns``, so a caller holding the columns converts nothing.
Emptiness is checked first, then the bin count, once, in ``bin_indices``.
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
from .records import ROW_BLOCK, PredictionRecord, RecordArrays, Records, as_columns, subject_codes


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
    if m < 1:
        raise ValueError("m must be >= 1")
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


def _brier_rows(probs: np.ndarray, true_class: np.ndarray) -> np.ndarray:
    """Each row's squared distance to its one-hot label.

    Rows go through ``np.sum((probs - onehot) ** 2, axis=1)`` ``ROW_BLOCK``
    at a time, so no (n, K) one-hot is held; a row's sum depends on its own
    entries alone (numpy sums a row of K >= 8 pairwise, so the expression,
    not a column-by-column sum, is what keeps every bit).
    """
    rows = np.empty(probs.shape[0], dtype=np.float64)
    for start in range(0, rows.size, ROW_BLOCK):
        block = probs[start : start + ROW_BLOCK]
        onehot = np.zeros_like(block)
        onehot[np.arange(block.shape[0]), true_class[start : start + ROW_BLOCK]] = 1.0
        rows[start : start + ROW_BLOCK] = np.sum((block - onehot) ** 2, axis=1)
    return rows


def brier_arrays(probs: np.ndarray, true_class: np.ndarray) -> float:
    if probs.size == 0:
        raise EmptyInput("no records")
    return float(np.mean(_brier_rows(probs, true_class)))


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


_NO_TIES = np.empty(0, dtype=np.intp)


def _descending(scores: np.ndarray, labels: np.ndarray, weights: np.ndarray | None):
    """The records with positive weight in stable descending score order,
    and their ties: each i where records i and i + 1 share one step.

    A step is a run of equal scores; NaN equals nothing, so it ends a step.
    Scores already in strictly descending order (as the bootstrap passes
    them) tie nowhere and need no sort; any other input already in
    descending order is not sorted again either, since a stable sort of it
    is the identity.
    """
    if weights is not None:
        # integer indices: gathering by a boolean mask is several times slower
        kept = np.flatnonzero(weights > 0)
        scores, labels, weights = scores[kept], labels[kept], weights[kept]
    if (scores[1:] < scores[:-1]).all():
        return scores, labels, weights, _NO_TIES
    if not (scores[1:] <= scores[:-1]).all():
        order = np.argsort(-scores, kind="mergesort")
        scores, labels = scores[order], labels[order]
        weights = None if weights is None else weights[order]
    return scores, labels, weights, np.flatnonzero(scores[1:] == scores[:-1])


def pr_curve_arrays(
    scores: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None
):
    """Precision/recall at each distinct score threshold, descending.

    Tied scores form a single step. Integer `weights`, if given, count each
    record that many times (0 drops it), so the curve is exactly that of the
    records repeated. Returns (thresholds, precision, recall).
    """
    scores, labels, weights, ties = _descending(scores, labels, weights)
    if weights is None:
        weights = np.ones(scores.size, dtype=np.int64)
    # labels count by truth value; integer weights make the running sums
    # exact, so the last is the total
    tp = np.cumsum(np.where(labels, weights, 0))
    n_pos = int(tp[-1]) if tp.size else 0
    if n_pos == 0:
        raise DegenerateLabels("need at least one positive")
    predicted = np.cumsum(weights)
    ends = np.delete(np.arange(scores.size), ties)
    return scores[ends], tp[ends] / predicted[ends], tp[ends] / n_pos


def aupr_arrays(
    scores: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None
) -> float:
    """Average precision over the descending-score sweep (step interpolation):
    the sum over steps of (recall - previous recall) x precision, with the
    steps of ``pr_curve_arrays``.

    `weights` are integer record multiplicities, as in ``pr_curve_arrays``.

    Only the steps holding a positive are scored, and the sum is still
    exact. A step without a positive has the tp, and so the recall, of the
    step before it, so its term is exactly +0.0. Scattering the positive
    steps' terms into zeros therefore rebuilds the full terms array element
    for element, and the pairwise ``np.sum`` over it returns the same bits.
    Each positive step's precision and recall come from the same integer tp
    and predicted counts and the same divisions as on the full curve.
    """
    scores, labels, weights, ties = _descending(scores, labels, weights)
    pos = np.flatnonzero(labels)
    if pos.size == 0:
        raise DegenerateLabels("need at least one positive")
    tp = np.arange(1, pos.size + 1) if weights is None else np.cumsum(weights[pos])
    step = end = pos
    if ties.size:
        # record i lies in step i - (ties before i); a step ends at its last
        # record, and its tp is that of its last positive
        step = pos - np.searchsorted(ties, pos)
        last = np.append(step[1:] != step[:-1], True)
        step, tp = step[last], tp[last]
        # ties[j] - j steps end before tie j, so step k spans every tie with
        # ties[j] - j <= k before its end
        end = step + np.searchsorted(ties - np.arange(ties.size), step, side="right")
    predicted = end + 1 if weights is None else np.cumsum(weights)[end]
    precision = tp / predicted
    recall = tp / int(tp[-1])
    terms = np.zeros(scores.size - ties.size)
    terms[step] = (recall - np.concatenate(([0.0], recall[:-1]))) * precision
    return float(np.sum(terms))


# --- record-level operations ----------------------------------------------------

def reliability_bins(records: Records, m: int = 10) -> list[ReliabilityBin]:
    a = as_columns(records)
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
    a = as_columns(records)
    return ece_arrays(a.confidence, a.correct, m)


def brier(records: Records) -> float:
    """Mean squared distance between probability vectors and one-hot labels."""
    a = as_columns(records)
    return brier_arrays(a.probs, a.true_class)


def accuracy(records: Records) -> float:
    return float(np.mean(as_columns(records).correct))


def auroc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Probability a random positive outranks a random negative (ties half)."""
    return auroc_arrays(np.asarray(scores, dtype=np.float64), np.asarray(labels))


def aupr(scores: Sequence[float], labels: Sequence[bool]) -> float:
    return aupr_arrays(np.asarray(scores, dtype=np.float64), np.asarray(labels))


# --- subject-level bootstrap ------------------------------------------------------

MAX_ATTEMPT_FACTOR = 10


def _rows_by_subject(codes: np.ndarray) -> list[np.ndarray]:
    """For each code 0..n-1 in turn, the ascending indices of its rows."""
    return np.split(np.argsort(codes, kind="stable"), np.cumsum(np.bincount(codes)))[:-1]


def subject_groups(records: Sequence[PredictionRecord]):
    """Sorted subject ids and, for each, the ascending indices of its records."""
    subjects, codes = subject_codes(records)
    return subjects, _rows_by_subject(codes)


def _aupr_by_draw(
    scores: np.ndarray, labels: np.ndarray, subject: np.ndarray
) -> Callable[[np.ndarray], float]:
    """AUPR of a subject draw, scored without building the resample.

    A draw holding subject s w_s times is the records with ``subject`` s
    weighted by w_s, which ``aupr_arrays`` scores exactly as the concatenated
    resample, bit for bit. The scores are sorted once here, so each draw
    skips the sort, and where no two scores tie, the search for ties too.
    Each draw then scores only its steps that hold a positive (see
    ``aupr_arrays`` for why the sum is still exact), one call per draw.
    """
    order = np.argsort(-scores, kind="mergesort")
    scores, labels, subject = scores[order], labels[order], subject[order]
    n_subjects = int(subject.max()) + 1

    def evaluate(draw: np.ndarray) -> float:
        return aupr_arrays(scores, labels, np.bincount(draw, minlength=n_subjects)[subject])

    return evaluate


class SubjectResampling:
    """The subject groups and draws of some records' columns, shared by the
    bootstrap CIs of one report.

    The n subjects in ``arrays.subject`` (a row selection may lack some) are
    renumbered 0..n-1 in id order, and draw k is
    ``default_rng([seed, k]).integers(0, n, n)``. Draws are made on first
    use and kept, so the CIs of one report group the records once and build
    each generator once. Make one per report, never per process: a table
    that outlived its report would make later runs read warmer than a
    user's single run.
    """

    def __init__(self, arrays: RecordArrays, seed: int):
        self.arrays = arrays
        self.seed = seed
        self.subject = (np.cumsum(np.bincount(arrays.subject) > 0) - 1)[arrays.subject]
        self.groups = _rows_by_subject(self.subject)
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

    AUPR scores the draw directly, and Brier averages the per-record rows
    of ``_brier_rows``, computed once, over the concatenated resample; every
    other metric scores the concatenated resample of the drawn subjects'
    records.
    """
    groups = resampling.groups

    def on_resample(fn: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], float]:
        return lambda draw: fn(np.concatenate([groups[d] for d in draw]))

    a = resampling.arrays
    if metric == "ece":
        return on_resample(lambda idx: ece_arrays(a.confidence[idx], a.correct[idx], bins))
    if metric == "brier":
        # the mean of the resample's rows, which is brier_arrays of it bit for bit
        rows = _brier_rows(a.probs, a.true_class)
        return on_resample(lambda idx: float(np.mean(rows[idx])))
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
            return _aupr_by_draw(scores, labels, resampling.subject)
        return on_resample(lambda idx: auroc_arrays(scores[idx], labels[idx]))
    raise ValueError(f"unknown metric {metric!r}")


def bootstrap_ci(
    records: Records,
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
    ``aupr_arrays`` on the concatenated resample. Brier resamples average
    the resample's rows of ``_brier_rows``, computed once, which is
    ``brier_arrays`` of the resample bit for bit. Every other metric scores
    the concatenated resample itself.

    `resampling`, a ``SubjectResampling`` made from exactly these columns
    and `seed`, supplies their subject groups and draws, so the CIs of one
    report share them instead of each grouping the records and building the
    same generators; the interval is the same either way.
    """
    a = as_columns(records)
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0,1)")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    if resampling is None:
        resampling = SubjectResampling(a, seed)
    elif resampling.arrays is not records or resampling.seed != seed:
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


def per_class_ranking(records: Records) -> tuple[dict[int, float | None], dict[int, float | None]]:
    """One-vs-rest AUROC and AUPR per class; None where undefined."""
    a = as_columns(records)
    aurocs: dict[int, float | None] = {}
    auprs: dict[int, float | None] = {}
    for k in range(a.probs.shape[1]):
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
    records: Records,
    bins: int = 10,
    ci_metrics: Sequence[str] | None = None,
    n_resamples: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> CalibrationReport:
    """Full calibration summary, optionally with bootstrap CIs.

    ci_metrics entries are "ece", "brier", "accuracy", or "aupr:<class_id>" /
    "auroc:<class_id>" for one-vs-rest ranking CIs. A ranking metric whose
    point value is None (no positive record of the class, or for AUROC no
    negative) gets no CI, so `ci` holds no key for it; the other CIs do not
    change, since draw k depends on the seed and k alone. The point metrics
    and the CIs score the same columns, converted once if need be, and the
    CIs share one subject grouping and set of draws (``SubjectResampling``).
    """
    a = as_columns(records)
    bin_list = reliability_bins(a, bins)
    aurocs, auprs = per_class_ranking(a)
    ci = None
    if ci_metrics:
        ci = {}
        resampling = SubjectResampling(a, seed)
        points = {"aupr": auprs, "auroc": aurocs}
        for name in ci_metrics:
            metric, _, class_part = name.partition(":")
            class_id = int(class_part) if class_part else None
            if points.get(metric, {}).get(class_id, 0.0) is None:
                continue  # no record can rank the class, so no draw can either
            lo, hi = bootstrap_ci(
                a,
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
        n=a.confidence.size,
        ci=ci,
    )
