"""End-to-end exercise rig: confidence simulator, LOSO splits, policy
experiment runner, and report persistence.

The simulator stands in for trained networks. Confidence draws follow the
per-class models, correctness follows the calibrated link, and enhancement
effects (accuracy uplift, hallucination) are synthetic and clearly labeled
as such in the scenario config. All randomness derives from explicit seeds:
the stream from `seed`, and each record's SR-effect draws from the
substream ``default_rng([seed, record_index])``, so results do not depend
on evaluation order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from . import calibration, schema
from .calibration import CalibrationReport, calibration_report
from .config import (
    CONF_FLOOR,
    POLICIES,
    BehaviorConfidenceModel,
    ExperimentConfig,
    MixtureSpec,
    experiment_to_dict,
)
from .costs import CostSummary, accumulate_cost
from .errors import (
    EmptyInput,
    IoFailure,
    SchemaMismatch,
    TooFewSubjects,
)
from .gating import gate, gate_adaptive
from .guard import apply_guard
from .records import (
    CLASSES,
    CRITICAL_IDS,
    GateReason,
    NUM_CLASSES,
    PredictionRecord,
    RecordArrays,
    SRLevel,
    record_arrays,
    row_blocks,
    validate_record,
    violation_error,
)

SCHEMA_VERSION = 1

CRITICAL_FP_DEFINITION = (
    "non-critical ground truth predicted as a critical class "
    "with final confidence > cut"
)

# Pinned reference scenario: ~10^4 records over 24 subjects.
PINNED_N_PER_CLASS = 1429
PINNED_SUBJECTS = 24
PINNED_SEED = 42


# --- sampling -------------------------------------------------------------------

def _draw_truncated(rng: np.random.Generator, mu: float, sigma: float) -> float:
    # rejection into the valid confidence support [1/K, 1]
    while True:
        x = rng.normal(mu, sigma)
        if CONF_FLOOR <= x <= 1.0:
            return x


def _draw_confidence(rng: np.random.Generator, dist) -> float:
    while isinstance(dist, MixtureSpec):
        dist = dist.first if rng.random() < dist.weight_first else dist.second
    return _draw_truncated(rng, dist.mu, dist.sigma)


def _build_probs(pred: int, confidence: float) -> tuple[float, ...]:
    rest = (1.0 - confidence) / (NUM_CLASSES - 1)
    return tuple(confidence if k == pred else rest for k in range(NUM_CLASSES))


def sample_stream(
    model: BehaviorConfidenceModel,
    n_per_class: int,
    n_subjects: int,
    seed: int,
) -> list[PredictionRecord]:
    """Deterministic synthetic prediction stream.

    Classes are balanced (n_per_class each) and spread round-robin over
    subjects, so n_subjects may not exceed n_per_class. Confidence comes
    from the class model, correctness from the calibrated link, and wrong
    predictions land uniformly on the other classes. The criticality flag
    follows the *predicted* class, matching what an inference-time
    estimator could know.
    """
    if n_per_class < 1 or n_subjects < 1:
        raise ValueError("n_per_class and n_subjects must be >= 1")
    if n_subjects > n_per_class:
        raise ValueError(
            f"n_subjects {n_subjects} exceeds n_per_class {n_per_class}: "
            f"subjects past the first {n_per_class} would hold no record"
        )
    rng = np.random.default_rng(seed)
    records: list[PredictionRecord] = []
    for class_id in range(NUM_CLASSES):
        dist = model.distributions[class_id]
        for i in range(n_per_class):
            subject = f"S{(i % n_subjects) + 1:02d}"
            p = float(_draw_confidence(rng, dist))
            correct = rng.random() < model.p_correct(p)
            if correct:
                pred = class_id
            else:
                pred = int((class_id + 1 + rng.integers(0, NUM_CLASSES - 1)) % NUM_CLASSES)
            records.append(
                PredictionRecord(
                    subject_id=subject,
                    clip_id=f"{subject}_k{class_id}_{i:05d}",
                    true_class=class_id,
                    probs=_build_probs(pred, p),
                    confidence=p,
                    criticality=int(CLASSES[pred].critical),
                    blur=rng.random(),
                    lighting=rng.random(),
                )
            )
    return records


# --- LOSO splitting ----------------------------------------------------------------

@dataclass(frozen=True)
class LosoFold:
    """One fold; `rows` are the indices of the test subject's records, ascending."""

    test_subject: str
    train_subjects: tuple[str, ...]
    rows: np.ndarray = field(compare=False, repr=False)


def loso_splits(records: Sequence[PredictionRecord]) -> list[LosoFold]:
    """One fold per subject, ordered by subject id."""
    subjects, groups = calibration.subject_groups(records)
    if len(subjects) < 2:
        raise TooFewSubjects(f"need >= 2 subjects, got {len(subjects)}")
    return [
        LosoFold(s, tuple(t for t in subjects if t != s), rows)
        for s, rows in zip(subjects, groups)
    ]


# --- policy evaluation ----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class EvalOutcome:
    """Final state of one record after gating, SR effect, and guard, as
    iterating ``OutcomeColumns`` gives it back. `pred` is None where the
    record's own probability vector stands; otherwise ``final_arrays``
    rebuilds the vector from `pred` and `confidence`."""

    pred: int | None
    confidence: float
    level: SRLevel
    used_sr: bool
    triggered: bool
    p_artifact: float | None


# evaluate_records' columns, one row per record: the final prediction (-1
# where the record's own vector stands), confidence, level, whether the SR
# output stands, whether the guard fired, and the artifact probability (NaN
# where there is no score; a logged score is validated into [0, 1], so NaN
# is never a real one)
OUTCOME = np.dtype([
    ("pred", np.int64), ("confidence", np.float64), ("level", np.int8),
    ("used_sr", bool), ("triggered", bool), ("p_artifact", np.float64),
])


class OutcomeColumns:
    """The outcomes of n records, one contiguous column per ``OUTCOME``
    field, row i from record i. A run keeps these columns, not one object
    per record. Iterating yields the ``EvalOutcome`` rows, with None for a
    -1 `pred` and a NaN `p_artifact`.
    """

    __slots__ = OUTCOME.names

    def __init__(self, rows: np.ndarray):
        for name in self.__slots__:
            setattr(self, name, rows[name].copy())

    def __len__(self) -> int:
        return self.pred.size

    def __iter__(self) -> Iterator[EvalOutcome]:
        columns = (getattr(self, name) for name in self.__slots__)
        for pred, conf, level, used_sr, triggered, p_artifact in row_blocks(*columns):
            yield EvalOutcome(
                None if pred < 0 else pred, conf, SRLevel(level), used_sr, triggered,
                None if p_artifact != p_artifact else p_artifact,
            )


# decide's columns: the SR level, the reason's index in GateReason (-1
# under a fixed policy) and the high threshold used (NaN under a fixed policy)
DECISION = np.dtype([("level", np.int8), ("reason", np.int8), ("tau_used", np.float64)])
_REASON_CODES = {reason: code for code, reason in enumerate(GateReason)}


def decide(
    records: Sequence[PredictionRecord], policy: str, config: ExperimentConfig
) -> np.ndarray:
    """The SR level `policy` picks for each record, as one ``DECISION``
    array: row i is record i's level, reason code and `tau_used`.

    The gate policies call `gate` or `gate_adaptive` once per record, looked
    up by name at each call, not bound here, so replacing the module's
    attribute (to count or time the calls) takes effect. A ValueError names
    an unknown policy.
    """
    if policy in ("fixed_none", "fixed_4x"):
        level = SRLevel.NONE if policy == "fixed_none" else SRLevel.X4
        return np.fromiter([(level, -1, np.nan)] * len(records), DECISION)
    if policy == "gate":
        decisions = (gate(r.confidence, r.criticality, config.thresholds) for r in records)
    elif policy == "gate_adaptive":
        decisions = (gate_adaptive(r, config.thresholds, config.adaptive) for r in records)
    else:
        raise ValueError(f"unknown policy {policy!r}; choose one of {POLICIES}")
    rows = ((d.level, _REASON_CODES[d.reason], d.tau_used) for d in decisions)
    return np.fromiter(rows, DECISION, count=len(records))


def guarded_outcome(
    r: PredictionRecord,
    level: SRLevel,
    pred: int,
    confidence: float,
    p_artifact: float | None,
    config: ExperimentConfig,
) -> tuple:
    """What `r` ends as, as one ``OUTCOME`` row, gated to `level` and
    enhanced into `pred` (-1: its own vector) at `confidence`, given its
    artifact probability (None: no score).

    A level-NONE record keeps its own vector and confidence, and has no
    score. An enhanced record is reverted when the guard is on and its score
    is over the threshold: the LR input is classified again, so it takes its
    own prediction and its own confidence after the discount. Otherwise the
    SR output stands.
    """
    if level == SRLevel.NONE:
        return -1, r.confidence, level, False, False, np.nan
    triggered = False
    if config.guard_enabled and p_artifact is not None:
        guarded = apply_guard(
            p_artifact, level, r.confidence, threshold=config.guard_threshold,
            discount=config.guard_discount, relative_discount=config.guard_relative,
        )
        triggered = guarded.triggered
        if triggered:
            pred, confidence = r.predicted_class, guarded.final_confidence
    score = np.nan if p_artifact is None else p_artifact
    return pred, confidence, level, not triggered, triggered, score


def _evaluate_record(
    r: PredictionRecord, index: int, level: SRLevel, config: ExperimentConfig, seed: int
) -> tuple:
    effect = config.scenario.sr_effect
    if level == SRLevel.NONE or not (effect.hallucination_enabled or effect.uplift_enabled):
        # no SR, or log-driven mode: score the record as it stands, guarding
        # on any artifact probability the upstream detector recorded
        return guarded_outcome(r, level, -1, r.confidence, r.artifact_score, config)

    rng = np.random.default_rng([seed, index])
    hallucinated = rng.random() < effect.hallucination_rate(level)
    if hallucinated:
        targets = effect.hallucination_targets
        pred = int(targets[rng.integers(0, len(targets))])
        conf = min(1.0, r.confidence + float(rng.uniform(*effect.inflation_range)))
        p_artifact = float(rng.uniform(*effect.hallucinated_score_range))
    else:
        p_artifact = float(rng.uniform(*effect.clean_score_range))
        pred = r.predicted_class
        conf = r.confidence
        if effect.uplift_enabled and not r.correct:
            q = config.scenario.model.p_correct(r.confidence)
            u = effect.uplift(level, r.true_class)
            flip_p = q * (u - 1.0) / (1.0 - q + u * q)
            if rng.random() < flip_p:
                pred = r.true_class
    return guarded_outcome(r, level, pred, conf, p_artifact, config)


def log_driven(config: ExperimentConfig) -> ExperimentConfig:
    """`config` with both synthetic SR effects off, so that every record is
    scored as it stands, its guard reading the logged artifact score."""
    effect = replace(config.scenario.sr_effect, uplift_enabled=False, hallucination_enabled=False)
    return replace(config, scenario=replace(config.scenario, sr_effect=effect))


def evaluate_records(
    records: Sequence[PredictionRecord],
    policy: str,
    config: ExperimentConfig,
    seed: int,
) -> OutcomeColumns:
    """Run the policy pipeline over every record: `decide` picks the levels,
    then each record gets its SR effect and guard.

    Row i of the result is record i's outcome; one ``np.fromiter`` fills
    every column, as `decide` fills its own. Each record's stochastic effects
    draw from a substream keyed by its position alone.
    """
    levels = decide(records, policy, config)["level"]
    by_value = tuple(SRLevel)  # indexing costs less per record than SRLevel(value)
    rows = (
        _evaluate_record(r, i, by_value[level], config, seed)
        for i, (r, level) in enumerate(zip(records, levels))
    )
    return OutcomeColumns(np.fromiter(rows, OUTCOME, count=len(records)))


_CRITICAL = np.array([c.critical for c in CLASSES])


def _critical_fp_mask(a: RecordArrays, conf_cut: float) -> np.ndarray:
    """Per row: a non-critical truth predicted as a critical class above the cut."""
    return ~_CRITICAL[a.true_class] & _CRITICAL[a.pred] & (a.confidence > conf_cut)


def final_arrays(arrays: RecordArrays, outcomes: OutcomeColumns) -> RecordArrays:
    """Row i of `arrays` (the input's ``record_arrays``) after outcome i.

    Each row takes its outcome's confidence (the returned column is the
    outcomes' own). A row whose outcome carries a prediction gets mass
    ``max(confidence, CONF_FLOOR + 1e-9)`` on it and ``(1 - mass) / (K - 1)``
    on every other class, so it stays the argmax after a guard discount
    below 1/K, and the criticality of its class. Every other row keeps its
    own vector. A ValueError names both counts unless there is one outcome
    per row.
    """
    n = arrays.confidence.size
    if len(outcomes) != n:
        raise ValueError(f"{len(outcomes)} outcomes for {n} rows; need one outcome per row")
    rows = np.flatnonzero(outcomes.pred >= 0)
    new_pred = outcomes.pred[rows]
    mass = np.maximum(outcomes.confidence[rows], CONF_FLOOR + 1e-9)
    probs = arrays.probs.copy()
    probs[rows] = ((1.0 - mass) / (NUM_CLASSES - 1))[:, None]
    probs[rows, new_pred] = mass
    criticality = arrays.criticality.copy()
    criticality[rows] = _CRITICAL[new_pred]
    pred = arrays.pred.copy()
    pred[rows] = new_pred
    correct = pred == arrays.true_class
    return arrays._replace(
        confidence=outcomes.confidence, criticality=criticality, probs=probs, pred=pred,
        correct=correct,
    )


# --- experiment report ------------------------------------------------------------------

# the bootstrap CIs of a run's pooled report: ECE, and AUPR of each critical class
CI_METRICS = ("ece", *(f"aupr:{k}" for k in sorted(CRITICAL_IDS)))


def pooled_calibration(
    arrays: RecordArrays, config: ExperimentConfig, seed: int
) -> CalibrationReport:
    """The calibration report of a run's final columns, with the CI_METRICS
    intervals over their subjects when ``config.resamples`` > 0."""
    return calibration_report(
        arrays,
        bins=config.bins,
        ci_metrics=CI_METRICS if config.resamples > 0 else None,
        n_resamples=config.resamples,
        level=config.ci_level,
        seed=seed,
    )

@dataclass(frozen=True)
class GuardStats:
    n_sr: int
    n_triggered: int
    trigger_rate: float
    critical_false_positives: int
    critical_fp_conf_cut: float
    critical_fp_definition: str = CRITICAL_FP_DEFINITION


@dataclass(frozen=True)
class FoldResult:
    test_subject: str
    n: int
    accuracy: float
    ece: float
    brier: float
    mean_gflops: float
    guard_triggers: int
    critical_false_positives: int


@dataclass(frozen=True)
class ExperimentReport:
    policy: str
    seed: int
    n: int
    calibration: CalibrationReport
    cost: CostSummary
    guard: GuardStats
    folds: tuple[FoldResult, ...]
    config: dict
    schema_version: int = SCHEMA_VERSION


def run_experiment(
    records: Sequence[PredictionRecord],
    policy: str,
    config: ExperimentConfig,
    seed: int,
) -> ExperimentReport:
    report, _ = run_experiment_with_outcomes(records, policy, config, seed)
    return report


def run_experiment_with_outcomes(
    records: Sequence[PredictionRecord],
    policy: str,
    config: ExperimentConfig,
    seed: int,
) -> tuple[ExperimentReport, OutcomeColumns]:
    """Gate, apply synthetic SR effects and the guard, and score per LOSO fold.

    Nothing is fitted on training folds (the policies are closed-form), so
    each record is evaluated once and grouped by its test subject. The
    pooled calibration report carries subject-level bootstrap CIs for ECE
    and for AUPR of each critical class. Also returns the per-record
    outcomes, as ``OutcomeColumns``, for audit emission.

    Scoring runs on arrays: the input records become one ``RecordArrays``,
    and the outcomes turn it into the final columns (``final_arrays``),
    next to the outcomes' own level and trigger columns. The pooled report
    and its CIs, pooled cost, guard counts and critical false positives
    come from those arrays, and every fold's accuracy, ECE, Brier, cost,
    triggers and critical false positives from the rows of its test
    subject, the index array ``LosoFold.rows`` of ``loso_splits``.
    """
    if not records:
        raise EmptyInput("no records")
    for i, r in enumerate(records):
        violations = validate_record(r)
        if violations:
            raise violation_error(i + 1, violations)

    folds = loso_splits(records)
    outcomes = evaluate_records(records, policy, config, seed)
    arrays = final_arrays(record_arrays(records), outcomes)
    pooled = pooled_calibration(arrays, config, seed)

    levels, triggered = outcomes.level, outcomes.triggered
    critical_fp = _critical_fp_mask(arrays, config.critical_fp_conf_cut)

    n_sr = int(np.count_nonzero(levels))
    n_triggered = int(np.count_nonzero(triggered))
    guard = GuardStats(
        n_sr=n_sr,
        n_triggered=n_triggered,
        trigger_rate=(n_triggered / n_sr) if n_sr else 0.0,
        critical_false_positives=int(np.count_nonzero(critical_fp)),
        critical_fp_conf_cut=config.critical_fp_conf_cut,
    )
    cost = accumulate_cost(levels, config.costs)

    fold_results = []
    for fold in folds:
        idx = fold.rows
        rows = RecordArrays(*(column[idx] for column in arrays))
        fold_results.append(
            FoldResult(
                test_subject=fold.test_subject,
                n=len(idx),
                accuracy=calibration.accuracy(rows),
                ece=calibration.ece(rows, config.bins),
                brier=calibration.brier(rows),
                mean_gflops=accumulate_cost(levels[idx], config.costs).mean_gflops,
                guard_triggers=int(np.count_nonzero(triggered[idx])),
                critical_false_positives=int(np.count_nonzero(critical_fp[idx])),
            )
        )

    report = ExperimentReport(
        policy=policy,
        seed=seed,
        n=len(records),
        calibration=pooled,
        cost=cost,
        guard=guard,
        folds=tuple(fold_results),
        config={"policy": policy, "seed": seed, **experiment_to_dict(config)},
    )
    return report, outcomes


# --- persistence ------------------------------------------------------------------------

def report_to_dict(report: ExperimentReport) -> dict:
    return schema.encode(report)


def report_from_dict(d: dict) -> ExperimentReport:
    version = d.get("schema_version") if isinstance(d, dict) else None
    if version != SCHEMA_VERSION:
        raise SchemaMismatch(f"schema version {version!r}, expected {SCHEMA_VERSION}")
    return schema.decode(ExperimentReport, d, "")


def render_report(report: ExperimentReport) -> str:
    """Deterministic JSON body (no timestamps, stable key order)."""
    return json.dumps(report_to_dict(report), sort_keys=True, indent=1) + "\n"


def write_report(report: ExperimentReport, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_report(report))
    except OSError as exc:
        raise IoFailure(f"cannot write report to {path}: {exc}") from exc


def read_report(path: str) -> ExperimentReport:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read report from {path}: {exc}") from exc
    except (RecursionError, ValueError) as exc:
        # not JSON or not UTF-8, or past the recursion or the digit limit
        raise SchemaMismatch(f"{path} is not a JSON report: {exc}") from exc
    return report_from_dict(data)

