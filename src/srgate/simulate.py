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
from dataclasses import dataclass
from typing import Sequence

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
    MalformedRecord,
    SchemaMismatch,
    TooFewSubjects,
)
from .gating import gate, gate_adaptive
from .guard import GuardOutcome, apply_guard
from .records import (
    CLASSES,
    CRITICAL_IDS,
    NUM_CLASSES,
    PredictionRecord,
    RecordArrays,
    SRLevel,
    record_arrays,
    subjects_of,
    validate_record,
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
    subjects. Confidence comes from the class model, correctness from the
    calibrated link, and wrong predictions land uniformly on the other
    classes. The criticality flag follows the *predicted* class, matching
    what an inference-time estimator could know.
    """
    if n_per_class < 1 or n_subjects < 1:
        raise ValueError("n_per_class and n_subjects must be >= 1")
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
                    blur=float(rng.uniform()),
                    lighting=float(rng.uniform()),
                )
            )
    return records


# --- LOSO splitting ----------------------------------------------------------------

@dataclass(frozen=True)
class LosoFold:
    test_subject: str
    train_subjects: tuple[str, ...]


def loso_splits(records: Sequence[PredictionRecord]) -> list[LosoFold]:
    """One fold per subject, ordered by subject id."""
    subjects = subjects_of(records)
    if len(subjects) < 2:
        raise TooFewSubjects(f"need >= 2 subjects, got {len(subjects)}")
    return [
        LosoFold(s, tuple(t for t in subjects if t != s)) for s in subjects
    ]


# --- policy evaluation ----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class EvalOutcome:
    """Final state of one record after gating, SR effect, and guard. `pred`
    is None where the record's own probability vector stands; otherwise
    ``final_arrays`` rebuilds the vector from `pred` and `confidence`."""

    pred: int | None
    confidence: float
    level: SRLevel
    used_sr: bool
    triggered: bool
    p_artifact: float | None


# The SR level each policy picks for a record. gate and gate_adaptive are
# looked up by name at each call, not bound here, so replacing the module's
# attribute (to count or time the calls) takes effect.
_POLICY_LEVELS = {
    "fixed_none": lambda r, c: SRLevel.NONE,
    "fixed_4x": lambda r, c: SRLevel.X4,
    "gate": lambda r, c: gate(r.confidence, r.criticality, c.thresholds).level,
    "gate_adaptive": lambda r, c: gate_adaptive(r, c.thresholds, c.adaptive).level,
}


def guard_outcome(
    r: PredictionRecord, level: SRLevel, p_artifact: float | None, config: ExperimentConfig
) -> GuardOutcome:
    """The run's guard on one record enhanced at `level`, given its artifact
    probability: revert-and-discount when the guard is on and the score is
    over the threshold. With the guard off or no score, the SR output stands.

    On revert the pipeline classifies the LR input again, so the discount
    applies to the record's original confidence, not the enhanced one.
    """
    if not config.guard_enabled or p_artifact is None:
        return GuardOutcome(
            used_sr=True, final_confidence=r.confidence, p_artifact=p_artifact, triggered=False
        )
    return apply_guard(
        p_artifact,
        level,
        r.confidence,
        threshold=config.guard_threshold,
        discount=config.guard_discount,
        relative_discount=config.guard_relative,
    )


def _evaluate_record(
    r: PredictionRecord, index: int, level: SRLevel, config: ExperimentConfig, seed: int
) -> EvalOutcome:
    if level == SRLevel.NONE:
        return EvalOutcome(None, r.confidence, level, False, False, None)

    effect = config.scenario.sr_effect
    if not effect.hallucination_enabled and not effect.uplift_enabled:
        # log-driven mode: score the record as it stands, guarding on any
        # artifact probability the upstream detector recorded
        pred, conf = None, r.confidence
        p_artifact = r.artifact_score
    else:
        rng = np.random.default_rng([seed, index])
        hallucinated = rng.random() < effect.hallucination_rate(level)
        if hallucinated:
            target = int(
                effect.hallucination_targets[rng.integers(0, len(effect.hallucination_targets))]
            )
            conf = min(1.0, r.confidence + float(rng.uniform(*effect.inflation_range)))
            pred = target
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

    outcome = guard_outcome(r, level, p_artifact, config)
    if outcome.triggered:
        # the LR input is classified again: its own prediction, discounted
        pred, conf = r.predicted_class, outcome.final_confidence
    return EvalOutcome(pred, conf, level, outcome.used_sr, outcome.triggered, p_artifact)


def evaluate_records(
    records: Sequence[PredictionRecord],
    policy: str,
    config: ExperimentConfig,
    seed: int,
) -> list[EvalOutcome]:
    """Run the policy pipeline over every record.

    Output order matches input order; each record's stochastic effects
    draw from a substream keyed by its position alone.
    """
    level_of = _POLICY_LEVELS.get(policy)
    if level_of is None:
        raise ValueError(f"unknown policy {policy!r}; choose one of {POLICIES}")
    return [
        _evaluate_record(r, i, level_of(r, config), config, seed) for i, r in enumerate(records)
    ]


_CRITICAL = np.array([c.critical for c in CLASSES])


def _critical_fp_mask(a: RecordArrays, conf_cut: float) -> np.ndarray:
    """Per row: a non-critical truth predicted as a critical class above the cut."""
    return ~_CRITICAL[a.true_class] & _CRITICAL[a.pred] & (a.confidence > conf_cut)


def final_arrays(arrays: RecordArrays, outcomes: Sequence[EvalOutcome]) -> RecordArrays:
    """Row i of `arrays` (the input's ``record_arrays``) after outcome i.

    Each row takes its outcome's confidence. A row whose outcome carries a
    prediction gets mass ``max(confidence, CONF_FLOOR + 1e-9)`` on it and
    ``(1 - mass) / (K - 1)`` on every other class, so it stays the argmax
    after a guard discount below 1/K, and the criticality of its class.
    Every other row keeps its own vector.
    """
    confidence = np.array([o.confidence for o in outcomes], dtype=np.float64)
    replaced = [(i, o.pred) for i, o in enumerate(outcomes) if o.pred is not None]
    rows, new_pred = np.array(replaced, dtype=np.int64).reshape(-1, 2).T
    mass = np.maximum(confidence[rows], CONF_FLOOR + 1e-9)
    probs = arrays.probs.copy()
    probs[rows] = ((1.0 - mass) / (NUM_CLASSES - 1))[:, None]
    probs[rows, new_pred] = mass
    criticality = arrays.criticality.copy()
    criticality[rows] = _CRITICAL[new_pred]
    pred = arrays.pred.copy()
    pred[rows] = new_pred
    true_class = arrays.true_class
    return RecordArrays(confidence, criticality, probs, true_class, pred, pred == true_class)


# --- experiment report ------------------------------------------------------------------

# the bootstrap CIs of a run's pooled report: ECE, and AUPR of each critical class
CI_METRICS = ("ece", *(f"aupr:{k}" for k in sorted(CRITICAL_IDS)))


def pooled_calibration(
    records: Sequence[PredictionRecord],
    arrays: RecordArrays,
    config: ExperimentConfig,
    seed: int,
) -> CalibrationReport:
    """The calibration report of all of a run's records, scored on `arrays`
    (their columns), with the CI_METRICS intervals when ``config.resamples``
    > 0. The intervals resample the records' subjects."""
    return calibration_report(
        records,
        arrays=arrays,
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
) -> tuple[ExperimentReport, list[EvalOutcome]]:
    """Gate, apply synthetic SR effects and the guard, and score per LOSO fold.

    Nothing is fitted on training folds (the policies are closed-form), so
    each record is evaluated once and grouped by its test subject. The
    pooled calibration report carries subject-level bootstrap CIs for ECE
    and for AUPR of each critical class. Also returns the per-record
    outcomes for audit emission.

    Scoring runs on arrays: the input records become one ``RecordArrays``,
    and the outcomes turn it into the final columns (``final_arrays``),
    next to an SR-level array and a guard-trigger array. The pooled report
    and its CIs, pooled cost, guard counts and critical false positives
    come from those arrays, and every fold's accuracy, ECE, Brier, cost,
    triggers and critical false positives from the rows of its test
    subject, selected by an integer index array.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose one of {POLICIES}")
    if not records:
        raise EmptyInput("no records")
    for i, r in enumerate(records):
        violations = validate_record(r)
        if violations:
            raise MalformedRecord(i + 1, "; ".join(str(v) for v in violations))

    # one fold per subject, in sorted order, scoring that subject's rows
    subjects, groups = calibration.subject_groups(records)
    if len(subjects) < 2:
        raise TooFewSubjects(f"need >= 2 subjects, got {len(subjects)}")
    outcomes = evaluate_records(records, policy, config, seed)
    arrays = final_arrays(record_arrays(records), outcomes)
    pooled = pooled_calibration(records, arrays, config, seed)

    levels = np.fromiter((o.level for o in outcomes), dtype=np.int64, count=len(outcomes))
    triggered = np.fromiter((o.triggered for o in outcomes), dtype=bool, count=len(outcomes))
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
    for subject, idx in zip(subjects, groups):
        rows = RecordArrays(*(column[idx] for column in arrays))
        fold_results.append(
            FoldResult(
                test_subject=subject,
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
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"{path} is not a JSON report: {exc}") from exc
    return report_from_dict(data)

