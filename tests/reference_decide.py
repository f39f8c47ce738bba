"""A frozen, per-record copy of srgate's log-driven decide path.

It reads a prediction log line by line, gates each record with the fixed or
the adaptive policy, writes the expected-utility audit by the scalar
formula, applies the artifact guard record by record and rebuilds each
guarded record, and formats the rows of ``decisions.csv``, ``guard.csv``
and ``guard_outcomes.csv``. ``test_reference_decide.py`` compares the
program with it byte for byte on random logs.

The module imports nothing from srgate and must not follow changes to
``src/``: a rewrite of the program (columns in place of records, say) is
correct on these paths only if it reproduces this copy exactly. Defaults
are the program's: the 7-class taxonomy, the gain table and the gflops
cost profile.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import NamedTuple

NUM_CLASSES = 7
# the critical flag of each class id: texting, phone_call and drowsiness
CLASS_CRITICAL = (False, True, True, False, False, False, True)
CONF_FLOOR = 1.0 / NUM_CLASSES
PROB_SUM_TOL = 1e-9
CONF_TOP1_TOL = 1e-9

NONE, X2, X4 = 0, 1, 2
LEVEL_LABELS = ("none", "2x", "4x")

# per-class gains at (NONE, 2x, 4x)
DELTA_ACC_4X = (0.064, 0.197, 0.172, 0.141, 0.171, 0.155, 0.263)
_X2_SCALE = (35.61 - 21.84) / (35.87 - 21.84)
GAINS = tuple((0.0, d * _X2_SCALE, d) for d in DELTA_ACC_4X)
# gflops per level; the utility cost is the increment over NONE, 4x = 1
_GFLOPS = (2.3, 6.4, 18.7)
UTILITY_COSTS = tuple((g - _GFLOPS[0]) / (_GFLOPS[2] - _GFLOPS[0]) for g in _GFLOPS)

SSIM_ARTIFACT_CUT = 0.7
PERCEPTUAL_LOSS_CUT = 0.3


class Settings(NamedTuple):
    """The run settings the decide path reads, with the program's defaults."""

    tau_low: float = 0.60
    tau_high: float = 0.85
    critical_cut: float = 0.70
    tau_base: float = 0.85
    alpha_blur: float = 0.05
    alpha_light: float = -0.05
    clamp: tuple[float, float] = (0.0, 1.0)
    blur_ref: float = 0.05
    lam: float = 0.3
    w_crit: float = 2.5
    w_normal: float = 1.0
    guard_enabled: bool = True
    guard_threshold: float = 0.5
    guard_discount: float = 0.15
    guard_relative: bool = True


class Record(NamedTuple):
    """One prediction record, fields in the order of srgate's PredictionRecord."""

    subject_id: str
    clip_id: str
    true_class: int
    probs: tuple[float, ...]
    confidence: float
    criticality: int
    blur: float
    lighting: float
    artifact_score: float | None = None
    perceptual_loss: float | None = None
    ssim_vs_hr: float | None = None


class Outcome(NamedTuple):
    level: int
    used_sr: bool
    triggered: bool
    p_artifact: float | None
    final: Record


class DataError(Exception):
    """A data error: the CLI prints ``srgate: data error: <message>`` and exits 3."""


def predicted_class(r: Record) -> int:
    return max(range(len(r.probs)), key=r.probs.__getitem__)


# --- ingest -----------------------------------------------------------------------

def validate(r: Record) -> list[str]:
    out = []
    k = NUM_CLASSES
    if not r.subject_id:
        out.append("subject_id: must be non-empty")
    if not isinstance(r.true_class, int) or not 0 <= r.true_class < k:
        out.append(f"true_class: not a class id in 0..{k - 1}")
    probs = r.probs
    total = sum(probs)
    if len(probs) != k:
        out.append(f"probs: expected {k} entries, got {len(probs)}")
    top = max(probs) if probs else None
    if probs and not (math.isfinite(total) and min(probs) >= 0.0 and top <= 1.0):
        out.append("probs: entries must lie in [0,1]")
    elif abs(total - 1.0) > PROB_SUM_TOL:
        out.append(f"probs: sum {total:.12f} != 1 within {PROB_SUM_TOL}")
    if not 0.0 <= r.confidence <= 1.0:
        out.append("confidence: must lie in [0,1]")
    elif probs and abs(r.confidence - top) > CONF_TOP1_TOL:
        out.append("confidence: confidence != top-1 probability")
    if r.criticality not in (0, 1):
        out.append("criticality: criticality not in {0,1}")
    if not 0.0 <= r.blur < math.inf:
        out.append("blur: must be >= 0")
    if not 0.0 <= r.lighting <= 1.0:
        out.append("lighting: must lie in [0,1]")
    if r.artifact_score is not None and not 0.0 <= r.artifact_score <= 1.0:
        out.append("artifact_score: must lie in [0,1]")
    if r.perceptual_loss is not None and not 0.0 <= r.perceptual_loss < math.inf:
        out.append("perceptual_loss: must be finite and >= 0")
    if r.ssim_vs_hr is not None and not -1.0 <= r.ssim_vs_hr <= 1.0:
        out.append("ssim_vs_hr: must lie in [-1,1]")
    return out


OPTIONAL_KEYS = ("artifact_score", "perceptual_loss", "ssim_vs_hr")
_NUMBER = ({int, float}, "a JSON number")
_FIELD_TYPES = (
    ("subject_id", {str}, "a JSON string"),
    ("clip_id", {str}, "a JSON string"),
    ("true_class", {int}, "a JSON integer"),
    ("probs", {list}, "an array of JSON numbers"),
    ("confidence", *_NUMBER),
    ("criticality", {int}, "a JSON integer"),
    ("blur", *_NUMBER),
    ("lighting", *_NUMBER),
    *((key, {int, float, type(None)}, "a JSON number or null") for key in OPTIONAL_KEYS),
)
REQUIRED_KEYS = tuple(key for key, _, _ in _FIELD_TYPES if key not in OPTIONAL_KEYS)


def _malformed(line_no: int, reason: str) -> DataError:
    return DataError(f"line {line_no}: {reason}")


def record_from_obj(obj: dict, line_no: int, strict: bool) -> Record:
    missing = [k for k in REQUIRED_KEYS if k not in obj]
    if missing:
        raise _malformed(line_no, f"missing keys: {missing}")
    unknown = obj.keys() - set(REQUIRED_KEYS) - set(OPTIONAL_KEYS)
    if unknown and strict:
        raise _malformed(line_no, f"unknown keys: {sorted(unknown)}")
    for key, kinds, want in _FIELD_TYPES:
        value = obj.get(key)
        if type(value) not in kinds:
            raise _malformed(line_no, f"{key}: expected {want}, got {json.dumps(value)}")
    probs = obj["probs"]
    if not all(type(v) in (int, float) for v in probs):
        raise _malformed(
            line_no, f"probs: expected an array of JSON numbers, got {json.dumps(probs)}"
        )

    def optional(key):
        value = obj.get(key)
        return None if value is None else float(value)

    try:
        rec = Record(
            subject_id=obj["subject_id"],
            clip_id=obj["clip_id"],
            true_class=obj["true_class"],
            probs=tuple(map(float, probs)),
            confidence=float(obj["confidence"]),
            criticality=obj["criticality"],
            blur=float(obj["blur"]),
            lighting=float(obj["lighting"]),
            artifact_score=optional("artifact_score"),
            perceptual_loss=optional("perceptual_loss"),
            ssim_vs_hr=optional("ssim_vs_hr"),
        )
    except OverflowError as exc:
        raise _malformed(line_no, f"bad field value: {exc}") from None
    violations = validate(rec)
    if violations:
        raise _malformed(line_no, "; ".join(violations))
    return rec


def ingest(path: str, strict: bool = False) -> list[Record]:
    """Records in file order; DataError on the first bad line, 1-based."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise _malformed(line_no, f"invalid JSON: {exc.msg}") from None
            if not isinstance(obj, dict):
                raise _malformed(line_no, "record is not an object")
            records.append(record_from_obj(obj, line_no, strict))
    if not records:
        raise DataError(path)
    return records


# --- gate and audit -------------------------------------------------------------------

def gate_scalar(p, c, tau_low, tau_high, critical_cut) -> tuple[int, str]:
    if p <= tau_low:
        return X4, "low_conf_4x"
    if c == 1 and p < critical_cut:
        return X4, "critical_4x"
    if p > tau_high:
        if c == 0:
            return NONE, "high_conf_skip"
        return NONE, "uncovered_default"
    return X2, "mid_conf_2x"


def adaptive_tau(s: Settings, r: Record) -> float:
    blur_norm = min(r.blur / s.blur_ref, 1.0)
    value = s.tau_base + s.alpha_blur * blur_norm + s.alpha_light * r.lighting
    lo, hi = s.clamp
    return min(hi, max(lo, value))


def gate(r: Record, s: Settings, adaptive: bool) -> tuple[int, str, float]:
    """(level, reason, tau_used) of one record."""
    tau = adaptive_tau(s, r) if adaptive else s.tau_high
    level, reason = gate_scalar(r.confidence, r.criticality, s.tau_low, tau, s.critical_cut)
    return level, reason, tau


def expected_utility(delta_acc, w, cost, lam):
    return delta_acc * w - lam * cost


def utilities_by_level(r: Record, s: Settings) -> tuple[float, float, float]:
    w = s.w_crit if r.criticality == 1 else s.w_normal
    _, g2, g4 = GAINS[predicted_class(r)]
    c0, c2, c4 = UTILITY_COSTS
    q = 1.0 - r.confidence
    return (
        expected_utility(0.0, w, c0, s.lam),
        expected_utility(g2 * q, w, c2, s.lam),
        expected_utility(g4 * q, w, c4, s.lam),
    )


# --- guard and outcomes ---------------------------------------------------------------------

def label_artifact(ssim_vs_hr: float, perceptual_loss: float) -> bool:
    return ssim_vs_hr < SSIM_ARTIFACT_CUT or perceptual_loss > PERCEPTUAL_LOSS_CUT


def guard_outcome(r: Record, level: int, p_artifact, s: Settings) -> tuple[bool, float, bool]:
    """(used_sr, final_confidence, triggered) of one record enhanced at `level`."""
    assert level != NONE
    if not s.guard_enabled or p_artifact is None or not p_artifact > s.guard_threshold:
        return True, r.confidence, False
    if s.guard_relative:
        final = r.confidence * (1.0 - s.guard_discount)
    else:
        final = r.confidence - s.guard_discount
    return False, min(1.0, max(0.0, final)), True


def rebuild(r: Record, pred: int, confidence: float, p_artifact) -> Record:
    mass = max(confidence, CONF_FLOOR + 1e-9)
    rest = (1.0 - mass) / (NUM_CLASSES - 1)
    return Record(
        subject_id=r.subject_id,
        clip_id=r.clip_id,
        true_class=r.true_class,
        probs=tuple(mass if k == pred else rest for k in range(NUM_CLASSES)),
        confidence=confidence,
        criticality=int(CLASS_CRITICAL[pred]),
        blur=r.blur,
        lighting=r.lighting,
        artifact_score=p_artifact,
    )


def policy_level(r: Record, policy: str, s: Settings) -> int:
    if policy == "fixed_none":
        return NONE
    if policy == "fixed_4x":
        return X4
    return gate(r, s, adaptive=policy == "gate_adaptive")[0]


def evaluate(r: Record, level: int, s: Settings) -> Outcome:
    """One record in log-driven mode (no synthetic SR effect)."""
    if level == NONE:
        return Outcome(level, False, False, None, r)
    p_artifact = r.artifact_score
    used_sr, final_confidence, triggered = guard_outcome(r, level, p_artifact, s)
    if triggered:
        final = rebuild(r, predicted_class(r), final_confidence, p_artifact)
    else:
        final = r
    return Outcome(level, used_sr, triggered, p_artifact, final)


def experiment_outcomes(records: list[Record], policy: str, s: Settings) -> list[Outcome]:
    """The per-record outcomes of ``loso-eval`` with every SR effect off."""
    subjects = {r.subject_id for r in records}
    if len(subjects) < 2:
        raise DataError(f"need >= 2 subjects, got {len(subjects)}")
    return [evaluate(r, policy_level(r, policy, s), s) for r in records]


# --- CSV rows -----------------------------------------------------------------------

def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def decisions_csv(records: list[Record], s: Settings, adaptive: bool) -> str:
    rows = []
    for r in records:
        level, reason, tau = gate(r, s, adaptive)
        utilities = utilities_by_level(r, s) if adaptive else (0.0, 0.0, 0.0)
        rows.append(
            (r.clip_id, r.subject_id, r.confidence, r.criticality, LEVEL_LABELS[level], reason, tau,
             *utilities)
        )
    header = ["clip_id", "subject_id", "confidence", "criticality", "level", "reason",
              "tau_used", "utility_none", "utility_2x", "utility_4x"]
    return _csv(header, rows)


def guard_csv(records: list[Record], s: Settings) -> str:
    rows = []
    for r in records:
        level = gate(r, s, adaptive=False)[0]
        label = (
            label_artifact(r.ssim_vs_hr, r.perceptual_loss)
            if r.ssim_vs_hr is not None and r.perceptual_loss is not None
            else None
        )
        if level == NONE:
            rows.append((r.clip_id, r.artifact_score, "none", False, False, r.confidence, label))
            continue
        used_sr, final_confidence, triggered = guard_outcome(r, level, r.artifact_score, s)
        rows.append(
            (r.clip_id, r.artifact_score, LEVEL_LABELS[level], triggered, used_sr,
             final_confidence, label)
        )
    header = ["clip_id", "p_artifact", "level", "triggered", "used_sr", "final_confidence",
              "artifact_label"]
    return _csv(header, rows)


def guard_outcomes_csv(outcomes: list[Outcome]) -> str:
    return _csv(
        ["clip_id", "p_artifact", "triggered", "used_sr", "final_confidence"],
        [(o.final.clip_id, o.p_artifact, o.triggered, o.used_sr, o.final.confidence)
         for o in outcomes],
    )
