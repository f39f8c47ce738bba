"""Core domain types and prediction-log ingestion.

A prediction log is a UTF-8 text file with one JSON object per line, keys
matching :class:`PredictionRecord` field names (snake_case). Records are
immutable value objects; validation is explicit (`validate_record`) rather
than baked into construction, so downstream stages can build derived rows
(e.g. confidence-discounted outcomes) without fighting the constructor.
"""

from __future__ import annotations

import enum
import json
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import schema
from .errors import (
    EmptyInput,
    EmptyLog,
    MalformedRecord,
    MissingProbs,
    MissingTableEntry,
    ProbSumViolation,
)

log = logging.getLogger(__name__)

PROB_SUM_TOL = 1e-9
CONF_TOP1_TOL = 1e-9


class SRLevel(enum.IntEnum):
    """Super-resolution enhancement level, ordered by increasing cost."""

    NONE = 0
    X2 = 1
    X4 = 2

    @property
    def label(self) -> str:
        return {SRLevel.NONE: "none", SRLevel.X2: "2x", SRLevel.X4: "4x"}[self]


class GateReason(str, enum.Enum):
    """Which branch of the gating policy produced a decision."""

    HIGH_CONF_SKIP = "high_conf_skip"
    MID_CONF_2X = "mid_conf_2x"
    LOW_CONF_4X = "low_conf_4x"
    CRITICAL_4X = "critical_4x"
    UNCOVERED_DEFAULT = "uncovered_default"


@dataclass(frozen=True)
class BehaviorClass:
    id: int
    name: str
    critical: bool


CLASS_NAMES = (
    "normal_driving",
    "texting",
    "phone_call",
    "reaching_behind",
    "adjusting_radio",
    "drinking",
    "drowsiness",
)

DEFAULT_CRITICAL = frozenset({"drowsiness", "phone_call", "texting"})

NUM_CLASSES = len(CLASS_NAMES)


def make_classes(critical: Iterable[str] = DEFAULT_CRITICAL) -> tuple[BehaviorClass, ...]:
    """Build the 7-class taxonomy with a configurable critical set.

    The critical set may be changed but never emptied: safety weighting
    without critical classes is a configuration error.
    """
    crit = frozenset(critical)
    if not crit:
        raise ValueError("critical class set must not be empty")
    unknown = crit - set(CLASS_NAMES)
    if unknown:
        raise ValueError(f"unknown class names in critical set: {sorted(unknown)}")
    return tuple(
        BehaviorClass(i, name, name in crit) for i, name in enumerate(CLASS_NAMES)
    )


CLASSES = make_classes()
CRITICAL_IDS = frozenset(c.id for c in CLASSES if c.critical)


@dataclass(frozen=True, slots=True)
class PredictionRecord:
    """One observation from the upstream classifier.

    `confidence` is the top-1 probability and `criticality` is the critical
    flag of the *predicted* class (the true class is unknown at inference
    time). Optional fields stay ``None`` when the upstream stage did not
    produce them; operations that need them raise rather than default.
    Slotted, since a run holds one per logged frame until it ends.
    """

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

    @property
    def predicted_class(self) -> int:
        return max(range(len(self.probs)), key=self.probs.__getitem__)

    @property
    def correct(self) -> bool:
        return self.predicted_class == self.true_class


@dataclass(frozen=True)
class Violation:
    """A named invariant breach found by validate_record."""

    field: str
    rule: str

    def __str__(self) -> str:
        return f"{self.field}: {self.rule}"


def validate_record(r: PredictionRecord) -> list[Violation]:
    """Check every type invariant; an empty list means the record is valid.

    Violations are data, not faults: callers decide whether to raise.
    """
    out: list[Violation] = []
    k = NUM_CLASSES
    # A range test written as one chained comparison is False for NaN, and an
    # infinite bound makes it reject infinities too.
    if not r.subject_id:
        out.append(Violation("subject_id", "must be non-empty"))
    if not isinstance(r.true_class, int) or not 0 <= r.true_class < k:
        out.append(Violation("true_class", f"not a class id in 0..{k - 1}"))
    probs = r.probs
    total = sum(probs)
    if len(probs) != k:
        out.append(Violation("probs", f"expected {k} entries, got {len(probs)}"))
    top = max(probs) if probs else None
    # a finite sum rules out NaN and infinite entries, so min and max are exact
    if probs and not (math.isfinite(total) and min(probs) >= 0.0 and top <= 1.0):
        out.append(Violation("probs", "entries must lie in [0,1]"))
    elif abs(total - 1.0) > PROB_SUM_TOL:
        out.append(Violation("probs", f"sum {total:.12f} != 1 within {PROB_SUM_TOL}"))
    if not 0.0 <= r.confidence <= 1.0:
        out.append(Violation("confidence", "must lie in [0,1]"))
    elif probs and abs(r.confidence - top) > CONF_TOP1_TOL:
        out.append(Violation("confidence", "confidence != top-1 probability"))
    if r.criticality not in (0, 1):
        out.append(Violation("criticality", "criticality not in {0,1}"))
    if not 0.0 <= r.blur < math.inf:
        out.append(Violation("blur", "must be >= 0"))
    if not 0.0 <= r.lighting <= 1.0:
        out.append(Violation("lighting", "must lie in [0,1]"))
    if r.artifact_score is not None and not 0.0 <= r.artifact_score <= 1.0:
        out.append(Violation("artifact_score", "must lie in [0,1]"))
    if r.perceptual_loss is not None and not 0.0 <= r.perceptual_loss < math.inf:
        out.append(Violation("perceptual_loss", "must be finite and >= 0"))
    if r.ssim_vs_hr is not None and not -1.0 <= r.ssim_vs_hr <= 1.0:
        out.append(Violation("ssim_vs_hr", "must lie in [-1,1]"))
    return out


_OPTIONAL_KEYS = ("artifact_score", "perceptual_loss", "ssim_vs_hr")

# The JSON type of each field, by the schema codec's scalar rules: ids are
# strings, and a real field is a JSON number, never a bool or a string.
_STRING = (frozenset({str}), "a JSON string")
_INTEGER = (frozenset({int}), "a JSON integer")
_NUMBER = (schema.NUMBER_TYPES, "a JSON number")
_NUMBER_OR_NULL = (schema.NUMBER_TYPES | {type(None)}, "a JSON number or null")
_FIELD_TYPES = (
    ("subject_id", *_STRING),
    ("clip_id", *_STRING),
    ("true_class", *_INTEGER),
    ("probs", frozenset({list}), "an array of JSON numbers"),
    ("confidence", *_NUMBER),
    ("criticality", *_INTEGER),
    ("blur", *_NUMBER),
    ("lighting", *_NUMBER),
    *((key, *_NUMBER_OR_NULL) for key in _OPTIONAL_KEYS),
)
_REQUIRED_KEYS = tuple(key for key, _, _ in _FIELD_TYPES if key not in _OPTIONAL_KEYS)
_REQUIRED = frozenset(_REQUIRED_KEYS)
_KNOWN = _REQUIRED | frozenset(_OPTIONAL_KEYS)


def _record_from_obj(
    obj: Mapping, line_no: int, strict: bool, subjects: dict[str, str]
) -> tuple[PredictionRecord, set[str]]:
    """The record of one decoded line, and the unknown keys it ignored.

    `subjects` maps each subject id seen so far to the one string that every
    record of that subject holds.
    """
    keys = obj.keys()
    if not keys >= _REQUIRED:
        missing = [k for k in _REQUIRED_KEYS if k not in obj]
        raise MalformedRecord(line_no, f"missing keys: {missing}")
    unknown = keys - _KNOWN
    if unknown and strict:
        raise MalformedRecord(line_no, f"unknown keys: {sorted(unknown)}")
    for key, kinds, want in _FIELD_TYPES:
        value = obj.get(key)
        if type(value) not in kinds:
            raise MalformedRecord(line_no, f"{key}: expected {want}, got {json.dumps(value)}")
    probs = obj["probs"]
    if not schema.NUMBER_TYPES.issuperset(map(type, probs)):
        raise MalformedRecord(
            line_no, f"probs: expected an array of JSON numbers, got {json.dumps(probs)}"
        )
    subject = obj["subject_id"]
    artifact = obj.get("artifact_score")
    loss = obj.get("perceptual_loss")
    ssim = obj.get("ssim_vs_hr")
    try:
        # One float object per distinct nonzero entry, which `confidence`
        # reuses: equal nonzero floats have identical bits. Zeros never
        # merge (0.0 == -0.0 but their signs differ), nor does NaN.
        shared: dict[float, float] = {}
        probs = tuple([shared.setdefault(p, p) if p else p for p in map(float, probs)])
        confidence = float(obj["confidence"])
        rec = PredictionRecord(
            subject_id=subjects.setdefault(subject, subject),
            clip_id=obj["clip_id"],
            true_class=obj["true_class"],
            probs=probs,
            confidence=shared.get(confidence, confidence),
            criticality=obj["criticality"],
            blur=float(obj["blur"]),
            lighting=float(obj["lighting"]),
            artifact_score=None if artifact is None else float(artifact),
            perceptual_loss=None if loss is None else float(loss),
            ssim_vs_hr=None if ssim is None else float(ssim),
        )
    except OverflowError as exc:
        # an integer beyond the float range
        raise MalformedRecord(line_no, f"bad field value: {exc}") from exc
    violations = validate_record(rec)
    if violations:
        first = violations[0]
        if first.field == "probs" and "sum" in first.rule:
            raise ProbSumViolation(line_no, str(first))
        raise MalformedRecord(line_no, "; ".join(str(v) for v in violations))
    return rec, unknown


# json.loads keeps the last value of a repeated key; a log line must not repeat one
_decode_line = json.JSONDecoder(object_pairs_hook=schema.unique_object).decode


def utf8_lines(fh: Iterable[str]) -> Iterator[str]:
    """The lines of a text file opened with ``errors="surrogateescape"``.

    A decoding error in text mode names no line, so the file is read with
    each undecodable byte escaped, and the first line holding one raises
    MalformedRecord. Only a non-ASCII line can hold one.
    """
    for line_no, line in enumerate(fh, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise MalformedRecord(line_no, "not UTF-8 text") from None
        yield line


def ingest_log(path: str, strict: bool = False) -> list[PredictionRecord]:
    """Read a line-delimited prediction log, validating every record.

    Returns records in file order. Raises MalformedRecord/ProbSumViolation
    with the 1-based line number on the first bad line, EmptyLog if no
    records remain. A line is bad too if it is not UTF-8, not one JSON
    object, or repeats a key. Unknown keys fail under `strict`; otherwise
    one warning names them once the whole log is read.

    A run holds every record until it ends, so the records of one log share
    one string per subject id, and each record one float per distinct
    nonzero probability.
    """
    records: list[PredictionRecord] = []
    subjects: dict[str, str] = {}
    unknown: set[str] = set()
    unknown_lines = first_unknown = 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(utf8_lines(fh), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _decode_line(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, f"invalid JSON: {exc.msg}") from exc
            except schema.RepeatedKey as exc:
                raise MalformedRecord(line_no, f"repeated key {exc.key!r}") from None
            if not isinstance(obj, dict):
                raise MalformedRecord(line_no, "record is not an object")
            rec, extra = _record_from_obj(obj, line_no, strict, subjects)
            if extra:
                unknown |= extra
                unknown_lines += 1
                first_unknown = first_unknown or line_no
            records.append(rec)
    if unknown:
        log.warning(
            "ignoring unknown keys %s on %d line(s), first on line %d",
            sorted(unknown), unknown_lines, first_unknown,
        )
    if not records:
        raise EmptyLog(path)
    return records


def record_to_obj(r: PredictionRecord) -> dict:
    obj = {
        "subject_id": r.subject_id,
        "clip_id": r.clip_id,
        "true_class": r.true_class,
        "probs": list(r.probs),
        "confidence": r.confidence,
        "criticality": r.criticality,
        "blur": r.blur,
        "lighting": r.lighting,
    }
    for key in _OPTIONAL_KEYS:
        val = getattr(r, key)
        if val is not None:
            obj[key] = val
    return obj


def write_log(records: Iterable[PredictionRecord], path: str) -> None:
    """Serialize records one JSON object per line (ingest round-trips)."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(record_to_obj(r)) + "\n")


class RecordArrays(NamedTuple):
    """Per-record columns of a record sequence, row i from record i."""

    confidence: np.ndarray  # float64
    criticality: np.ndarray  # uint8
    probs: np.ndarray  # float64, shape (n, K)
    true_class: np.ndarray  # int64
    pred: np.ndarray  # int64, first maximum as in PredictionRecord.predicted_class
    correct: np.ndarray  # bool


def record_arrays(records: Sequence[PredictionRecord]) -> RecordArrays:
    """Turn records into arrays; the one conversion every array metric uses."""
    if not records:
        raise EmptyInput("no records")
    if any(not r.probs for r in records):
        raise MissingProbs("record without probability vector")
    probs = np.array([r.probs for r in records], dtype=np.float64)
    true_class = np.array([r.true_class for r in records], dtype=np.int64)
    pred = probs.argmax(axis=1).astype(np.int64, copy=False)
    return RecordArrays(
        confidence=np.array([r.confidence for r in records], dtype=np.float64),
        criticality=np.array([r.criticality for r in records], dtype=np.uint8),
        probs=probs,
        true_class=true_class,
        pred=pred,
        correct=pred == true_class,
    )


def subjects_of(records: Sequence[PredictionRecord]) -> list[str]:
    """Distinct subject ids in sorted order."""
    return sorted({r.subject_id for r in records})


@dataclass(frozen=True)
class GateDecision:
    """Chosen SR level, the high threshold it was decided against, and the
    policy branch that chose it.

    The expected-utility audit is not part of a decision: only the output
    that writes it computes it, with `gating.utility_matrix`.
    """

    level: SRLevel
    tau_used: float
    reason: GateReason


# Per-class top-1 accuracy gain of 4x enhancement, in class-id order.
# The 2x column is scaled from the 4x column by the overall 2x/4x
# enhancement gain ratio ((35.61-21.84)/(35.87-21.84)); per-class 2x
# measurements are not available.
DELTA_ACC_4X = (0.064, 0.197, 0.172, 0.141, 0.171, 0.155, 0.263)
_X2_SCALE = (35.61 - 21.84) / (35.87 - 21.84)


def default_delta_acc_table() -> dict[tuple[int, SRLevel], float]:
    table: dict[tuple[int, SRLevel], float] = {}
    for cid in range(NUM_CLASSES):
        table[(cid, SRLevel.NONE)] = 0.0
        table[(cid, SRLevel.X2)] = DELTA_ACC_4X[cid] * _X2_SCALE
        table[(cid, SRLevel.X4)] = DELTA_ACC_4X[cid]
    return table


@dataclass(frozen=True)
class UtilityParams:
    """Weights of the expected-utility tradeoff.

    lam trades accuracy gain against compute; w_crit multiplies gains on
    records flagged safety-critical; delta_acc_table maps (class id, level)
    to the expected accuracy improvement of enhancing at that level.
    """

    lam: float = field(default=0.3, metadata={"key": "lambda"})
    w_crit: float = 2.5
    w_normal: float = 1.0
    delta_acc_table: Mapping[tuple[int, SRLevel], float] = field(
        default_factory=default_delta_acc_table,
        metadata={"keyed_by": (CLASS_NAMES, tuple(level.label for level in SRLevel))},
    )

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.w_crit < 1.0:
            raise ValueError("w_crit must be >= 1")
        for cid in range(NUM_CLASSES):
            for level in SRLevel:
                if (cid, level) not in self.delta_acc_table:
                    raise MissingTableEntry(f"no entry for (class {cid}, {level.label})")
            if self.delta_acc_table[(cid, SRLevel.NONE)] != 0.0:
                raise ValueError("no-enhancement gain must be 0 for every class")

    @cached_property
    def gain_table(self) -> tuple[tuple[float, float, float], ...]:
        """Row k holds class k's gains at (NONE, 2x, 4x), read from
        `delta_acc_table` once, on first use."""
        return tuple(
            tuple(self.gain(k, level) for level in SRLevel) for k in range(NUM_CLASSES)
        )

    def gain(self, class_id: int, level: SRLevel) -> float:
        try:
            return self.delta_acc_table[(class_id, level)]
        except KeyError as exc:
            raise MissingTableEntry(f"no entry for (class {class_id}, {level.label})") from exc

    def weight(self, criticality: int) -> float:
        return self.w_crit if criticality == 1 else self.w_normal
