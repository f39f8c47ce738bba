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
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain
from operator import attrgetter
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

# Rows converted to Python values, or computed through an (n, K) temporary,
# at a time: a whole column at once would be held twice, as an array and as
# its conversion or temporary.
ROW_BLOCK = 4096


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

# the safety-critical behaviours: a fixed set, weighted up by the utility
CRITICAL_NAMES = frozenset({"drowsiness", "phone_call", "texting"})

NUM_CLASSES = len(CLASS_NAMES)

CLASSES = tuple(
    BehaviorClass(i, name, name in CRITICAL_NAMES) for i, name in enumerate(CLASS_NAMES)
)
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


def violation_error(line_no: int, violations: Sequence[Violation]) -> MalformedRecord:
    """The error naming the bad record on `line_no`, every violation joined by
    "; ": ProbSumViolation when the first is the probability sum."""
    first = violations[0]
    bad_sum = first.field == "probs" and "sum" in first.rule
    error = ProbSumViolation if bad_sum else MalformedRecord
    return error(line_no, "; ".join(map(str, violations)))


# The JSON rule of each field type, as the schema codec's scalar rules have
# it: ids are strings, and a real field is a JSON number, never a bool or a
# string. The record's own fields, in order, give the log schema.
_JSON_RULES = {
    "str": (frozenset({str}), "a JSON string"),
    "int": (frozenset({int}), "a JSON integer"),
    "float": (schema.NUMBER_TYPES, "a JSON number"),
    "float | None": (schema.NUMBER_TYPES | {type(None)}, "a JSON number or null"),
    "tuple[float, ...]": (frozenset({list}), "an array of JSON numbers"),
}
_FIELD_TYPES = tuple((f.name, *_JSON_RULES[f.type]) for f in fields(PredictionRecord))
_OPTIONAL_KEYS = tuple(f.name for f in fields(PredictionRecord) if f.default is None)
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
        want = _JSON_RULES["tuple[float, ...]"][1]
        raise MalformedRecord(line_no, f"probs: expected {want}, got {json.dumps(probs)}")
    subject, clip = obj["subject_id"], obj["clip_id"]
    if not (subject.isascii() and clip.isascii()):
        # a JSON escape can spell a lone surrogate, which no output can encode
        for key, text in (("subject_id", subject), ("clip_id", clip)):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                bad = text[exc.start]
                raise MalformedRecord(line_no, f"{key}: lone surrogate {bad!r}") from None
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
            clip_id=clip,
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
        raise violation_error(line_no, violations)
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
    object, repeats a key, escapes a lone surrogate in an id, or nests or
    spells a number past the interpreter's recursion or digit limit. The
    message names every violation of a record, joined with "; ". Unknown
    keys fail under `strict`; otherwise one warning names them once the
    whole log is read.

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
                if not isinstance(obj, dict):
                    raise MalformedRecord(line_no, "record is not an object")
                rec, extra = _record_from_obj(obj, line_no, strict, subjects)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, f"invalid JSON: {exc.msg}") from exc
            except schema.RepeatedKey as exc:
                raise MalformedRecord(line_no, f"repeated key {exc.key!r}") from None
            except (RecursionError, ValueError) as exc:
                # past the recursion limit (decoding, or quoting a value for a
                # message), or an integer past the digit limit
                raise MalformedRecord(line_no, f"cannot decode JSON: {exc}") from None
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
    """The JSON object of a record: its fields in order, an optional one only
    when set."""
    values = ((key, getattr(r, key)) for key, _, _ in _FIELD_TYPES)
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in values
        if value is not None or key not in _OPTIONAL_KEYS
    }


_FLOAT = frozenset({float})
_quote = json.encoder.encode_basestring_ascii


def _log_line(r: PredictionRecord) -> str:
    """``json.dumps(record_to_obj(r))``, built from one template when the ids
    are exactly str, the classes exactly int (json writes a bool as
    ``true``) and every real exactly a finite float; any other record goes
    through ``json.dumps`` itself."""
    optional = [(key, value) for key in _OPTIONAL_KEYS if (value := getattr(r, key)) is not None]
    reals = (*r.probs, r.confidence, r.blur, r.lighting, *[value for _, value in optional])
    if not (
        type(r.subject_id) is str
        and type(r.clip_id) is str
        and type(r.true_class) is int
        and type(r.criticality) is int
        and _FLOAT.issuperset(map(type, reals))
        # a non-finite real (json writes NaN, Infinity) makes the sum
        # non-finite; a sum that overflows only takes the slow path
        and math.isfinite(sum(reals))
    ):
        return json.dumps(record_to_obj(r))
    # each distinct value is formatted once (the probabilities repeat, and
    # confidence is one of them); 0.0 == -0.0, so zeros are never shared
    text: dict[float, str] = {}
    parts = []
    for x in reals:
        part = text.get(x)
        if part is None:
            part = float.__repr__(x)
            if x:
                text[x] = part
        parts.append(part)
    k = len(r.probs)
    confidence, blur, lighting = parts[k : k + 3]
    extra = "".join([f', "{key}": {part}' for (key, _), part in zip(optional, parts[k + 3 :])])
    return (
        f'{{"subject_id": {_quote(r.subject_id)}, "clip_id": {_quote(r.clip_id)}, '
        f'"true_class": {r.true_class}, "probs": [{", ".join(parts[:k])}], '
        f'"confidence": {confidence}, "criticality": {r.criticality}, '
        f'"blur": {blur}, "lighting": {lighting}{extra}}}'
    )


def write_log(records: Iterable[PredictionRecord], path: str) -> None:
    """Serialize records one JSON object per line (ingest round-trips)."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(_log_line(r) + "\n")


class RecordArrays(NamedTuple):
    """Per-record columns of a record sequence, row i from record i."""

    confidence: np.ndarray  # float64
    criticality: np.ndarray  # uint8
    probs: np.ndarray  # float64, shape (n, K)
    true_class: np.ndarray  # int64
    pred: np.ndarray  # int64, first maximum as in PredictionRecord.predicted_class
    correct: np.ndarray  # bool
    subject: np.ndarray  # int64, index of the subject id among the sorted ids


def subject_codes(records: Sequence[PredictionRecord]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct subject ids, and each record's index among them."""
    ids = [r.subject_id for r in records]
    index = {s: i for i, s in enumerate(sorted(set(ids)))}
    return list(index), np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))


def record_arrays(records: Sequence[PredictionRecord]) -> RecordArrays:
    """Turn records into arrays; the one conversion every array metric uses.

    Raises EmptyInput for no records, MissingProbs for a record without a
    probability vector, and ValueError when the vectors differ in length.
    """
    if not records:
        raise EmptyInput("no records")
    n = len(records)
    vectors = list(map(attrgetter("probs"), records))
    if not all(vectors):
        raise MissingProbs("record without probability vector")
    lengths = set(map(len, vectors))
    if len(lengths) > 1:
        raise ValueError(f"probability vectors differ in length: {sorted(lengths)}")
    k = len(vectors[0])
    probs = np.fromiter(chain.from_iterable(vectors), np.float64, n * k).reshape(n, k)
    true_class = np.fromiter(map(attrgetter("true_class"), records), np.int64, n)
    pred = probs.argmax(axis=1).astype(np.int64, copy=False)
    return RecordArrays(
        confidence=np.fromiter(map(attrgetter("confidence"), records), np.float64, n),
        criticality=np.fromiter(map(attrgetter("criticality"), records), np.uint8, n),
        probs=probs,
        true_class=true_class,
        pred=pred,
        correct=pred == true_class,
        subject=subject_codes(records)[1],
    )


def row_blocks(*columns: Sequence) -> Iterator[tuple]:
    """The rows of equal-length `columns` (arrays, or a list such as the
    records) as tuples of Python values, as ``zip`` of the columns'
    ``tolist()`` gives them: each array is converted ``ROW_BLOCK`` rows at
    a time, and a list is sliced as it stands."""
    for start in range(0, len(columns[0]), ROW_BLOCK):
        block = (column[start : start + ROW_BLOCK] for column in columns)
        yield from zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in block))


# what every array consumer takes: records, or their columns (any row selection)
Records = Sequence[PredictionRecord] | RecordArrays


def as_columns(records: Records) -> RecordArrays:
    """The columns of `records`, converted by ``record_arrays`` unless they
    are columns already; EmptyInput for zero rows in either form."""
    if not isinstance(records, RecordArrays):
        return record_arrays(records)
    if records.confidence.size == 0:
        raise EmptyInput("no records")
    return records


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
