"""The log-driven CLI paths against the frozen per-record reference.

On random valid logs, ``gate`` (fixed and adaptive), ``guard`` and
``loso-eval --resamples 0`` must write the CSVs that
``reference_decide`` writes, byte for byte, and ``loso-eval``'s per-record
outcomes must equal the reference's. On a log with one corrupted field,
``gate`` must exit with the reference's code and message. The logs put
confidences exactly on the thresholds and records on the adaptive-tau
clamp, and leave optional fields present, absent or null.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_decide as ref
from srgate import config as cfgmod
from srgate import records, simulate
from srgate.cli import run_cli

_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
_POLICIES = ("fixed_none", "fixed_4x", "gate", "gate_adaptive")
_SUBJECTS = ("S01", "S02", "driver,3", 'q"4')


def _either(values, lo, hi):
    """One of the edge `values`, or any float in [lo, hi]."""
    return st.sampled_from(values) | st.floats(lo, hi)


@st.composite
def run_settings(draw) -> ref.Settings:
    return ref.Settings(
        tau_base=draw(_either([0.0, 0.02, 0.85, 0.97, 1.0], 0.0, 1.0)),
        lam=draw(_either([0.0, 0.3], 0.0, 2.0)),
        w_crit=draw(_either([1.0, 2.5], 1.0, 5.0)),
        guard_enabled=draw(st.booleans()),
        guard_threshold=draw(st.sampled_from([0.5, 0.0, 1.0])),
        guard_relative=draw(st.booleans()),
    )


@st.composite
def record_obj(draw, s: ref.Settings, subjects, index: int) -> dict:
    """One valid log record as a JSON object."""
    blur = draw(st.sampled_from([0, 0.0, 0.05, 1.0, 3]) | st.floats(0.0, 0.2))
    lighting = draw(st.sampled_from([0, 1, 0.5]) | st.floats(0.0, 1.0))
    probe = ref.Record("", "", 0, (), 0.0, 0, float(blur), float(lighting))
    # ties at every threshold, the record's own adaptive tau among them
    ties = [s.tau_low, s.tau_high, s.critical_cut, ref.adaptive_tau(s, probe), 1.0, ref.CONF_FLOOR]
    confidence = max(ref.CONF_FLOOR, draw(_either(ties, ref.CONF_FLOOR, 1.0)))
    pred = draw(st.integers(0, ref.NUM_CLASSES - 1))
    if confidence >= 0.5 and draw(st.booleans()):
        # the rest of the mass on one other class, zeros as JSON integers
        other = (pred + draw(st.integers(1, ref.NUM_CLASSES - 1))) % ref.NUM_CLASSES
        probs = [0] * ref.NUM_CLASSES
        probs[other] = 1.0 - confidence
    else:
        probs = [(1.0 - confidence) / (ref.NUM_CLASSES - 1)] * ref.NUM_CLASSES
    probs[pred] = confidence
    if confidence == 1.0 and draw(st.booleans()):
        confidence = probs[pred] = 1
    obj = {
        "subject_id": draw(st.sampled_from(subjects)),
        "clip_id": draw(st.sampled_from([f"c{index}", f"c,{index}", f'c"{index}'])),
        "true_class": draw(st.sampled_from([pred]) | st.integers(0, ref.NUM_CLASSES - 1)),
        "probs": probs,
        "confidence": confidence,
        "criticality": draw(st.integers(0, 1)),
        "blur": blur,
        "lighting": lighting,
    }
    optional = {
        "artifact_score": _either([0, 0.5, 1, s.guard_threshold], 0.0, 1.0),
        "perceptual_loss": _either([0, 0.3, 2.5], 0.0, 1.0),
        "ssim_vs_hr": _either([-1, 0.7, 1], -1.0, 1.0),
    }
    for key, values in optional.items():
        form = draw(st.sampled_from(["absent", "null", "value"]))
        if form != "absent":
            obj[key] = None if form == "null" else draw(values)
    keys = draw(st.permutations(list(obj)))
    return {key: obj[key] for key in keys}


@st.composite
def logs(draw, s: ref.Settings) -> list[str]:
    """The lines of a valid log, blank lines included."""
    subjects = _SUBJECTS[: draw(st.integers(1, len(_SUBJECTS)))]
    n = draw(st.integers(1, 16))
    lines = []
    for i in range(n):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   "])))
        lines.append(json.dumps(draw(record_obj(s, subjects, i))))
    return lines


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli([str(a) for a in argv])
    return code, err.getvalue()


def _data_error(exc: ref.DataError) -> tuple[int, str]:
    return 3, f"srgate: data error: {exc}\n"


@_SETTINGS
@given(data=st.data())
def test_log_driven_outputs_equal_the_frozen_reference(data):
    s = data.draw(run_settings(), label="settings")
    lines = data.draw(logs(s), label="log")
    policy = data.draw(st.sampled_from(_POLICIES), label="policy")
    gate_flags = ["--tau-base", repr(s.tau_base), "--lambda", repr(s.lam), "--w-crit", repr(s.w_crit)]
    guard_flags = [
        "--guard" if s.guard_enabled else "--no-guard",
        "--guard-threshold", repr(s.guard_threshold),
        "--no-guard-absolute" if s.guard_relative else "--guard-absolute",
    ]
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        log = work / "preds.log"
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        recs = ref.ingest(str(log))

        for adaptive in (False, True):
            out = work / f"gate-{adaptive}"
            switch = "--adaptive" if adaptive else "--no-adaptive"
            assert _run(["gate", "--log", log, switch, *gate_flags, "--out", out]) == (0, "")
            want = ref.decisions_csv(recs, s, adaptive).encode("utf-8")
            assert (out / "decisions.csv").read_bytes() == want

        out = work / "guard"
        assert _run(["guard", "--log", log, *guard_flags, "--out", out]) == (0, "")
        assert (out / "guard.csv").read_bytes() == ref.guard_csv(recs, s).encode("utf-8")

        out = work / "loso"
        argv = ["loso-eval", "--log", log, "--seed", "0", "--resamples", "0", "--policy", policy,
                *gate_flags, *guard_flags, "--out", out]
        try:
            outcomes = ref.experiment_outcomes(recs, policy, s)
        except ref.DataError as exc:
            assert _run(argv) == _data_error(exc)
            assert not out.exists()
            return
        assert _run(argv) == (0, "")
        want = ref.guard_outcomes_csv(outcomes).encode("utf-8")
        assert (out / "guard_outcomes.csv").read_bytes() == want

        # the outcome columns in process, under the run's echoed configuration
        echo = json.loads((out / "effective_config.json").read_text(encoding="utf-8"))
        config = cfgmod.experiment_from_dict(echo)
        _, got = simulate.run_experiment_with_outcomes(
            records.ingest_log(str(log)), policy, config, 0
        )
        assert repr(
            [(int(o.level), o.used_sr, o.triggered, o.p_artifact, dataclasses.astuple(o.final))
             for o in got]
        ) == repr([(o.level, o.used_sr, o.triggered, o.p_artifact, tuple(o.final)) for o in outcomes])


_BAD_VALUES = [
    None, "x", "", True, [], [0.5], [0.5] * 7, {"a": 1}, -1, 0, 2, 7, 0.5, 1.5, -0.5,
    10**400, float("nan"), float("inf"),
]


@_SETTINGS
@given(data=st.data())
def test_corrupted_log_exits_as_the_frozen_reference(data):
    s = ref.Settings()
    lines = data.draw(logs(s), label="log")
    at = data.draw(
        st.sampled_from([i for i, line in enumerate(lines) if line.strip()]), label="line"
    )
    obj = json.loads(lines[at])
    kind = data.draw(st.sampled_from(["set", "delete", "prob", "unknown", "json", "array"]))
    key = data.draw(st.sampled_from([*ref.REQUIRED_KEYS, *ref.OPTIONAL_KEYS]), label="key")
    value = data.draw(st.sampled_from(_BAD_VALUES), label="value")
    if kind == "set":
        obj[key] = value
    elif kind == "delete":
        obj.pop(key, None)
    elif kind == "prob":
        obj["probs"][data.draw(st.integers(0, ref.NUM_CLASSES - 1))] = value
    elif kind == "unknown":
        obj["bogus"] = 1
    lines[at] = {"json": '{"subject_id": "S01",', "array": "[1, 2]"}.get(kind) or json.dumps(obj)
    strict = data.draw(st.booleans(), label="strict")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        log = work / "preds.log"
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["gate", "--log", log, "--adaptive", "--out", work / "gate"]
        if strict:
            argv.append("--strict")
        try:
            recs = ref.ingest(str(log), strict=strict)
        except ref.DataError as exc:
            assert _run(argv) == _data_error(exc)
            return
        assert _run(argv)[0] == 0
        want = ref.decisions_csv(recs, s, adaptive=True).encode("utf-8")
        assert (work / "gate" / "decisions.csv").read_bytes() == want
