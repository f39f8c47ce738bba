"""Operator CLI: reproducible runs of the gating/calibration toolkit.

Subcommands: quality, gate, calibrate, guard, sweep, pareto, simulate,
loso-eval. Each config-backed option is declared once, in ``_OPTIONS``: its
config key and JSON type, the flag of that name (dashes for underscores)
and the subcommands that take it. Flags win over file values, file values
win over defaults; a file key that no subcommand reads, or one given twice,
is a usage error.

A subcommand body only computes. It returns its outputs, an ordered map
from file name to a writer of that path, and the run's echo. ``run_cli``
alone creates ``--out`` once the body has returned, writes each output in
order and then the echo as ``effective_config.json``, so a run whose
computation fails leaves no files. Two cases still leave files behind: a
rerun into the same ``--out`` keeps what it no longer writes (``calibrate``
on a log without drowsiness records leaves an earlier ``pr_drowsiness.csv``
beside a null ``per_class_aupr["6"]``), and a failed write keeps the files
written before it (with ``effective_config.json`` a directory, ``calibrate``
exits 4 and leaves its five other files).

``gate`` and ``guard`` decide every record first (``simulate.decide``,
``simulate.evaluate_records``), and ``gate --adaptive`` computes its
audit; only the formatting of their rows is left to the write. The
subcommands in ``_OPTIONS`` take ``--config``, and feeding the echo back
through it reproduces the run; those that read a ``--log`` take
``--strict``. All randomness flows from ``--seed``.

Exit codes: 0 success, 2 usage error, 3 data validation error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import astuple, dataclass, fields
from typing import Iterable, Sequence, get_args

import numpy as np

from . import calibration as cal
from . import config as cfgmod
from . import costs as costmod
from . import errors as err
from . import gating, guard, quality, records, schema, simulate

USAGE_EXIT = 2
DATA_EXIT = 3
IO_EXIT = 4


def _csv(header: list[str], rows: Iterable[Sequence]):
    """A writer of a CSV file of `header` and `rows`, written as they come,
    so a generator is never held whole.

    csv.writer formats each value itself: None as an empty field, a float by
    its repr (which reproduces it exactly), anything else by str.
    """

    def write(path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    return write


def _json(obj):
    """A writer of `obj` as indented JSON with sorted keys."""

    def write(path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")

    return write


def _reliability(bins):
    return _csv(["bin_lo", "bin_hi", "count", "mean_conf", "accuracy"], map(astuple, bins))


def _load_config_file(path: str | None) -> dict:
    """The JSON object in the config file at `path`; a ValueError (exit 2)
    names the file, and for invalid JSON json's line and column."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=schema.unique_object)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None
        except UnicodeDecodeError:
            raise ValueError(f"{path}: config file is not UTF-8 text") from None
        except schema.RepeatedKey as exc:
            raise ValueError(f"{path}: config key {exc.key!r} is given more than once") from None
        except (RecursionError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    return data


# --- config-backed options ---------------------------------------------------------

@dataclass(frozen=True)
class _Option:
    """One config-backed option: a key of flat configs and the --flag of
    that name (underscores become dashes) on each of `commands`.

    A flat key sets the field of a whole config at `path` (the opposite of
    it when `negated`). A run-level key has no path: its value, `default`
    when neither the flag nor the file gives one, goes into the run's echo.
    """

    key: str
    kind: object
    commands: tuple[str, ...]
    path: tuple[str, ...] | None = None
    default: object = None
    choices: tuple[str, ...] | None = None
    negated: bool = False
    help: str | None = None


_THRESHOLDS = ("gate", "guard", "sweep", "simulate", "loso-eval")
_ADAPTIVE = ("gate", "simulate", "loso-eval")
_UTILITY = ("gate", "sweep", "simulate", "loso-eval")
_GUARD = ("guard", "simulate", "loso-eval")
_METRICS = ("calibrate", "simulate", "loso-eval")
_EXPERIMENT = ("simulate", "loso-eval")

_OPTIONS = (
    _Option("tau_low", float, _THRESHOLDS, path=("thresholds", "tau_low")),
    _Option("tau_high", float, _THRESHOLDS, path=("thresholds", "tau_high")),
    _Option("critical_cut", float, _THRESHOLDS, path=("thresholds", "critical_cut")),
    _Option("tau_base", float, _ADAPTIVE, path=("adaptive", "tau_base")),
    _Option("alpha_blur", float, _ADAPTIVE, path=("adaptive", "alpha_blur")),
    _Option("alpha_light", float, _ADAPTIVE, path=("adaptive", "alpha_light")),
    _Option("blur_ref", float, _ADAPTIVE, path=("adaptive", "blur_ref")),
    _Option("lambda", float, _UTILITY, path=("utility", "lambda")),
    _Option("w_crit", float, _UTILITY, path=("utility", "w_crit")),
    _Option("uplift", bool, _EXPERIMENT, path=("scenario", "sr_effect", "uplift_enabled")),
    _Option(
        "hallucination", bool, _EXPERIMENT, path=("scenario", "sr_effect", "hallucination_enabled")
    ),
    _Option("guard", bool, _GUARD, path=("guard_enabled",)),
    _Option("guard_threshold", float, _GUARD, path=("guard_threshold",)),
    _Option("guard_discount", float, _GUARD, path=("guard_discount",)),
    _Option(
        "guard_absolute", bool, _GUARD, path=("guard_relative",), negated=True,
        help="subtract the discount instead of scaling by it",
    ),
    _Option("bins", int, _METRICS, path=("bins",)),
    _Option("resamples", int, _METRICS, path=("resamples",)),
    _Option("ci_level", float, _METRICS, path=("ci_level",)),
    _Option("seed", int | None, _METRICS),
    _Option("policy", str, _EXPERIMENT, default="gate_adaptive", choices=cfgmod.POLICIES),
    _Option("n_per_class", int, ("simulate",), default=200),
    _Option("subjects", int, ("simulate",), default=simulate.PINNED_SUBJECTS),
    _Option("rel_range", float, ("sweep",), default=0.25),
    _Option("steps", int, ("sweep",), default=5),
    _Option("objective", str, ("sweep",), default="outcome", choices=gating.OBJECTIVES),
)
_FLAT_OPTIONS = tuple(o for o in _OPTIONS if o.path is not None)
_RUN_OPTIONS = tuple(o for o in _OPTIONS if o.path is None)

# Keys that only a whole config spells: its top-level keys other than the
# flat keys, and "adaptive" when it is an object (gate's flat "adaptive" is
# a bool).
_WHOLE_ONLY_KEYS = tuple(
    f.name
    for f in fields(cfgmod.ExperimentConfig)
    if f.name not in ("thresholds", *(o.key for o in _FLAT_OPTIONS))
)

# Every top-level key some subcommand reads from a config file. The echo's
# "subcommand" and "log" are accepted so that an echo can be fed back.
_CONFIG_KEYS = frozenset(
    {o.key for o in _OPTIONS}
    | {f.name for f in fields(cfgmod.ExperimentConfig)}
    | {"adaptive_gate", "subcommand", "log"}
)


def _pick(args, filecfg: dict, key: str, kind, default, choices=None):
    """Flag > config file > default. Flag defaults are None sentinels. A flag
    or file value must pass the JSON rule of `kind` (see `schema`), so "false"
    is not read as on nor 4.7 as 4, and be one of `choices` if given; the
    ValueError names `key`."""
    value = getattr(args, key, None)
    if value is None:
        if key not in filecfg:
            return default
        value = filecfg[key]
    value = schema.decode(kind, value, key)
    if choices is not None and value not in choices:
        raise ValueError(f"{key} must be one of {list(choices)}, got {value!r}")
    return value


def _is_whole(filecfg: dict) -> bool:
    """Whether `filecfg` is a whole config, that is one holding "thresholds"
    as every echo does. A key that only a whole config spells, in a config
    without "thresholds", would be dropped, so it is an error (exit 2)."""
    if "thresholds" in filecfg:
        return True
    for key in _WHOLE_ONLY_KEYS:
        if key in filecfg and (key != "adaptive" or isinstance(filecfg[key], dict)):
            raise ValueError(
                f"config holds {key!r}, which only a whole config spells, "
                "but lacks 'thresholds'; a whole config needs every key"
            )
    return False


def _experiment_config(args, filecfg: dict) -> cfgmod.ExperimentConfig:
    """Assemble an ExperimentConfig from defaults, config file, and flags."""
    if _is_whole(filecfg):
        config = cfgmod.experiment_from_dict(filecfg)
    elif args.subcommand == "loso-eval":
        # log evaluation scores records as they stand: each synthetic SR
        # effect is off unless a flag or a flat key sets it, unlike simulate
        config = simulate.log_driven(cfgmod.ExperimentConfig())
    else:
        config = cfgmod.ExperimentConfig()
    whole = cfgmod.experiment_to_dict(config)
    for option in _FLAT_OPTIONS:
        *sections, name = option.path
        node = whole
        for section in sections:
            node = node[section]
        if option.negated:
            node[name] = not _pick(args, filecfg, option.key, option.kind, not node[name])
        else:
            node[name] = _pick(args, filecfg, option.key, option.kind, node[name])
    return cfgmod.experiment_from_dict(whole)


def _gate_adaptive(args, filecfg: dict) -> bool:
    """gate's on/off for the adaptive policy: the flag, else the config file.

    gate's echo stores it as "adaptive_gate", since in a whole config (one
    holding "thresholds") "adaptive" is the AdaptiveTauConfig section; a
    whole config without "adaptive_gate" runs the fixed policy. A flat
    config may also give it as "adaptive".
    """
    if args.adaptive is not None:
        return args.adaptive
    whole = "adaptive_gate" in filecfg or "thresholds" in filecfg
    return _pick(args, filecfg, "adaptive_gate" if whole else "adaptive", bool, False)


def _configure(args) -> tuple[cfgmod.ExperimentConfig, dict]:
    """The ExperimentConfig of a config-backed subcommand, and its run-level
    values: "subcommand", "log" where the subcommand reads one, the run-level
    keys it takes, and gate's "adaptive_gate". Flags win over the config file, the file over
    defaults; a file key that no subcommand reads is an error (exit 2)."""
    filecfg = _load_config_file(args.config)
    unknown = sorted(filecfg.keys() - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"config key {unknown[0]!r} is read by no subcommand")
    config = _experiment_config(args, filecfg)
    run = {"subcommand": args.subcommand}
    if "log" in vars(args):
        run["log"] = args.log
    for o in _RUN_OPTIONS:
        if args.subcommand in o.commands:
            run[o.key] = _pick(args, filecfg, o.key, o.kind, o.default, o.choices)
    if args.subcommand == "gate":
        run["adaptive_gate"] = _gate_adaptive(args, filecfg)
    return config, run


def _effective(run: dict, config: cfgmod.ExperimentConfig) -> dict:
    """A run's effective configuration; fed back via --config it reproduces
    the run."""
    return {**run, **cfgmod.experiment_to_dict(config)}


# --- subcommand bodies ------------------------------------------------------------

# a decision column's codes as written: SR levels by value, gate reasons by
# their index in GateReason (`simulate.decide`'s reason code)
_LEVEL_LABELS = [level.label for level in records.SRLevel]
_REASONS = [reason.value for reason in records.GateReason]


def _naming(files: str, fn, *images) -> float:
    """``fn(*images)``; a shape error names `files` before its message."""
    try:
        return fn(*images)
    except (err.DimensionMismatch, err.ImageTooSmall) as exc:
        raise type(exc)(f"{files}: {exc}") from None


def _cmd_quality(args):
    """Reads the frames as a stream: only the reference and the previous
    frame stay loaded, so memory does not grow with the number of frames."""
    if args.clip:
        quality.require_pairs(len(args.images))
    ref_path = args.ssim_ref
    ref = quality.load_pgm(ref_path) if ref_path else None
    header = ["path", "width", "height", "laplacian_variance", "mean_intensity"]
    if ref is not None:
        header.append("ssim_vs_ref")
    rows = []
    pair_ssims = []
    prev_path, prev = None, None
    for path in args.images:
        img = ref if path == ref_path else quality.load_pgm(path)
        row = [
            path,
            img.width,
            img.height,
            _naming(path, quality.laplacian_variance, img),
            quality.mean_intensity(img),
        ]
        if ref is not None:
            row.append(_naming(f"--ssim-ref: {path} vs {ref_path}", quality.ssim, img, ref))
        rows.append(row)
        if args.clip and prev is not None:
            pair_ssims.append(_naming(f"--clip: {prev_path} vs {path}", quality.ssim, prev, img))
        prev_path, prev = path, img
    outputs = {"quality.csv": _csv(header, rows)}
    if args.clip:
        outputs["temporal.csv"] = _csv(
            ["n_frames", "temporal_inconsistency"],
            [[len(args.images), quality.inconsistency(pair_ssims)]],
        )
    echo = {
        "subcommand": "quality",
        "images": list(args.images),
        "ssim_ref": args.ssim_ref,
        "clip": bool(args.clip),
    }
    return outputs, echo


def _decision_rows(recs, decisions, audit):
    """One decisions.csv row per record, from `simulate.decide`'s columns
    and the (n, 3) audit matrix."""
    for r, (level, reason, tau_used), utilities in records.row_blocks(recs, decisions, audit):
        decision = (_LEVEL_LABELS[level], _REASONS[reason], tau_used)
        yield (r.clip_id, r.subject_id, r.confidence, r.criticality, *decision, *utilities)


def _cmd_gate(args):
    config, run = _configure(args)
    recs = records.ingest_log(args.log, strict=args.strict)
    decisions = simulate.decide(recs, "gate_adaptive" if run["adaptive_gate"] else "gate", config)
    audit = np.zeros((len(recs), 3))  # the fixed gate writes no audit
    if run["adaptive_gate"]:
        audit = gating.utility_matrix(recs, config.utility, config.costs, "heuristic")
    table = _csv(
        [
            "clip_id",
            "subject_id",
            "confidence",
            "criticality",
            "level",
            "reason",
            "tau_used",
            "utility_none",
            "utility_2x",
            "utility_4x",
        ],
        _decision_rows(recs, decisions, audit),
    )
    return {"decisions.csv": table}, _effective(run, config)


def _pr_rows(a: records.RecordArrays, k: int):
    """The full PR curve of class `k`, computed only once its file is
    written, so one curve at a time is held."""
    yield from records.row_blocks(*cal.pr_curve_arrays(a.probs[:, k], a.true_class == k))


def _cmd_calibrate(args):
    config, run = _configure(args)
    seed = run["seed"]
    if config.resamples > 0 and seed is None:
        raise ValueError("--seed is required when bootstrap resamples > 0")
    a = records.record_arrays(records.ingest_log(args.log, strict=args.strict))
    report = simulate.pooled_calibration(a, config, 0 if seed is None else seed)
    effective = _effective(run, config)
    outputs = {}
    if args.format in ("report", "both"):
        outputs["calibration_report.json"] = _json(
            {
                "schema_version": simulate.SCHEMA_VERSION,
                "calibration": schema.encode(report),
                "config": effective,
            }
        )
    if args.format in ("csv", "both"):
        outputs["reliability.csv"] = _reliability(report.bins)
        # full PR curves for the critical classes present, one file each
        for k in sorted(records.CRITICAL_IDS):
            if (a.true_class == k).any():
                outputs[f"pr_{records.CLASSES[k].name}.csv"] = _csv(
                    ["threshold", "precision", "recall"], _pr_rows(a, k)
                )
    return outputs, effective


def _guard_rows(recs, outcomes: simulate.OutcomeColumns):
    """One guard.csv row per record, from the outcome columns; `p_artifact`
    is the record's own score, and `artifact_label` is labelled per record."""
    columns = (outcomes.level, outcomes.triggered, outcomes.used_sr, outcomes.confidence)
    for r, level, fired, sr, conf in records.row_blocks(recs, *columns):
        label = None
        if r.ssim_vs_hr is not None and r.perceptual_loss is not None:
            label = guard.label_artifact(r.ssim_vs_hr, r.perceptual_loss)
        yield (r.clip_id, r.artifact_score, _LEVEL_LABELS[level], fired, sr, conf, label)


def _cmd_guard(args):
    config, run = _configure(args)
    recs = records.ingest_log(args.log, strict=args.strict)
    # the fixed gate, then the guard on the logged scores, as loso-eval
    # scores a log; the echo keeps the config as given
    outcomes = simulate.evaluate_records(recs, "gate", simulate.log_driven(config), 0)
    table = _csv(
        ["clip_id", "p_artifact", "level", "triggered", "used_sr", "final_confidence", "artifact_label"],
        _guard_rows(recs, outcomes),
    )
    return {"guard.csv": table}, _effective(run, config)


def _cmd_sweep(args):
    config, run = _configure(args)
    # before the ingest, so a bad setting costs no read of the log
    gating.check_sweep_settings(run["rel_range"], run["steps"], run["objective"])
    recs = records.ingest_log(args.log, strict=args.strict)
    rows = gating.sensitivity_sweep(
        recs,
        config.thresholds,
        config.utility,
        config.costs,
        rel_range=run["rel_range"],
        steps=run["steps"],
        objective=run["objective"],
    )
    table = _csv([f.name for f in fields(gating.SweepRow)], map(astuple, rows))
    return {"sweep.csv": table}, _effective(run, config)


def _csv_rows(fh):
    """(line, values) of each CSV row of `fh`, `line` being the one the row
    starts on, since a quoted field may span lines. A row csv cannot read (a
    field past its size limit) raises MalformedRecord naming its line."""
    reader = csv.reader(records.utf8_lines(fh))
    end = 0
    try:
        for values in reader:
            yield end + 1, values
            end = reader.line_num
    except csv.Error as exc:
        raise err.MalformedRecord(end + 1, f"bad CSV row: {exc}") from None


def _read_points(path: str) -> list[costmod.MethodPoint]:
    points = []
    names = set()
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        rows = _csv_rows(fh)
        _, header = next(rows, (1, []))
        for line_no, values in rows:
            if not values:
                continue
            # as csv.DictReader reads it: a short row's last keys are None
            row = dict(zip(header, values + [None] * (len(header) - len(values))))
            try:
                point = costmod.MethodPoint(
                    name=row["name"],
                    accuracy=float(row["accuracy"]),
                    cost=float(row["cost"]),
                    fps=float(row["fps"]),
                    power_w=float(row["power"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise err.MalformedRecord(line_no, f"bad method point: {exc}") from exc
            if point.name in names:
                raise err.MalformedRecord(line_no, f"duplicate method name {point.name!r}")
            names.add(point.name)
            points.append(point)
    if not points:
        raise err.EmptyInput(f"{path}: no method points")
    return points


def _cmd_pareto(args):
    points = _read_points(args.points)
    by_name = {p.name: p for p in points}
    baseline_name = points[0].name if args.baseline is None else args.baseline
    if baseline_name not in by_name:
        raise err.EmptyInput(f"baseline {baseline_name!r} not among points")
    baseline = by_name[baseline_name]
    if args.ref is not None:
        if args.ref not in by_name:
            raise err.EmptyInput(f"ref {args.ref!r} not among points")
        ref = by_name[args.ref]
    else:
        # first non-baseline method with nonzero efficiency, input order
        ref = next(
            (p for p in points if p != baseline and costmod.efficiency(p, baseline) != 0.0),
            None,
        )
    frontier = set(id(p) for p in costmod.pareto_frontier(points))
    rows = []
    for p in points:
        if ref is None and p != baseline:
            rel = 0.0  # every method's efficiency is zero: nothing to normalize by
        else:
            rel = costmod.relative_efficiency(p, baseline, ref)
        rows.append([*astuple(p), id(p) in frontier, rel])
    table = _csv(["name", "accuracy", "cost", "fps", "power", "on_frontier", "rel_efficiency"], rows)
    echo = {
        "subcommand": "pareto",
        "points": args.points,
        "baseline": baseline.name,
        "ref": ref.name if ref is not None else None,
    }
    return {"pareto.csv": table}, echo


def _guard_outcome_rows(recs, outcomes: simulate.OutcomeColumns):
    """One guard_outcomes.csv row per record, from the outcome columns; a
    NaN `p_artifact` (no score) is written empty."""
    columns = (outcomes.p_artifact, outcomes.triggered, outcomes.used_sr, outcomes.confidence)
    for r, p_artifact, fired, sr, conf in records.row_blocks(recs, *columns):
        yield r.clip_id, None if p_artifact != p_artifact else p_artifact, fired, sr, conf


def _cmd_experiment(args):
    """simulate and loso-eval: one policy experiment, on a sampled stream
    (written as stream.log) or on an ingested log."""
    config, run = _configure(args)
    seed = run["seed"]
    if seed is None:
        raise ValueError(f"--seed is required for {args.subcommand}")
    outputs = {}
    if args.subcommand == "simulate":
        recs = simulate.sample_stream(config.scenario.model, run["n_per_class"], run["subjects"], seed)
        # looked up when written, so a wrapper installed on the module sees the call
        outputs["stream.log"] = lambda path: records.write_log(recs, path)
    else:
        recs = records.ingest_log(args.log, strict=args.strict)
    report, outcomes = simulate.run_experiment_with_outcomes(recs, run["policy"], config, seed)
    if args.format in ("report", "both"):
        outputs["report.json"] = lambda path: simulate.write_report(report, path)
    if args.format in ("csv", "both"):
        outputs["reliability.csv"] = _reliability(report.calibration.bins)
        outputs["guard_outcomes.csv"] = _csv(
            ["clip_id", "p_artifact", "triggered", "used_sr", "final_confidence"],
            _guard_outcome_rows(recs, outcomes),
        )
    return outputs, _effective(run, config)


# --- parser ---------------------------------------------------------------------------

_COMMANDS = {
    "quality": ("pixel statistics for PGM images", _cmd_quality),
    "gate": ("per-record SR-level decisions", _cmd_gate),
    "calibrate": ("calibration report with bootstrap CIs", _cmd_calibrate),
    "guard": ("artifact-guard outcomes per record", _cmd_guard),
    "sweep": ("threshold sensitivity sweep", _cmd_sweep),
    "pareto": ("frontier and relative efficiency table", _cmd_pareto),
    "simulate": ("synthetic stream + policy experiment", _cmd_experiment),
    "loso-eval": ("policy experiment over an ingested log", _cmd_experiment),
}


def _add_flag(p: argparse.ArgumentParser, option: _Option) -> None:
    flag = "--" + option.key.replace("_", "-")
    if option.kind is bool:
        p.add_argument(
            flag, dest=option.key, action=argparse.BooleanOptionalAction, default=None,
            help=option.help,
        )
    else:
        # a flag gives a value; a config file may also give null (seed)
        kind = get_args(option.kind)[0] if get_args(option.kind) else option.kind
        p.add_argument(flag, dest=option.key, type=kind, choices=option.choices, help=option.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srgate",
        description="Resource-aware SR gating, calibration, and guard toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    configured = {name for option in _OPTIONS for name in option.commands}
    parsers = {}
    for name, (help_text, fn) in _COMMANDS.items():
        parsers[name] = p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="output directory (default: current)")
        if name in configured:
            p.add_argument("--config", help="JSON config file; flags win over its values")
        if name not in ("quality", "pareto", "simulate"):
            p.add_argument("--log", required=True)
            p.add_argument("--strict", action="store_true", help="reject unknown log keys")

    p = parsers["quality"]
    p.add_argument("images", nargs="+", help="P2/P5 PGM files")
    p.add_argument("--ssim-ref", dest="ssim_ref", help="reference image for SSIM")
    p.add_argument("--clip", action="store_true", help="treat inputs as one ordered clip")

    p = parsers["pareto"]
    p.add_argument("--points", required=True, help="CSV: name,accuracy,cost,fps,power")
    p.add_argument("--baseline", help="baseline method name (default: first row)")
    p.add_argument("--ref", help="normalization reference (default: first non-baseline with nonzero efficiency)")

    parsers["gate"].add_argument("--adaptive", action=argparse.BooleanOptionalAction, default=None)
    for name in _METRICS:
        parsers[name].add_argument(
            "--format",
            choices=("csv", "report", "both"),
            default="both",
            help="emit plot-data CSVs, the full report, or both (default)",
        )
    for name in _EXPERIMENT:
        parsers[name].add_argument(
            "--threads", type=int, default=1, help="accepted and ignored; evaluation is serial"
        )
    for option in _OPTIONS:
        for name in option.commands:
            _add_flag(parsers[name], option)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        outputs, echo = args.fn(args)
        out = args.out or "."
        os.makedirs(out, exist_ok=True)
        for name, write in {**outputs, "effective_config.json": _json(echo)}.items():
            write(os.path.join(out, name))
        return 0
    except ValueError as exc:
        print(f"srgate: invalid option value: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (err.IoFailure, OSError) as exc:
        print(f"srgate: i/o error: {exc}", file=sys.stderr)
        return IO_EXIT
    except err.SrgateError as exc:
        print(f"srgate: data error: {exc}", file=sys.stderr)
        return DATA_EXIT


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
