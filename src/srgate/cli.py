"""Operator CLI: reproducible runs of the gating/calibration toolkit.

Subcommands: quality, gate, calibrate, guard, sweep, pareto, simulate,
loso-eval. Each config-backed option is declared once, in ``_OPTIONS``: its
config key and JSON type, the flag of that name (dashes for underscores)
and the subcommands that take it. Flags win over file values, file values
win over defaults; a file key that no subcommand reads, or one given twice,
is a usage error.
Every run writes its resolved configuration to ``effective_config.json``
in the output directory; ``quality``, ``calibrate``, ``pareto``,
``simulate`` and ``loso-eval`` create that directory only once their
computation has returned, so a failed run leaves no files. The
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
from dataclasses import dataclass, fields
from typing import Iterable, Sequence, get_args

from . import calibration as cal
from . import config as cfgmod
from . import costs as costmod
from . import errors as err
from . import gating, guard, quality, records, schema, simulate

USAGE_EXIT = 2
DATA_EXIT = 3
IO_EXIT = 4


def _write_csv(path: str, header: list[str], rows: Iterable[Sequence]) -> None:
    """Write rows as they come, so a generator is never held whole.

    csv.writer formats each value itself: None as an empty field, a float by
    its repr (which reproduces it exactly), anything else by str.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


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
        except ValueError as exc:
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
        effect = cfgmod.SrEffectConfig(uplift_enabled=False, hallucination_enabled=False)
        config = cfgmod.ExperimentConfig(scenario=cfgmod.ScenarioConfig(sr_effect=effect))
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


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _echo_config(out: str, effective: dict) -> None:
    _write_json(os.path.join(out, "effective_config.json"), effective)


def _write_reliability(out: str, bins) -> None:
    _write_csv(
        os.path.join(out, "reliability.csv"),
        ["bin_lo", "bin_hi", "count", "mean_conf", "accuracy"],
        [[b.lo, b.hi, b.count, b.mean_conf, b.accuracy] for b in bins],
    )


# --- subcommand bodies ------------------------------------------------------------

def _naming(files: str, fn, *images) -> float:
    """``fn(*images)``; a shape error names `files` before its message."""
    try:
        return fn(*images)
    except (err.DimensionMismatch, err.ImageTooSmall) as exc:
        raise type(exc)(f"{files}: {exc}") from None


def _cmd_quality(args) -> int:
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
    temporal = quality.inconsistency(pair_ssims) if args.clip else None
    out = _outdir(args)
    _write_csv(os.path.join(out, "quality.csv"), header, rows)
    if args.clip:
        _write_csv(
            os.path.join(out, "temporal.csv"),
            ["n_frames", "temporal_inconsistency"],
            [[len(args.images), temporal]],
        )
    _echo_config(
        out,
        {
            "subcommand": "quality",
            "images": list(args.images),
            "ssim_ref": args.ssim_ref,
            "clip": bool(args.clip),
        },
    )
    return 0


def _decision_rows(recs, config, adaptive: bool):
    """One decisions.csv row per record, yielded as it is decided. The
    adaptive gate's rows carry the expected-utility audit of each level,
    the heuristic rows of `gating.utility_matrix`, converted one row at a
    time; the fixed gate's rows carry zeros there."""
    t = config.thresholds
    if adaptive:
        audit = gating.utility_matrix(recs, config.utility, config.costs, "heuristic")
    for i, r in enumerate(recs):
        if adaptive:
            d = gating.gate_adaptive(r, t, config.adaptive)
            utilities = audit[i].tolist()
        else:
            d = gating.gate(r.confidence, r.criticality, t)
            utilities = (0.0, 0.0, 0.0)
        yield (
            r.clip_id,
            r.subject_id,
            r.confidence,
            r.criticality,
            d.level.label,
            d.reason.value,
            d.tau_used,
            *utilities,
        )


def _cmd_gate(args) -> int:
    config, run = _configure(args)
    recs = records.ingest_log(args.log, strict=args.strict)
    out = _outdir(args)
    _write_csv(
        os.path.join(out, "decisions.csv"),
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
        _decision_rows(recs, config, run["adaptive_gate"]),
    )
    _echo_config(out, _effective(run, config))
    return 0


def _cmd_calibrate(args) -> int:
    config, run = _configure(args)
    seed = run["seed"]
    if config.resamples > 0 and seed is None:
        raise ValueError("--seed is required when bootstrap resamples > 0")
    recs = records.ingest_log(args.log, strict=args.strict)
    a = records.record_arrays(recs)
    report = simulate.pooled_calibration(recs, a, config, 0 if seed is None else seed)
    out = _outdir(args)
    effective = _effective(run, config)
    if args.format in ("report", "both"):
        _write_json(
            os.path.join(out, "calibration_report.json"),
            {
                "schema_version": simulate.SCHEMA_VERSION,
                "calibration": schema.encode(report),
                "config": effective,
            },
        )
    if args.format in ("csv", "both"):
        _write_reliability(out, report.bins)
        # full PR curves for the critical classes, one file each
        for k in sorted(records.CRITICAL_IDS):
            labels = a.true_class == k
            if not labels.any():
                continue
            thresholds, precision, recall = cal.pr_curve_arrays(a.probs[:, k], labels)
            _write_csv(
                os.path.join(out, f"pr_{records.CLASSES[k].name}.csv"),
                ["threshold", "precision", "recall"],
                zip(thresholds.tolist(), precision.tolist(), recall.tolist()),
            )
    _echo_config(out, effective)
    return 0


def _guard_rows(recs, config):
    """One guard.csv row per record, yielded as it is decided."""
    for r in recs:
        level = gating.gate(r.confidence, r.criticality, config.thresholds).level
        label = (
            guard.label_artifact(r.ssim_vs_hr, r.perceptual_loss)
            if r.ssim_vs_hr is not None and r.perceptual_loss is not None
            else None
        )
        if level == records.SRLevel.NONE:
            yield (r.clip_id, r.artifact_score, level.label, False, False, r.confidence, label)
            continue
        outcome = simulate.guard_outcome(r, level, r.artifact_score, config)
        yield (
            r.clip_id,
            outcome.p_artifact,
            level.label,
            outcome.triggered,
            outcome.used_sr,
            outcome.final_confidence,
            label,
        )


def _cmd_guard(args) -> int:
    config, run = _configure(args)
    recs = records.ingest_log(args.log, strict=args.strict)
    out = _outdir(args)
    _write_csv(
        os.path.join(out, "guard.csv"),
        ["clip_id", "p_artifact", "level", "triggered", "used_sr", "final_confidence", "artifact_label"],
        _guard_rows(recs, config),
    )
    _echo_config(out, _effective(run, config))
    return 0


def _cmd_sweep(args) -> int:
    config, run = _configure(args)
    # before the ingest and the output directory, so a bad setting costs neither
    gating.check_sweep_settings(run["rel_range"], run["steps"], run["objective"])
    recs = records.ingest_log(args.log, strict=args.strict)
    out = _outdir(args)
    rows = gating.sensitivity_sweep(
        recs,
        config.thresholds,
        config.utility,
        config.costs,
        rel_range=run["rel_range"],
        steps=run["steps"],
        objective=run["objective"],
    )
    _write_csv(
        os.path.join(out, "sweep.csv"),
        ["scale_low", "scale_high", "mean_utility", "mean_cost_gflops", "n_none", "n_2x", "n_4x"],
        [
            [r.scale_low, r.scale_high, r.mean_utility, r.mean_cost_gflops, r.n_none, r.n_2x, r.n_4x]
            for r in rows
        ],
    )
    _echo_config(out, _effective(run, config))
    return 0


def _read_points(path: str) -> list[costmod.MethodPoint]:
    points = []
    names = set()
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.DictReader(records.utf8_lines(fh))
        for i, row in enumerate(reader, start=2):
            try:
                point = costmod.MethodPoint(
                    name=row["name"],
                    accuracy=float(row["accuracy"]),
                    cost=float(row["cost"]),
                    fps=float(row["fps"]),
                    power_w=float(row["power"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise err.MalformedRecord(i, f"bad method point: {exc}") from exc
            if point.name in names:
                raise err.MalformedRecord(i, f"duplicate method name {point.name!r}")
            names.add(point.name)
            points.append(point)
    if not points:
        raise err.EmptyInput(f"{path}: no method points")
    return points


def _cmd_pareto(args) -> int:
    points = _read_points(args.points)
    by_name = {p.name: p for p in points}
    baseline_name = args.baseline or points[0].name
    if baseline_name not in by_name:
        raise err.EmptyInput(f"baseline {baseline_name!r} not among points")
    baseline = by_name[baseline_name]
    if args.ref:
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
        if p == baseline:
            rel = 1.0
        elif ref is None:
            rel = 0.0
        else:
            rel = costmod.relative_efficiency(p, baseline, ref)
        rows.append(
            [p.name, p.accuracy, p.cost, p.fps, p.power_w, id(p) in frontier, rel]
        )
    out = _outdir(args)
    _write_csv(
        os.path.join(out, "pareto.csv"),
        ["name", "accuracy", "cost", "fps", "power", "on_frontier", "rel_efficiency"],
        rows,
    )
    _echo_config(
        out,
        {
            "subcommand": "pareto",
            "points": args.points,
            "baseline": baseline.name,
            "ref": ref.name if ref is not None else None,
        },
    )
    return 0


def _write_experiment_outputs(out: str, report, recs, outcomes, effective, fmt: str) -> None:
    if fmt in ("report", "both"):
        simulate.write_report(report, os.path.join(out, "report.json"))
    if fmt in ("csv", "both"):
        _write_reliability(out, report.calibration.bins)
        _write_csv(
            os.path.join(out, "guard_outcomes.csv"),
            ["clip_id", "p_artifact", "triggered", "used_sr", "final_confidence"],
            (
                (r.clip_id, o.p_artifact, o.triggered, o.used_sr, o.confidence)
                for r, o in zip(recs, outcomes)
            ),
        )
    _echo_config(out, effective)


def _cmd_simulate(args) -> int:
    config, run = _configure(args)
    seed = run["seed"]
    if seed is None:
        raise ValueError("--seed is required for simulate")
    recs = simulate.sample_stream(config.scenario.model, run["n_per_class"], run["subjects"], seed)
    report, outcomes = simulate.run_experiment_with_outcomes(recs, run["policy"], config, seed)
    out = _outdir(args)
    records.write_log(recs, os.path.join(out, "stream.log"))
    _write_experiment_outputs(out, report, recs, outcomes, _effective(run, config), args.format)
    return 0


def _cmd_loso_eval(args) -> int:
    config, run = _configure(args)
    seed = run["seed"]
    if seed is None:
        raise ValueError("--seed is required for loso-eval")
    recs = records.ingest_log(args.log, strict=args.strict)
    report, outcomes = simulate.run_experiment_with_outcomes(recs, run["policy"], config, seed)
    out = _outdir(args)
    _write_experiment_outputs(out, report, recs, outcomes, _effective(run, config), args.format)
    return 0


# --- parser ---------------------------------------------------------------------------

_COMMANDS = {
    "quality": ("pixel statistics for PGM images", _cmd_quality),
    "gate": ("per-record SR-level decisions", _cmd_gate),
    "calibrate": ("calibration report with bootstrap CIs", _cmd_calibrate),
    "guard": ("artifact-guard outcomes per record", _cmd_guard),
    "sweep": ("threshold sensitivity sweep", _cmd_sweep),
    "pareto": ("frontier and relative efficiency table", _cmd_pareto),
    "simulate": ("synthetic stream + policy experiment", _cmd_simulate),
    "loso-eval": ("policy experiment over an ingested log", _cmd_loso_eval),
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
        return args.fn(args)
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
