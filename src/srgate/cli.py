"""Operator CLI: reproducible runs of the gating/calibration toolkit.

Subcommands: quality, gate, calibrate, guard, sweep, pareto, simulate,
loso-eval. Flags mirror config-file keys one-to-one (dashes become
underscores); flags win over file values, file values win over defaults.
Every run writes its resolved configuration to ``effective_config.json``
in the output directory; feeding that file back via ``--config``
reproduces the run. All randomness flows from ``--seed``.

Exit codes: 0 success, 2 usage error, 3 data validation error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields, replace
from typing import Iterable, Sequence

import numpy as np

from . import calibration as cal
from . import config as cfgmod
from . import costs as costmod
from . import errors as err
from . import gating, guard, quality, records, schema, simulate

USAGE_EXIT = 2
DATA_EXIT = 3
IO_EXIT = 4

_VALIDATION_ERRORS = (
    err.MalformedRecord,
    err.EmptyLog,
    err.UnsupportedFormat,
    err.TruncatedFile,
    err.DimensionOverflow,
    err.ImageTooSmall,
    err.DimensionMismatch,
    err.TooFewFrames,
    err.MissingTableEntry,
    err.EmptyInput,
    err.MissingProbs,
    err.DegenerateLabels,
    err.MetricUndefinedOnResample,
    err.GuardOnNonSR,
    err.ZeroNormalizer,
    err.TooFewSubjects,
    err.InvalidModelParams,
    err.SchemaMismatch,
)


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
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None
        except UnicodeDecodeError:
            raise ValueError(f"{path}: config file is not UTF-8 text") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    return data


def _pick(args: argparse.Namespace, filecfg: dict, key: str, default, kind):
    """Flag > config file > default. Flag defaults are None sentinels. A flag
    or file value must pass the JSON rule of `kind` (see `schema`), so "false"
    is not read as on nor 4.7 as 4; the ValueError names `key`."""
    value = getattr(args, key, None)
    if value is None:
        if key not in filecfg:
            return default
        value = filecfg[key]
    return schema.decode(kind, value, key)


# Each flat config key, and the flag of that name, sets one field of a whole
# config: (its key path there, its JSON type).
_FLAT_KEYS = {
    "tau_low": (("thresholds", "tau_low"), float),
    "tau_high": (("thresholds", "tau_high"), float),
    "critical_cut": (("thresholds", "critical_cut"), float),
    "tau_base": (("adaptive", "tau_base"), float),
    "alpha_blur": (("adaptive", "alpha_blur"), float),
    "alpha_light": (("adaptive", "alpha_light"), float),
    "blur_ref": (("adaptive", "blur_ref"), float),
    "lambda": (("utility", "lambda"), float),
    "w_crit": (("utility", "w_crit"), float),
    "uplift": (("scenario", "sr_effect", "uplift_enabled"), bool),
    "hallucination": (("scenario", "sr_effect", "hallucination_enabled"), bool),
    "guard": (("guard_enabled",), bool),
    "guard_threshold": (("guard_threshold",), float),
    "guard_discount": (("guard_discount",), float),
    "bins": (("bins",), int),
    "resamples": (("resamples",), int),
    "ci_level": (("ci_level",), float),
}


# Keys that only a whole config spells: its top-level keys other than the
# flat keys, and "adaptive" when it is an object (gate's flat "adaptive" is
# a bool).
_WHOLE_ONLY_KEYS = tuple(
    f.name for f in fields(cfgmod.ExperimentConfig) if f.name not in ("thresholds", *_FLAT_KEYS)
)


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
    else:
        config = cfgmod.ExperimentConfig()
    whole = cfgmod.experiment_to_dict(config)
    for key, ((*sections, name), kind) in _FLAT_KEYS.items():
        node = whole
        for section in sections:
            node = node[section]
        node[name] = _pick(args, filecfg, key, node[name], kind)
    absolute = _pick(args, filecfg, "guard_absolute", not whole["guard_relative"], bool)
    whole["guard_relative"] = not absolute
    return cfgmod.experiment_from_dict(whole)


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _echo_config(out: str, effective: dict) -> None:
    _write_json(os.path.join(out, "effective_config.json"), effective)


# --- subcommand bodies ------------------------------------------------------------

def _cmd_quality(args) -> int:
    out = _outdir(args)
    loaded: dict[str, quality.GrayImage] = {}

    def load(path: str) -> quality.GrayImage:
        if path not in loaded:
            loaded[path] = quality.load_pgm(path)
        return loaded[path]

    ref = load(args.ssim_ref) if args.ssim_ref else None
    header = ["path", "width", "height", "laplacian_variance", "mean_intensity"]
    if ref is not None:
        header.append("ssim_vs_ref")
    rows = []
    images = []
    for path in args.images:
        img = load(path)
        images.append(img)
        row = [
            path,
            img.width,
            img.height,
            quality.laplacian_variance(img),
            quality.mean_intensity(img),
        ]
        if ref is not None:
            row.append(quality.ssim(img, ref))
        rows.append(row)
    _write_csv(os.path.join(out, "quality.csv"), header, rows)
    if args.clip:
        clip = quality.Clip(tuple(images))
        _write_csv(
            os.path.join(out, "temporal.csv"),
            ["n_frames", "temporal_inconsistency"],
            [[len(clip), quality.temporal_inconsistency(clip)]],
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
    """One decisions.csv row per record, yielded as it is decided."""
    t = config.thresholds
    for r in recs:
        if adaptive:
            d = gating.gate_adaptive(r, t, config.adaptive, config.utility, config.costs)
        else:
            d = gating.gate(r.confidence, r.criticality, t)
        yield (
            r.clip_id,
            r.subject_id,
            r.confidence,
            r.criticality,
            d.level.label,
            d.reason.value,
            d.tau_used,
            *d.utility_by_level,
        )


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
    return _pick(args, filecfg, "adaptive_gate" if whole else "adaptive", False, bool)


def _cmd_gate(args) -> int:
    filecfg = _load_config_file(args.config)
    config = _experiment_config(args, filecfg)
    adaptive = _gate_adaptive(args, filecfg)
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
        _decision_rows(recs, config, adaptive),
    )
    _echo_config(
        out,
        {
            "subcommand": "gate",
            "log": args.log,
            "adaptive_gate": adaptive,
            **cfgmod.experiment_to_dict(config),
        },
    )
    return 0


def _cmd_calibrate(args) -> int:
    filecfg = _load_config_file(args.config)
    config = _experiment_config(args, filecfg)
    seed = _pick(args, filecfg, "seed", None, int | None)
    if config.resamples > 0 and seed is None:
        raise ValueError("--seed is required when bootstrap resamples > 0")
    recs = records.ingest_log(args.log, strict=args.strict)
    out = _outdir(args)

    critical_ids = sorted(c.id for c in records.CLASSES if c.critical)
    ci_metrics = ["ece"] + [f"aupr:{k}" for k in critical_ids]
    report = cal.calibration_report(
        recs,
        bins=config.bins,
        ci_metrics=ci_metrics if config.resamples > 0 else None,
        n_resamples=max(config.resamples, 1),
        level=config.ci_level,
        seed=seed if seed is not None else 0,
    )

    effective = {
        "subcommand": "calibrate",
        "log": args.log,
        "seed": seed,
        **cfgmod.experiment_to_dict(config),
    }
    fmt = args.format or "both"
    if fmt in ("report", "both"):
        _write_json(
            os.path.join(out, "calibration_report.json"),
            {
                "schema_version": simulate.SCHEMA_VERSION,
                "calibration": schema.encode(report),
                "config": effective,
            },
        )
    if fmt in ("csv", "both"):
        _write_csv(
            os.path.join(out, "reliability.csv"),
            ["bin_lo", "bin_hi", "count", "mean_conf", "accuracy"],
            [[b.lo, b.hi, b.count, b.mean_conf, b.accuracy] for b in report.bins],
        )
        # full PR curves for the critical classes, one file each
        probs = np.array([r.probs for r in recs])
        true = np.array([r.true_class for r in recs])
        for k in critical_ids:
            labels = true == k
            if not labels.any():
                continue
            thresholds, precision, recall = cal.pr_curve_arrays(probs[:, k], labels)
            _write_csv(
                os.path.join(out, f"pr_{records.CLASSES[k].name}.csv"),
                ["threshold", "precision", "recall"],
                [
                    [float(t), float(p), float(r)]
                    for t, p, r in zip(thresholds, precision, recall)
                ],
            )
    _echo_config(out, effective)
    return 0


def _guard_rows(recs, config):
    """One guard.csv row per record, yielded as it is decided."""
    for r in recs:
        d = gating.gate(r.confidence, r.criticality, config.thresholds)
        label = (
            guard.label_artifact(r.ssim_vs_hr, r.perceptual_loss)
            if r.ssim_vs_hr is not None and r.perceptual_loss is not None
            else None
        )
        if d.level == records.SRLevel.NONE or r.artifact_score is None:
            yield (
                r.clip_id, r.artifact_score, d.level.label, False,
                d.level != records.SRLevel.NONE, r.confidence, label,
            )
            continue
        outcome = guard.apply_guard(
            r.artifact_score,
            d,
            r.confidence,
            threshold=config.guard_threshold,
            discount=config.guard_discount,
            relative_discount=config.guard_relative,
        )
        yield (
            r.clip_id,
            outcome.p_artifact,
            d.level.label,
            outcome.triggered,
            outcome.used_sr,
            outcome.final_confidence,
            label,
        )


def _cmd_guard(args) -> int:
    filecfg = _load_config_file(args.config)
    config = _experiment_config(args, filecfg)
    recs = records.ingest_log(args.log, strict=args.strict)
    out = _outdir(args)
    _write_csv(
        os.path.join(out, "guard.csv"),
        ["clip_id", "p_artifact", "level", "triggered", "used_sr", "final_confidence", "artifact_label"],
        _guard_rows(recs, config),
    )
    _echo_config(
        out,
        {
            "subcommand": "guard",
            "log": args.log,
            **cfgmod.experiment_to_dict(config),
        },
    )
    return 0


def _cmd_sweep(args) -> int:
    filecfg = _load_config_file(args.config)
    config = _experiment_config(args, filecfg)
    rel_range = _pick(args, filecfg, "rel_range", 0.25, float)
    steps = _pick(args, filecfg, "steps", 5, int)
    objective = _pick(args, filecfg, "objective", "outcome", str)
    # before the ingest and the output directory, so a bad setting costs neither
    gating.check_sweep_settings(rel_range, steps, objective)
    recs = records.ingest_log(args.log, strict=args.strict)
    out = _outdir(args)
    rows = gating.sensitivity_sweep(
        recs,
        config.thresholds,
        config.utility,
        config.costs,
        rel_range=rel_range,
        steps=steps,
        objective=objective,
    )
    _write_csv(
        os.path.join(out, "sweep.csv"),
        ["scale_low", "scale_high", "mean_utility", "mean_cost_gflops", "n_none", "n_2x", "n_4x"],
        [
            [r.scale_low, r.scale_high, r.mean_utility, r.mean_cost_gflops, r.n_none, r.n_2x, r.n_4x]
            for r in rows
        ],
    )
    _echo_config(
        out,
        {
            "subcommand": "sweep",
            "log": args.log,
            "rel_range": rel_range,
            "steps": steps,
            "objective": objective,
            **cfgmod.experiment_to_dict(config),
        },
    )
    return 0


def _read_points(path: str) -> list[costmod.MethodPoint]:
    points = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for i, row in enumerate(reader, start=2):
            try:
                points.append(
                    costmod.MethodPoint(
                        name=row["name"],
                        accuracy=float(row["accuracy"]),
                        cost=float(row["cost"]),
                        fps=float(row["fps"]),
                        power_w=float(row.get("power") or row["power_w"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise err.MalformedRecord(i, f"bad method point: {exc}") from exc
    if not points:
        raise err.EmptyInput(f"{path}: no method points")
    return points


def _cmd_pareto(args) -> int:
    points = _read_points(args.points)
    out = _outdir(args)
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


def _write_experiment_outputs(out: str, report, outcomes, effective: dict, fmt: str) -> None:
    if fmt in ("report", "both"):
        simulate.write_report(report, os.path.join(out, "report.json"))
    if fmt in ("csv", "both"):
        _write_csv(
            os.path.join(out, "reliability.csv"),
            ["bin_lo", "bin_hi", "count", "mean_conf", "accuracy"],
            [
                [b.lo, b.hi, b.count, b.mean_conf, b.accuracy]
                for b in report.calibration.bins
            ],
        )
        _write_csv(
            os.path.join(out, "guard_outcomes.csv"),
            ["clip_id", "p_artifact", "triggered", "used_sr", "final_confidence"],
            (
                (o.final.clip_id, o.p_artifact, o.triggered, o.used_sr, o.final.confidence)
                for o in outcomes
            ),
        )
    _echo_config(out, effective)


def _cmd_simulate(args) -> int:
    filecfg = _load_config_file(args.config)
    config = _experiment_config(args, filecfg)
    seed = _pick(args, filecfg, "seed", None, int | None)
    if seed is None:
        raise ValueError("--seed is required for simulate")
    policy = _pick(args, filecfg, "policy", "gate_adaptive", str)
    n_per_class = _pick(args, filecfg, "n_per_class", 200, int)
    subjects = _pick(args, filecfg, "subjects", simulate.PINNED_SUBJECTS, int)
    out = _outdir(args)

    recs = simulate.sample_stream(config.scenario.model, n_per_class, subjects, seed)
    records.write_log(recs, os.path.join(out, "stream.log"))
    report, outcomes = simulate.run_experiment_with_outcomes(recs, policy, config, seed)
    effective = {
        "subcommand": "simulate",
        "policy": policy,
        "seed": seed,
        "n_per_class": n_per_class,
        "subjects": subjects,
        **cfgmod.experiment_to_dict(config),
    }
    _write_experiment_outputs(out, report, outcomes, effective, args.format or "both")
    return 0


def _cmd_loso_eval(args) -> int:
    filecfg = _load_config_file(args.config)
    config = _experiment_config(args, filecfg)
    # log evaluation scores records as they stand: each synthetic SR effect
    # is off unless a flag, a flat key or a whole config sets it, unlike
    # simulate
    unset = [] if _is_whole(filecfg) else [
        key
        for key in ("uplift", "hallucination")
        if getattr(args, key) is None and key not in filecfg
    ]
    if unset:
        effect = replace(config.scenario.sr_effect, **{f"{key}_enabled": False for key in unset})
        config = config.with_overrides(scenario=replace(config.scenario, sr_effect=effect))
    seed = _pick(args, filecfg, "seed", None, int | None)
    if seed is None:
        raise ValueError("--seed is required for loso-eval")
    policy = _pick(args, filecfg, "policy", "gate_adaptive", str)
    recs = records.ingest_log(args.log, strict=args.strict)
    out = _outdir(args)
    report, outcomes = simulate.run_experiment_with_outcomes(recs, policy, config, seed)
    effective = {
        "subcommand": "loso-eval",
        "log": args.log,
        "policy": policy,
        "seed": seed,
        **cfgmod.experiment_to_dict(config),
    }
    _write_experiment_outputs(out, report, outcomes, effective, args.format or "both")
    return 0


# --- parser ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output directory (default: current)")
    p.add_argument("--config", help="JSON config file; flags win over its values")
    p.add_argument("--strict", action="store_true", help="reject unknown log keys")


def _add_threshold_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau-low", type=float, dest="tau_low")
    p.add_argument("--tau-high", type=float, dest="tau_high")
    p.add_argument("--critical-cut", type=float, dest="critical_cut")


def _add_utility_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", type=float, dest="lambda")
    p.add_argument("--w-crit", type=float, dest="w_crit")


def _add_adaptive_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau-base", type=float, dest="tau_base")
    p.add_argument("--alpha-blur", type=float, dest="alpha_blur")
    p.add_argument("--alpha-light", type=float, dest="alpha_light")
    p.add_argument("--blur-ref", type=float, dest="blur_ref")


def _add_guard_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--guard", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--guard-threshold", type=float, dest="guard_threshold")
    p.add_argument("--guard-discount", type=float, dest="guard_discount")
    p.add_argument(
        "--guard-absolute",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="guard_absolute",
        help="subtract the discount instead of scaling by it",
    )


def _add_metric_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bins", type=int)
    p.add_argument("--resamples", type=int)
    p.add_argument("--ci-level", type=float, dest="ci_level")
    p.add_argument(
        "--format",
        choices=("csv", "report", "both"),
        default=None,
        help="emit plot-data CSVs, the full report, or both (default)",
    )


def _add_scenario_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--uplift", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument(
        "--hallucination", action=argparse.BooleanOptionalAction, default=None
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srgate",
        description="Resource-aware SR gating, calibration, and guard toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("quality", help="pixel statistics for PGM images")
    p.add_argument("images", nargs="+", help="P2/P5 PGM files")
    p.add_argument("--ssim-ref", dest="ssim_ref", help="reference image for SSIM")
    p.add_argument("--clip", action="store_true", help="treat inputs as one ordered clip")
    _add_common(p)
    p.set_defaults(fn=_cmd_quality)

    p = sub.add_parser("gate", help="per-record SR-level decisions")
    p.add_argument("--log", required=True)
    p.add_argument("--adaptive", action=argparse.BooleanOptionalAction, default=None)
    _add_threshold_opts(p)
    _add_adaptive_opts(p)
    _add_utility_opts(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_gate)

    p = sub.add_parser("calibrate", help="calibration report with bootstrap CIs")
    p.add_argument("--log", required=True)
    p.add_argument("--seed", type=int)
    _add_metric_opts(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("guard", help="artifact-guard outcomes per record")
    p.add_argument("--log", required=True)
    _add_threshold_opts(p)
    _add_guard_opts(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_guard)

    p = sub.add_parser("sweep", help="threshold sensitivity sweep")
    p.add_argument("--log", required=True)
    p.add_argument("--rel-range", type=float, dest="rel_range")
    p.add_argument("--steps", type=int)
    p.add_argument("--objective", choices=("outcome", "heuristic"))
    _add_threshold_opts(p)
    _add_utility_opts(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("pareto", help="frontier and relative efficiency table")
    p.add_argument("--points", required=True, help="CSV: name,accuracy,cost,fps,power")
    p.add_argument("--baseline", help="baseline method name (default: first row)")
    p.add_argument("--ref", help="normalization reference (default: first non-baseline with nonzero efficiency)")
    _add_common(p)
    p.set_defaults(fn=_cmd_pareto)

    p = sub.add_parser("simulate", help="synthetic stream + policy experiment")
    p.add_argument("--seed", type=int)
    p.add_argument("--policy", choices=cfgmod.POLICIES)
    p.add_argument("--n-per-class", type=int, dest="n_per_class")
    p.add_argument("--subjects", type=int)
    p.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored; evaluation is serial"
    )
    _add_threshold_opts(p)
    _add_adaptive_opts(p)
    _add_utility_opts(p)
    _add_guard_opts(p)
    _add_metric_opts(p)
    _add_scenario_opts(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("loso-eval", help="policy experiment over an ingested log")
    p.add_argument("--log", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--policy", choices=cfgmod.POLICIES)
    p.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored; evaluation is serial"
    )
    _add_threshold_opts(p)
    _add_adaptive_opts(p)
    _add_utility_opts(p)
    _add_guard_opts(p)
    _add_metric_opts(p)
    _add_scenario_opts(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_loso_eval)

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
    except _VALIDATION_ERRORS as exc:
        print(f"srgate: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (err.IoFailure, OSError) as exc:
        print(f"srgate: i/o error: {exc}", file=sys.stderr)
        return IO_EXIT


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
