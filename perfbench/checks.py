"""Output oracles, one per workload, run outside every timed phase.

Each ``check_*`` returns a list of problems; an empty list means the
operation's outputs are correct. The oracles recompute what they can from
the generated inputs with plain numpy, so they do not share code paths
with the program they check (beyond its configuration constants).
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from srgate import config, records, simulate
from workloads import GRID_STEP, SWEEP_REL_RANGE, SWEEP_STEPS, oracle_adaptive_gate

LEVEL_LABELS = ("none", "2x", "4x")
REASONS = frozenset(r.value for r in records.GateReason)
CI_KEYS = frozenset(["ece"] + [f"aupr:{c.id}" for c in records.CLASSES if c.critical])
SURFACE_TOL = 1e-12
PIXEL_REL_TOL = 1e-9


# --- shared oracles -------------------------------------------------------------

def read_log_arrays(path: str) -> dict[str, np.ndarray]:
    cols: dict[str, list] = {k: [] for k in (
        "clip_id", "confidence", "criticality", "blur", "lighting", "artifact_score"
    )}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            for k, v in cols.items():
                v.append(obj.get(k))
    out = {k: np.array(v) for k, v in cols.items() if k != "clip_id"}
    out["clip_id"] = cols["clip_id"]
    return out


def check_report(path: str, n: int, level_hist, n_folds: int, with_ci: bool):
    """(problems, report or None) for a report.json."""
    errs = []
    try:
        rep = simulate.read_report(path)
    except Exception as exc:  # any failure to re-read is an output error
        return [f"report.json does not re-read: {exc!r}"], None
    if rep.n != n:
        errs.append(f"report n={rep.n}, expected {n}")
    if sum(rep.cost.histogram) != n:
        errs.append(f"cost histogram {rep.cost.histogram} does not sum to {n}")
    if list(rep.cost.histogram) != [int(v) for v in level_hist]:
        errs.append(f"cost histogram {rep.cost.histogram} != oracle levels {list(level_hist)}")
    if sum(f.n for f in rep.folds) != n or len(rep.folds) != n_folds:
        errs.append("fold sizes do not sum to n or fold count is wrong")
    ci = rep.calibration.ci
    if with_ci:
        if ci is None or set(ci) != CI_KEYS:
            errs.append(f"CI keys {None if ci is None else sorted(ci)} != {sorted(CI_KEYS)}")
        else:
            for name, (lo, hi, _level) in ci.items():
                if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                    errs.append(f"CI {name} = ({lo}, {hi}) is not finite with lo <= hi")
    elif ci is not None:
        errs.append("CIs present although resamples is 0")
    return errs, rep


def check_guard(path: str, n: int, sr_mask, artifact, triggered_in_report: int) -> list[str]:
    """Guard triggers equal an independent count of artifact > threshold on SR records."""
    threshold = config.ExperimentConfig().guard_threshold
    expected = int(np.sum(sr_mask & (artifact > threshold)))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    flagged = sum(1 for r in rows if r["triggered"] == "True")
    errs = []
    if len(rows) != n:
        errs.append(f"guard_outcomes.csv has {len(rows)} rows, expected {n}")
    if not expected == flagged == triggered_in_report:
        errs.append(
            f"guard triggers: oracle {expected}, csv {flagged}, report {triggered_in_report}"
        )
    return errs


# --- per workload ------------------------------------------------------------------

def check_simulate(inputs, out, result) -> list[str]:
    log = read_log_arrays(os.path.join(out, "stream.log"))
    n = len(log["clip_id"])
    levels, _, _ = oracle_adaptive_gate(
        log["confidence"], log["criticality"], log["blur"], log["lighting"]
    )
    hist = np.bincount(levels, minlength=3)
    errs, rep = check_report(
        os.path.join(out, "report.json"), n, hist, simulate.PINNED_SUBJECTS, with_ci=True
    )
    if rep is None:
        return errs
    if rep.guard.n_sr != int(np.sum(levels != 0)):
        errs.append(f"n_sr {rep.guard.n_sr} != oracle {int(np.sum(levels != 0))}")
    p_art = oracle_sr_artifact(inputs["seed"], levels)
    guard_csv = os.path.join(out, "guard_outcomes.csv")
    with open(guard_csv, encoding="utf-8", newline="") as fh:
        got = np.array(
            [float(r["p_artifact"]) if r["p_artifact"] else math.nan for r in csv.DictReader(fh)]
        )
    if got.shape != p_art.shape:
        return errs + [f"guard_outcomes.csv has {got.size} rows, expected {n}"]
    bad_rows = np.flatnonzero((got != p_art) & ~(np.isnan(got) & np.isnan(p_art)))
    if bad_rows.size:
        i = int(bad_rows[0])
        errs.append(
            f"guard_outcomes.csv: {bad_rows.size} p_artifact values differ from the oracle's "
            f"draws, first at row {i + 2}: {float(got[i])!r} != {float(p_art[i])!r}"
        )
    return errs + check_guard(guard_csv, n, levels != 0, p_art, rep.guard.n_triggered)


def oracle_sr_artifact(seed: int, levels) -> np.ndarray:
    """Every SR record's artifact score, drawn again from the SR-effect model.

    In synthetic mode record ``i`` takes its draws from the substream
    ``default_rng([seed, i])``: first whether it is hallucinated (at the
    model's rate for its level); if so a target class, a confidence
    inflation and a score in the hallucinated range, otherwise a score in
    the clean range. Records the gate skips get no score (NaN here).
    """
    effect = config.ExperimentConfig().scenario.sr_effect
    scores = np.full(len(levels), math.nan)
    for i in np.flatnonzero(levels != 0):
        rng = np.random.default_rng([seed, int(i)])
        if rng.random() < effect.hallucination_rate(records.SRLevel(int(levels[i]))):
            rng.integers(0, len(effect.hallucination_targets))
            rng.uniform(*effect.inflation_range)
            scores[i] = rng.uniform(*effect.hallucinated_score_range)
        else:
            scores[i] = rng.uniform(*effect.clean_score_range)
    return scores


def check_decisions(path: str, log, levels, reasons, tau) -> list[str]:
    """decisions.csv: one row per record, known labels, equal to the oracle."""
    errs = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(log["clip_id"]):
        return [f"decisions.csv has {len(rows)} rows, expected {len(log['clip_id'])}"]
    for i, row in enumerate(rows):
        problem = None
        if row["level"] not in LEVEL_LABELS or row["reason"] not in REASONS:
            problem = f"unknown level/reason {row['level']!r}/{row['reason']!r}"
        elif row["clip_id"] != log["clip_id"][i]:
            problem = f"clip_id {row['clip_id']!r} out of order"
        elif row["level"] != LEVEL_LABELS[levels[i]] or row["reason"] != reasons[i]:
            problem = f"{row['level']}/{row['reason']} != oracle {LEVEL_LABELS[levels[i]]}/{reasons[i]}"
        elif float(row["tau_used"]) != tau[i]:
            problem = f"tau_used {row['tau_used']} != oracle {tau[i]!r}"
        if problem:
            errs.append(f"decisions.csv row {i + 2}: {problem}")
            if len(errs) >= 5:
                break
    return errs


def check_log_audit(inputs, out, result) -> list[str]:
    log = read_log_arrays(inputs["log"])
    n = len(log["clip_id"])
    levels, reasons, tau = oracle_adaptive_gate(
        log["confidence"], log["criticality"], log["blur"], log["lighting"]
    )
    errs = check_decisions(os.path.join(out, "gate", "decisions.csv"), log, levels, reasons, tau)
    rep_errs, rep = check_report(
        os.path.join(out, "loso", "report.json"),
        n,
        np.bincount(levels, minlength=3),
        simulate.PINNED_SUBJECTS,
        with_ci=False,
    )
    errs += rep_errs
    if rep is not None:
        errs += check_guard(
            os.path.join(out, "loso", "guard_outcomes.csv"),
            n,
            levels != 0,
            log["artifact_score"],
            rep.guard.n_triggered,
        )
    return errs


def oracle_surface(recs, params, profile, lo_arr, hi_arr, cut, objective, chunk=128):
    """Brute force: every record's level at every threshold pair."""
    p = np.array([r.confidence for r in recs])
    c = np.array([r.criticality for r in recs])
    probs = np.array([r.probs for r in recs])
    true = np.array([r.true_class for r in recs])
    pred = probs.argmax(axis=1)
    factor = 1.0 - (pred == true) if objective == "outcome" else 1.0 - p
    w = np.where(c == 1, params.w_crit, params.w_normal)
    table = np.array(
        [[params.delta_acc_table[(k, lvl)] for lvl in records.SRLevel]
         for k in range(records.NUM_CLASSES)]
    )
    util = table[pred] * (factor * w)[:, None] - params.lam * np.array(profile.utility_costs())
    forced = (c == 1) & (p < cut)
    n, m = p.size, lo_arr.size
    means = np.empty(m)
    hist = np.empty((m, 3), dtype=np.int64)
    for s in range(0, m, chunk):
        lo = lo_arr[s : s + chunk, None]
        hi = hi_arr[s : s + chunk, None]
        x4 = (p[None, :] <= lo) | forced[None, :]
        none = ~x4 & (p[None, :] > hi)
        vals = np.where(x4, util[:, 2], np.where(none, util[:, 0], util[:, 1]))
        means[s : s + chunk] = vals.sum(axis=1) / n
        hist[s : s + chunk, 0] = none.sum(axis=1)
        hist[s : s + chunk, 2] = x4.sum(axis=1)
        hist[s : s + chunk, 1] = n - hist[s : s + chunk, 0] - hist[s : s + chunk, 2]
    free_sorted = np.sort(p[~forced])
    group = np.stack(
        [np.searchsorted(free_sorted, lo_arr, "right"), np.searchsorted(free_sorted, hi_arr, "right")],
        axis=1,
    )
    return means, hist, group


def check_optimum(res, recs, params, profile, objective, cut=0.70) -> list[str]:
    """Same optimum as brute force under the documented tie-break.

    Ties break toward larger tau_high, then larger tau_low. Pairs that put
    every record on the same level have bit-equal sums, so among them the
    tie-break must hold exactly. Distinct assignments whose means differ by
    rounding alone (<= SURFACE_TOL) may be ordered either way.
    """
    count = int(math.floor(1.0 / GRID_STEP + 1e-9))
    grid = [i * GRID_STEP for i in range(count + 1)]
    pairs = [(lo, hi) for lo in grid for hi in grid if lo < hi]
    lo_arr = np.array([a for a, _ in pairs])
    hi_arr = np.array([b for _, b in pairs])
    means, _, group = oracle_surface(recs, params, profile, lo_arr, hi_arr, cut, objective)
    errs = []
    got = np.array([s.mean_utility for s in res.surface])
    if len(res.surface) != len(pairs) or [(s.tau_low, s.tau_high) for s in res.surface] != pairs:
        return [f"{objective}: surface pairs differ from the grid"]
    if np.max(np.abs(got - means)) > SURFACE_TOL:
        errs.append(f"{objective}: surface differs from brute force by {np.max(np.abs(got - means))}")
    best = int(np.lexsort((lo_arr, hi_arr, means))[-1])
    j = pairs.index((res.tau_low, res.tau_high))
    if j != best:
        same = np.all(group == group[j], axis=1)
        tie_pick = max(np.nonzero(same)[0], key=lambda k: (hi_arr[k], lo_arr[k]))
        if tie_pick != j or means[best] - means[j] > SURFACE_TOL or (group[j] == group[best]).all():
            errs.append(
                f"{objective}: optimum {pairs[j]} but brute force gives {pairs[best]}"
            )
    if abs(res.mean_utility - means[j]) > SURFACE_TOL:
        errs.append(f"{objective}: mean utility {res.mean_utility} != {means[j]}")
    return errs


def check_sweep(rows, recs, params, profile, t) -> list[str]:
    scales = np.linspace(1.0 - SWEEP_REL_RANGE, 1.0 + SWEEP_REL_RANGE, SWEEP_STEPS)
    combos = [(sl, sh) for sl in scales for sh in scales]
    lo_arr = np.clip(np.array([sl * t.tau_low for sl, _ in combos]), 0.0, 1.0)
    hi_arr = np.clip(np.array([sh * t.tau_high for _, sh in combos]), 0.0, 1.0)
    means, hist, _ = oracle_surface(recs, params, profile, lo_arr, hi_arr, t.critical_cut, "outcome")
    if len(rows) != len(combos):
        return [f"sweep has {len(rows)} rows, expected {len(combos)}"]
    gflops = np.array([profile.none.gflops, profile.x2.gflops, profile.x4.gflops])
    errs = []
    for k, r in enumerate(rows):
        if (r.scale_low, r.scale_high) != combos[k]:
            errs.append(f"sweep row {k}: scales {(r.scale_low, r.scale_high)} != {combos[k]}")
        elif [r.n_none, r.n_2x, r.n_4x] != hist[k].tolist():
            errs.append(f"sweep row {k}: levels {[r.n_none, r.n_2x, r.n_4x]} != {hist[k].tolist()}")
        elif abs(r.mean_utility - means[k]) > SURFACE_TOL:
            errs.append(f"sweep row {k}: mean utility {r.mean_utility} != {means[k]}")
        elif not math.isclose(r.mean_cost_gflops, float(hist[k] @ gflops) / len(recs), rel_tol=1e-12):
            errs.append(f"sweep row {k}: mean cost {r.mean_cost_gflops} is off")
        if len(errs) >= 5:
            break
    return errs


def check_thresholds(inputs, out, result) -> list[str]:
    recs, params, profile = inputs["records"], inputs["params"], inputs["costs"]
    errs = []
    for objective, res in result["best"].items():
        errs += check_optimum(res, recs, params, profile, objective)
    errs += check_sweep(result["sweep"], recs, params, profile, inputs["thresholds"])
    return errs


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=PIXEL_REL_TOL, abs_tol=1e-12)


def oracle_ssim(a: np.ndarray, b: np.ndarray) -> float:
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    mu_a, mu_b = a.mean(), b.mean()
    da, db = a - mu_a, b - mu_b
    cov = (da * db).mean()
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    return num / ((mu_a ** 2 + mu_b ** 2 + c1) * ((da * da).mean() + (db * db).mean() + c2))


def oracle_temporal(frames: list[np.ndarray]) -> float:
    sims = [oracle_ssim(frames[i], frames[i + 1]) for i in range(len(frames) - 1)]
    return min(1.0, max(0.0, 1.0 - float(np.mean(sims))))


def check_frames(inputs, out, result) -> list[str]:
    frames = [f.astype(np.float64) / 255.0 for f in inputs["frames"]]
    paths = inputs["paths"]
    with open(os.path.join(out, "quality.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(paths):
        return [f"quality.csv has {len(rows)} rows, expected {len(paths)}"]
    errs = []
    for row, path, a in zip(rows, paths, frames):
        center = a[1:-1, 1:-1]
        lap = (a[:-2, 1:-1] + a[2:, 1:-1]) + (a[1:-1, :-2] + a[1:-1, 2:]) - 4.0 * center
        expected = {
            "laplacian_variance": float(np.mean((lap - lap.mean()) ** 2)),
            "mean_intensity": float(a.mean()),
            "ssim_vs_ref": float(oracle_ssim(a, frames[0])),
        }
        if row["path"] != path or (int(row["width"]), int(row["height"])) != a.shape[::-1]:
            errs.append(f"quality.csv: row for {row['path']} has wrong path or size")
        for key, value in expected.items():
            if not _close(float(row[key]), value):
                errs.append(f"quality.csv {path}: {key} {row[key]} != oracle {value!r}")
    with open(os.path.join(out, "temporal.csv"), encoding="utf-8", newline="") as fh:
        (temporal,) = list(csv.DictReader(fh))
    if int(temporal["n_frames"]) != len(frames) or not _close(
        float(temporal["temporal_inconsistency"]), oracle_temporal(frames)
    ):
        errs.append(f"temporal.csv {temporal} != oracle {oracle_temporal(frames)!r}")
    half = len(frames) // 2
    sr, lr = frames[:half], frames[half:]
    structural = 1.0 - float(np.mean([oracle_ssim(a, b) for a, b in zip(sr, lr)]))
    heuristic = min(1.0, max(0.0, 0.5 * oracle_temporal(sr) + 0.5 * structural))
    if not _close(result["heuristic"], heuristic):
        errs.append(f"artifact heuristic {result['heuristic']!r} != oracle {heuristic!r}")
    return errs[:5]


CHECKS = {
    "simulate-pinned": check_simulate,
    "log-audit-10x": check_log_audit,
    "threshold-search": check_thresholds,
    "frames-clip": check_frames,
}
