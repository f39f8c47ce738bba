"""The benchmark's four workloads: seeded inputs, one timed operation each.

Every workload is one caller in a closed loop: a single process that runs
its operation, waits for it to finish, and runs it again. Inputs come only
from ``--seed``; the program sees nothing but the generated files or
records. The reason each workload exists is its class docstring.

A workload is a small object with four parts:

- ``build(seed, work)``: generate the inputs through srgate's public
  functions and write them under ``work``; this is what ``setup_s`` times.
- ``open(seed, work)``: make the in-memory inputs the operation needs from
  files an earlier ``build`` left, without writing anything.
- ``op(inputs, out)``: the timed operation sequence; returns what the
  checks need (exit codes, results), with its files under ``out``.
- ``items(inputs)``: the stated item count behind ``items_per_s``.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from srgate import cli, config, costs, gating, guard, quality, records, simulate

PINNED_N_PER_CLASS = 1429
PINNED_SUBJECTS = 24
AUDIT_N_PER_CLASS = 14290
FRAME_W, FRAME_H = 640, 480
CLIP_FRAMES = 30
SWEEP_STEPS = 21
SWEEP_REL_RANGE = 0.25
GRID_STEP = 0.01


# --- input generators -----------------------------------------------------------

def oracle_adaptive_gate(p, c, blur, light, exp=None):
    """(levels 0/1/2, reason strings, tau) of the adaptive policy, vectorised."""
    exp = exp or config.ExperimentConfig()
    t, a = exp.thresholds, exp.adaptive
    bn = np.minimum(blur / a.blur_ref, 1.0)
    tau = a.tau_base + a.alpha_blur * bn + a.alpha_light * light
    tau = np.minimum(a.clamp[1], np.maximum(a.clamp[0], tau))
    low = p <= t.tau_low
    crit = ~low & (c == 1) & (p < t.critical_cut)
    skip = ~low & ~crit & (p > tau)
    levels = np.where(low | crit, 2, np.where(skip, 0, 1))
    reasons = np.full(p.shape, "mid_conf_2x", dtype=object)
    reasons[low] = "low_conf_4x"
    reasons[crit] = "critical_4x"
    reasons[skip & (c == 0)] = "high_conf_skip"
    reasons[skip & (c == 1)] = "uncovered_default"
    return levels, reasons, tau


def audit_records(seed: int, n_per_class: int = AUDIT_N_PER_CLASS) -> list:
    """Pinned-model stream plus upstream detector fields from our own RNG.

    The artifact score follows the repo's SR-effect model,
    ``ExperimentConfig().scenario.sr_effect``: a record that the adaptive
    gate enhances looks hallucinated with that model's rate for its level
    (0.15 at 2x, 0.25 at 4x) and draws its score from the hallucinated
    range, otherwise from the clean range. A record the gate skips is never
    enhanced, so it looks clean. SSIM against HR and perceptual loss, which
    neither timed command reads, fall on the artifact side of the guard's
    labelling cuts exactly when the record looks hallucinated.
    """
    exp = config.ExperimentConfig()
    effect = exp.scenario.sr_effect
    recs = simulate.sample_stream(
        config.BehaviorConfidenceModel(), n_per_class, PINNED_SUBJECTS, seed
    )
    levels, _, _ = oracle_adaptive_gate(
        np.array([r.confidence for r in recs]),
        np.array([r.criticality for r in recs]),
        np.array([r.blur for r in recs]),
        np.array([r.lighting for r in recs]),
        exp,
    )
    rate = np.array(
        [0.0] + [effect.hallucination_rate(lvl) for lvl in (records.SRLevel.X2, records.SRLevel.X4)]
    )[levels]
    rng = np.random.default_rng([seed, 1])
    n = len(recs)
    bad = rng.random(n) < rate
    artifact = np.where(
        bad,
        rng.uniform(*effect.hallucinated_score_range, n),
        rng.uniform(*effect.clean_score_range, n),
    )
    loss = np.where(
        bad,
        rng.uniform(guard.PERCEPTUAL_LOSS_CUT + 0.01, 0.80, n),
        rng.uniform(0.00, guard.PERCEPTUAL_LOSS_CUT - 0.01, n),
    )
    ssim_hr = np.where(
        bad,
        rng.uniform(0.30, guard.SSIM_ARTIFACT_CUT - 0.01, n),
        rng.uniform(guard.SSIM_ARTIFACT_CUT + 0.01, 1.00, n),
    )
    return [
        dataclasses.replace(
            r,
            artifact_score=float(artifact[i]),
            perceptual_loss=float(loss[i]),
            ssim_vs_hr=float(ssim_hr[i]),
        )
        for i, r in enumerate(recs)
    ]


def frame_arrays(seed: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Thirty enhanced frames and their thirty LR-upsampled references.

    A gradient background with four moving discs forms the scene. The
    "SR" frame adds sensor noise and, on about a fifth of the frames, a
    hallucinated bright patch; the reference is the scene averaged over
    2x2 blocks and repeated back to full size. All frames are uint8.
    """
    rng = np.random.default_rng([seed, 2])
    yy, xx = np.mgrid[0:FRAME_H, 0:FRAME_W]
    base = 60.0 + 80.0 * xx / FRAME_W + 40.0 * yy / FRAME_H
    centers = rng.uniform((60.0, 60.0), (FRAME_W - 60.0, FRAME_H - 60.0), size=(4, 2))
    velocity = rng.uniform(-6.0, 6.0, size=(4, 2))
    radius = rng.uniform(20.0, 60.0, size=4)
    gain = rng.uniform(-50.0, 80.0, size=4)
    sr_frames, lr_frames = [], []
    for t in range(CLIP_FRAMES):
        scene = base.copy()
        for k in range(4):
            cx, cy = centers[k] + velocity[k] * t
            scene[(xx - cx) ** 2 + (yy - cy) ** 2 < radius[k] ** 2] += gain[k]
        sr = scene + rng.normal(0.0, 6.0, scene.shape)
        if rng.random() < 0.2:
            px, py = rng.integers(0, FRAME_W - 64), rng.integers(0, FRAME_H - 64)
            sr[py : py + 64, px : px + 64] += 90.0
        lr = scene.reshape(FRAME_H // 2, 2, FRAME_W // 2, 2).mean(axis=(1, 3))
        lr = np.repeat(np.repeat(lr, 2, axis=0), 2, axis=1)
        sr_frames.append(np.clip(np.rint(sr), 0, 255).astype(np.uint8))
        lr_frames.append(np.clip(np.rint(lr), 0, 255).astype(np.uint8))
    return sr_frames, lr_frames


def pgm_bytes(frame: np.ndarray, ascii_format: bool, label: str) -> bytes:
    """P2 (ASCII, lines of at most 70 characters) or P5 encoding, maxval 255."""
    h, w = frame.shape
    if not ascii_format:
        return b"P5\n%d %d\n255\n" % (w, h) + frame.tobytes()
    values = frame.ravel().tolist()
    lines = [" ".join(map(str, values[i : i + 17])) for i in range(0, len(values), 17)]
    return ("P2\n# %s\n%d %d\n255\n" % (label, w, h) + "\n".join(lines) + "\n").encode()


def frame_paths(work: str) -> list[str]:
    return [os.path.join(work, "frames", f"f{i:02d}.pgm") for i in range(2 * CLIP_FRAMES)]


def to_clip(frames: list[np.ndarray]):
    return quality.Clip(
        tuple(
            quality.GrayImage.from_flat(FRAME_W, FRAME_H, f.astype(np.float64).ravel() / 255.0)
            for f in frames
        )
    )


# --- workloads ----------------------------------------------------------------------

class SimulatePinned:
    """The ROADMAP's headline scenario: CLI ``simulate`` on 10,003 records
    with the default 1000 bootstrap resamples and the guard on. Bootstrap
    CIs take most of the time; records are written, never read back."""

    name = "simulate-pinned"

    def build(self, seed, work):
        return self.open(seed, work)

    def open(self, seed, work):
        return {"seed": seed}

    def items(self, inputs):
        return PINNED_N_PER_CLASS * len(records.CLASSES)

    def op(self, inputs, out):
        rc = cli.run_cli(
            [
                "simulate", "--seed", str(inputs["seed"]),
                "--n-per-class", str(PINNED_N_PER_CLASS),
                "--subjects", str(PINNED_SUBJECTS),
                "--policy", "gate_adaptive", "--out", out,
            ]
        )
        return {"rc": [rc]}


class LogAudit10x:
    """The read side at 10x scale: ``gate --adaptive`` then ``loso-eval
    --resamples 0`` over a 100,030-record log. Ingest, per-record gating and
    the log-driven guard dominate; no bootstrap. Peak RSS is highest here,
    so memory gains show."""

    name = "log-audit-10x"

    def build(self, seed, work):
        records.write_log(audit_records(seed), os.path.join(work, "audit.log"))
        return self.open(seed, work)

    def open(self, seed, work):
        return {"seed": seed, "log": os.path.join(work, "audit.log")}

    def items(self, inputs):
        return AUDIT_N_PER_CLASS * len(records.CLASSES)

    def op(self, inputs, out):
        log = inputs["log"]
        rc_gate = cli.run_cli(["gate", "--log", log, "--adaptive", "--out", os.path.join(out, "gate")])
        rc_eval = cli.run_cli(
            [
                "loso-eval", "--log", log, "--policy", "gate_adaptive",
                "--resamples", "0", "--seed", str(inputs["seed"]),
                "--out", os.path.join(out, "loso"),
            ]
        )
        return {"rc": [rc_gate, rc_eval]}


class ThresholdSearch:
    """Threshold search on the pinned records held in memory:
    ``optimize_thresholds`` at grid step 0.01 for both objectives (5,050
    pairs each), then a 21x21 ``sensitivity_sweep``. The utility-surface
    kernel alone: no file I/O, no SR effect, no bootstrap."""

    name = "threshold-search"

    def build(self, seed, work):
        return self.open(seed, work)

    def open(self, seed, work):
        recs = simulate.sample_stream(
            config.BehaviorConfidenceModel(), PINNED_N_PER_CLASS, PINNED_SUBJECTS, seed
        )
        return {
            "records": recs,
            "params": records.UtilityParams(),
            "costs": costs.CostProfile(),
            "thresholds": gating.Thresholds(),
        }

    def items(self, inputs):
        n_grid = len(gating.threshold_grid(GRID_STEP))
        pairs = 2 * (n_grid * (n_grid - 1) // 2) + SWEEP_STEPS * SWEEP_STEPS
        return len(inputs["records"]) * pairs

    def op(self, inputs, out):
        recs, params, profile = inputs["records"], inputs["params"], inputs["costs"]
        best = {
            objective: gating.optimize_thresholds(
                recs, params, profile, grid_step=GRID_STEP, objective=objective
            )
            for objective in ("outcome", "heuristic")
        }
        sweep = gating.sensitivity_sweep(
            recs, inputs["thresholds"], params, profile, rel_range=SWEEP_REL_RANGE, steps=SWEEP_STEPS
        )
        return {"rc": [0], "best": best, "sweep": sweep}


class FramesClip:
    """The only workload that reaches ``quality`` and the heuristic scorer:
    ``quality --clip --ssim-ref`` over 60 640x480 PGM frames, then
    ``artifact_score_heuristic`` on the two 30-frame clips. Half the frames
    are ASCII P2 and half binary P5, so PGM loading runs both ways."""

    name = "frames-clip"

    def build(self, seed, work):
        sr, lr = frame_arrays(seed)
        paths = frame_paths(work)
        os.makedirs(os.path.dirname(paths[0]), exist_ok=True)
        for i, (path, frame) in enumerate(zip(paths, sr + lr)):
            with open(path, "wb") as fh:
                fh.write(pgm_bytes(frame, i < CLIP_FRAMES, f"frame {i}"))
        return self._inputs(work, sr, lr)

    def open(self, seed, work):
        sr, lr = frame_arrays(seed)
        return self._inputs(work, sr, lr)

    def _inputs(self, work, sr, lr):
        return {
            "paths": frame_paths(work),
            "frames": sr + lr,
            "sr_clip": to_clip(sr),
            "lr_clip": to_clip(lr),
        }

    def items(self, inputs):
        return len(inputs["paths"])

    def op(self, inputs, out):
        paths = inputs["paths"]
        rc = cli.run_cli(["quality", *paths, "--clip", "--ssim-ref", paths[0], "--out", out])
        score = guard.artifact_score_heuristic(inputs["sr_clip"], inputs["lr_clip"])
        return {"rc": [rc], "heuristic": score}


WORKLOADS = {
    w.name: w for w in (SimulatePinned(), LogAudit10x(), ThresholdSearch(), FramesClip())
}
