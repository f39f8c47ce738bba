"""Shared builders and independent oracles used across the test suite.

Oracles here are deliberately naive (pure loops, direct formulas) and stay
independent of the library's vectorized implementations.
"""

from __future__ import annotations

import math

import numpy as np

from srgate import calibration, gating, records, simulate
from srgate.records import NUM_CLASSES, PredictionRecord


def make_record(
    confidence: float = 0.9,
    predicted: int = 0,
    true_class: int = 0,
    subject: str = "S01",
    clip: str = "c0",
    criticality: int | None = None,
    blur: float = 0.1,
    lighting: float = 0.5,
    **optional,
) -> PredictionRecord:
    rest = (1.0 - confidence) / (NUM_CLASSES - 1)
    probs = tuple(confidence if k == predicted else rest for k in range(NUM_CLASSES))
    from srgate.records import CLASSES

    crit = int(CLASSES[predicted].critical) if criticality is None else criticality
    return PredictionRecord(
        subject_id=subject,
        clip_id=clip,
        true_class=true_class,
        probs=probs,
        confidence=confidence,
        criticality=crit,
        blur=blur,
        lighting=lighting,
        **optional,
    )


def random_records(
    rng: np.random.Generator,
    n: int,
    n_subjects: int = 4,
    k: int = NUM_CLASSES,
) -> list[PredictionRecord]:
    """Records with Dirichlet-ish probability vectors and random labels."""
    records = []
    for i in range(n):
        raw = rng.random(k) + 1e-3
        probs = raw / raw.sum()
        pred = int(np.argmax(probs))
        records.append(
            PredictionRecord(
                subject_id=f"S{int(rng.integers(0, n_subjects)) + 1:02d}",
                clip_id=f"c{i:05d}",
                true_class=int(rng.integers(0, k)),
                probs=tuple(float(p) for p in probs),
                confidence=float(probs[pred]),
                criticality=int(rng.integers(0, 2)),
                blur=float(rng.random()),
                lighting=float(rng.random()),
            )
        )
    return records


# --- brute-force metric oracles ---------------------------------------------------

def ece_oracle(confidences, corrects, m: int = 10) -> float:
    """Two-pass loop ECE with explicit bin edges."""
    n = len(confidences)
    total = 0.0
    for b in range(1, m + 1):
        lo, hi = (b - 1) / m, b / m
        members = [
            (c, ok)
            for c, ok in zip(confidences, corrects)
            if (lo < c <= hi) or (b == 1 and c == lo)
        ]
        if not members:
            continue
        mean_conf = math.fsum(c for c, _ in members) / len(members)
        acc = math.fsum(1.0 for _, ok in members if ok) / len(members)
        total += len(members) / n * abs(acc - mean_conf)
    return total


def brier_oracle(probs_rows, true_classes) -> float:
    total = 0.0
    for row, t in zip(probs_rows, true_classes):
        s = 0.0
        for k, p in enumerate(row):
            target = 1.0 if k == t else 0.0
            s += (p - target) ** 2
        total += s
    return total / len(probs_rows)


def auroc_oracle(scores, labels) -> float:
    """Exhaustive pairwise counting with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def aupr_oracle(scores, labels) -> float:
    """Recompute precision/recall from scratch at every distinct threshold."""
    scores = list(scores)
    labels = [bool(y) for y in labels]
    n_pos = sum(labels)
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and not y)
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def laplacian_variance_oracle(pixels_2d) -> float:
    """Direct convolution loops plus manual population variance."""
    h = len(pixels_2d)
    w = len(pixels_2d[0])
    responses = []
    for i in range(1, h - 1):
        for j in range(1, w - 1):
            responses.append(
                pixels_2d[i - 1][j]
                + pixels_2d[i + 1][j]
                + pixels_2d[i][j - 1]
                + pixels_2d[i][j + 1]
                - 4.0 * pixels_2d[i][j]
            )
    mean = math.fsum(responses) / len(responses)
    return math.fsum((r - mean) ** 2 for r in responses) / len(responses)


def ssim_oracle(a_flat, b_flat) -> float:
    """Direct formula with fsum-based statistics."""
    n = len(a_flat)
    mu_a = math.fsum(a_flat) / n
    mu_b = math.fsum(b_flat) / n
    var_a = math.fsum((x - mu_a) ** 2 for x in a_flat) / n
    var_b = math.fsum((x - mu_b) ** 2 for x in b_flat) / n
    cov = math.fsum((x - mu_a) * (y - mu_b) for x, y in zip(a_flat, b_flat)) / n
    c1 = 0.01 ** 2
    c2 = 0.03 ** 2
    return ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    )


def pareto_oracle(points):
    """O(n^2) dominance filter."""
    out = []
    for p in points:
        dominated = False
        for q in points:
            if q is p:
                continue
            if (
                q.cost <= p.cost
                and q.accuracy >= p.accuracy
                and (q.cost < p.cost or q.accuracy > p.accuracy)
            ):
                dominated = True
                break
        if not dominated:
            out.append(p)
    return sorted(out, key=lambda p: (p.cost, -p.accuracy, p.name))


def count_conversions(monkeypatch) -> list[int]:
    """Count ``record_arrays`` calls through every module that calls it.

    Returns the list that each call appends its record count to.
    """
    calls: list[int] = []
    convert = records.record_arrays

    def counting(recs):
        calls.append(len(recs))
        return convert(recs)

    for module in (records, calibration, gating, simulate):
        monkeypatch.setattr(module, "record_arrays", counting)
    return calls
