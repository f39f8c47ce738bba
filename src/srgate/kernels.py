"""Array kernels: the batched gate rule, the threshold utility surface and
the Laplacian stencil.

gating.py and quality.py call these through the module attribute
(``kernels.<name>``), so a profiler can wrap each kernel in one place.
"""

from __future__ import annotations

import numpy as np


def gate_levels(p, c, tau_low, tau_high, critical_cut):
    """Vectorized form of the gating policy in ``gating._gate_scalar``.

    p: confidences, c: 0/1 criticality flags, tau_high: scalar or per-record
    array (the adaptive path varies it). Returns uint8 levels with
    0=none, 1=2x, 2=4x; the 4x conditions take precedence over the skip.
    """
    p = np.asarray(p, dtype=np.float64)
    c = np.asarray(c)
    levels = np.where(p > tau_high, 0, 1).astype(np.uint8)
    levels[(p <= tau_low) | ((c == 1) & (p < critical_cut))] = 2
    return levels


def utility_surface(p, c, util, lo_arr, hi_arr, critical_cut):
    """Mean per-record utility and level histogram for each threshold pair.

    util is an (n, 3) matrix of record utilities per level; (lo_arr, hi_arr)
    enumerate threshold pairs. Returns (means[m], hist[m, 3]).
    """
    p = np.asarray(p, dtype=np.float64)
    util = np.asarray(util, dtype=np.float64)
    n = p.size
    means = np.empty(len(lo_arr), dtype=np.float64)
    hist = np.empty((len(lo_arr), 3), dtype=np.int64)
    idx = np.arange(n)
    for j, (lo, hi) in enumerate(zip(lo_arr, hi_arr)):
        levels = gate_levels(p, c, lo, hi, critical_cut)
        means[j] = util[idx, levels].sum() / n
        hist[j] = np.bincount(levels, minlength=3)
    return means, hist


def laplacian_responses(a):
    """Valid-mode 5-point Laplacian responses of a 2-D array.

    Output shape is (h-2, w-2); border pixels produce no response.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape[0] < 3 or a.shape[1] < 3:
        raise ValueError("laplacian needs at least a 3x3 input")
    return (
        a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:] - 4.0 * a[1:-1, 1:-1]
    )
