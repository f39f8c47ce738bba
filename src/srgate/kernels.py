"""Array kernels: the threshold utility surface and the Laplacian stencil.

The utility surface uses that the gate is piecewise constant in
(tau_low, tau_high): records sorted by confidence fall into three
contiguous runs (4x, 2x, none), so prefix sums answer every threshold
pair with two binary searches. That costs O(n log n + m) for n records
and m pairs, instead of O(n * m) for gating every record at every pair.

gating.py and quality.py call these through the module attribute
(``kernels.<name>``), so a profiler can wrap each kernel in one place.
"""

from __future__ import annotations

import numpy as np


def utility_surface(p, c, util, lo_arr, hi_arr, critical_cut):
    """Mean per-record utility and level histogram for each threshold pair.

    util is an (n, 3) matrix of record utilities per level (none, 2x, 4x);
    (lo_arr, hi_arr) enumerate threshold pairs. Returns (means[m], hist[m, 3])
    under the gate of ``gating._gate_scalar``: 4x when p <= tau_low or when
    c == 1 and p < critical_cut, none when p > tau_high, 2x otherwise.

    Method: the records forced to 4x by criticality are set aside; the
    others are sorted by p once (stable) and the three utility columns are
    prefix-summed in that order. For a pair, i = #{p <= lo} and
    j = #{p <= max(lo, hi)} (``searchsorted(..., side="right")``); the
    sorted records [0, i) are 4x, [i, j) 2x and [j, n_free) none. Taking
    max(lo, hi) gives pairs with lo >= hi an empty 2x band, as the gate does.
    Cost: O(n log n) to sort and sum, then O(log n) per pair. Pairs with the
    same level assignment share (i, j), so their means are bit-equal.
    """
    p = np.asarray(p, dtype=np.float64)
    util = np.asarray(util, dtype=np.float64)
    lo = np.asarray(lo_arr, dtype=np.float64)
    hi = np.maximum(lo, np.asarray(hi_arr, dtype=np.float64))
    forced = (np.asarray(c) == 1) & (p < critical_cut)
    free = ~forced
    order = np.argsort(p[free], kind="stable")
    p_free = p[free][order]
    n_free = p_free.size
    # prefix[k, level]: utility at that level summed over the k lowest confidences
    prefix = np.zeros((n_free + 1, 3), dtype=np.float64)
    np.cumsum(util[free][order], axis=0, out=prefix[1:])
    i = np.searchsorted(p_free, lo, side="right")
    j = np.searchsorted(p_free, hi, side="right")
    total = (
        util[forced, 2].sum()
        + prefix[i, 2]
        + (prefix[j, 1] - prefix[i, 1])
        + (prefix[n_free, 0] - prefix[j, 0])
    )
    means = total / p.size
    hist = np.stack([n_free - j, j - i, (p.size - n_free) + i], axis=1).astype(np.int64)
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
