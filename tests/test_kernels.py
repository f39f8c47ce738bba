from __future__ import annotations

import numpy as np
import pytest

from srgate import kernels
from srgate.gating import Thresholds, _gate_scalar


def test_laplacian_rejects_small_input():
    with pytest.raises(ValueError):
        kernels.laplacian_responses(np.zeros((2, 5)))


def _brute_surface(p, c, util, lo_arr, hi_arr, critical_cut):
    """Reference: gate every record at every pair with the scalar rule."""
    means = np.empty(len(lo_arr))
    hist = np.zeros((len(lo_arr), 3), dtype=np.int64)
    for k, (lo, hi) in enumerate(zip(lo_arr, hi_arr)):
        total = 0.0
        for pi, ci, ui in zip(p, c, util):
            level, _ = _gate_scalar(float(pi), int(ci), float(lo), float(hi), critical_cut)
            total += ui[int(level)]
            hist[k, int(level)] += 1
        means[k] = total / len(p)
    return means, hist


def test_kernel_agrees_with_scalar_gate():
    # the surface encodes the gate as a split plus two binary searches; pin
    # it to the scalar policy record by record, at the exact threshold values
    # and one ulp above them, including pairs with tau_low >= tau_high
    t = Thresholds()
    edges = [0.0, 0.3, t.tau_low, t.critical_cut, t.tau_high, 1.0]
    p = np.concatenate([np.arange(0, 1001) / 1000.0, edges, np.nextafter(edges, 2.0)])
    lo_arr, hi_arr = (g.ravel() for g in np.meshgrid(edges, edges, indexing="ij"))
    util = np.array([[1.0, 2.0, 4.0]])
    for c in (0, 1):
        for pi in p:
            means, hist = kernels.utility_surface(
                np.array([pi]), np.array([c], dtype=np.uint8), util, lo_arr, hi_arr, t.critical_cut
            )
            for lo, hi, mean, row in zip(lo_arr, hi_arr, means, hist):
                level, _ = _gate_scalar(float(pi), c, lo, hi, t.critical_cut)
                want = [0, 0, 0]
                want[int(level)] = 1
                assert row.tolist() == want, (pi, c, lo, hi)
                assert mean == util[0, int(level)], (pi, c, lo, hi)


@pytest.mark.parametrize(
    "case,seed", [("mixed", 0), ("all_forced", 1), ("none_forced", 2), ("single", 3)]
)
def test_surface_matches_brute_force(case, seed):
    rng = np.random.default_rng(seed)
    cut = 0.7
    grid = np.arange(0, 21) / 20.0  # thresholds and confidences share this grid
    for _ in range(30):
        n = 1 if case == "single" else int(rng.integers(2, 60))
        if case == "all_forced":
            p = rng.choice(grid[grid < cut], n)
            c = np.ones(n, dtype=np.uint8)
        else:
            p = rng.choice(grid, n)
            c = rng.integers(0, 2, n).astype(np.uint8)
            if case == "none_forced":
                c[:] = 0
        util = rng.normal(size=(n, 3))
        # drawn independently, so pairs with lo > hi and lo == hi occur too
        lo_arr = rng.choice(grid, 40)
        hi_arr = rng.choice(grid, 40)
        means, hist = kernels.utility_surface(p, c, util, lo_arr, hi_arr, cut)
        want_means, want_hist = _brute_surface(p, c, util, lo_arr, hi_arr, cut)
        assert np.array_equal(hist, want_hist)
        assert np.max(np.abs(means - want_means)) <= 1e-12
        assert hist.dtype == np.int64 and means.shape == (40,)


def test_surface_equal_assignments_give_bit_equal_means():
    # C4's tie-break (larger tau_high, then larger tau_low) needs pairs that
    # put every record on the same level to score exactly the same
    rng = np.random.default_rng(11)
    n = 5000
    p = rng.integers(0, 21, n) / 20.0
    c = rng.integers(0, 2, n).astype(np.uint8)
    util = rng.normal(size=(n, 3))
    # no confidence lies in (0.61, 0.64] or (0.86, 0.89]
    lo_arr = np.repeat([0.61, 0.62, 0.63, 0.64], 4)
    hi_arr = np.tile([0.86, 0.87, 0.88, 0.89], 4)
    means, hist = kernels.utility_surface(p, c, util, lo_arr, hi_arr, 0.7)
    assert len({float(m).hex() for m in means}) == 1
    assert (hist == hist[0]).all()
