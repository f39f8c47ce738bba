from __future__ import annotations

import numpy as np
import pytest

from srgate import kernels
from srgate.gating import Thresholds, _gate_scalar


def test_laplacian_rejects_small_input():
    with pytest.raises(ValueError):
        kernels.laplacian_responses(np.zeros((2, 5)))


def test_kernel_agrees_with_scalar_gate():
    # the batched kernel and the scalar policy must implement the same gate,
    # including at the exact threshold values and with a per-record tau_high
    t = Thresholds()
    edges = [t.tau_low, t.critical_cut, t.tau_high]
    p = np.concatenate([np.arange(0, 1001) / 1000.0, edges, np.nextafter(edges, 2.0)])
    tau_arrays = {
        "scalar": t.tau_high,
        "per_record": np.random.default_rng(0).uniform(t.tau_low, 1.0, p.size),
        "equal_to_p": p,
    }
    for c in (0, 1):
        c_arr = np.full(p.size, c, dtype=np.uint8)
        for tau_high in tau_arrays.values():
            levels = kernels.gate_levels(p, c_arr, t.tau_low, tau_high, t.critical_cut)
            taus = np.broadcast_to(tau_high, p.shape)
            for pi, ti, got in zip(p, taus, levels):
                level, _ = _gate_scalar(float(pi), c, t.tau_low, float(ti), t.critical_cut)
                assert int(level) == got, (pi, ti, c)
