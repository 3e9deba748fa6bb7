"""Shared fixtures: reference configurations, the normalization quadrature
oracle and a session-wide Monte Carlo fit study reused by module tests and
the acceptance suite."""

from __future__ import annotations

import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from cavity_transit import (
    DetectorConfig,
    ModeGeometry,
    ModeIndex,
    ModePoint,
    SystemConfig,
    Trajectory,
    expected_trace,
    fit_transit,
    mode_amplitude,
    sample_counts,
)

REFERENCE_TRANSITS = ((-16.3, 0.39), (0.0, 0.42), (18.0, 0.42))
MC_SEEDS = 100


def quad_norm(idx: ModeIndex, geo: ModeGeometry, order: int = 200, halfwidth_waists: float = 6.0) -> float:
    """Gauss-Legendre quadrature of the squared transverse mode function.

    Independent of the closed-form normalization: evaluates the actual mode
    amplitude on tensor-product nodes and integrates numerically.
    """
    u, w = leggauss(order)
    half = halfwidth_waists * geo.w0_um
    x = u * half
    wx = w * half
    xx, yy = np.meshgrid(x, x)
    psi = mode_amplitude(idx, geo, ModePoint(xx, yy, 0.0))
    return float(wx @ (psi**2) @ wx)


def run_mc_fits(y_um: float, v_mps: float, n_seeds: int = MC_SEEDS, flux0_cps: float | None = None):
    """Simulate and fit n_seeds Poisson transits at one trajectory setting."""
    cfg = SystemConfig()
    det = DetectorConfig() if flux0_cps is None else DetectorConfig(flux0_cps=flux0_cps)
    truth = Trajectory(y_um, v_mps, t_c_s=0.0)
    clean = expected_trace(cfg, truth, det)
    fits = []
    for seed in range(n_seeds):
        trace = sample_counts(clean, det, seed)
        fits.append(fit_transit(cfg, det, trace))
    return {
        "fits": fits,
        "err_y": np.array([abs(f.params.y_off_um - y_um) for f in fits]),
        "err_v": np.array([abs(f.params.v_mps - v_mps) for f in fits]),
        "sign_resolved": np.array([f.sign_resolved for f in fits]),
        "sigma_y": np.array([f.sigma_y_um for f in fits]),
        "y_hat": np.array([f.params.y_off_um for f in fits]),
    }


@pytest.fixture(scope="session")
def mc_study():
    """100-seed Monte Carlo fit study at the three reference trajectories."""
    t0 = time.perf_counter()
    out = {(y, v): run_mc_fits(y, v) for y, v in REFERENCE_TRANSITS}
    out["build_seconds"] = time.perf_counter() - t0
    return out
