"""Time-of-flight thermometry from per-atom arrival times and speeds.

Arrival speed versus arrival time of dropped atoms forms a V-shaped curve
whose minimum sits at the zero-initial-velocity fall time sqrt(2h/g); the
spread of inverted initial velocities gives the trap temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import K_BOLTZMANN, EnsembleRecord, FallConfig

V_SHAPE_BINS = 40  # arrival-time bins of the V-shaped curve; fewer for under 400 records


@dataclass(frozen=True)
class TemperatureEstimate:
    temperature_k: float
    sigma_t_k: float
    n_used: int
    v_min_mps: float
    t_min_ms: float


def v_shape_curve(records, n_bins: int):
    """Mean arrival speed in uniform arrival-time bins.

    Returns (bin centers in ms, mean speeds in m/s) for the populated bins.
    """
    if n_bins < 2:
        raise ValueError(f"need at least 2 bins, got {n_bins}")
    t = np.array([r.t_arr_ms for r in records])
    v = np.array([r.v_arr_mps for r in records])
    edges = np.linspace(t.min(), t.max(), n_bins + 1)
    idx = np.clip(np.digitize(t, edges) - 1, 0, n_bins - 1)
    centers, means = [], []
    for b in range(n_bins):
        sel = idx == b
        if np.any(sel):
            centers.append(0.5 * (edges[b] + edges[b + 1]))
            means.append(float(np.mean(v[sel])))
    if len(centers) < 2:
        raise ValueError("all arrival times fall into a single bin")
    return np.array(centers), np.array(means)


def estimate_temperature(records, fc: FallConfig, atom_mass_kg: float) -> TemperatureEstimate:
    """Trap temperature from the spread of inverted initial velocities.

    Each record is inverted to v0 = v_arr - g t_arr; the estimate is
    T = m var(v0) / k_B with the unbiased sample variance, and its
    statistical uncertainty is T sqrt(2/(n-1)).  Every arrival time and
    speed must be finite.
    """
    if not 0 < atom_mass_kg < math.inf:
        raise ValueError(f"atom_mass_kg must be positive and finite, got {atom_mass_kg}")
    n = len(records)
    if n < 10:
        raise ValueError(f"need at least 10 records, got {n}")
    v_arr = np.array([r.v_arr_mps for r in records])
    t_arr_ms = np.array([r.t_arr_ms for r in records])
    for name, values in (("v_arr_mps", v_arr), ("t_arr_ms", t_arr_ms)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
    v0 = v_arr - fc.gravity_mps2 * (t_arr_ms * 1e-3)
    var = float(np.var(v0, ddof=1))
    if var == 0.0 or np.ptp(v0) == 0.0:
        raise ValueError("zero velocity variance: temperature not positive")
    temperature = atom_mass_kg * var / K_BOLTZMANN
    sigma = temperature * math.sqrt(2.0 / (n - 1))
    centers, means = v_shape_curve(records, min(V_SHAPE_BINS, max(2, n // 10)))
    i_min = int(np.argmin(means))
    return TemperatureEstimate(
        temperature_k=temperature,
        sigma_t_k=sigma,
        n_used=n,
        v_min_mps=float(means[i_min]),
        t_min_ms=float(centers[i_min]),
    )


def records_from_fits(fits, fc: FallConfig) -> list[EnsembleRecord]:
    """Ensemble records from fitted transits.

    The fitted crossing time is the arrival time when the clock origin is the
    trap release, and the fitted transit speed is the arrival speed.
    """
    out = []
    for f in fits:
        t_arr_s = f.params.t_c_s
        v_arr = f.params.v_mps
        out.append(EnsembleRecord(v_arr - fc.gravity_mps2 * t_arr_s, t_arr_s * 1e3, v_arr))
    return out
