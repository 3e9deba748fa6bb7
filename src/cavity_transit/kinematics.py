"""Ballistic atom motion from the trap to the cavity mode.

During the ~200 us transit through the mode the velocity change from gravity
is negligible (the residual g t^2 / 2 term stays well below the vertical
spatial resolution), so transits use a constant-velocity model; the full
free-fall relations connect the trap release to the arrival at the mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

K_BOLTZMANN = 1.380649e-23  # J/K
_RECORD_BLOCK = 4096  # records built per block by sample_ensemble


@dataclass(frozen=True)
class FallConfig:
    """Free-fall geometry: drop height from the trap to the mode center (m)."""

    drop_height_m: float = 0.005
    gravity_mps2: float = 9.81

    def __post_init__(self):
        for name in ("drop_height_m", "gravity_mps2"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class Trajectory:
    """Linear transit through the mode.

    y_off_um is the horizontal off-axis offset in the lab frame, v_mps the
    vertical speed during the transit, t_c_s the instant the atom crosses the
    mode center plane x = 0 and z_pos_nm the axial position.  Hypotheses fed
    to the fitter are confined to one antinode basin (|z| <= lambda/4); the
    forward model itself accepts any z so that antinode-shifted trajectories
    can be evaluated.
    """

    y_off_um: float
    v_mps: float
    t_c_s: float = 0.0
    z_pos_nm: float = 0.0

    def __post_init__(self):
        for name in ("y_off_um", "t_c_s", "z_pos_nm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.v_mps < math.inf:
            raise ValueError(f"v_mps must be positive and finite, got {self.v_mps}")


class EnsembleRecord(NamedTuple):
    """Initial vertical velocity (m/s, positive downward), arrival time (ms)
    and arrival speed (m/s) of one atom."""

    v0_mps: float
    t_arr_ms: float
    v_arr_mps: float


def x_at(tr: Trajectory, t) -> float:
    """Vertical lab position (um) at time t (s): x = v (t - t_c)."""
    return tr.v_mps * (np.asarray(t) - tr.t_c_s) * 1e6


def arrival_from_initial(fc: FallConfig, v0_mps) -> tuple[float, float]:
    """Arrival time (s) and speed (m/s) at the mode for an initial velocity.

    v_arr = sqrt(v0^2 + 2 g h), t_arr = (v_arr - v0) / g.  Holds for both
    signs of v0 (positive downward), and elementwise for an array of v0.
    """
    g, h = fc.gravity_mps2, fc.drop_height_m
    v_arr = np.sqrt(v0_mps**2 + 2.0 * g * h)
    return (v_arr - v0_mps) / g, v_arr


def sample_ensemble(
    fc: FallConfig,
    temperature_k: float,
    atom_mass_kg: float,
    n: int,
    seed: int,
    timing_jitter_s: float = 0.0,
) -> list[EnsembleRecord]:
    """Draw n atoms from a 1D thermal velocity distribution and drop them.

    Initial velocities are i.i.d. normal with variance k_B T / m; the output
    is deterministic for a given seed.  timing_jitter_s adds a normal clock
    error to the recorded arrival times (the release-time origin is otherwise
    assumed exactly known): jittered records intentionally break the
    ballistic relation between t_arr and v_arr.
    """
    if not 0 < temperature_k < math.inf:
        raise ValueError(f"temperature_k must be positive and finite, got {temperature_k}")
    if not 0 < atom_mass_kg < math.inf:
        raise ValueError(f"atom_mass_kg must be positive and finite, got {atom_mass_kg}")
    if n < 1:
        raise ValueError(f"need at least one atom, got n={n}")
    if not 0 <= timing_jitter_s < math.inf:
        raise ValueError(f"timing_jitter_s must be non-negative and finite, got {timing_jitter_s}")
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(K_BOLTZMANN * temperature_k / atom_mass_kg)
    v0 = rng.normal(0.0, sigma, n)
    t_arr, v_arr = arrival_from_initial(fc, v0)
    if timing_jitter_s > 0:
        t_arr = t_arr + rng.normal(0.0, timing_jitter_s, n)
    records = []
    for s in range(0, n, _RECORD_BLOCK):  # Python floats a block at a time, no whole list
        block = slice(s, s + _RECORD_BLOCK)
        columns = (v0[block].tolist(), (t_arr[block] * 1e3).tolist(), v_arr[block].tolist())
        records += map(EnsembleRecord._make, zip(*columns))
    return records
