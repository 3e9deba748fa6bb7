"""Weak-field cavity transmission versus atom position and probe detuning.

All rates and detunings are carried as nu = omega/2pi in MHz.  The
transmission formula is degree-0 homogeneous in (g, kappa, gamma, delta_pa,
delta_ca), so this is exactly equivalent to angular-frequency units.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .modes import LabPoint, ModeGeometry, ModeIndex, effective_coupling, lab_to_mode


class SingularParameterError(ValueError):
    """The transmission denominator vanished for the given parameters."""


@dataclass(frozen=True)
class Rates:
    """Coupling and decay rates in 2pi MHz.

    g0 is the optimal TEM00 coupling, kappa the cavity field decay and gamma
    the atomic dipole decay.  Strong coupling (g0 larger than both decays) is
    checked and reported as a warning, not an error.
    """

    g0: float = 23.9
    kappa: float = 2.6
    gamma: float = 2.6

    def __post_init__(self):
        for name in ("g0", "kappa", "gamma"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not (self.g0 > self.kappa and self.g0 > self.gamma):
            warnings.warn(
                f"not in the strong-coupling regime: g0={self.g0} is not larger "
                f"than kappa={self.kappa} and gamma={self.gamma}",
                stacklevel=2,
            )


@dataclass(frozen=True)
class Detunings:
    """Probe-atom and cavity-atom detunings in 2pi MHz.  delta_pa may be an
    array, which evaluates a whole detuning scan in one call."""

    delta_pa: float = 0.0
    delta_ca: float = 0.0

    def __post_init__(self):
        if not (np.all(np.isfinite(self.delta_pa)) and np.all(np.isfinite(self.delta_ca))):
            raise ValueError(f"detunings must be finite, got {self}")


@dataclass(frozen=True)
class SystemConfig:
    """Complete physical configuration of the atom-cavity system.

    cross_term_sign selects the sign s of the delta_ca * delta_pa cross term
    in the transmission denominator, [g^2 - delta_pa^2 + s delta_ca delta_pa
    + gamma kappa]^2.  The default -1 keeps the published weak-field form;
    +1 recovers the expansion of |(gamma + i d_pa)(kappa + i(d_pa - d_ca))
    + g^2|^2.  The two agree whenever delta_ca = 0.
    """

    rates: Rates = field(default_factory=Rates)
    detunings: Detunings = field(default_factory=Detunings)
    mode: ModeIndex = field(default_factory=ModeIndex)
    geometry: ModeGeometry = field(default_factory=ModeGeometry)
    cross_term_sign: int = -1

    def __post_init__(self):
        if self.cross_term_sign not in (-1, 1):
            raise ValueError(f"cross_term_sign must be -1 or +1, got {self.cross_term_sign}")


def transmission_vs_coupling(g_eff, rates: Rates, detunings: Detunings, cross_term_sign: int = -1):
    """Weak-field transmission for an effective coupling and detunings (scalars or arrays).

    Normalized so an empty cavity on resonance transmits 1.
    """
    g = np.asarray(g_eff, dtype=float)
    dpa, dca = detunings.delta_pa, detunings.delta_ca
    kap, gam = rates.kappa, rates.gamma
    num = kap**2 * (gam**2 + dpa**2)
    den = (g**2 - dpa**2 + cross_term_sign * dca * dpa + gam * kap) ** 2 + (
        kap * dpa + gam * dpa - gam * dca
    ) ** 2
    if np.any(den == 0.0):
        at = f"detunings={detunings}"
        if np.ndim(dpa):
            i = np.unravel_index(np.argmax(den == 0.0), den.shape)
            d = float(np.broadcast_to(dpa, den.shape)[i])
            at = f"delta_pa[{','.join(str(int(k)) for k in i)}]={d!r}, delta_ca={dca!r}"
        raise SingularParameterError(f"transmission denominator vanished at {at} (rates={rates})")
    out = num / den
    return out if out.ndim else float(out)


def transmission_at(cfg: SystemConfig, p: LabPoint):
    """Transmission at a lab-frame point; fields of p may be numpy arrays.

    The 2D antinode form is the same call with p.z = 0.
    """
    mp = lab_to_mode(p, cfg.geometry.tilt_deg)
    g = effective_coupling(cfg.rates.g0, cfg.mode, cfg.geometry, mp)
    return transmission_vs_coupling(g, cfg.rates, cfg.detunings, cfg.cross_term_sign)


def _scan_axis(name: str, bounds: tuple, samples: int) -> np.ndarray:
    """Uniform scan axis over finite increasing bounds, with at least 2 samples."""
    lo, hi = bounds
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} range bounds must be finite, got ({lo}, {hi})")
    if not hi > lo:
        raise ValueError(f"empty {name} range ({lo}, {hi})")
    return np.linspace(lo, hi, samples)


def position_scan(cfg: SystemConfig, y_lab_um: float, x_range_um: tuple, samples: int):
    """Transmission along a vertical lab line at fixed off-axis position (z = 0).

    Returns (x, T) arrays with x uniformly sampled over x_range_um.
    """
    if not math.isfinite(y_lab_um):
        raise ValueError(f"off-axis position y must be finite, got {y_lab_um}")
    x = _scan_axis("position", x_range_um, samples)
    return x, transmission_at(cfg, LabPoint(x, y_lab_um, 0.0))


def detuning_scan(cfg: SystemConfig, p: LabPoint, delta_pa_range_mhz: tuple, samples: int):
    """Transmission versus probe-atom detuning at a fixed lab point.

    delta_ca is held at the configured value.  Returns (delta_pa, T).
    """
    for name, value in p._asdict().items():
        if not math.isfinite(value):
            raise ValueError(f"scan point {name} must be finite, got {value}")
    deltas = _scan_axis("detuning", delta_pa_range_mhz, samples)
    cfg = replace(cfg, detunings=Detunings(deltas, cfg.detunings.delta_ca))
    return deltas, transmission_at(cfg, p)


def local_maxima(values) -> np.ndarray:
    """Indices of strict three-point local maxima (never the endpoints)."""
    v = np.asarray(values)
    return np.where((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))[0] + 1


def local_minima(values) -> np.ndarray:
    """Indices of strict three-point local minima (never the endpoints)."""
    v = np.asarray(values)
    return np.where((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:]))[0] + 1
