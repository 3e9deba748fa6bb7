"""Hermite-Gaussian transverse mode functions and the tilted mode frame.

Coordinates are carried in micrometers.  The lab frame has x along the
vertical fall direction (positive in the direction of motion), y horizontal
off-axis and z along the cavity axis with z = 0 at an antinode.  The mode
frame is the lab frame rotated by ``tilt_deg`` about z; a positive tilt
rotates the TEM10 nodal line counterclockwise in the (x, y) plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MAX_HERMITE_ORDER = 10


class UnsupportedOrderError(ValueError):
    """Hermite order outside the supported range 0..MAX_HERMITE_ORDER."""


def hermite(order: int, u):
    """Physicists' Hermite polynomial H_order(u).

    Evaluated with the recurrence H_{k+1}(u) = 2u H_k(u) - 2k H_{k-1}(u),
    which is numerically stable at higher order.  Accepts scalars or numpy
    arrays.
    """
    if order < 0 or order > MAX_HERMITE_ORDER:
        raise UnsupportedOrderError(
            f"Hermite order {order} outside supported range 0..{MAX_HERMITE_ORDER}"
        )
    u = np.asarray(u, dtype=float)
    h_prev = np.ones_like(u)
    if order == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * u
    for k in range(1, order):
        h, h_prev = 2.0 * u * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


@dataclass(frozen=True)
class ModeIndex:
    """Transverse mode order (m along mode-frame x, n along mode-frame y)."""

    m: int = 1
    n: int = 0

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError(f"mode orders must be non-negative, got ({self.m}, {self.n})")


@dataclass(frozen=True)
class ModeGeometry:
    """Mode waist (um), wavelength (nm) and tilt of the mode frame (deg).

    The tilt is normalized into [-90, 90), which covers every distinct
    orientation of a transverse mode pattern.
    """

    w0_um: float = 23.8
    wavelength_nm: float = 852.347
    tilt_deg: float = 45.0

    def __post_init__(self):
        for name in ("w0_um", "wavelength_nm"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not math.isfinite(self.tilt_deg):
            raise ValueError(f"tilt_deg must be finite, got {self.tilt_deg}")
        object.__setattr__(self, "tilt_deg", ((self.tilt_deg + 90.0) % 180.0) - 90.0)

    @property
    def wavelength_um(self) -> float:
        return self.wavelength_nm * 1e-3


class LabPoint(NamedTuple):
    """Point in the lab frame (um).  Fields may hold numpy arrays."""

    x: float
    y: float
    z: float = 0.0


class ModePoint(NamedTuple):
    """Point in the rotated mode frame (um).  Fields may hold numpy arrays."""

    x: float
    y: float
    z: float = 0.0


def lab_to_mode(p: LabPoint, tilt_deg: float) -> ModePoint:
    """Rotate a lab-frame point into the mode frame.

    (x_m, y_m) = (x cos t + y sin t, -x sin t + y cos t); z is unchanged.
    The inverse rotation is lab_to_mode(p, -tilt_deg).
    """
    t = math.radians(tilt_deg)
    c, s = math.cos(t), math.sin(t)
    return ModePoint(p.x * c + p.y * s, -p.x * s + p.y * c, p.z)


def _order_norm(idx: ModeIndex) -> float:
    return 2.0 ** idx.m * 2.0 ** idx.n * math.factorial(idx.m) * math.factorial(idx.n)


def normalization_constant(idx: ModeIndex, geo: ModeGeometry) -> float:
    """Transverse normalization C_{m,n} in 1/um.

    C_{m,n} = (2^m 2^n m! n!)^(-1/2) (w0^2 pi / 2)^(-1/2), which makes the
    transverse integral of the squared mode function equal to one.
    """
    return 1.0 / math.sqrt(_order_norm(idx) * geo.w0_um**2 * math.pi / 2.0)


def mode_amplitude(idx: ModeIndex, geo: ModeGeometry, p: ModePoint):
    """Signed standing-wave mode amplitude at a mode-frame point (1/um).

    C_{m,n} exp(-(x^2+y^2)/w0^2) H_m(sqrt2 x/w0) H_n(sqrt2 y/w0) cos(2 pi z/lambda)
    """
    return normalization_constant(idx, geo) * _envelope(idx, geo, p)


def relative_amplitude(idx: ModeIndex, geo: ModeGeometry, p: ModePoint):
    """Mode amplitude normalized to the TEM00 antinode peak (dimensionless, signed).

    Psi_{m,n}(p) / Psi_{0,0}(0, 0, 0).  For TEM10 this reduces to
    (2 x/w0) exp(-(x^2+y^2)/w0^2) cos(2 pi z/lambda).
    """
    return _envelope(idx, geo, p) / math.sqrt(_order_norm(idx))


def effective_coupling(g0: float, idx: ModeIndex, geo: ModeGeometry, p: ModePoint):
    """Position-dependent coupling rate g0 |Psi/Psi00(0)| (same units as g0).

    The magnitude is returned: only the square of the coupling enters the
    weak-field transmission.
    """
    if g0 <= 0:
        raise ValueError(f"g0 must be positive, got {g0}")
    return g0 * np.abs(relative_amplitude(idx, geo, p))


def _envelope(idx: ModeIndex, geo: ModeGeometry, p: ModePoint):
    w0 = geo.w0_um
    u = math.sqrt(2.0) / w0
    trans = (
        np.exp(-(np.asarray(p.x) ** 2 + np.asarray(p.y) ** 2) / w0**2)
        * hermite(idx.m, u * np.asarray(p.x))
        * hermite(idx.n, u * np.asarray(p.y))
    )
    axial = np.cos(2.0 * math.pi * np.asarray(p.z) / geo.wavelength_um)
    out = trans * axial
    return out if out.ndim else float(out)
