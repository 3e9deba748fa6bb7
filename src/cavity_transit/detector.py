"""Photon-counting detector model: expected transmission traces and Poisson counts."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kinematics import Trajectory, x_at
from .modes import LabPoint
from .transmission import SystemConfig, transmission_at


@dataclass(frozen=True)
class DetectorConfig:
    """Counting configuration.

    flux0_cps is the detected count rate at unit transmission; background_cps
    adds a transmission-independent rate.  The window is the trace extent in
    us relative to the crossing time t_c and must contain it.  Transmission is
    evaluated at bin centers: at the speeds of interest it changes by a few
    percent at most across one bin, which is far below counting noise.
    """

    bin_width_us: float = 10.0
    flux0_cps: float = 5e6
    background_cps: float = 0.0
    window_us: tuple = (-250.0, 250.0)

    def __post_init__(self):
        if not 0 < self.bin_width_us < math.inf:
            raise ValueError(f"bin_width_us must be positive and finite, got {self.bin_width_us}")
        for name in ("flux0_cps", "background_cps"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {getattr(self, name)}")
        start, stop = self.window_us
        if not (-math.inf < start <= 0.0 <= stop < math.inf and start < stop):
            raise ValueError(
                f"window_us must be finite and contain the crossing time, got {self.window_us}"
            )


@dataclass(frozen=True)
class TransitTrace:
    """Time-binned transit: bin-center times (s), expected transmission and
    observed counts (None until sampled)."""

    t: np.ndarray
    expected_T: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "expected_T", np.asarray(self.expected_T, dtype=float))
        if len(self.t) != len(self.expected_T):
            raise ValueError("time and transmission arrays differ in length")
        if self.counts is not None:
            object.__setattr__(self, "counts", np.asarray(self.counts))
            if len(self.counts) != len(self.t):
                raise ValueError("counts array differs in length")
            if np.any(self.counts < 0):
                raise ValueError("counts must be non-negative")

    def __len__(self) -> int:
        return len(self.t)


def _time_axis_fault(t) -> tuple[int, str] | None:
    """(index, message) for the first bin time that is not finite, does not
    follow its predecessor, or steps from it by more than 1e-6 of the median
    step; None for a finite, strictly increasing, uniform axis."""
    t = np.asarray(t, dtype=float)
    # an axis holding inf has inf - inf steps: no warning, its bin is named
    with np.errstate(all="ignore"):
        median = float(np.median(np.diff(t))) if len(t) > 1 else 0.0
        bad = ~np.isfinite(t)
        bad[1:] |= (t[1:] <= t[:-1]) | (np.abs(t[1:] - t[:-1] - median) > 1e-6 * median)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    ti = float(t[i])
    if not math.isfinite(ti):
        return i, f"time {ti!r} is not finite"
    # t[i - 1] is finite: it passed
    prev = float(t[i - 1])
    if ti <= prev:
        return i, f"time {ti!r} does not follow {prev!r}"
    return i, f"time step {ti - prev!r} differs from the median step {median!r}"


def bin_centers(det: DetectorConfig, t_c_s: float) -> np.ndarray:
    """Absolute bin-center times (s) of the detection window around t_c."""
    start, stop = det.window_us
    n_bins = int(round((stop - start) / det.bin_width_us))
    if n_bins < 1:
        raise ValueError(f"degenerate window {det.window_us}")
    return t_c_s + (start + (np.arange(n_bins) + 0.5) * det.bin_width_us) * 1e-6


def expected_trace(cfg: SystemConfig, tr: Trajectory, det: DetectorConfig) -> TransitTrace:
    """Expected transmission trace of a transit (counts left empty)."""
    t = bin_centers(det, tr.t_c_s)
    p = LabPoint(x_at(tr, t), tr.y_off_um, tr.z_pos_nm * 1e-3)
    return TransitTrace(t=t, expected_T=transmission_at(cfg, p))


def expected_bin_counts(trace: TransitTrace, det: DetectorConfig) -> np.ndarray:
    """Per-bin Poisson means (flux0 * T + background) * bin_width for a trace
    under a detector configuration."""
    return (det.flux0_cps * trace.expected_T + det.background_cps) * det.bin_width_us * 1e-6


def sample_counts(trace: TransitTrace, det: DetectorConfig, seed: int) -> TransitTrace:
    """Draw Poisson counts with the means of `expected_bin_counts`;
    deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    return replace(trace, counts=rng.poisson(expected_bin_counts(trace, det)).astype(np.int64))
