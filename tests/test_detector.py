"""Detector model tests: expected traces and Poisson count sampling."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavity_transit import (
    DetectorConfig,
    ModeGeometry,
    SystemConfig,
    Trajectory,
    TransitTrace,
    expected_trace,
    sample_counts,
)
from cavity_transit.detector import _time_axis_fault, bin_centers, expected_bin_counts

CFG = SystemConfig()  # tilt 45 deg
CFG_UNTILTED = SystemConfig(geometry=ModeGeometry(tilt_deg=0.0))
DET = DetectorConfig()


def test_bin_centers_cover_window_symmetrically():
    t = bin_centers(DET, t_c_s=0.0)
    assert len(t) == 50
    assert np.max(np.abs(t + t[::-1])) == 0.0  # symmetric about t_c
    assert np.allclose(np.diff(t), 10e-6)


def test_trace_far_outside_mode_is_flat():
    trace = expected_trace(CFG, Trajectory(y_off_um=200.0, v_mps=0.42), DET)
    assert np.all(np.abs(trace.expected_T - 1.0) < 1e-9)


def test_symmetric_trace_at_zero_offset():
    trace = expected_trace(CFG, Trajectory(0.0, 0.42), DET)
    assert np.max(np.abs(trace.expected_T - trace.expected_T[::-1])) < 1e-12
    # two equal dips
    mid = len(trace) // 2
    first, second = trace.expected_T[:mid], trace.expected_T[mid:]
    assert first.min() < 0.01
    assert first.min() == pytest.approx(second.min(), abs=1e-12)


def _dip_depths_and_widths(T, threshold=0.5):
    """(depth, width-in-bins) of the two transit dips, in time order."""
    below = T < threshold
    edges = np.where(np.diff(below.astype(int)) != 0)[0]
    runs = []
    start = None
    for i, b in enumerate(below):
        if b and start is None:
            start = i
        elif not b and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(below)))
    assert len(runs) == 2, f"expected two dips, found {len(runs)}"
    return [(T[a:b].min(), b - a) for a, b in runs]


def test_left_transit_has_deeper_wider_first_dip():
    trace = expected_trace(CFG, Trajectory(-16.3, 0.39), DET)
    (d1, w1), (d2, w2) = _dip_depths_and_widths(trace.expected_T)
    assert d1 < d2
    assert w1 > w2


def test_right_transit_reverses_dip_order():
    trace = expected_trace(CFG, Trajectory(18.0, 0.42), DET)
    (d1, w1), (d2, w2) = _dip_depths_and_widths(trace.expected_T)
    assert d2 < d1
    assert w2 > w1


def test_mirror_symmetry_untilted_and_broken_at_45deg():
    for y in (5.0, 10.0, 20.0, 30.0):
        plus = expected_trace(CFG_UNTILTED, Trajectory(y, 0.42), DET).expected_T
        minus = expected_trace(CFG_UNTILTED, Trajectory(-y, 0.42), DET).expected_T
        assert np.max(np.abs(plus - minus)) < 1e-12
        plus45 = expected_trace(CFG, Trajectory(y, 0.42), DET).expected_T
        minus45 = expected_trace(CFG, Trajectory(-y, 0.42), DET).expected_T
        assert np.max(np.abs(plus45 - minus45)) > 0.05


def test_time_reversal_symmetry_any_tilt():
    for tilt in (0.0, 20.0, 45.0, -45.0):
        cfg = SystemConfig(geometry=ModeGeometry(tilt_deg=tilt))
        T = expected_trace(cfg, Trajectory(0.0, 0.42), DET).expected_T
        assert np.max(np.abs(T - T[::-1])) < 1e-12


def test_expected_transmission_range_on_resonant_cavity():
    for y in (-30.0, 0.0, 12.0):
        T = expected_trace(CFG, Trajectory(y, 0.42, z_pos_nm=80.0), DET).expected_T
        assert np.all((T > 0.0) & (T <= 1.0))


def test_expected_counts_scale():
    trace = TransitTrace(t=np.arange(5) * 1e-5, expected_T=np.ones(5))
    lam = expected_bin_counts(trace, DET)
    assert np.allclose(lam, 50.0)


def test_poisson_sampler_calibration():
    n = 100_000
    trace = TransitTrace(t=np.arange(n) * 1e-5, expected_T=np.ones(n))
    counts = sample_counts(trace, DET, seed=123).counts
    assert abs(np.mean(counts) - 50.0) < 0.5
    assert abs(np.var(counts, ddof=1) - 50.0) < 2.0


def test_sampling_determinism_and_dark_detector():
    trace = expected_trace(CFG, Trajectory(-16.3, 0.39), DET)
    a = sample_counts(trace, DET, seed=7)
    b = sample_counts(trace, DET, seed=7)
    assert np.array_equal(a.counts, b.counts)
    dark = DetectorConfig(flux0_cps=0.0)
    assert np.all(sample_counts(trace, dark, seed=7).counts == 0)


def test_detector_validation():
    with pytest.raises(ValueError):
        DetectorConfig(bin_width_us=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(flux0_cps=-1.0)
    with pytest.raises(ValueError):
        DetectorConfig(window_us=(10.0, 250.0))  # does not contain t_c
    with pytest.raises(ValueError):
        DetectorConfig(window_us=(250.0, -250.0))


def test_trace_validation():
    with pytest.raises(ValueError):
        TransitTrace(t=np.arange(3, dtype=float), expected_T=np.ones(2))
    with pytest.raises(ValueError):
        TransitTrace(t=np.arange(2, dtype=float), expected_T=np.ones(2), counts=np.array([1, -1]))


def test_degenerate_window():
    det = DetectorConfig(bin_width_us=10.0, window_us=(-2.0, 2.0))
    with pytest.raises(ValueError):
        expected_trace(CFG, Trajectory(0.0, 0.42), det)


def _time_axis_fault_loop(t):
    """The per-bin loop `_time_axis_fault` must agree with, index and message."""
    t = np.asarray(t, dtype=float)
    median = float(np.median(np.diff(t))) if len(t) > 1 else 0.0
    t = t.tolist()
    for i, ti in enumerate(t):
        if not math.isfinite(ti):
            return i, f"time {ti!r} is not finite"
        if i and ti <= t[i - 1]:
            return i, f"time {ti!r} does not follow {t[i - 1]!r}"
        if i and abs(ti - t[i - 1] - median) > 1e-6 * median:
            return i, f"time step {ti - t[i - 1]!r} differs from the median step {median!r}"
    return None


# edits of an evenly stepped axis: a non-finite time, a repeated time, a step back,
# and every later time shifted so that one step is off the median by just
# under or just over 1e-6 of it, either way
_AXIS_EDITS = st.sampled_from(["nan", "inf", "-inf", "repeat", "back", "inside+", "inside-", "outside+", "outside-"])


@given(
    n=st.integers(0, 30),
    t0=st.floats(-1.0, 1.0),
    # a constant or decreasing axis has a median step of 0 or below
    step=st.one_of(st.floats(1e-6, 1e-3), st.just(0.0), st.floats(-1e-3, -1e-6)),
    edits=st.lists(st.tuples(st.integers(0, 29), _AXIS_EDITS), max_size=3),
)
@example(n=10, t0=0.0, step=1e-5, edits=[(4, "inf"), (5, "inf")])  # an inf - inf step
@settings(max_examples=300, deadline=None)
def test_time_axis_fault_matches_the_per_bin_loop(n, t0, step, edits):
    t = t0 + step * np.arange(n)
    for i, kind in edits:
        if i >= n:
            continue
        if kind in ("nan", "inf", "-inf"):
            t[i] = float(kind)
        elif kind == "repeat" and i:
            t[i] = t[i - 1]
        elif kind == "back" and i:
            t[i] = t[i - 1] - step
        elif kind.startswith(("inside", "outside")):
            off = (1.0 - 1e-3 if kind.startswith("inside") else 1.0 + 1e-3) * 1e-6 * step
            t[i:] += off if kind.endswith("+") else -off
    with np.errstate(all="ignore"):  # the loop's median step of an axis holding inf
        expected = _time_axis_fault_loop(t)
    with warnings.catch_warnings():  # and the check itself warns of nothing
        warnings.simplefilter("error")
        assert _time_axis_fault(t) == expected
