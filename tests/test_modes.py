"""Mode function, Hermite recurrence and rotation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from cavity_transit import (
    LabPoint,
    ModeGeometry,
    ModeIndex,
    ModePoint,
    UnsupportedOrderError,
    effective_coupling,
    hermite,
    lab_to_mode,
    mode_amplitude,
    normalization_constant,
    relative_amplitude,
)
from conftest import quad_norm

GEO = ModeGeometry(w0_um=23.8, wavelength_nm=852.347, tilt_deg=45.0)
TEM00 = ModeIndex(0, 0)
TEM10 = ModeIndex(1, 0)

# hand-expanded low-order polynomials used as the recurrence oracle
EXPLICIT_HERMITE = {
    0: lambda u: np.ones_like(np.asarray(u, dtype=float)),
    1: lambda u: 2 * u,
    2: lambda u: 4 * u**2 - 2,
    3: lambda u: 8 * u**3 - 12 * u,
    4: lambda u: 16 * u**4 - 48 * u**2 + 12,
}


def test_hermite_low_order_values():
    assert hermite(0, 0.7) == 1.0
    assert hermite(1, 0.7) == pytest.approx(1.4, abs=1e-15)
    assert hermite(2, 1.0) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_hermite_recurrence_matches_explicit(order):
    u = np.linspace(-4.0, 4.0, 101)
    expected = EXPLICIT_HERMITE[order](u)
    got = hermite(order, u)
    assert np.all(np.abs(got - expected) <= 1e-10 * np.maximum(1.0, np.abs(expected)))


@given(st.floats(-10, 10), st.integers(0, 4))
@settings(max_examples=200)
def test_hermite_recurrence_property(u, order):
    expected = float(EXPLICIT_HERMITE[order](u))
    assert hermite(order, u) == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_hermite_order_out_of_range():
    with pytest.raises(UnsupportedOrderError):
        hermite(11, 0.5)
    with pytest.raises(UnsupportedOrderError):
        hermite(-1, 0.5)


def test_mode_index_validation():
    with pytest.raises(ValueError):
        ModeIndex(-1, 0)
    assert ModeIndex() == ModeIndex(1, 0)


def test_geometry_validation_and_tilt_normalization():
    with pytest.raises(ValueError):
        ModeGeometry(w0_um=-1.0)
    with pytest.raises(ValueError):
        ModeGeometry(wavelength_nm=0.0)
    assert ModeGeometry(tilt_deg=135.0).tilt_deg == pytest.approx(-45.0)
    assert ModeGeometry(tilt_deg=90.0).tilt_deg == pytest.approx(-90.0)
    assert ModeGeometry(tilt_deg=45.0).tilt_deg == pytest.approx(45.0)


def test_rotation_identity_and_45deg():
    p = lab_to_mode(LabPoint(1.0, 2.0, 3.0), 0.0)
    assert p == ModePoint(1.0, 2.0, 3.0)
    q = lab_to_mode(LabPoint(1.0, 0.0, 0.0), 45.0)
    assert q.x == pytest.approx(0.70711, abs=1e-5)
    assert q.y == pytest.approx(-0.70711, abs=1e-5)
    back = lab_to_mode(LabPoint(0.70711, -0.70711, 0.0), -45.0)
    assert back.x == pytest.approx(1.0, abs=1e-5)
    assert back.y == pytest.approx(0.0, abs=1e-5)


def test_rotation_round_trip_1000_points():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-100, 100, (1000, 3))
    angles = rng.uniform(-90, 90, 1000)
    for (x, y, z), theta in zip(pts, angles):
        back = lab_to_mode(lab_to_mode(LabPoint(x, y, z), theta), -theta)
        assert abs(back.x - x) < 1e-12
        assert abs(back.y - y) < 1e-12
        assert back.z == z


def test_tem00_normalization_constant():
    c00 = normalization_constant(TEM00, GEO)
    # closed form (w0^2 pi / 2)^(-1/2)
    assert c00 == pytest.approx(1.0 / math.sqrt(GEO.w0_um**2 * math.pi / 2.0), rel=1e-12)
    assert c00 == pytest.approx(0.033527, abs=1e-5)
    assert mode_amplitude(TEM00, GEO, ModePoint(0.0, 0.0, 0.0)) == pytest.approx(c00, rel=1e-12)


def test_nodal_zeros():
    for y in (-20.0, 0.0, 7.3):
        assert mode_amplitude(TEM10, GEO, ModePoint(0.0, y, 0.0)) == 0.0
    quarter_wave = GEO.wavelength_um / 4.0
    for idx in (TEM00, TEM10, ModeIndex(2, 1)):
        assert abs(mode_amplitude(idx, GEO, ModePoint(5.0, 5.0, quarter_wave))) < 1e-12


def test_relative_amplitude_values():
    assert relative_amplitude(TEM00, GEO, ModePoint(0.0, 0.0, 0.0)) == 1.0
    peak = relative_amplitude(TEM10, GEO, ModePoint(GEO.w0_um / math.sqrt(2.0), 0.0, 0.0))
    assert peak == pytest.approx(math.sqrt(2.0) * math.exp(-0.5), rel=1e-12)
    assert peak == pytest.approx(0.857763, abs=1e-6)
    assert peak == pytest.approx(20.5 / 23.9, abs=1e-4)
    at_waist = relative_amplitude(TEM10, GEO, ModePoint(GEO.w0_um, 0.0, 0.0))
    assert at_waist == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
    assert at_waist == pytest.approx(0.735759, abs=1e-6)


def test_effective_coupling_values():
    assert effective_coupling(23.9, TEM00, GEO, ModePoint(0.0, 0.0, 0.0)) == pytest.approx(23.9, rel=1e-12)
    peak = effective_coupling(23.9, TEM10, GEO, ModePoint(GEO.w0_um / math.sqrt(2.0), 0.0, 0.0))
    assert peak == pytest.approx(20.5, abs=0.01)
    assert effective_coupling(5.0, TEM10, GEO, ModePoint(0.0, 13.0, 0.0)) == 0.0
    with pytest.raises(ValueError):
        effective_coupling(0.0, TEM10, GEO, ModePoint(1.0, 0.0, 0.0))


def test_coupling_is_magnitude():
    # the signed amplitude is negative for x < 0; the coupling is not
    assert relative_amplitude(TEM10, GEO, ModePoint(-10.0, 0.0, 0.0)) < 0
    assert effective_coupling(23.9, TEM10, GEO, ModePoint(-10.0, 0.0, 0.0)) > 0


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("n", range(4))
def test_normalization_quadrature(m, n):
    assert quad_norm(ModeIndex(m, n), GEO) == pytest.approx(1.0, abs=1e-6)


def test_parity_on_grid():
    xs = np.linspace(-50, 50, 21)
    ys = np.linspace(-50, 50, 21)
    for x in xs:
        for y in ys:
            odd = relative_amplitude(TEM10, GEO, ModePoint(x, y, 0.0))
            assert abs(relative_amplitude(TEM10, GEO, ModePoint(-x, y, 0.0)) + odd) <= 1e-12
            assert abs(relative_amplitude(TEM10, GEO, ModePoint(x, -y, 0.0)) - odd) <= 1e-12
            even = relative_amplitude(TEM00, GEO, ModePoint(x, y, 0.0))
            assert abs(relative_amplitude(TEM00, GEO, ModePoint(-x, y, 0.0)) - even) <= 1e-12
            assert abs(relative_amplitude(TEM00, GEO, ModePoint(x, -y, 0.0)) - even) <= 1e-12


def test_peak_coupling_by_golden_section():
    res = minimize_scalar(
        lambda x: -relative_amplitude(TEM10, GEO, ModePoint(x, 0.0, 0.0)),
        bracket=(10.0, 16.0, 25.0),
        method="golden",
        options={"xtol": 1e-12},
    )
    assert -res.fun == pytest.approx(math.sqrt(2.0) * math.exp(-0.5), abs=1e-9)
