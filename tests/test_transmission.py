"""Transmission formula and scan tests.

The independent oracle for the transmission denominator is the complex
Lorentzian product |(gamma + i d_pa)(kappa + i (d_pa - d_ca)) + g^2|^2,
which the real-arithmetic formula must match for all parameters.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_transit import (
    Detunings,
    LabPoint,
    ModeGeometry,
    ModeIndex,
    Rates,
    SingularParameterError,
    SystemConfig,
    detuning_scan,
    effective_coupling,
    lab_to_mode,
    local_maxima,
    local_minima,
    position_scan,
    transmission_at,
    transmission_vs_coupling,
)

RATES = Rates(23.9, 2.6, 2.6)


def oracle_transmission(g, kappa, gamma, dpa, dca):
    """Complex-arithmetic evaluation of the weak-field transmission."""
    den = abs((gamma + 1j * dpa) * (kappa + 1j * (dpa - dca)) + g**2) ** 2
    return kappa**2 * (gamma**2 + dpa**2) / den


def test_empty_cavity_on_resonance_is_exactly_one():
    assert transmission_vs_coupling(0.0, RATES, Detunings(0.0, 0.0)) == 1.0


def test_max_coupling_on_resonance():
    T = transmission_vs_coupling(23.9, RATES, Detunings(0.0, 0.0))
    gk = RATES.gamma * RATES.kappa
    assert T == pytest.approx((gk / (23.9**2 + gk)) ** 2, rel=1e-15)
    assert T == pytest.approx(1.368e-4, rel=1e-3)


def test_detuned_example_against_complex_oracle():
    T = transmission_vs_coupling(20.5, RATES, Detunings(-23.9, 0.0))
    assert T == pytest.approx(oracle_transmission(20.5, 2.6, 2.6, -23.9, 0.0), rel=1e-14)
    assert T == pytest.approx(0.10782, abs=2e-5)


@given(
    g=st.floats(0, 50),
    kappa=st.floats(0.1, 20),
    gamma=st.floats(0.1, 20),
    dpa=st.floats(-80, 80),
    dca=st.floats(-80, 80),
)
@settings(max_examples=300)
def test_product_convention_matches_complex_oracle(g, kappa, gamma, dpa, dca):
    rates = Rates(max(g, kappa, gamma) + 1.0, kappa, gamma)
    T = transmission_vs_coupling(g, rates, Detunings(dpa, dca))
    assert T == pytest.approx(oracle_transmission(g, kappa, gamma, dpa, dca), rel=1e-12)


def test_lorentzian_reduction_at_zero_coupling():
    # an empty cavity is a Lorentzian in the probe-cavity detuning, resonant
    # with the atom or not
    deltas = np.linspace(-50, 50, 2001)
    kap = RATES.kappa
    for dca in (0.0, 3.0):
        for d in deltas:
            T = transmission_vs_coupling(0.0, RATES, Detunings(d, dca))
            assert abs(T - kap**2 / (kap**2 + (d - dca) ** 2)) < 1e-12


def test_transmission_range_on_atom_resonant_cavity():
    rng = np.random.default_rng(1)
    g = rng.uniform(0, 50, 2000)
    dpa = rng.uniform(-100, 100, 2000)
    for gi, di in zip(g, dpa):
        T = transmission_vs_coupling(gi, RATES, Detunings(di, 0.0))
        assert 0.0 < T <= 1.0
    # and for a detuned cavity: the bound holds for any delta_ca
    dca = rng.uniform(-100, 100, 2000)
    for gi, di, ci in zip(g, dpa, dca):
        T = transmission_vs_coupling(gi, RATES, Detunings(di, ci))
        assert 0.0 < T <= 1.0


def test_monotone_decreasing_in_coupling_at_resonance():
    g = np.linspace(0, 40, 400)
    T = transmission_vs_coupling(g, RATES, Detunings(0.0, 0.0))
    assert np.all(np.diff(T) < 0)


@given(
    g=st.floats(0.01, 50),
    kappa=st.floats(0.1, 20),
    gamma=st.floats(0.1, 20),
    dpa=st.floats(-80, 80),
    dca=st.floats(-80, 80),
    c=st.sampled_from([1e-3, 1e3]),
)
@settings(max_examples=300)
def test_degree_zero_homogeneity(g, kappa, gamma, dpa, dca, c):
    # absolute 1e-12 over the physical range T <= 1, relative beyond it
    rates = Rates(max(g, kappa, gamma) + 1.0, kappa, gamma)
    scaled = Rates(c * rates.g0, c * kappa, c * gamma)
    T1 = transmission_vs_coupling(g, rates, Detunings(dpa, dca))
    T2 = transmission_vs_coupling(c * g, scaled, Detunings(c * dpa, c * dca))
    assert abs(T1 - T2) <= 1e-12 * max(1.0, T1)


def test_singular_parameters_raise():
    # the denominator is at least (gamma kappa)^2, which underflows to 0 at
    # gamma = kappa = 1e-170: an empty resonant cavity then has den == 0
    rates = Rates(20.0, 1e-170, 1e-170)
    with pytest.raises(SingularParameterError):
        transmission_vs_coupling(0.0, rates, Detunings(0.0, 0.0))
    # one singular detuning among regular ones fails the whole array call,
    # and the message names its index and value
    with pytest.raises(SingularParameterError, match=re.escape("delta_pa[2]=0.0")):
        transmission_vs_coupling(0.0, rates, Detunings(np.array([-4.0, 4.0, 0.0, 8.0]), 0.0))
    with pytest.raises(SingularParameterError, match=re.escape("delta_pa[2000]=0.0")):
        transmission_vs_coupling(0.0, rates, Detunings(np.linspace(-4.0, 0.0, 2001), 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_detunings_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        Detunings(bad, 0.0)
    with pytest.raises(ValueError, match="finite"):
        Detunings(0.0, bad)
    with pytest.raises(ValueError, match="finite"):
        Detunings(np.array([0.0, bad, 1.0]), 0.0)


def test_weak_coupling_warning():
    with pytest.warns(UserWarning, match="strong-coupling"):
        Rates(1.0, 2.6, 2.6)


def test_position_scan_double_dip_untilted():
    cfg = SystemConfig(geometry=ModeGeometry(tilt_deg=0.0))
    x, T = position_scan(cfg, 0.0, (-80.0, 80.0), 2001)
    dips = local_minima(T)
    assert len(dips) == 2
    w0_over_sqrt2 = 23.8 / math.sqrt(2.0)
    assert sorted(abs(x[i]) for i in dips) == pytest.approx([w0_over_sqrt2] * 2, abs=0.1)


def test_position_scan_even_in_y_untilted():
    cfg = SystemConfig(geometry=ModeGeometry(tilt_deg=0.0))
    _, T_plus = position_scan(cfg, 45.0, (-80.0, 80.0), 501)
    _, T_minus = position_scan(cfg, -45.0, (-80.0, 80.0), 501)
    assert np.max(np.abs(T_plus - T_minus)) < 1e-12


def test_position_scan_tem00_single_dip():
    cfg = SystemConfig(mode=ModeIndex(0, 0), geometry=ModeGeometry(tilt_deg=0.0))
    x, T = position_scan(cfg, 0.0, (-80.0, 80.0), 2001)
    dips = local_minima(T)
    assert len(dips) == 1
    assert x[dips[0]] == pytest.approx(0.0, abs=0.1)
    assert T[dips[0]] == pytest.approx(1.368e-4, rel=1e-3)


def test_position_scan_validation():
    cfg = SystemConfig()
    with pytest.raises(ValueError):
        position_scan(cfg, 0.0, (-10.0, 10.0), 1)
    with pytest.raises(ValueError):
        position_scan(cfg, 0.0, (10.0, -10.0), 100)
    for y in (math.nan, math.inf):
        with pytest.raises(ValueError, match="off-axis position y must be finite"):
            position_scan(cfg, y, (-10.0, 10.0), 100)


def test_detuning_scan_lorentzian_at_node():
    # x = 0 sits on the TEM10 nodal line: zero coupling, bare-cavity response
    cfg = SystemConfig(geometry=ModeGeometry(tilt_deg=0.0))
    deltas, T = detuning_scan(cfg, LabPoint(0.0, 0.0, 0.0), (-20.0, 20.0), 801)
    kap = cfg.rates.kappa
    assert np.max(np.abs(T - kap**2 / (kap**2 + deltas**2))) < 1e-12
    # full width at half maximum is 2 kappa
    half = np.where(T >= 0.5)[0]
    width = deltas[half[-1]] - deltas[half[0]]
    assert width == pytest.approx(2 * kap, abs=0.1)


def test_detuning_scan_vacuum_rabi_splitting():
    cfg = SystemConfig(mode=ModeIndex(0, 0), geometry=ModeGeometry(tilt_deg=0.0))
    deltas, T = detuning_scan(cfg, LabPoint(0.0, 0.0, 0.0), (-40.0, 40.0), 2001)
    peaks = local_maxima(T)
    assert len(peaks) == 2
    expected = math.sqrt(cfg.rates.g0**2 + cfg.rates.gamma * cfg.rates.kappa)
    assert sorted(abs(deltas[i]) for i in peaks) == pytest.approx([expected] * 2, abs=0.1)
    # a coupled atom reduces the resonant transmission
    assert T[np.argmin(np.abs(deltas))] < 1.0


def test_detuning_scan_matches_pointwise_loop():
    # reference: one scalar transmission_vs_coupling call per detuning; the
    # array squares by multiplication where a scalar may go through pow, so
    # the two may differ in the last bit
    cfg = SystemConfig(detunings=Detunings(0.0, 3.0))
    p = LabPoint(5.0, -8.0, 0.0)
    deltas, T = detuning_scan(cfg, p, (-40.0, 40.0), 2001)
    g = effective_coupling(cfg.rates.g0, cfg.mode, cfg.geometry, lab_to_mode(p, cfg.geometry.tilt_deg))
    loop = [transmission_vs_coupling(g, cfg.rates, Detunings(d, 3.0)) for d in deltas]
    np.testing.assert_allclose(T, loop, rtol=1e-15, atol=0.0)


def test_detuning_scan_validation():
    cfg = SystemConfig()
    with pytest.raises(ValueError):
        detuning_scan(cfg, LabPoint(0.0, 0.0, 0.0), (5.0, -5.0), 100)
    for bad in (LabPoint(math.nan, 0.0), LabPoint(0.0, -math.inf), LabPoint(0.0, 0.0, math.nan)):
        name = next(k for k, v in bad._asdict().items() if not math.isfinite(v))
        with pytest.raises(ValueError, match=f"scan point {name} must be finite"):
            detuning_scan(cfg, bad, (-5.0, 5.0), 100)


def test_scan_is_pointwise_reproducible():
    # scans must equal independent pointwise evaluation (no accumulated state)
    cfg = SystemConfig()
    x, T = position_scan(cfg, 10.0, (-30.0, 30.0), 101)
    for xi, Ti in zip(x[::10], T[::10]):
        assert transmission_at(cfg, LabPoint(xi, 10.0, 0.0)) == Ti
