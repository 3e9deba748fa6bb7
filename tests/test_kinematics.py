"""Free-fall kinematics and thermal ensemble tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_transit import (
    EnsembleRecord,
    FallConfig,
    Trajectory,
    arrival_from_initial,
    sample_ensemble,
    x_at,
)
from cavity_transit import kinematics
from cavity_transit.config import CESIUM_MASS_KG
from cavity_transit.kinematics import K_BOLTZMANN

FC = FallConfig()


def test_position_at_crossing_time():
    tr = Trajectory(0.0, 0.42, t_c_s=1.5)
    assert x_at(tr, 1.5) == 0.0


def test_linear_motion():
    tr = Trajectory(0.0, 0.42, t_c_s=0.0)
    assert x_at(tr, 10e-6) == pytest.approx(4.2, rel=1e-12)
    tr = Trajectory(0.0, 0.56, t_c_s=0.0)
    assert x_at(tr, 10e-6) == pytest.approx(5.6, rel=1e-12)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(0.0, 0.0)
    with pytest.raises(ValueError):
        Trajectory(0.0, -0.3)


def test_fall_config_validation():
    with pytest.raises(ValueError):
        FallConfig(drop_height_m=0.0)
    with pytest.raises(ValueError):
        FallConfig(gravity_mps2=-9.81)


def test_arrival_from_rest():
    t_arr, v_arr = arrival_from_initial(FC, 0.0)
    assert t_arr == pytest.approx(math.sqrt(2 * FC.drop_height_m / FC.gravity_mps2), rel=1e-12)
    assert t_arr == pytest.approx(31.93e-3, abs=0.01e-3)
    assert v_arr == pytest.approx(0.3132, abs=1e-4)


def test_arrival_downward_and_upward_branches():
    t_down, v_down = arrival_from_initial(FC, +0.28)
    assert v_down == pytest.approx(0.42, abs=1e-3)
    assert t_down == pytest.approx(14.3e-3, abs=0.1e-3)
    t_up, v_up = arrival_from_initial(FC, -0.28)
    assert v_up == v_down
    assert t_up == pytest.approx(71.4e-3, abs=0.1e-3)


@given(v0=st.floats(-2.0, 2.0))
@settings(max_examples=300)
def test_energy_consistency(v0):
    t_arr, v_arr = arrival_from_initial(FC, v0)
    assert v_arr**2 == pytest.approx(v0**2 + 2 * FC.gravity_mps2 * FC.drop_height_m, rel=1e-9)
    assert v_arr == pytest.approx(v0 + FC.gravity_mps2 * t_arr, rel=1e-9)


def test_arrival_time_decreases_with_initial_velocity():
    v0s = np.linspace(-2.0, 2.0, 201)
    t_arr = np.array([arrival_from_initial(FC, v)[0] for v in v0s])
    assert np.all(np.diff(t_arr) < 0)


def test_arrival_speed_is_v_shaped_in_arrival_time():
    v0s = np.linspace(-1.0, 1.0, 401)
    pairs = sorted(arrival_from_initial(FC, v) for v in v0s)
    t = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    i_min = int(np.argmin(v))
    assert t[i_min] == pytest.approx(math.sqrt(2 * FC.drop_height_m / FC.gravity_mps2), rel=1e-2)
    assert np.all(np.diff(v[: i_min + 1]) <= 0)
    assert np.all(np.diff(v[i_min:]) >= 0)


def test_ensemble_velocity_spread():
    records = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 200_000, seed=11)
    v0 = np.array([r.v0_mps for r in records])
    assert np.std(v0, ddof=1) == pytest.approx(0.1079, abs=1e-3)
    assert np.mean(v0) == pytest.approx(0.0, abs=1e-3)


def test_ensemble_energy_invariant():
    g, h = FC.gravity_mps2, FC.drop_height_m
    for r in sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 500, seed=2):
        assert r.v_arr_mps**2 == pytest.approx(r.v0_mps**2 + 2 * g * h, rel=1e-9)
        assert r.v_arr_mps == pytest.approx(r.v0_mps + g * r.t_arr_ms * 1e-3, rel=1e-9)


def test_cold_limit_collapses_to_free_fall():
    records = sample_ensemble(FC, 1e-15, CESIUM_MASS_KG, 100, seed=5)
    for r in records:
        assert r.t_arr_ms == pytest.approx(31.93, abs=0.01)
        assert r.v_arr_mps == pytest.approx(0.3132, abs=1e-4)


def test_ensemble_determinism():
    a = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 100, seed=9)
    b = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 100, seed=9)
    assert a == b
    c = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 100, seed=10)
    assert a != c


def test_ensemble_validation():
    with pytest.raises(ValueError):
        sample_ensemble(FC, 0.0, CESIUM_MASS_KG, 10, seed=0)
    with pytest.raises(ValueError):
        sample_ensemble(FC, 186e-6, -1.0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 0, seed=0)
    with pytest.raises(ValueError):
        sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 10, seed=0, timing_jitter_s=-1.0)


def test_timing_jitter_perturbs_only_arrival_times():
    clean = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 500, seed=7)
    jittered = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 500, seed=7, timing_jitter_s=2e-3)
    assert [r.v0_mps for r in jittered] == [r.v0_mps for r in clean]
    assert [r.v_arr_mps for r in jittered] == [r.v_arr_mps for r in clean]
    dt = np.array([j.t_arr_ms - c.t_arr_ms for j, c in zip(jittered, clean)])
    assert np.std(dt) == pytest.approx(2.0, rel=0.2)
    # zero jitter reproduces the clean path exactly
    assert sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 500, seed=7, timing_jitter_s=0.0) == clean


def _reference_ensemble(temperature_k, n, seed, timing_jitter_s=0.0):
    """The per-atom record loop that sample_ensemble's column blocks replaced."""
    rng = np.random.default_rng(seed)
    v0 = rng.normal(0.0, math.sqrt(K_BOLTZMANN * temperature_k / CESIUM_MASS_KG), n)
    t_arr, v_arr = arrival_from_initial(FC, v0)
    if timing_jitter_s > 0:
        t_arr = t_arr + rng.normal(0.0, timing_jitter_s, n)
    return [EnsembleRecord(float(v), float(t * 1e3), float(va)) for v, t, va in zip(v0, t_arr, v_arr)]


@pytest.mark.parametrize("timing_jitter_s", [0.0, 2e-3])
def test_ensemble_blocks_match_the_per_atom_reference(monkeypatch, timing_jitter_s):
    # blocks of 4 atoms: 11 atoms end in a partial block
    monkeypatch.setattr(kinematics, "_RECORD_BLOCK", 4)
    for n in (1, 4, 11):
        records = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, n, seed=n, timing_jitter_s=timing_jitter_s)
        assert records == _reference_ensemble(186e-6, n, n, timing_jitter_s)
        assert all(type(r) is EnsembleRecord and all(type(v) is float for v in r) for r in records)


def test_timing_jitter_inflates_inferred_temperature():
    from cavity_transit import estimate_temperature

    jittered = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 5000, seed=9, timing_jitter_s=20e-3)
    est = estimate_temperature(jittered, FC, CESIUM_MASS_KG)
    # a 20 ms clock error maps to g * sigma_t ~ 0.2 m/s of spurious velocity
    # spread, dwarfing the 0.108 m/s thermal spread
    assert est.temperature_k > 2 * 186e-6


def test_constant_velocity_error_stays_below_resolution():
    # gravity changes the position by g t^2 / 2 over the transit window,
    # which must stay below the vertical resolution of a single bin
    window_s = 200e-6
    sag_um = 0.5 * FC.gravity_mps2 * window_s**2 * 1e6
    assert sag_um < 0.2
