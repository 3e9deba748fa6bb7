"""Arrival-statistics thermometry tests."""

import math

import numpy as np
import pytest

from cavity_transit import (
    Ensemble,
    FallConfig,
    FitResult,
    arrival_from_initial,
    estimate_temperature,
    sample_ensemble,
    v_shape_curve,
)
from cavity_transit.config import CESIUM_MASS_KG
from cavity_transit.kinematics import K_BOLTZMANN
from cavity_transit.thermometry import records_from_fits

FC = FallConfig()


def _ensemble(v0s):
    v0 = np.array(v0s, dtype=float)
    t_arr, v_arr = arrival_from_initial(FC, v0)
    return Ensemble(v0, t_arr * 1e3, v_arr)


def test_cold_ensemble_collapses_onto_free_fall_point():
    ensemble = sample_ensemble(FC, 1e-12, CESIUM_MASS_KG, 500, seed=1)
    centers, means = v_shape_curve(ensemble, n_bins=10)
    assert np.all(np.abs(centers - 31.93) < 1e-2)
    assert np.all(np.abs(means - 0.3132) < 1e-4)


def test_symmetric_velocity_pair():
    ensemble = _ensemble([+0.28, -0.28])
    centers, means = v_shape_curve(ensemble, n_bins=2)
    assert centers == pytest.approx([28.6, 57.1], abs=0.5)  # bin centers of [14.3, 71.4]
    assert means == pytest.approx([0.42, 0.42], abs=1e-3)


def test_v_curve_minimum_near_free_fall_time():
    ensemble = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 10_000, seed=4)
    centers, means = v_shape_curve(ensemble, n_bins=64)
    assert len(centers) >= 20
    i_min = int(np.argmin(means))
    assert centers[i_min] == pytest.approx(31.9, abs=1.0)


def test_v_curve_has_single_strict_minimum():
    ensemble = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 10_000, seed=8)
    centers, means = v_shape_curve(ensemble, n_bins=30)
    assert len(centers) >= 20
    interior_minima = np.where((means[1:-1] < means[:-2]) & (means[1:-1] < means[2:]))[0]
    assert len(interior_minima) == 1
    assert means[0] > means.min() and means[-1] > means.min()


def test_v_shape_validation():
    with pytest.raises(ValueError, match="single bin"):
        v_shape_curve(_ensemble([0.0] * 50), n_bins=10)
    with pytest.raises(ValueError):
        v_shape_curve(_ensemble([0.1, -0.1]), n_bins=1)


def test_estimator_matches_synthesized_spread():
    ensemble = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 200_000, seed=12)
    est = estimate_temperature(ensemble, FC, CESIUM_MASS_KG)
    assert est.temperature_k == pytest.approx(186e-6, abs=3 * est.sigma_t_k)
    assert est.n_used == 200_000
    assert ensemble.t_arr_ms.min() <= est.t_min_ms <= ensemble.t_arr_ms.max()


def test_estimator_sigma_formula():
    ensemble = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 1000, seed=3)
    est = estimate_temperature(ensemble, FC, CESIUM_MASS_KG)
    assert est.sigma_t_k == pytest.approx(est.temperature_k * math.sqrt(2.0 / 999.0), rel=1e-12)


def test_initial_velocity_inversion_is_exact():
    ensemble = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 1000, seed=6)
    v0 = ensemble.v_arr_mps - FC.gravity_mps2 * (ensemble.t_arr_ms * 1e-3)
    assert np.max(np.abs(v0 - ensemble.v0_mps)) < 1e-12


def test_thousand_atom_estimates_cluster_at_truth():
    hits = 0
    for seed in range(50):
        ensemble = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 1000, seed=seed)
        est = estimate_temperature(ensemble, FC, CESIUM_MASS_KG)
        hits += abs(est.temperature_k - 186e-6) <= 20e-6
    assert hits >= 45


def test_round_trip_coverage():
    # sampled ensembles must recover the generating temperature within
    # 3 sigma nearly always
    rng_truth = 186e-6
    sigma_v = math.sqrt(K_BOLTZMANN * rng_truth / CESIUM_MASS_KG)
    hits = 0
    reps = 1000
    g, h = FC.gravity_mps2, FC.drop_height_m
    for seed in range(reps):
        rng = np.random.default_rng(seed)
        v0 = rng.normal(0.0, sigma_v, 1000)
        var = np.var(v0, ddof=1)
        t_hat = CESIUM_MASS_KG * var / K_BOLTZMANN
        sigma_t = t_hat * math.sqrt(2.0 / 999.0)
        hits += abs(t_hat - rng_truth) <= 3 * sigma_t
    assert hits >= 0.99 * reps


def test_estimate_requires_samples_and_spread():
    with pytest.raises(ValueError, match="at least 10"):
        estimate_temperature(_ensemble([0.1] * 5), FC, CESIUM_MASS_KG)
    with pytest.raises(ValueError, match="zero velocity variance"):
        estimate_temperature(_ensemble([0.1] * 50), FC, CESIUM_MASS_KG)


@pytest.mark.parametrize("mass_kg", [0.0, math.nan, math.inf])
def test_estimate_rejects_an_atom_mass_that_is_not_positive_and_finite(mass_kg):
    with pytest.raises(ValueError, match="atom_mass_kg must be positive and finite"):
        estimate_temperature(_ensemble(np.linspace(-0.2, 0.2, 50)), FC, mass_kg)


def _columns(v0s):
    e = _ensemble(v0s)
    return {"v0_mps": e.v0_mps.copy(), "t_arr_ms": e.t_arr_ms.copy(), "v_arr_mps": e.v_arr_mps.copy()}


@pytest.mark.parametrize("field", ["t_arr_ms", "v_arr_mps", "v0_mps"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_estimate_rejects_a_non_finite_record_by_field(field, value):
    # the ensemble is checked once, when it is built, so no estimate starts
    columns = _columns(np.linspace(-0.2, 0.2, 50))
    columns[field][17] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        estimate_temperature(Ensemble(**columns), FC, CESIUM_MASS_KG)


def test_ensemble_names_the_first_non_finite_column_in_a_fixed_order():
    columns = _columns(np.linspace(-0.2, 0.2, 50))
    columns["v0_mps"][3] = math.inf
    columns["t_arr_ms"][40] = math.nan
    with pytest.raises(ValueError, match="^t_arr_ms must be finite, got nan$"):
        Ensemble(**columns)
    columns["v_arr_mps"][45] = -math.inf
    with pytest.raises(ValueError, match="^v_arr_mps must be finite, got -inf$"):
        Ensemble(**columns)


def test_records_from_fits_pairs_speed_with_arrival_time():
    t_arr, v_arr = arrival_from_initial(FC, 0.12)
    fit = FitResult(
        y_off_um=-16.3,
        v_mps=v_arr,
        t_c_s=t_arr,
        sigma_y_um=0.1,
        sigma_v_mps=0.005,
        sigma_tc_s=1e-6,
        log_lik=-100.0,
        mirror_log_lik=-150.0,
        converged=True,
        n_evals=100,
    )
    ensemble = records_from_fits([fit], FC)
    assert len(ensemble) == 1
    assert ensemble.v_arr_mps[0] == v_arr
    assert ensemble.t_arr_ms[0] == pytest.approx(t_arr * 1e3, rel=1e-12)
    assert ensemble.v0_mps[0] == pytest.approx(0.12, rel=1e-9)


def test_records_from_fits_matches_the_per_fit_arithmetic():
    fits = [
        FitResult(0.0, v, t, 0.1, 0.005, 1e-6, -100.0, -150.0, True, 1)
        for v, t in [(0.31, 0.0319), (0.45, 0.0171), (0.2, 0.052), (1, 0)]
    ]
    g = FC.gravity_mps2
    expected = [(f.v_mps - g * f.t_c_s, f.t_c_s * 1e3, f.v_mps) for f in fits]
    ensemble = records_from_fits(fits, FC)
    assert list(zip(*(c.tolist() for c in (ensemble.v0_mps, ensemble.t_arr_ms, ensemble.v_arr_mps)))) == expected
