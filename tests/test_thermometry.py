"""Arrival-statistics thermometry tests."""

import math

import numpy as np
import pytest

from cavity_transit import (
    EnsembleRecord,
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


def _record(v0):
    t_arr, v_arr = arrival_from_initial(FC, v0)
    return EnsembleRecord(v0, t_arr * 1e3, v_arr)


def test_cold_ensemble_collapses_onto_free_fall_point():
    records = sample_ensemble(FC, 1e-12, CESIUM_MASS_KG, 500, seed=1)
    centers, means = v_shape_curve(records, n_bins=10)
    assert np.all(np.abs(centers - 31.93) < 1e-2)
    assert np.all(np.abs(means - 0.3132) < 1e-4)


def test_symmetric_velocity_pair():
    records = [_record(+0.28), _record(-0.28)]
    centers, means = v_shape_curve(records, n_bins=2)
    assert centers == pytest.approx([28.6, 57.1], abs=0.5)  # bin centers of [14.3, 71.4]
    assert means == pytest.approx([0.42, 0.42], abs=1e-3)


def test_v_curve_minimum_near_free_fall_time():
    records = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 10_000, seed=4)
    centers, means = v_shape_curve(records, n_bins=64)
    assert len(centers) >= 20
    i_min = int(np.argmin(means))
    assert centers[i_min] == pytest.approx(31.9, abs=1.0)


def test_v_curve_has_single_strict_minimum():
    records = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 10_000, seed=8)
    centers, means = v_shape_curve(records, n_bins=30)
    assert len(centers) >= 20
    interior_minima = np.where((means[1:-1] < means[:-2]) & (means[1:-1] < means[2:]))[0]
    assert len(interior_minima) == 1
    assert means[0] > means.min() and means[-1] > means.min()


def test_v_shape_validation():
    records = [_record(0.0)] * 50
    with pytest.raises(ValueError, match="single bin"):
        v_shape_curve(records, n_bins=10)
    with pytest.raises(ValueError):
        v_shape_curve([_record(0.1), _record(-0.1)], n_bins=1)


def test_estimator_matches_synthesized_spread():
    records = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 200_000, seed=12)
    est = estimate_temperature(records, FC, CESIUM_MASS_KG)
    assert est.temperature_k == pytest.approx(186e-6, abs=3 * est.sigma_t_k)
    assert est.n_used == 200_000
    t_all = [r.t_arr_ms for r in records]
    assert min(t_all) <= est.t_min_ms <= max(t_all)


def test_estimator_sigma_formula():
    records = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 1000, seed=3)
    est = estimate_temperature(records, FC, CESIUM_MASS_KG)
    assert est.sigma_t_k == pytest.approx(est.temperature_k * math.sqrt(2.0 / 999.0), rel=1e-12)


def test_initial_velocity_inversion_is_exact():
    records = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 1000, seed=6)
    v_arr = np.array([r.v_arr_mps for r in records])
    t_arr = np.array([r.t_arr_ms for r in records]) * 1e-3
    v0 = v_arr - FC.gravity_mps2 * t_arr
    truth = np.array([r.v0_mps for r in records])
    assert np.max(np.abs(v0 - truth)) < 1e-12


def test_thousand_atom_estimates_cluster_at_truth():
    hits = 0
    for seed in range(50):
        records = sample_ensemble(FC, 186e-6, CESIUM_MASS_KG, 1000, seed=seed)
        est = estimate_temperature(records, FC, CESIUM_MASS_KG)
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
        estimate_temperature([_record(0.1)] * 5, FC, CESIUM_MASS_KG)
    with pytest.raises(ValueError, match="zero velocity variance"):
        estimate_temperature([_record(0.1)] * 50, FC, CESIUM_MASS_KG)


@pytest.mark.parametrize("mass_kg", [0.0, math.nan, math.inf])
def test_estimate_rejects_an_atom_mass_that_is_not_positive_and_finite(mass_kg):
    records = [_record(v0) for v0 in np.linspace(-0.2, 0.2, 50)]
    with pytest.raises(ValueError, match="atom_mass_kg must be positive and finite"):
        estimate_temperature(records, FC, mass_kg)


@pytest.mark.parametrize("field", ["t_arr_ms", "v_arr_mps"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_estimate_rejects_a_non_finite_record_by_field(field, value):
    records = [_record(v0) for v0 in np.linspace(-0.2, 0.2, 50)]
    records[17] = records[17]._replace(**{field: value})
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        estimate_temperature(records, FC, CESIUM_MASS_KG)


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
    (rec,) = records_from_fits([fit], FC)
    assert rec.v_arr_mps == v_arr
    assert rec.t_arr_ms == pytest.approx(t_arr * 1e3, rel=1e-12)
    assert rec.v0_mps == pytest.approx(0.12, rel=1e-9)
