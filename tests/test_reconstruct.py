"""Likelihood, fitter and degeneracy analyzer tests.

The self-consistency oracle for the fitter is the forward model itself:
noiseless counts placed at the model rates must be maximized at the
generating parameters (checked by grid audit and by full fits).
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cavity_transit import (
    DetectorConfig,
    Detunings,
    FitParams,
    FitResult,
    LabPoint,
    ModeGeometry,
    ModeIndex,
    NoTransitError,
    SystemConfig,
    Trajectory,
    TransitTrace,
    degeneracy_scan,
    expected_trace,
    fit_transit,
    log_likelihood,
    reconstruct,
    sample_counts,
    transmission_at,
    x_resolution,
)
from cavity_transit.detector import expected_bin_counts
from cavity_transit.reconstruct import (
    SIGN_RESOLVE_MARGIN,
    _bin_rates,
    _coarse_grid,
    _grid_table,
    _local_model,
    _newton_step,
    _poisson_loglik,
    _transmission,
    minimize,
)

CFG = SystemConfig()
CFG_UNTILTED = SystemConfig(geometry=ModeGeometry(tilt_deg=0.0))
CFG_TEM21 = SystemConfig(mode=ModeIndex(2, 1), geometry=ModeGeometry(tilt_deg=30.0))
DET = DetectorConfig()


def _noiseless_trace(cfg, tr, det, rounded=False):
    trace = expected_trace(cfg, tr, det)
    lam = expected_bin_counts(trace, det)
    counts = np.round(lam).astype(np.int64) if rounded else lam
    return dataclasses.replace(trace, counts=counts)


def test_noiseless_truth_is_grid_maximum():
    truth = FitParams(-16.3, 0.39, 0.0)
    trace = _noiseless_trace(CFG, Trajectory(-16.3, 0.39), DET, rounded=True)
    ll_truth = log_likelihood(CFG, DET, trace, truth)
    w0 = CFG.geometry.w0_um
    for y in np.arange(-3 * w0, 3 * w0 + 1e-9, w0 / 8):
        for v in np.arange(0.25, 0.651, 0.025):
            for tc in np.arange(-6, 7) * 10e-6:
                p = FitParams(float(y), float(v), float(tc))
                if p == truth:
                    continue
                assert log_likelihood(CFG, DET, trace, p) <= ll_truth


def test_noiseless_argmax_invariant_under_flux_scaling():
    # scaling the rate scales every lambda uniformly; with counts set to the
    # rates the grid maximizer must not move
    truth = FitParams(-16.3, 0.39, 0.0)
    w0 = CFG.geometry.w0_um
    grid = [
        FitParams(float(y), 0.39, 0.0)
        for y in np.arange(-3 * w0, 3 * w0 + 1e-9, w0 / 8)
    ]
    for flux in (5e6, 5e7):
        det = DetectorConfig(flux0_cps=flux)
        trace = _noiseless_trace(CFG, Trajectory(-16.3, 0.39), det)
        lls = [log_likelihood(CFG, det, trace, p) for p in grid]
        ll_truth = log_likelihood(CFG, det, trace, truth)
        assert ll_truth >= max(lls)


def test_flat_likelihood_without_light():
    det = DetectorConfig(flux0_cps=0.0, background_cps=100.0)
    trace = expected_trace(CFG, Trajectory(-16.3, 0.39), det)
    trace = sample_counts(trace, det, seed=0)
    lls = {
        log_likelihood(CFG, det, trace, FitParams(y, v, 0.0))
        for y in (-20.0, 0.0, 20.0)
        for v in (0.3, 0.5)
    }
    assert len(lls) == 1


def test_equal_rate_vectors_give_equal_likelihood():
    # untilted geometry is even in y: the mirrored parameters produce the
    # same rate vector, hence the same likelihood
    trace = sample_counts(expected_trace(CFG_UNTILTED, Trajectory(10.0, 0.42), DET), DET, 3)
    a = log_likelihood(CFG_UNTILTED, DET, trace, FitParams(10.0, 0.42, 0.0))
    b = log_likelihood(CFG_UNTILTED, DET, trace, FitParams(-10.0, 0.42, 0.0))
    assert a == b


def test_zero_rate_with_counts_is_minus_infinity():
    det = DetectorConfig(flux0_cps=0.0)
    trace = TransitTrace(
        t=np.arange(12) * 1e-5, expected_T=np.ones(12), counts=np.ones(12, dtype=np.int64)
    )
    assert log_likelihood(CFG, det, trace, FitParams(0.0, 0.42, 0.0)) == -np.inf


def test_log_likelihood_requires_counts():
    trace = expected_trace(CFG, Trajectory(0.0, 0.42), DET)
    with pytest.raises(ValueError):
        log_likelihood(CFG, DET, trace, FitParams(0.0, 0.42, 0.0))


def test_noiseless_fit_recovers_centered_transit():
    trace = _noiseless_trace(CFG, Trajectory(0.0, 0.42), DET)
    fit = fit_transit(CFG, DET, trace, flux0_cps=DET.flux0_cps)
    assert fit.converged
    assert abs(fit.params.y_off_um) <= 1e-3
    assert fit.params.v_mps == pytest.approx(0.42, rel=1e-4)
    assert abs(fit.params.t_c_s) <= 1e-8
    # at y = 0 the mirrored hypothesis is as good: sign must stay unresolved
    assert not fit.sign_resolved


def test_flux_estimate_from_trace_edges():
    from cavity_transit.reconstruct import estimate_flux0

    trace = sample_counts(expected_trace(CFG, Trajectory(-16.3, 0.39), DET), DET, 11)
    flux_hat = estimate_flux0(trace)
    assert flux_hat == pytest.approx(DET.flux0_cps, rel=0.1)


def test_fit_handles_background_rate():
    # the baseline rate seen in the trace includes the background; the flux
    # estimate must not count it twice
    det = DetectorConfig(background_cps=1e6)
    truth = Trajectory(-16.3, 0.39)
    trace = sample_counts(expected_trace(CFG, truth, det), det, 21)
    from cavity_transit.reconstruct import estimate_flux0

    assert estimate_flux0(trace, det.background_cps) == pytest.approx(det.flux0_cps, rel=0.1)
    fit = fit_transit(CFG, det, trace)
    assert fit.converged
    assert abs(fit.params.y_off_um - (-16.3)) < 2.0
    assert abs(fit.params.v_mps - 0.39) < 0.03


def test_flux_estimate_masks_the_dip_padded_by_three_bins():
    # reference: the bins whose smoothed counts fall below 75% of the median,
    # each widened to three bins on either side one at a time
    from cavity_transit.reconstruct import _smooth3, estimate_flux0

    rng = np.random.default_rng(4)
    for background in (0.0, 2e5, 1e6):
        det = DetectorConfig(background_cps=background)
        for _ in range(20):
            y, v, z = rng.uniform(-40.0, 40.0), rng.uniform(0.3, 0.6), rng.uniform(0.0, 200.0)
            tr = Trajectory(y, v, z_pos_nm=z)
            trace = sample_counts(expected_trace(CFG, tr, det), det, int(rng.integers(2**31)))
            k = trace.counts.astype(float)
            padded = np.zeros(len(k), dtype=bool)
            for i in np.where(_smooth3(k) < 0.75 * np.median(k))[0]:
                padded[max(0, i - 3) : i + 4] = True
            if np.all(padded):
                with pytest.raises(NoTransitError):
                    estimate_flux0(trace, background)
                continue
            rate = float(np.mean(k[~padded])) / float(np.median(np.diff(trace.t)))
            assert estimate_flux0(trace, background) == max(rate - background, 0.0)


def test_fit_requires_enough_bins():
    trace = TransitTrace(
        t=np.arange(5) * 1e-5, expected_T=np.ones(5), counts=np.full(5, 50, dtype=np.int64)
    )
    with pytest.raises(ValueError, match="10 bins"):
        fit_transit(CFG, DET, trace)


def test_fit_rejects_dipless_trace():
    rng = np.random.default_rng(0)
    trace = TransitTrace(
        t=np.arange(50) * 1e-5,
        expected_T=np.ones(50),
        counts=rng.poisson(50.0, 50).astype(np.int64),
    )
    with pytest.raises(NoTransitError):
        fit_transit(CFG, DET, trace)


def _without_bins(trace, idx):
    keep = np.setdiff1d(np.arange(len(trace)), idx)
    return TransitTrace(trace.t[keep], trace.expected_T[keep], trace.counts[keep])


def _with_time(trace, i, value):
    t = trace.t.copy()
    t[i] = value
    return dataclasses.replace(trace, t=t)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda tr: _without_bins(tr, [20, 21, 22]), "bin 20: time step .* differs from the median step"),
        (lambda tr: _with_time(tr, 7, np.nan), "bin 7: time nan is not finite"),
        (lambda tr: _with_time(tr, 30, tr.t[29]), "bin 30: time .* does not follow"),
    ],
    ids=["gap", "nan", "repeat"],
)
def test_fit_rejects_non_uniform_time_axis(edit, message):
    # the grid scores every t_c shift on one table of whole-bin offsets, so an
    # in-memory trace must meet the time-axis rule of read_trace_csv
    trace = sample_counts(expected_trace(CFG, Trajectory(-16.3, 0.39), DET), DET, 0)
    with pytest.raises(ValueError, match=f"time axis at {message}"):
        fit_transit(CFG, DET, edit(trace))


@pytest.mark.parametrize(
    "cfg, det, truth",
    [
        (CFG, DetectorConfig(background_cps=2e5), Trajectory(-16.3, 0.39, t_c_s=0.0123456)),
        (CFG_UNTILTED, DET, Trajectory(10.0, 0.42)),
        (SystemConfig(mode=ModeIndex(2, 1), geometry=ModeGeometry(tilt_deg=30.0)), DET, Trajectory(5.0, 0.45)),
        # the crossing lies a few bins from the trace start
        (CFG, DetectorConfig(window_us=(-20.0, 480.0)), Trajectory(18.0, 0.42)),
    ],
    ids=["tilted-background", "untilted", "tem21", "crossing-near-start"],
)
def test_coarse_grid_matches_direct_broadcast(cfg, det, truth):
    # the offset table must give the grid of evaluating every (y, v, t_c)
    # hypothesis at the trace's own times, with a t_c candidate at every bin
    trace = sample_counts(expected_trace(cfg, truth, det), det, 4)
    k = trace.counts.astype(float)
    binw_s = float(np.median(np.diff(trace.t)))
    y_grid, v_grid, tc_grid, grid_ll = _coarse_grid(cfg, trace.t, k, det.flux0_cps, det.background_cps, binw_s)
    assert np.array_equal(tc_grid, trace.t)
    lam = _bin_rates(
        cfg,
        trace.t[None, None, None, :],
        y_grid[:, None, None, None],
        v_grid[None, :, None, None],
        tc_grid[None, None, :, None],
        det.flux0_cps,
        det.background_cps,
        binw_s,
    )
    direct = _poisson_loglik(k, lam)
    assert grid_ll.shape == direct.shape == (49, 17, len(trace))
    assert np.argmax(grid_ll) == np.argmax(direct)
    np.testing.assert_allclose(grid_ll, direct, rtol=1e-9, atol=0)


@pytest.fixture
def empty_grid_cache():
    _grid_table.cache_clear()
    yield
    _grid_table.cache_clear()


def test_grid_table_cache_is_keyed_on_config_bin_width_and_bin_count(empty_grid_cache):
    # back to back, each (config, bin width, bin count) must get its own
    # table: every grid equals, bit for bit, the one scored from a direct
    # rate broadcast and direct window sums T @ W(1) of the transmission,
    # and the cached sums equal those direct ones; the fifth key evicts the
    # least recently used table
    det_fine = DetectorConfig(bin_width_us=8.0, window_us=(-200.0, 200.0))
    calls = [
        (CFG, DET),
        (CFG_UNTILTED, DET),
        (CFG_TEM21, DET),
        (CFG, det_fine),
        (CFG, DET),
        (CFG, DetectorConfig(bin_width_us=8.0, window_us=(-160.0, 160.0))),
        (CFG_UNTILTED, DET),
    ]
    tables, sums = [], []
    for cfg, det in calls:
        trace = sample_counts(expected_trace(cfg, Trajectory(-16.3, 0.39), det), det, 0)
        k = trace.counts.astype(float)
        n = len(trace)
        binw_s = float(np.median(np.diff(trace.t)))
        y_grid, v_grid, tc_grid, grid_ll = _coarse_grid(cfg, trace.t, k, det.flux0_cps, 0.0, binw_s)
        offsets = np.arange(1 - n, n) * binw_s
        lam = _bin_rates(cfg, offsets, y_grid[:, None, None], v_grid[None, :, None], 0.0, det.flux0_cps, 0.0, binw_s)
        window = np.lib.stride_tricks.sliding_window_view
        T_sums = _transmission(cfg, offsets, y_grid[:, None, None], v_grid[None, :, None], 0.0) @ window(
            np.pad(np.ones(n), n - 1), n
        )
        direct = np.log(lam) @ window(np.pad(k, n - 1), n) - (det.flux0_cps * binw_s * T_sums + 0.0 * binw_s * n)
        assert np.array_equal(grid_ll, direct)
        table = _grid_table(cfg, binw_s, n)
        assert np.array_equal(table[3], T_sums)
        tables.append(table[2])
        sums.append(table[3])
    assert tables[4] is tables[0] and sums[4] is sums[0]
    assert tables[6] is not tables[1] and np.array_equal(tables[6], tables[1])
    assert sums[6] is not sums[1] and np.array_equal(sums[6], sums[1])
    assert len({id(T) for T in tables}) == len({id(S) for S in sums}) == 6
    assert _grid_table.cache_info().currsize == 4
    for T in tables + sums:
        assert not T.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            T[0, 0, 0] = 0.0


@pytest.mark.parametrize("field", ["delta_pa", "delta_ca"])
@pytest.mark.parametrize("shape", [(2,), (1,)])
def test_fit_rejects_array_detunings(field, shape):
    # the grid's table is cached per configuration, so an array detuning is
    # refused before any grid work, shape (1,) included
    trace = sample_counts(expected_trace(CFG, Trajectory(-16.3, 0.39), DET), DET, 0)
    cfg = dataclasses.replace(CFG, detunings=Detunings(**{field: np.zeros(shape)}))
    with pytest.raises(ValueError, match=rf"detunings\.{field} must be a scalar .* shape \({shape[0]},\)"):
        fit_transit(cfg, DET, trace)


@pytest.mark.parametrize(
    "cfg, det, truth",
    [
        (CFG, DET, Trajectory(-16.3, 0.39)),
        (CFG, DetectorConfig(background_cps=500.0), Trajectory(3.0, 0.45, t_c_s=0.0123456)),
        (CFG_TEM21, DET, Trajectory(-17.0, 0.45)),
    ],
    ids=["reference", "background-500", "tem21"],
)
def test_lockstep_runs_do_not_depend_on_their_batch(monkeypatch, cfg, det, truth):
    trace = sample_counts(expected_trace(cfg, truth, det), det, 0)
    passed = []  # the arguments fit_transit gives minimize
    monkeypatch.setattr(reconstruct, "minimize", lambda *args: passed.append(args) or minimize(*args))
    fit_transit(cfg, det, trace)
    _, t, k, starts, sides, flux0, background, binw = passed[0]
    assert len(starts) == 6

    def runs(rows):
        # minimize over these rows of the fit's runs, each with its trace's data
        return minimize(cfg, t[rows], k[rows], starts[rows], sides[rows], flux0[rows], background, binw[rows])

    # the last start is where the first run ends, so it converges at step 0
    starts[5], sides[5] = runs(slice(0, 1)).x[0], sides[0]
    batch = runs(slice(None))

    real = reconstruct._local_model
    evaluated = []  # (speed, log-likelihood) of each local model of a single run

    def spy(*args):
        out = real(*args)
        evaluated.append((args[-2][0, 1], out[0][0]))
        return out

    monkeypatch.setattr(reconstruct, "_local_model", spy)
    halved = []
    singles = []
    for p in range(len(starts)):
        evaluated.clear()
        single = runs(slice(p, p + 1))
        for field in ("x", "ll", "expected", "h", "converged", "run_nfev"):
            assert np.array_equal(getattr(single, field)[0], getattr(batch, field)[p]), (p, field)
        singles.append(single)
        ll = evaluated[0][1]
        rejected = 0
        for v, trial_ll in evaluated[1:]:
            if v > 0 and trial_ll >= ll:
                ll = trial_ll
            else:
                rejected += 1
        halved.append(rejected > 0)
    assert batch.nfev == sum(single.nfev for single in singles)
    assert any(halved)
    assert batch.run_nfev[5] == 10 and batch.converged[5]


@pytest.mark.parametrize("flux0_cps", [None, DET.flux0_cps], ids=["measured-flux", "known-flux"])
def test_fit_transits_equals_fit_transit_per_trace(monkeypatch, flux0_cps):
    det = DetectorConfig(background_cps=500.0)
    reference = expected_trace(CFG, Trajectory(-16.3, 0.39), DET)
    fine = DetectorConfig(bin_width_us=5.0)  # 100 bins
    traces = [
        _without_bins(sample_counts(reference, DET, 0), [20, 21, 22]),
        sample_counts(expected_trace(CFG, Trajectory(200.0, 0.39), DET), DET, 2),  # no dip
        sample_counts(expected_trace(CFG, Trajectory(3.0, 0.45, t_c_s=0.0123456), det), det, 8),
        *(sample_counts(expected_trace(CFG, Trajectory(y, 0.42), fine), fine, 3) for y in (18.0, -10.0)),
    ]
    # reference traces at two clock origins, more of them than one batch holds
    monkeypatch.setattr(reconstruct, "FIT_BATCH_TRACES", 4)
    for seed in range(3):
        trace = sample_counts(reference, DET, seed)
        traces += [trace, dataclasses.replace(trace, t=trace.t + 0.03)]
    batches = []  # the traces of each minimize call, by bin count
    real = reconstruct.minimize

    def spy(cfg, t, k, *rest):
        batches.append((t.shape[1], len(np.unique(np.hstack([t, k]), axis=0))))
        return real(cfg, t, k, *rest)

    monkeypatch.setattr(reconstruct, "minimize", spy)
    fits = reconstruct.fit_transits(CFG, det, traces, flux0_cps=flux0_cps)
    assert sorted(batches) == [(50, 3), (50, 4), (100, 2)]
    assert len(fits) == len(traces)
    for trace, fit in zip(traces, fits):
        try:
            alone = fit_transit(CFG, det, trace, flux0_cps=flux0_cps)
        except ValueError as exc:
            assert type(fit) is type(exc) and str(fit) == str(exc)
            continue
        assert fit == alone
    assert "time axis at bin 20" in str(fits[0])
    assert isinstance(fits[1], NoTransitError)
    assert all(isinstance(fit, FitResult) for fit in fits[2:])
    assert reconstruct.fit_transits(CFG, det, []) == []


def _lstsq_step(observed, expected, score, held):
    """One run's Newton step solved on its own by np.linalg.lstsq: over
    (v, t_c) alone when the run holds y, with the observed information where
    that block of it is positive definite and the expected one elsewhere."""
    f = int(held)
    info = observed if np.all(np.linalg.eigvalsh(observed[f:, f:]) > 0) else expected
    step = np.zeros(3)
    step[f:] = np.linalg.lstsq(info[f:, f:], score[f:], rcond=None)[0]
    return step


def _step_cases():
    """{name: (observed, expected, score, held)} of single runs."""
    rng = np.random.default_rng(12)

    def spd():
        a = rng.normal(size=(3, 3))
        return a @ a.T + 0.1 * np.eye(3)

    score = np.array([0.7, -1.3, 0.4])
    rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    indefinite = rotation @ np.diag([2.0, 0.5, -0.3]) @ rotation.T
    singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    # y row and column scaled by 1e-9: the y eigenvalue falls under the rank
    # rule's cut, where a plain solve would divide by it
    scale = np.diag([1e-9, 1.0, 1.0])
    near_singular = scale @ spd() @ scale
    cases = {
        "positive-definite": (spd(), spd(), score, False),
        "not-positive-definite": (indefinite, spd(), score, False),
        "held": (spd(), spd(), score, True),
        "held-not-positive-definite": (indefinite, spd(), score, True),
        "singular-expected": (indefinite, singular, score, False),
        "near-singular": (near_singular, near_singular, score, False),
    }
    # a reference trace's local models: at the truth, and at y = 0 on the
    # + side, where the score pushes y across the bound
    trace = sample_counts(expected_trace(CFG, Trajectory(-16.3, 0.39), DET), DET, 0)
    theta = np.array([[-16.3, 0.39, 0.0], [0.0, 0.39, 0.0]])
    binw_s = float(np.median(np.diff(trace.t)))
    _, score, observed, expected, _ = _local_model(
        CFG, trace.t, trace.counts.astype(float), DET.flux0_cps, 0.0, binw_s, theta, np.array([-1.0, 1.0])
    )
    assert score[1, 0] < 0
    cases["reference-trace"] = (observed[0], expected[0], score[0], False)
    cases["reference-trace-held"] = (observed[1], expected[1], score[1], True)
    return cases


@pytest.mark.parametrize("name", list(_step_cases()))
def test_stacked_step_matches_per_run_lstsq(name):
    # the stacked step of each run equals, within 1e-12, the step lstsq gives
    # that run alone, and does not depend on the other runs in the stack
    cases = _step_cases()
    observed, expected, score, held = cases[name]
    reference = _lstsq_step(observed, expected, score, held)
    alone = _newton_step(observed[None], expected[None], score[None], np.array([held]))[0]
    stacked = _newton_step(*(np.array(column) for column in zip(*cases.values())))
    assert np.array_equal(stacked[list(cases).index(name)], alone)
    assert np.linalg.norm(alone - reference) <= 1e-12 * np.linalg.norm(reference)
    if held:
        assert alone[0] == 0.0 and not np.signbit(alone[0])
    if name == "not-positive-definite":
        assert np.min(np.linalg.eigvalsh(observed)) < 0
    if name == "singular-expected":
        # the minimum-norm solution: nothing along the null vector
        assert abs(alone @ [1.0, -1.0, 0.0]) <= 1e-12 * np.linalg.norm(alone)


@pytest.mark.parametrize("flux0_cps", [0.0, -5e6, np.inf])
def test_fit_rejects_non_positive_flux_passed_in(flux0_cps):
    trace = sample_counts(expected_trace(CFG, Trajectory(-16.3, 0.39), DET), DET, 0)
    with pytest.raises(ValueError, match=f"empty-cavity rate must be positive, got {flux0_cps!r}"):
        fit_transit(CFG, DET, trace, flux0_cps=flux0_cps)


def test_fit_rejects_flux_estimated_as_zero():
    # a background above the trace's baseline rate leaves no light from the cavity
    trace = sample_counts(expected_trace(CFG, Trajectory(-16.3, 0.39), DET), DET, 0)
    det = DetectorConfig(background_cps=6e6)
    with pytest.raises(ValueError, match="empty-cavity rate must be positive, got 0.0"):
        fit_transit(CFG, det, trace)


@pytest.mark.parametrize("y_um, v_mps", [(10.0, 0.42), (-16.3, 0.39)])
def test_untilted_mode_leaves_sign_unresolved(y_um, v_mps):
    # the untilted TEM10 mode is even in y, so the refinements on the two
    # sides of y = 0 find mirror images of one trajectory, equally likely
    for seed in range(5):
        trace = sample_counts(expected_trace(CFG_UNTILTED, Trajectory(y_um, v_mps), DET), DET, seed)
        fit = fit_transit(CFG_UNTILTED, DET, trace)
        assert fit.converged
        assert not fit.sign_resolved
        assert abs(fit.log_lik - fit.mirror_log_lik) <= 1e-6


@given(
    mode=st.sampled_from([(1, 0), (1, 1), (2, 1)]),
    # quarter degrees: ModeGeometry's normalization into [-90, 90) keeps
    # them exact, so the two tilts are exact negatives of each other
    tilt=st.one_of(st.integers(-320, -20), st.integers(20, 320)).map(lambda q: q / 4.0),
    y_um=st.floats(-30.0, 30.0),
    v_mps=st.floats(0.3, 0.6),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=10, deadline=None)
def test_tilt_flip_mirrors_the_fit(mode, tilt, y_um, v_mps, seed):
    # rotating the mode by -tilt maps the transmission at (x, y) to that at
    # (x, -y), so the same counts fit the mirrored trajectory; TEM00 is left
    # out, since its y-mirror is exact and the side it picks is arbitrary
    cfg, flipped = (SystemConfig(mode=ModeIndex(*mode), geometry=ModeGeometry(tilt_deg=t)) for t in (tilt, -tilt))
    trace = sample_counts(expected_trace(cfg, Trajectory(y_um, v_mps), DET), DET, seed)
    try:
        a = fit_transit(cfg, DET, trace)
    except NoTransitError:
        assume(False)
    assume(a.log_lik - a.mirror_log_lik >= 1e-6)
    b = fit_transit(flipped, DET, trace)
    assert abs(a.y_off_um + b.y_off_um) <= 1e-8
    assert b.v_mps == pytest.approx(a.v_mps, rel=1e-10, abs=0.0)
    assert abs(b.t_c_s - a.t_c_s) <= 1e-13
    assert abs(b.log_lik - a.log_lik) <= 1e-8
    assert abs(b.mirror_log_lik - a.mirror_log_lik) <= 1e-8


@pytest.mark.parametrize("seed", [18, 59, 87])
def test_flat_floored_dip_fits_true_trajectory(seed):
    # at (-16.3, 0.39) the dark lobe floors about ten bins at zero counts, so
    # the smoothed minimum sits at the start of that plateau, far from t_c;
    # these seeds once converged to a wrong-sign trajectory 60 to 75
    # log-likelihood units below the truth
    truth = FitParams(-16.3, 0.39, 0.0)
    trace = sample_counts(expected_trace(CFG, Trajectory(-16.3, 0.39), DET), DET, seed)
    fit = fit_transit(CFG, DET, trace)
    assert fit.params.y_off_um < 0
    assert abs(fit.params.y_off_um - truth.y_off_um) < 3 * fit.sigma_y_um
    assert fit.log_lik >= log_likelihood(CFG, DET, trace, truth)


@pytest.mark.parametrize("seed", [8, 14])
def test_background_flattened_dip_fits_true_side(seed):
    # at (-5, 0.3) with 1e6 counts/s of background the count deficit is
    # shallow and noisy; these seeds once fit y = +24.6 and 0.0 um because
    # a t_c bracket centred on the deficit left the true crossing out
    det = DetectorConfig(background_cps=1e6)
    trace = sample_counts(expected_trace(CFG, Trajectory(-5.0, 0.3), det), det, seed)
    fit = fit_transit(CFG, det, trace)
    assert fit.params.y_off_um < 0
    assert abs(fit.params.y_off_um - (-5.0)) < 3 * fit.sigma_y_um


@pytest.mark.parametrize("seed", [9, 11, 14, 17, 20, 24])
def test_background_flattened_dip_leaves_no_local_optimum(seed):
    # at (10, 0.5) with 1e6 counts/s of background these seeds once stopped
    # in a local optimum of the positive side, up to 8.6 log-likelihood
    # units below the best fit and up to 7 sigma off
    det = DetectorConfig(background_cps=1e6)
    truth = FitParams(10.0, 0.5, 0.0)
    trace = sample_counts(expected_trace(CFG, Trajectory(10.0, 0.5), det), det, seed)
    fit = fit_transit(CFG, det, trace)
    assert abs(fit.params.y_off_um - truth.y_off_um) < 3 * fit.sigma_y_um
    assert fit.log_lik >= log_likelihood(CFG, det, trace, truth)


@pytest.mark.parametrize(
    "y_um, v_mps, background_cps, seed",
    [(10.0, 0.5, 1e6, 9), (10.0, 0.5, 1e6, 14), (3.0, 0.45, 500.0, 8), (3.0, 0.45, 500.0, 9)],
)
def test_fit_does_not_depend_on_the_clock_origin(y_um, v_mps, background_cps, seed):
    # the same counts on a time axis shifted by 30 ms must give the same
    # trajectory, with t_c shifted by 30 ms
    det = DetectorConfig(background_cps=background_cps)
    trace = sample_counts(expected_trace(CFG, Trajectory(y_um, v_mps), det), det, seed)
    a = fit_transit(CFG, det, trace)
    b = fit_transit(CFG, det, dataclasses.replace(trace, t=trace.t + 0.03))
    assert abs(b.params.y_off_um - a.params.y_off_um) < 1e-6
    assert abs(b.params.v_mps - a.params.v_mps) < 1e-9
    assert abs(b.params.t_c_s - a.params.t_c_s - 0.03) < 1e-12
    assert abs(b.log_lik - a.log_lik) < 1e-8


def test_refinement_step_cap_leaves_fit_unconverged(monkeypatch):
    from cavity_transit import reconstruct

    monkeypatch.setattr(reconstruct, "MAX_REFINE_STEPS", 1)
    trace = sample_counts(expected_trace(CFG, Trajectory(-16.3, 0.39), DET), DET, 0)
    fit = fit_transit(CFG, DET, trace)
    assert fit.converged is False
    sigmas = (fit.sigma_y_um, fit.sigma_v_mps, fit.sigma_tc_s)
    assert np.all(np.isfinite([*dataclasses.astuple(fit.params), *sigmas]))


def test_sigma_is_inverse_expected_information():
    # sigma is sqrt(diag(I^-1)) for the expected Poisson information
    # I = sum dlam dlam^T / lam of (y, v, t_c) at the fitted parameters, with
    # the flux held at the value the fit used; here the rate derivatives come
    # from a five-point stencil of transmission_at along the fitted trajectory
    trace = sample_counts(expected_trace(CFG, Trajectory(-16.3, 0.39), DET), DET, 7)
    fit = fit_transit(CFG, DET, trace, flux0_cps=DET.flux0_cps)
    binw_s = DET.bin_width_us * 1e-6

    def rates(y, v, tc):
        x = v * (trace.t - tc) * 1e6
        return DET.flux0_cps * transmission_at(CFG, LabPoint(x, y, 0.0)) * binw_s

    p = np.array([fit.params.y_off_um, fit.params.v_mps, fit.params.t_c_s])
    steps = 1e-4 * np.array([CFG.geometry.w0_um, p[1], binw_s])
    jac = np.array(
        [
            (8 * (rates(*(p + e)) - rates(*(p - e))) - rates(*(p + 2 * e)) + rates(*(p - 2 * e)))
            / (12 * h)
            for h, e in zip(steps, np.diag(steps))
        ]
    )
    sigma = np.sqrt(np.diag(np.linalg.inv(jac @ (jac / rates(*p)).T)))
    np.testing.assert_allclose([fit.sigma_y_um, fit.sigma_v_mps, fit.sigma_tc_s], sigma, rtol=1e-5)


def test_fisher_sigma_tracks_monte_carlo_spread(mc_study):
    # the Fisher sigma describes the curvature of the true-sign basin; the
    # rare seeds captured by the mirror basin are counted by the
    # sign-resolution statistic instead
    study = mc_study[(-16.3, 0.39)]
    y_hat = study["y_hat"]
    correct_side = y_hat[y_hat < 0]
    assert len(correct_side) >= 90
    mc_std = float(np.std(correct_side, ddof=1))
    mean_sigma = float(np.mean(study["sigma_y"]))
    assert mean_sigma / 2 <= mc_std <= mean_sigma * 2


def test_right_transit_sign_resolution(mc_study):
    assert np.mean(mc_study[(18.0, 0.42)]["sign_resolved"]) >= 0.95


def test_fit_results_are_finite_and_converged(mc_study):
    for key in ((-16.3, 0.39), (0.0, 0.42), (18.0, 0.42)):
        for f in mc_study[key]["fits"]:
            assert f.converged
            assert np.isfinite(f.log_lik)
            assert f.log_lik >= f.mirror_log_lik
            assert f.n_evals > 0


def test_degeneracy_tem00_and_untilted_are_mirror_blind():
    tem00 = SystemConfig(mode=ModeIndex(0, 0), geometry=ModeGeometry(tilt_deg=0.0))
    (rep,) = degeneracy_scan(tem00, Trajectory(10.0, 0.42), ["y-mirror"])
    assert rep.degenerate and rep.sup_diff < 1e-12
    (rep,) = degeneracy_scan(CFG_UNTILTED, Trajectory(10.0, 0.42), ["y-mirror"])
    assert rep.degenerate and rep.sup_diff < 1e-12


def test_degeneracy_tilt_breaks_mirror():
    (rep,) = degeneracy_scan(CFG, Trajectory(10.0, 0.42), ["y-mirror"])
    assert not rep.degenerate
    assert rep.sup_diff > 0.05


def test_antinode_shift_is_always_degenerate():
    configs = [
        CFG,
        CFG_UNTILTED,
        SystemConfig(mode=ModeIndex(0, 0)),
        SystemConfig(geometry=ModeGeometry(tilt_deg=-30.0)),
    ]
    for cfg in configs:
        for tr in (Trajectory(0.0, 0.42), Trajectory(10.0, 0.39, z_pos_nm=80.0)):
            (rep,) = degeneracy_scan(cfg, tr, ["z-antinode-shift"])
            assert rep.degenerate and rep.sup_diff < 1e-12


def test_z_mirror_is_degenerate():
    (rep,) = degeneracy_scan(CFG, Trajectory(5.0, 0.42, z_pos_nm=120.0), ["z-mirror"])
    assert rep.degenerate and rep.sup_diff < 1e-12


def test_unknown_transform_rejected():
    with pytest.raises(ValueError, match="unknown transform"):
        degeneracy_scan(CFG, Trajectory(0.0, 0.42), ["x-mirror"])


def test_near_node_confound():
    # a transit near the axial node looks like an off-axis transit through
    # the antinode: their expected traces differ by far less than the
    # per-bin counting noise
    near_node = expected_trace(CFG_UNTILTED, Trajectory(0.0, 0.42, z_pos_nm=200.0), DET)
    off_axis = expected_trace(CFG_UNTILTED, Trajectory(36.5, 0.42), DET)
    sup = float(np.max(np.abs(near_node.expected_T - off_axis.expected_T)))
    assert sup == pytest.approx(0.0070305193834930835, rel=1e-9)
    lam0 = DET.flux0_cps * DET.bin_width_us * 1e-6
    sigma_T_at_dip = np.sqrt(float(near_node.expected_T.min()) / lam0)
    assert sup < sigma_T_at_dip


def test_x_resolution():
    assert x_resolution(0.56, DET) == pytest.approx(5.6, rel=1e-12)
    assert x_resolution(0.42, DET) == pytest.approx(4.2, rel=1e-12)
    assert x_resolution(0.42, DetectorConfig(bin_width_us=0.01)) < 0.005
    with pytest.raises(ValueError):
        x_resolution(0.0, DET)


@pytest.mark.parametrize("margin, resolved", [(10.0, False), (10.5, True), (-20.0, False)])
def test_sign_resolved_is_strictly_above_the_margin(margin, resolved):
    fit = FitResult(1.0, 0.4, 0.0, 0.1, 0.005, 1e-6, -100.0, -100.0 - margin, True, 1)
    # criterion 6 and the right-transit test count sign_resolved, so a lower
    # margin would loosen them
    assert SIGN_RESOLVE_MARGIN == 10.0
    assert fit.sign_resolved is resolved
    assert fit.params == FitParams(1.0, 0.4, 0.0)


def test_fit_result_json_round_trip(tmp_path):
    from cavity_transit.fileio import read_fit_json, write_fit_json

    result = FitResult(
        y_off_um=-16.3,
        v_mps=0.39,
        t_c_s=1e-4,
        sigma_y_um=0.4,
        sigma_v_mps=0.005,
        sigma_tc_s=1e-6,
        log_lik=-120.5,
        mirror_log_lik=-170.25,
        converged=True,
        n_evals=12345,
    )
    path = tmp_path / "fit.json"
    write_fit_json(path, result)
    data = json.loads(path.read_text())
    assert list(data) == [
        "y_off_um",
        "v_mps",
        "t_c_s",
        "sigma_y_um",
        "sigma_v_mps",
        "sigma_tc_s",
        "log_lik",
        "mirror_log_lik",
        "converged",
        "n_evals",
    ]
    assert read_fit_json(path) == result
