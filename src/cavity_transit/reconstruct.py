"""Trajectory recovery from count traces by Poisson maximum likelihood.

The fitter maximizes the exact Poisson log-likelihood of the binned counts
over (y_off, v, t_c) with the axial position held at the antinode (z = 0).
A coarse grid over (y_off, v, t_c) is followed by Newton refinements on
each side of y_off = 0, started at the best grid point on that side and at
its two neighbouring crossing times, and held to that side.  The better side
is the fit; the other is its mirror, and the log-likelihood gap between them
says how decisively the mirror trajectory is excluded.

The grid's t_c candidates are the bin centres, so on the uniform time axis
the fitter requires, its transmission is evaluated once per (y_off, v, bin
offset), cached per (configuration, bin width, bin count), and every
candidate is scored on a window of that table.  The Newton engine refines
the coordinates of the `_COORDINATES` table, each with its step scale and
bound; its six runs advance together, one rate call per iteration for every
run still going.  `fit_transits` fits many traces: each gets its own grid,
and then the runs of all the traces of one bin count advance together.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .detector import DetectorConfig, TransitTrace, _time_axis_fault, expected_trace
from .kinematics import Trajectory
from .modes import LabPoint
from .transmission import SystemConfig, transmission_at

# Coarse-grid layout: y in [-3 w0, 3 w0] step w0/8, v bracketing all plausible
# fall speeds, t_c at every bin centre.
Y_HALFWIDTH_WAISTS = 3.0
Y_STEP_WAISTS = 0.125
V_GRID_MPS = (0.25, 0.65, 0.025)

MAX_REFINE_STEPS = 50
# Traces whose Newton runs share one `minimize` call, at most: a larger batch
# is cut into chunks, so that the stacked local models (`_differences`' rate
# hypotheses per run and bin, and their temporaries) stay a few MB for any directory.
FIT_BATCH_TRACES = 32
REFINE_TOL = 1e-9  # log-likelihood units a Newton step must be predicted to gain
SIGN_RESOLVE_MARGIN = 10.0  # log-likelihood units by which the mirror must lose

DIP_DEPTH_MIN = 0.5  # fraction of baseline the smoothed minimum must fall below

DEGENERACY_TOL = 1e-6  # sup-norm transmission difference of a degenerate transform

# Finite-difference step of the local rate model, as a fraction of each
# coordinate's step scale; sigma moves by under 1e-6 relative from 1e-7 to 1e-4.
_INFO_STEP = 1e-5
# The coordinates the Newton engine refines, one row each: the `_bin_rates`
# argument it sets, its step scale (w0 pointing into the run's side, its own value
# or the bin width) and its bound (held to the run's side of 0, positive, or none).
_COORDINATES = (
    ("y_um", "side w0", "side"),
    ("v_mps", "value", "positive"),
    ("t_c_s", "bin width", None),
)


@lru_cache
def _differences(p):
    """(offsets, J, D2), read-only, of p coordinates: the n = 1 + 2p + p(p-1)/2
    hypotheses theta + offsets * h (theta, theta +- h_i, theta + h_i + h_j for
    i < j) and the coefficients of their rates' central first (p, n) and second (p, p, n) differences."""
    eye, (i, j) = np.eye(p), np.triu_indices(p, 1)
    offsets = np.concatenate([np.zeros((1, p)), eye, -eye, eye[i] + eye[j]])
    rate = np.eye(len(offsets))
    lam0, (plus, minus, pair) = rate[0], np.split(rate[1:], [p, 2 * p])
    d2 = np.empty((p, p, len(offsets)))
    d2[range(p), range(p)] = plus - 2.0 * lam0 + minus
    d2[i, j] = d2[j, i] = pair - plus[i] - plus[j] + lam0
    for a in (offsets, jac := (plus - minus) / 2.0, d2):
        a.flags.writeable = False
    return offsets, jac, d2


class NoTransitError(ValueError):
    """The trace contains no detectable transit dip."""


@dataclass(frozen=True)
class FitParams:
    """Trajectory parameters exposed to the optimizer."""

    y_off_um: float
    v_mps: float
    t_c_s: float


@dataclass(frozen=True)
class FitResult:
    y_off_um: float
    v_mps: float
    t_c_s: float
    sigma_y_um: float
    sigma_v_mps: float
    sigma_tc_s: float
    log_lik: float
    mirror_log_lik: float
    converged: bool
    n_evals: int

    @property
    def params(self) -> FitParams:
        """The fitted (y_off, v, t_c), as `log_likelihood` takes them."""
        return FitParams(self.y_off_um, self.v_mps, self.t_c_s)

    @property
    def sign_resolved(self) -> bool:
        """True when the mirrored hypothesis loses by more than SIGN_RESOLVE_MARGIN."""
        return self.log_lik - self.mirror_log_lik > SIGN_RESOLVE_MARGIN


@dataclass(frozen=True)
class DegeneracyReport:
    """Sup-norm trace difference under one symmetry transform."""

    transform: str
    sup_diff: float
    degenerate: bool


def _transmission(cfg: SystemConfig, t, y_um, v_mps, t_c_s):
    """Transmission at times t along the trajectory (y_um, v_mps, t_c_s), z = 0;
    broadcasts over parameter arrays."""
    return transmission_at(cfg, LabPoint(v_mps * (t - t_c_s) * 1e6, y_um, 0.0))


def _bin_rates(cfg: SystemConfig, t, y_um, v_mps, t_c_s, flux0_cps, background_cps, binw_s):
    """Per-bin Poisson means; broadcasts over parameter arrays.  The formula of
    `detector.expected_bin_counts`, with the bin width taken from the trace's
    time axis rather than from the detector configuration."""
    return (flux0_cps * _transmission(cfg, t, y_um, v_mps, t_c_s) + background_cps) * binw_s


def _poisson_loglik(k, lam):
    """Poisson log-likelihood sum(k ln lam - lam) over the last axis, without
    the ln k! constant; broadcasts over the leading axes of lam.

    Bins with lam = 0 contribute 0 for k = 0 and -inf otherwise.
    """
    if np.all(lam > 0):
        return np.sum(k * np.log(lam) - lam, axis=-1)
    safe = np.where(lam > 0, lam, 1.0)
    terms = np.where(lam > 0, k * np.log(safe) - lam, np.where(k > 0, -np.inf, 0.0))
    return np.sum(terms, axis=-1)


def log_likelihood(cfg: SystemConfig, det: DetectorConfig, trace: TransitTrace, p: FitParams) -> float:
    """Exact Poisson log-likelihood, ln k! included, of the counts under trajectory p."""
    if trace.counts is None:
        raise ValueError("trace has no counts to fit")
    binw_s = _trace_bin_width(trace)
    lam = _bin_rates(cfg, trace.t, p.y_off_um, p.v_mps, p.t_c_s, det.flux0_cps, det.background_cps, binw_s)
    return float(_poisson_loglik(trace.counts, lam) - _ln_factorial_sum(trace.counts))


def _ln_factorial_sum(k) -> float:
    return sum(math.lgamma(x + 1.0) for x in np.asarray(k, dtype=float))


def _trace_bin_width(trace: TransitTrace) -> float:
    return float(np.median(np.diff(trace.t)))


def _smooth3(k):
    return np.convolve(np.asarray(k, dtype=float), np.ones(3) / 3.0, mode="same")


def _require_dip(counts) -> None:
    """Raise NoTransitError unless some 3-bin smoothed count falls below
    (1 - DIP_DEPTH_MIN) times the trace median."""
    base = float(np.median(np.asarray(counts, dtype=float)))
    if base <= 0 or np.min(_smooth3(counts)) >= (1.0 - DIP_DEPTH_MIN) * base:
        raise NoTransitError("no transit dip detected in trace")


def estimate_flux0(trace: TransitTrace, background_cps: float = 0.0) -> float:
    """Empty-cavity count rate (counts/s) from the bins outside the dip.

    The dip support is taken where the 3-bin smoothed counts fall below 75%
    of the trace median, padded by three bins on each side.  The baseline
    rate contains the background, which is subtracted so the result is the
    transmission-proportional rate alone.
    """
    k = np.asarray(trace.counts, dtype=float)
    sm = _smooth3(k)
    base0 = float(np.median(k))
    padded = np.convolve(sm < 0.75 * base0, np.ones(7), "same") > 0
    if np.all(padded):
        raise NoTransitError("no empty-cavity bins to estimate flux from")
    baseline_rate = float(np.mean(k[~padded])) / _trace_bin_width(trace)
    return max(baseline_rate - background_cps, 0.0)


def _window(x):
    """W(x) of shape (2n-1, n) for the n values of x, W(x)[m, c] =
    x[m + c - (n-1)], zero outside x: column c lines x up with the table
    offsets of the t_c candidate c."""
    n = len(x)
    # contiguous: numpy copies a strided operand before its BLAS product
    # anyway, and more slowly
    return np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(np.pad(x, n - 1), n))


@lru_cache(maxsize=4)
def _grid_table(cfg: SystemConfig, binw_s: float, n: int):
    """(y_grid, v_grid, T, T @ W(1)): the grid's axes, its transmission at
    every (y, v, bin offset -(n-1)..n-1) and the window sums of that
    transmission for every t_c candidate, read-only.  They depend on the
    trace only through its bin width and bin count, so one table serves
    every trace of that shape."""
    # whole multiples of the step: y = 0 is exact, so a refinement started
    # there sits on the side bound, where it can hold y
    n_y = round(Y_HALFWIDTH_WAISTS / Y_STEP_WAISTS)
    y_grid = np.arange(-n_y, n_y + 1) * (Y_STEP_WAISTS * cfg.geometry.w0_um)
    v_lo, v_hi, v_step = V_GRID_MPS
    v_grid = np.arange(v_lo, v_hi + 1e-9, v_step)
    offsets = np.arange(1 - n, n) * binw_s
    T = _transmission(cfg, offsets, y_grid[:, None, None], v_grid[None, :, None], 0.0)
    T_sums = T @ _window(np.ones(n))
    for a in (y_grid, v_grid, T, T_sums):
        a.flags.writeable = False
    return y_grid, v_grid, T, T_sums


def _coarse_grid(cfg, t, k, flux0_cps, background_cps, binw_s):
    """(y_grid, v_grid, tc_grid, grid log-likelihood of shape (y, v, t_c)).

    Candidate c, t_c = t[c], puts bin j at t_j - t_c = (j - c) binw_s, so the
    rates are those of `_grid_table`'s offsets and, with W(x) of `_window`,
    candidate c scores sum_m ln lam[m] W(k)[m, c] - lam[m] W(1)[m, c].  Every
    column of W(1) sums to n, so the second term is flux0 bw (T @ W(1))[c]
    + B bw n, from the table's cached window sums: one product per fit.
    """
    n = len(t)
    y_grid, v_grid, T, T_sums = _grid_table(cfg, binw_s, n)
    lam = (flux0_cps * T + background_cps) * binw_s  # `_bin_rates`' arithmetic
    grid_ll = np.log(lam) @ _window(k)
    # subtract in place, after the product: computing the sums first and
    # subtracting into a new array made the grid about twice as slow
    # (reference trace, 2-core guest)
    grid_ll -= flux0_cps * binw_s * T_sums + background_cps * binw_s * n
    return y_grid, v_grid, t, grid_ll


def fit_transit(
    cfg: SystemConfig,
    det: DetectorConfig,
    trace: TransitTrace,
    *,
    flux0_cps: float | None = None,
) -> FitResult:
    """Maximum-likelihood trajectory fit of a count trace.

    The empty-cavity rate is measured from the off-dip bins unless passed
    explicitly; it is not a free fit parameter, and a rate that is not
    positive and finite raises ValueError.  So does a detuning that is not a
    scalar: the grid's transmission table is cached per configuration.  A
    trace with no dip (see `_require_dip`) raises NoTransitError.  The
    coarse grid scans y_off over +-Y_HALFWIDTH_WAISTS waists, v over
    V_GRID_MPS (0.25-0.65 m/s) and t_c over every bin centre; a transit
    much faster than the grid's top speed is not recovered, and may be
    reported converged on a wrong y_off.  The grid's rates are evaluated
    once per (y_off, v, bin offset), so the trace's time axis must be
    finite, strictly increasing and uniform, each step within 1e-6 of the
    median step, or ValueError names the first bad bin.  Then, for each
    sign of y_off, Newton runs start at the best grid point of that sign and
    at its two neighbouring crossing times, and are held to that sign
    (y_off = 0 is allowed on both sides); one `minimize` call advances the
    runs of both sides together, and the best run of a side is the side's.
    Returns the parameters of the better side, their uncertainties from the
    inverse expected Poisson information of its best run's last local model
    (flux0 held fixed) and, as mirror_log_lik, the log-likelihood of the
    other side.  This is `fit_transits` of a one-trace batch.
    """
    (fit,) = fit_transits(cfg, det, [trace], flux0_cps=flux0_cps)
    if isinstance(fit, ValueError):
        raise fit
    return fit


def fit_transits(
    cfg: SystemConfig,
    det: DetectorConfig,
    traces,
    *,
    flux0_cps: float | None = None,
) -> list[FitResult | ValueError]:
    """`fit_transit` of each trace, in order: its FitResult, or the
    ValueError (NoTransitError included) `fit_transit` raises for it.

    Each trace gets its own checks, flux estimate, grid and starts.  Then
    the Newton runs of up to FIT_BATCH_TRACES traces of one bin count
    advance in one `minimize` call, each run on its own trace's time axis,
    counts, flux and bin width, so every result equals the trace's
    `fit_transit` bit for bit, and a bad trace stops no other.
    """
    results, by_bins = [], {}
    for trace in traces:
        try:
            results.append(_grid_starts(cfg, det, trace, flux0_cps))
        except ValueError as exc:
            results.append(exc)
            continue
        by_bins.setdefault(len(trace), []).append(len(results) - 1)
    for indices in by_bins.values():
        for first in range(0, len(indices), FIT_BATCH_TRACES):
            chunk = indices[first : first + FIT_BATCH_TRACES]
            for i, fit in zip(chunk, _refine(cfg, det.background_cps, [results[i] for i in chunk])):
                results[i] = fit
    return results


@dataclass(frozen=True)
class _Starts:
    """One trace's data and Newton starts, from its grid: time axis, counts,
    bin width and flux, the starts (y, v, t_c) with their sides, and the
    number of grid hypotheses."""

    t: np.ndarray
    k: np.ndarray
    binw_s: float
    flux0_cps: float
    starts: list
    sides: list
    n_grid: int


def _grid_starts(cfg, det, trace, flux0_cps) -> _Starts:
    """The per-trace stage of a fit: checks, flux and grid (see
    `fit_transit`, whose ValueErrors it raises)."""
    for name in ("delta_pa", "delta_ca"):
        value = getattr(cfg.detunings, name)
        if not isinstance(value, numbers.Real):
            raise ValueError(f"detunings.{name} must be a scalar to fit a trace, got shape {np.shape(value)}")
    if trace.counts is None:
        raise ValueError("trace has no counts to fit")
    if len(trace) < 10:
        raise ValueError(f"need at least 10 bins to fit, got {len(trace)}")
    if fault := _time_axis_fault(trace.t):
        raise ValueError(f"time axis at bin {fault[0]}: {fault[1]}")
    k = np.asarray(trace.counts, dtype=float)
    t = trace.t
    binw_s = _trace_bin_width(trace)
    _require_dip(k)
    if flux0_cps is None:
        flux0_cps = estimate_flux0(trace, det.background_cps)
    if not 0 < flux0_cps < np.inf:
        raise ValueError(f"empty-cavity rate must be positive, got {flux0_cps!r} counts/s")

    y_grid, v_grid, tc_grid, grid_ll = _coarse_grid(cfg, t, k, flux0_cps, det.background_cps, binw_s)
    starts, sides = [], []
    # y_grid is sorted and holds 0 exactly, at row `zero`: the rows from it
    # on are the y >= 0 side, the rows up to it the y <= 0 side
    zero = int(np.searchsorted(y_grid, 0.0))
    for sign, first, side_ll in ((1.0, zero, grid_ll[zero:]), (-1.0, 0, grid_ll[: zero + 1])):
        i, j, l = np.unravel_index(int(np.argmax(side_ll)), side_ll.shape)
        i += first
        for m in (l - 1, l, l + 1):
            if 0 <= m < len(t):
                starts.append((y_grid[i], v_grid[j], tc_grid[m]))
                sides.append(sign)
    return _Starts(t, k, binw_s, flux0_cps, starts, sides, grid_ll.size)


def _refine(cfg, background_cps, traces: list[_Starts]) -> list[FitResult]:
    """The FitResult of each trace, all of one bin count, from one `minimize`
    call over the starts of every trace."""
    n_runs = [len(tr.sides) for tr in traces]
    of_run = np.repeat(np.arange(len(traces)), n_runs)  # each run's trace
    column = lambda field: np.array([getattr(tr, field) for tr in traces])[of_run]
    sides = np.concatenate([tr.sides for tr in traces])
    starts = np.concatenate([tr.starts for tr in traces])
    runs = minimize(cfg, column("t"), column("k"), starts, sides, column("flux0_cps"), background_cps, column("binw_s"))
    fits = []
    for tr, stop in zip(traces, np.cumsum(n_runs)):
        rows = np.arange(stop - len(tr.sides), stop)
        side_best = [max(rows[sides[rows] == sign], key=lambda r: runs.ll[r]) for sign in (1.0, -1.0)]
        best, mirror = sorted(side_best, key=lambda r: -runs.ll[r])
        # sigma = sqrt(diag(I^-1)) of the winning run's last expected
        # information, NaN for a non-positive diagonal entry or a singular I
        try:
            diag = np.diag(np.linalg.inv(runs.expected[best]))
            sigma = np.where(diag > 0, np.abs(runs.h[best]) * np.sqrt(np.abs(diag)), np.nan)
        except np.linalg.LinAlgError:
            sigma = np.full_like(runs.h[best], np.nan)
        ln_fact = _ln_factorial_sum(tr.k)
        fits.append(
            FitResult(
                *map(float, (*runs.x[best], *sigma)),
                log_lik=float(runs.ll[best] - ln_fact),
                mirror_log_lik=float(runs.ll[mirror] - ln_fact),
                converged=bool(runs.converged[best]),
                n_evals=int(tr.n_grid + runs.run_nfev[rows].sum()),
            )
        )
    return fits


def _local_model(cfg, t, k, flux0_cps, background_cps, binw_s, theta, sides):
    """(ll, score, observed, expected, h) of each row of theta, a column per
    `_COORDINATES` row, held to the side in sides: sum(k ln lam - lam), its
    gradient and the observed and expected information, all per step h =
    _INFO_STEP * (each coordinate's step scale), and h.  The time axis t and
    counts k (one row per row of theta, or one for all), the flux and the
    bin width (one per row, or a scalar) are those of each row's trace; a
    flux coordinate replaces the flux.  One rate call covers the hypotheses
    of `_differences` for every row.  A "side w0" step points into the side,
    so mirror-image runs do the same arithmetic.  Rows are independent."""
    offsets, jac_coef, d2_coef = _differences(len(_COORDINATES))
    h = np.empty_like(theta)
    for c, (_, scale, _) in enumerate(_COORDINATES):
        h[:, c] = sides * cfg.geometry.w0_um if scale == "side w0" else theta[:, c] if scale == "value" else binw_s
    h *= _INFO_STEP
    hyp = theta[:, None] + offsets * h[:, None]
    rates = dict(zip(("flux0_cps", "binw_s"), (np.asarray(x)[..., None, None] for x in (flux0_cps, binw_s))))
    rates.update((name, hyp[..., c, None]) for c, (name, _, _) in enumerate(_COORDINATES))
    lam = _bin_rates(cfg, t[..., None, :], background_cps=background_cps, **rates)
    lam0 = lam[:, 0]
    jac = jac_coef @ lam
    jac_t = np.swapaxes(jac, -1, -2)
    resid = k / lam0 - 1.0
    # the differences are linear in the rates, so their residual-weighted sums
    # take one product of the hypotheses' rates with the residual; every product is
    # stacked per row, as one 2-D product over rows can round a row's sums
    # differently in different batches
    lam_resid = lam @ resid[..., None]
    score = (jac_coef @ lam_resid)[..., 0]
    curvature = (d2_coef @ lam_resid[:, None])[..., 0]
    observed = (jac * (k / lam0**2)[:, None]) @ jac_t - curvature
    return _poisson_loglik(k, lam0), score, observed, (jac / lam0[:, None]) @ jac_t, h


def _newton_step(observed, expected, score, held):
    """Least-squares solutions of I step = score, one per row, with I the
    observed information where it is positive definite and the expected one
    elsewhere.  The coordinates a row holds, True in held[row], have their
    rows and columns of I zeroed, so they decouple with eigenvalue 0; the
    row solves over the others and steps exactly 0.0 in each held one.  I is
    eigendecomposed and eigenvalues w with |w| <= eps * (free count) * max|w|
    are dropped, the rank rule of np.linalg.lstsq, so a singular I gives the
    minimum-norm solution.  Each row's step depends on that row alone."""
    free = np.where(held, 0.0, 1.0)
    block = free[:, :, None] * free[:, None, :]
    size = free.sum(axis=-1)
    # the decomposition that tests positive definiteness (every eigenvalue of
    # the block positive; a held coordinate is 0, not positive) is the solve's
    w, vec = np.linalg.eigh(observed * block)
    positive = (w > 0).sum(axis=-1) == size
    if not positive.all():
        w[~positive], vec[~positive] = np.linalg.eigh(expected[~positive] * block[~positive])
    magnitude = np.abs(w)
    keep = magnitude > np.finfo(float).eps * size[:, None] * magnitude.max(axis=-1, keepdims=True)
    # the score's coordinates on the kept eigenvectors over their eigenvalues
    coef = ((score * free)[:, None, :] @ vec) / np.where(keep, w, np.inf)[:, None, :]
    step = (coef @ np.swapaxes(vec, -1, -2))[:, 0]
    step[held] = 0.0
    return step


@dataclass(frozen=True)
class Refinement:
    """Ends of the Newton runs of one `minimize` call, one row per run: the
    point (a column per `_COORDINATES` row), its log-likelihood without ln k!,
    the expected information of the run's last local model and that model's
    step h, whether the run converged and the rate hypotheses it evaluated."""

    x: np.ndarray
    ll: np.ndarray
    expected: np.ndarray
    h: np.ndarray
    converged: np.ndarray
    run_nfev: np.ndarray

    @property
    def nfev(self) -> int:
        """Rate hypotheses evaluated by all runs, 10 per local model for (y, v, t_c)."""
        return int(self.run_nfev.sum())


def minimize(cfg, t, k, thetas, sides, flux0_cps, background_cps, binw_s) -> Refinement:
    """Newton ascents of sum(k ln lam - lam), one from each row of thetas, a
    column per `_COORDINATES` row, each side-bounded one held to that run's
    entry of sides (named for the benchmark's tracer, which wraps it).  Each
    run fits its own trace: t and k hold one time axis and one count row per
    run, and flux0_cps and binw_s one value per run; the background is common.

    A step solves I step = score by least squares (`_newton_step`), with I
    the observed information of `_local_model`, or the expected one,
    J diag(1/lam) J^T, where the observed one is not positive definite.  A
    side-bounded coordinate at 0 is held while its score does not point into
    the side, and a trial's is clipped to the side.  A step is halved until
    the log-likelihood does not fall and every positive-bounded coordinate
    is positive.  A run has converged once a step is predicted to gain under
    REFINE_TOL, and stops unconverged after MAX_REFINE_STEPS steps.  The
    runs advance in lockstep: each iteration evaluates the trials of every
    live run in one rate call and makes one stacked Newton step for all of
    them, which a run whose trial was rejected discards for half its last
    step.  Each run's path is the one it takes alone."""
    theta = np.array(thetas, dtype=float)
    side = np.asarray(sides, dtype=float)
    side_bound, positive = (np.array([c[2] == bound for c in _COORDINATES]) for bound in ("side", "positive"))
    n_hyp = len(_differences(len(_COORDINATES))[0])
    n_runs = len(theta)
    t, k, flux0_cps, binw_s = (np.asarray(x, dtype=float) for x in (t, k, flux0_cps, binw_s))
    # one row per run, for the whole call: its point and local model, step,
    # predicted gain, steps taken, hypotheses evaluated and whether it
    # converged; the runs still going are the rows in live
    ll, score, observed, expected, h = _local_model(cfg, t, k, flux0_cps, background_cps, binw_s, theta, side)
    step, gain = np.zeros_like(theta), np.zeros(n_runs)
    n_steps, nfev = np.zeros(n_runs, dtype=int), np.full(n_runs, n_hyp)
    converged = np.zeros(n_runs, dtype=bool)
    live = np.arange(n_runs)
    # the live runs' inputs, gathered again only when live shrinks
    live_t, live_k, live_flux0, live_binw, live_side = t, k, flux0_cps, binw_s, side
    moved = np.ones(n_runs, dtype=bool)  # the live runs with a new local model
    while True:
        held = side_bound & (theta[live] == 0) & ~(score[live] > 0)
        newton = _newton_step(observed[live], expected[live], score[live], held)
        step[live] = np.where(moved[:, None], newton, step[live] / 2.0)
        gain[live] = np.where(moved, 0.5 * (score[live] * newton).sum(axis=-1), gain[live] / 2.0)
        capped = moved & (n_steps[live] >= MAX_REFINE_STEPS)
        done = capped | ~(gain[live] >= REFINE_TOL)
        if done.any():
            converged[live[done]] = ~capped[done]
            live = live[~done]
            live_t, live_k, live_flux0, live_binw, live_side = (x[live] for x in (t, k, flux0_cps, binw_s, side))
        if not live.size:
            return Refinement(theta, ll, expected, h, converged, nfev)
        trial = theta[live] + step[live] * h[live]
        for c in np.flatnonzero(side_bound):  # unlike np.maximum, where keeps a -0.0
            bound = live_side * trial[:, c]
            trial[:, c] = live_side * np.where(0.0 > bound, 0.0, bound)
        at_trial = _local_model(cfg, live_t, live_k, live_flux0, background_cps, live_binw, trial, live_side)
        nfev[live] += n_hyp
        moved = at_trial[0] >= ll[live]
        for c in np.flatnonzero(positive):
            moved &= trial[:, c] > 0
        accepted = live[moved]
        for state, new in zip((theta, ll, score, observed, expected, h), (trial, *at_trial)):
            state[accepted] = new[moved]
        n_steps[accepted] += 1


_TRANSFORMS = {
    "y-mirror": lambda cfg, tr: replace(tr, y_off_um=-tr.y_off_um),
    "z-antinode-shift": lambda cfg, tr: replace(tr, z_pos_nm=tr.z_pos_nm + cfg.geometry.wavelength_nm / 2.0),
    "z-mirror": lambda cfg, tr: replace(tr, z_pos_nm=-tr.z_pos_nm),
}
KNOWN_TRANSFORMS = tuple(_TRANSFORMS)


def degeneracy_scan(
    cfg: SystemConfig,
    tr: Trajectory,
    transforms,
    det: DetectorConfig | None = None,
) -> list[DegeneracyReport]:
    """Sup-norm expected-trace difference under trajectory symmetry transforms.

    A transform whose sup difference stays below DEGENERACY_TOL leaves the
    trajectory degenerate: the transformed path is indistinguishable from the
    original in the forward model.
    """
    det = det or DetectorConfig()
    base = expected_trace(cfg, tr, det).expected_T
    reports = []
    for label in transforms:
        transform = _TRANSFORMS.get(label)
        if transform is None:
            raise ValueError(f"unknown transform {label!r}; known: {KNOWN_TRANSFORMS}")
        other = transform(cfg, tr)
        sup = float(np.max(np.abs(expected_trace(cfg, other, det).expected_T - base)))
        reports.append(DegeneracyReport(label, sup, sup < DEGENERACY_TOL))
    return reports


def x_resolution(v_mps: float, det: DetectorConfig) -> float:
    """Vertical distance (um) traveled during one counting bin."""
    if v_mps <= 0:
        raise ValueError(f"speed must be positive, got {v_mps}")
    return v_mps * det.bin_width_us
