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
candidate is scored on a window of that table.  The six Newton runs advance
together, one rate call per iteration for every run still going.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache, partial

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
REFINE_TOL = 1e-9  # log-likelihood units a Newton step must be predicted to gain
SIGN_RESOLVE_MARGIN = 10.0  # log-likelihood units by which the mirror must lose

DIP_DEPTH_MIN = 0.5  # fraction of baseline the smoothed minimum must fall below

DEGENERACY_TOL = 1e-6  # sup-norm transmission difference of a degenerate transform

# Finite-difference step of the local rate model, as a fraction of (w0,
# speed, bin width); sigma moves by under 1e-6 relative from 1e-7 to 1e-4.
_INFO_STEP = 1e-5
_PAIRS = ((0, 1), (0, 2), (1, 2))
# The local model's 10 hypotheses are theta + _OFFSETS * h: theta, theta +- h_i
# and theta + h_i + h_j for each pair (i, j).
_OFFSETS = np.concatenate([np.zeros((1, 3)), np.eye(3), -np.eye(3), [np.eye(3)[i] + np.eye(3)[j] for i, j in _PAIRS]])


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
    lam = _bin_rates(
        cfg, trace.t, p.y_off_um, p.v_mps, p.t_c_s, det.flux0_cps, det.background_cps, binw_s
    )
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


@lru_cache(maxsize=4)
def _grid_table(cfg: SystemConfig, binw_s: float, n: int):
    """(y_grid, v_grid, T): the grid's axes and its transmission at every
    (y, v, bin offset -(n-1)..n-1), read-only.  T depends on the trace only
    through its bin width and bin count, so one table serves every trace
    of that shape."""
    # whole multiples of the step: y = 0 is exact, so a refinement started
    # there sits on the side bound, where it can hold y
    n_y = round(Y_HALFWIDTH_WAISTS / Y_STEP_WAISTS)
    y_grid = np.arange(-n_y, n_y + 1) * (Y_STEP_WAISTS * cfg.geometry.w0_um)
    v_lo, v_hi, v_step = V_GRID_MPS
    v_grid = np.arange(v_lo, v_hi + 1e-9, v_step)
    offsets = np.arange(1 - n, n) * binw_s
    T = _transmission(cfg, offsets, y_grid[:, None, None], v_grid[None, :, None], 0.0)
    for a in (y_grid, v_grid, T):
        a.flags.writeable = False
    return y_grid, v_grid, T


def _coarse_grid(cfg, t, k, flux0_cps, background_cps, binw_s):
    """(y_grid, v_grid, tc_grid, grid log-likelihood of shape (y, v, t_c)).

    Candidate c, t_c = t[c], puts bin j at t_j - t_c = (j - c) binw_s, so the
    rates are those of `_grid_table`'s offsets and, with W(x)[m, c] =
    x[m + c - (n-1)] (zero outside x), candidate c scores
    sum_m ln lam[m] W(k)[m, c] - lam[m] W(1)[m, c].
    """
    n = len(t)
    y_grid, v_grid, T = _grid_table(cfg, binw_s, n)
    lam = (flux0_cps * T + background_cps) * binw_s  # `_bin_rates`' arithmetic

    def window(x):
        # contiguous: numpy copies a strided operand before its BLAS product
        # anyway, and more slowly
        return np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(np.pad(x, n - 1), n))

    return y_grid, v_grid, t, np.log(lam) @ window(k) - lam @ window(np.ones(n))


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
    other side.
    """
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
    n_evals = grid_ll.size

    starts, sides = [], []
    for sign in (1.0, -1.0):
        side_ll = np.where((sign * y_grid >= 0)[:, None, None], grid_ll, -np.inf)
        i, j, l = np.unravel_index(int(np.argmax(side_ll)), grid_ll.shape)
        for m in (l - 1, l, l + 1):
            if 0 <= m < len(t):
                starts.append((y_grid[i], v_grid[j], tc_grid[m]))
                sides.append(sign)
    sides = np.array(sides)
    runs = minimize(cfg, t, k, np.array(starts), sides, flux0_cps, det.background_cps, binw_s)
    n_evals += runs.nfev
    side_best = [max(np.flatnonzero(sides == sign), key=lambda r: runs.ll[r]) for sign in (1.0, -1.0)]
    best, mirror = sorted(side_best, key=lambda r: -runs.ll[r])

    # sigma = sqrt(diag(I^-1)) of the winning run's last expected information,
    # NaN for a non-positive diagonal entry or a singular I
    try:
        diag = np.diag(np.linalg.inv(runs.expected[best]))
        sigma = np.where(diag > 0, np.abs(runs.h[best]) * np.sqrt(np.abs(diag)), np.nan)
    except np.linalg.LinAlgError:
        sigma = np.full(3, np.nan)
    ln_fact = _ln_factorial_sum(k)
    return FitResult(
        *(float(v) for v in runs.x[best]),
        sigma_y_um=float(sigma[0]),
        sigma_v_mps=float(sigma[1]),
        sigma_tc_s=float(sigma[2]),
        log_lik=float(runs.ll[best] - ln_fact),
        mirror_log_lik=float(runs.ll[mirror] - ln_fact),
        converged=bool(runs.converged[best]),
        n_evals=int(n_evals),
    )


def _local_model(cfg, t, k, flux0_cps, background_cps, binw_s, theta, sides):
    """(ll, score, observed, expected, h) of each row of theta = (y, v, t_c),
    held to the side in sides: sum(k ln lam - lam), its gradient and the
    observed and expected information, all per step h = _INFO_STEP * (side *
    w0, v, bin width), and h.  One rate call covers, per row, the 10
    hypotheses theta, theta +- h_i and theta + h_i + h_j (i < j), which give
    the rates' central first and second differences.  h_y points into the
    side, so mirror-image runs do the same arithmetic.  Each row's numbers do
    not depend on the other rows."""
    h = _INFO_STEP * np.stack([sides * cfg.geometry.w0_um, theta[:, 1], np.full(len(theta), binw_s)], axis=1)
    hyp = theta[:, None] + _OFFSETS * h[:, None]
    lam = _bin_rates(cfg, t, *hyp.transpose(2, 0, 1)[..., None], flux0_cps, background_cps, binw_s)
    lam0, plus, minus = lam[:, 0], lam[:, 1:4], lam[:, 4:7]
    d2 = np.empty((len(theta), 3, 3, len(t)))
    d2[:, [0, 1, 2], [0, 1, 2]] = plus - 2.0 * lam0[:, None] + minus
    for p, (i, j) in enumerate(_PAIRS):
        d2[:, i, j] = d2[:, j, i] = lam[:, 7 + p] - plus[:, i] - plus[:, j] + lam0
    jac = (plus - minus) / 2.0
    jac_t = np.swapaxes(jac, -1, -2)
    resid = k / lam0 - 1.0
    observed = (jac * (k / lam0**2)[:, None]) @ jac_t - (d2 @ resid[:, None, :, None])[..., 0]
    score = (jac @ resid[..., None])[..., 0]
    return _poisson_loglik(k, lam0), score, observed, (jac / lam0[:, None]) @ jac_t, h


@dataclass(frozen=True)
class Refinement:
    """Ends of the Newton runs of one `minimize` call, one row per run: the
    (y, v, t_c), its log-likelihood without ln k!, the expected information
    of the run's last local model and that model's step h, whether the run
    converged and the number of rate hypotheses it evaluated."""

    x: np.ndarray
    ll: np.ndarray
    expected: np.ndarray
    h: np.ndarray
    converged: np.ndarray
    run_nfev: np.ndarray

    @property
    def nfev(self) -> int:
        """Rate hypotheses evaluated by all runs, 10 per local model."""
        return int(self.run_nfev.sum())


def minimize(cfg, t, k, thetas, sides, flux0_cps, background_cps, binw_s) -> Refinement:
    """Newton ascents of sum(k ln lam - lam), one from each row of thetas =
    (y, v, t_c), with sign(y) held to that run's entry of sides (named for
    the benchmark's tracer, which wraps it).

    A step solves I step = score by least squares, with I the observed
    information of `_local_model`, or the expected one, J diag(1/lam) J^T,
    where the observed one is not positive definite.  At y = 0, while the
    score points across the bound, y is held; a trial's y is clipped to the
    side.  A step is halved until the log-likelihood does not fall at a
    positive speed.  A run has converged once a step is predicted to gain
    under REFINE_TOL, and stops unconverged after MAX_REFINE_STEPS steps.
    The runs advance in lockstep: each iteration evaluates the trials of
    every run still going in one rate call, and each run's path is the one
    it takes alone.
    """
    theta = np.array(thetas, dtype=float)
    sides = np.asarray(sides, dtype=float)
    model = partial(_local_model, cfg, t, k, flux0_cps, background_cps, binw_s)
    ll, score, observed, expected, h = model(theta, sides)
    run_nfev = np.full(len(theta), 10)
    converged = np.zeros(len(theta), dtype=bool)
    n_steps = np.zeros(len(theta), dtype=int)
    step = np.zeros_like(theta)
    gain = np.zeros(len(theta))

    def plan(rows):
        """Set the Newton step of each run in rows from its local model and
        return the runs whose step is predicted to gain at least REFINE_TOL."""
        # the step's block starts at v (f = 1) while a run sits at y = 0 and
        # the score points across the bound
        first = {r: int(theta[r, 0] == 0 and not score[r, 0] > 0) for r in rows}
        positive = {}
        for f in set(first.values()):
            group = [r for r in rows if first[r] == f]
            eig = np.linalg.eigvalsh(observed[group, f:, f:])
            positive.update(zip(group, np.all(eig > 0, axis=-1)))
        for r in rows:
            f = first[r]
            info = observed[r] if positive[r] else expected[r]
            step[r] = 0.0
            step[r, f:] = np.linalg.lstsq(info[f:, f:], score[r, f:], rcond=None)[0]
            gain[r] = 0.5 * score[r] @ step[r]
            converged[r] = not gain[r] >= REFINE_TOL
        return rows[~converged[rows]]

    live = plan(np.arange(len(theta))) if MAX_REFINE_STEPS > 0 else np.arange(0)
    while live.size:
        side = sides[live]
        trial = theta[live] + step[live] * h[live]
        # y clipped to the side; unlike np.maximum, where keeps a -0.0
        bound = side * trial[:, 0]
        trial[:, 0] = side * np.where(0.0 > bound, 0.0, bound)
        at_trial = model(trial, side)
        run_nfev[live] += 10
        ok = (trial[:, 1] > 0) & (at_trial[0] >= ll[live])
        moved, halved = live[ok], live[~ok]
        theta[moved] = trial[ok]
        for state, new in zip((ll, score, observed, expected, h), at_trial):
            state[moved] = new[ok]
        n_steps[moved] += 1
        step[halved] /= 2.0
        gain[halved] /= 2.0
        converged[halved] = ~(gain[halved] >= REFINE_TOL)
        live = np.concatenate([plan(moved[n_steps[moved] < MAX_REFINE_STEPS]), halved[~converged[halved]]])
    return Refinement(theta, ll, expected, h, converged, run_nfev)


_TRANSFORMS = {
    "y-mirror": lambda cfg, tr: replace(tr, y_off_um=-tr.y_off_um),
    "z-antinode-shift": lambda cfg, tr: replace(
        tr, z_pos_nm=tr.z_pos_nm + cfg.geometry.wavelength_nm / 2.0
    ),
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
