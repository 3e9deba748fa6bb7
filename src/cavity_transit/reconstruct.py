"""Trajectory recovery from count traces by Poisson maximum likelihood.

The fitter maximizes the exact Poisson log-likelihood of the binned counts
over (y_off, v, t_c) with the axial position held at the antinode (z = 0).
A coarse grid over (y_off, v, t_c) is followed by Newton refinements on
each side of y_off = 0, started at the best grid point on that side and at
its two neighbouring crossing times, and held to that side.  The better side
is the fit; the other is its mirror, and the log-likelihood gap between them
says how decisively the mirror trajectory is excluded.

The grid's t_c candidates are the bin centres, so on the uniform time axis
the fitter requires, its rates are evaluated once per (y_off, v, bin offset)
and every candidate is scored on a window of that table.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import asdict, dataclass, fields, replace

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
SIGN_RESOLVE_MARGIN = 1.0  # log-likelihood units

DIP_DEPTH_MIN = 0.5  # fraction of baseline the smoothed minimum must fall below

DEGENERACY_TOL = 1e-6  # sup-norm transmission difference of a degenerate transform

# Finite-difference step of the local rate model, as a fraction of (w0,
# speed, bin width); sigma moves by under 1e-6 relative from 1e-7 to 1e-4.
_INFO_STEP = 1e-5
_PAIRS = ((0, 1), (0, 2), (1, 2))


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
    params: FitParams
    sigma_y_um: float
    sigma_v_mps: float
    sigma_tc_s: float
    log_lik: float
    mirror_log_lik: float
    converged: bool
    n_evals: int

    @property
    def sign_resolved(self) -> bool:
        """True when the mirrored hypothesis is excluded by a clear margin."""
        return self.log_lik - self.mirror_log_lik >= SIGN_RESOLVE_MARGIN

    def to_dict(self) -> dict:
        """Flat dict: the FitParams fields, then the others, in declaration order."""
        d = asdict(self)
        params = d.pop("params")
        return {**params, **d}

    @classmethod
    def from_dict(cls, d: dict) -> "FitResult":
        params = FitParams(**{f.name: d[f.name] for f in fields(FitParams)})
        return cls(params, **{f.name: d[f.name] for f in fields(cls) if f.name != "params"})


@dataclass(frozen=True)
class DegeneracyReport:
    """Sup-norm trace difference under one symmetry transform."""

    transform: str
    sup_diff: float
    degenerate: bool


def _bin_rates(cfg: SystemConfig, t, y_um, v_mps, t_c_s, flux0_cps, background_cps, binw_s):
    """Per-bin Poisson means; broadcasts over parameter arrays.  The formula of
    `detector.expected_bin_counts`, with the bin width taken from the trace's
    time axis rather than from the detector configuration."""
    x = v_mps * (t - t_c_s) * 1e6
    T = transmission_at(cfg, LabPoint(x, y_um, 0.0))
    return (flux0_cps * T + background_cps) * binw_s


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


def _coarse_grid(cfg, t, k, flux0_cps, background_cps, binw_s):
    """(y_grid, v_grid, tc_grid, grid log-likelihood of shape (y, v, t_c)).

    Candidate c, t_c = t[c], puts bin j at t_j - t_c = (j - c) binw_s, so the
    rates are evaluated once per (y, v, bin offset -(n-1)..n-1) and, with
    W(x)[m, c] = x[m + c - (n-1)] (zero outside x), candidate c scores
    sum_m ln lam[m] W(k)[m, c] - lam[m] W(1)[m, c].
    """
    # whole multiples of the step: y = 0 is exact, so a refinement started
    # there sits on the side bound, where it can hold y
    n_y = round(Y_HALFWIDTH_WAISTS / Y_STEP_WAISTS)
    y_grid = np.arange(-n_y, n_y + 1) * (Y_STEP_WAISTS * cfg.geometry.w0_um)
    v_lo, v_hi, v_step = V_GRID_MPS
    v_grid = np.arange(v_lo, v_hi + 1e-9, v_step)

    n = len(t)
    offsets = np.arange(1 - n, n) * binw_s
    lam = _bin_rates(
        cfg, offsets, y_grid[:, None, None], v_grid[None, :, None], 0.0, flux0_cps, background_cps, binw_s
    )

    def window(x):
        return np.lib.stride_tricks.sliding_window_view(np.pad(x, n - 1), n)

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
    positive and finite raises ValueError.  A trace with no dip (see
    `_require_dip`) raises NoTransitError.  The coarse grid scans y_off
    over +-Y_HALFWIDTH_WAISTS waists, v over V_GRID_MPS and t_c over every
    bin centre.  The grid's rates are evaluated once per (y_off, v, bin
    offset), so the trace's time axis must be finite, strictly increasing
    and uniform, each step within 1e-6 of the median step, or ValueError
    names the first bad bin.  Then, for each sign of y_off, Newton runs
    (`minimize`) start at the best grid point of that sign and at its two
    neighbouring crossing times, and are held to that sign (y_off = 0 is
    allowed on both sides); the best run is the side's.  Returns the
    parameters of the better side, their uncertainties from the inverse
    expected Poisson information of its last local model (flux0 held
    fixed) and, as mirror_log_lik, the log-likelihood of the other side.
    """
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

    sides = []
    for sign in (1.0, -1.0):
        side_ll = np.where((sign * y_grid >= 0)[:, None, None], grid_ll, -np.inf)
        i, j, l = np.unravel_index(int(np.argmax(side_ll)), grid_ll.shape)
        starts = [np.array([y_grid[i], v_grid[j], tc_grid[m]]) for m in (l - 1, l, l + 1) if 0 <= m < len(t)]
        runs = [minimize(cfg, t, k, x0, sign, flux0_cps, det.background_cps, binw_s) for x0 in starts]
        n_evals += sum(run.nfev for run in runs)
        sides.append(max(runs, key=lambda run: run.ll))
    best, mirror = sorted(sides, key=lambda run: -run.ll)

    ln_fact = _ln_factorial_sum(k)
    return FitResult(
        params=FitParams(*(float(v) for v in best.x)),
        sigma_y_um=float(best.sigma[0]),
        sigma_v_mps=float(best.sigma[1]),
        sigma_tc_s=float(best.sigma[2]),
        log_lik=float(best.ll - ln_fact),
        mirror_log_lik=float(mirror.ll - ln_fact),
        converged=best.converged,
        n_evals=int(n_evals),
    )


def _local_rates(cfg, t, theta, side, flux0_cps, background_cps, binw_s):
    """(lam, J, D2, h): the rates at theta = (y, v, t_c), their first and
    second derivatives per step h = _INFO_STEP * (side * w0, v, bin width),
    J of shape (3, n) and D2 of shape (3, 3, n), and h.  One rate call
    covers the 10 hypotheses theta, theta +- h_i and theta + h_i + h_j
    (i < j).  h_y points into the side, so mirror-image runs do the same
    arithmetic."""
    h = _INFO_STEP * np.array([side * cfg.geometry.w0_um, theta[1], binw_s])
    e = np.diag(h)
    hyp = np.concatenate([theta[None], theta + e, theta - e, [theta + e[i] + e[j] for i, j in _PAIRS]])
    lam = _bin_rates(cfg, t, *hyp.T[..., None], flux0_cps, background_cps, binw_s)
    lam0, plus, minus = lam[0], lam[1:4], lam[4:7]
    d2 = np.empty((3, 3, len(t)))
    d2[[0, 1, 2], [0, 1, 2]] = plus - 2.0 * lam0 + minus
    for (i, j), lam_ij in zip(_PAIRS, lam[7:]):
        d2[i, j] = d2[j, i] = lam_ij - plus[i] - plus[j] + lam0
    return lam0, (plus - minus) / 2.0, d2, h


# End of one Newton run: (y, v, t_c), its log-likelihood without ln k!,
# sigma, whether it converged and the number of rate hypotheses evaluated.
Refinement = namedtuple("Refinement", "x ll sigma converged nfev")


def minimize(cfg, t, k, theta, side, flux0_cps, background_cps, binw_s) -> Refinement:
    """Newton ascent of sum(k ln lam - lam) from theta = (y, v, t_c), with
    sign(y) held to side (named for the benchmark's tracer, which wraps it).

    A step solves I step = score by least squares, with I the observed
    information of `_local_rates`, or the expected one, J diag(1/lam) J^T,
    where the observed one is not positive definite.  At y = 0, while the
    score points across the bound, y is held; a trial's y is clipped to the
    side.  A step is halved until the log-likelihood does not fall at a
    positive speed.  Converged once a step is predicted to gain under
    REFINE_TOL; unconverged after MAX_REFINE_STEPS steps.
    """
    nfev = 0

    def model(theta):
        nonlocal nfev
        lam, jac, d2, h = _local_rates(cfg, t, theta, side, flux0_cps, background_cps, binw_s)
        nfev += 10
        resid = k / lam - 1.0
        observed = (jac * (k / lam**2)) @ jac.T - d2 @ resid
        return _poisson_loglik(k, lam), jac @ resid, observed, (jac / lam) @ jac.T, h

    ll, score, observed, expected, h = model(theta)
    converged = False
    for _ in range(MAX_REFINE_STEPS):
        free = np.array([theta[0] != 0 or score[0] > 0, True, True])
        block = np.ix_(free, free)
        info = observed if np.all(np.linalg.eigvalsh(observed[block]) > 0) else expected
        step = np.zeros(3)
        step[free] = np.linalg.lstsq(info[block], score[free], rcond=None)[0]
        gain = 0.5 * score @ step
        while gain >= REFINE_TOL:
            trial = theta + step * h
            trial[0] = side * max(side * trial[0], 0.0)
            at_trial = model(trial)
            if trial[1] > 0 and at_trial[0] >= ll:
                break
            step, gain = step / 2.0, gain / 2.0
        if not gain >= REFINE_TOL:
            converged = True
            break
        theta = trial
        ll, score, observed, expected, h = at_trial
    # sigma = sqrt(diag(I^-1)) of the last expected information, NaN for a
    # non-positive diagonal entry or a singular I
    try:
        diag = np.diag(np.linalg.inv(expected))
        sigma = np.where(diag > 0, np.abs(h) * np.sqrt(np.abs(diag)), np.nan)
    except np.linalg.LinAlgError:
        sigma = np.full(3, np.nan)
    return Refinement(theta, float(ll), sigma, converged, nfev)


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
