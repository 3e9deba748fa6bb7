"""Trajectory recovery from count traces by Poisson maximum likelihood.

The fitter maximizes the exact Poisson log-likelihood of the binned counts
over (y_off, v, t_c) with the axial position held at the antinode (z = 0).
A coarse grid over (y_off, v, t_c) is followed by one Nelder-Mead refinement
per side of y_off = 0, each started at the best grid point on its side and
held to that side.  The better side is the fit; the other is its mirror, and
the log-likelihood gap between them says how decisively the mirror trajectory
is excluded.

The grid's t_c candidates are whole-bin shifts, so on the uniform time axis
the fitter requires, its rates are evaluated once per (y_off, v, bin offset)
and every shift is scored on a window of that table.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln

from .detector import DetectorConfig, TransitTrace, _time_axis_fault, expected_trace
from .kinematics import Trajectory
from .modes import LabPoint
from .transmission import SystemConfig, transmission_at

# Coarse-grid layout: y in [-3 w0, 3 w0] step w0/8, v bracketing all plausible
# fall speeds, t_c scanned in bin-width steps around the dip's deficit centroid.
Y_HALFWIDTH_WAISTS = 3.0
Y_STEP_WAISTS = 0.125
V_GRID_MPS = (0.25, 0.65, 0.025)
TC_HALFWIDTH_BINS = 6

MAX_REFINE_EVALS = 2000
REFINE_REL_TOL = 1e-5
SIGN_RESOLVE_MARGIN = 1.0  # log-likelihood units

DIP_DEPTH_MIN = 0.5  # fraction of baseline the smoothed minimum must fall below

DEGENERACY_TOL = 1e-6  # sup-norm transmission difference of a degenerate transform

# Central-difference step of the rate Jacobian, as a fraction of (w0, fitted
# speed, bin width); sigma moves by under 1e-6 relative from 1e-7 to 1e-4.
_INFO_STEP = 1e-5


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
    return float(_poisson_loglik(trace.counts, lam) - np.sum(gammaln(trace.counts + 1.0)))


def _trace_bin_width(trace: TransitTrace) -> float:
    return float(np.median(np.diff(trace.t)))


def _smooth3(k):
    return np.convolve(np.asarray(k, dtype=float), np.ones(3) / 3.0, mode="same")


def _crossing_index(counts) -> int:
    """Bin nearest the crossing time, the centre of the t_c bracket.

    The crossing is the centroid of the count deficit below the trace median,
    taken over the smoothed bins deeper than the dip threshold.  The two
    TEM10 lobes straddle t_c, and a transit through one dark lobe floors many
    bins at zero counts, so the smoothed minimum alone can sit more than the
    bracket half-width from t_c.  Raises NoTransitError when no bin reaches
    the threshold.
    """
    sm = _smooth3(counts)
    base = float(np.median(np.asarray(counts, dtype=float)))
    floor = (1.0 - DIP_DEPTH_MIN) * base
    if base <= 0 or np.min(sm) >= floor:
        raise NoTransitError("no transit dip detected in trace")
    deficit = np.where(sm < floor, base - sm, 0.0)
    return int(round(np.dot(np.arange(len(sm)), deficit) / np.sum(deficit)))


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


def _coarse_grid(cfg, t, k, i_cross, flux0_cps, background_cps, binw_s):
    """(y_grid, v_grid, tc_grid, grid log-likelihood of shape (y, v, t_c)).

    Shift s of t_c = t[i_cross] + s binw_s puts bin j at t_j - t_c =
    (j - i_cross - s) binw_s, so the rates are evaluated once per (y, v, bin
    offset) and each shift is scored on its length-n window of that table.
    """
    # whole multiples of the step: y = 0 is exact, so a refinement started
    # there gets a first simplex of usable width in y
    n_y = round(Y_HALFWIDTH_WAISTS / Y_STEP_WAISTS)
    y_grid = np.arange(-n_y, n_y + 1) * (Y_STEP_WAISTS * cfg.geometry.w0_um)
    v_lo, v_hi, v_step = V_GRID_MPS
    v_grid = np.arange(v_lo, v_hi + 1e-9, v_step)
    tc_grid = t[i_cross] + np.arange(-TC_HALFWIDTH_BINS, TC_HALFWIDTH_BINS + 1) * binw_s

    n = len(t)
    offsets = np.arange(-i_cross - TC_HALFWIDTH_BINS, n - i_cross + TC_HALFWIDTH_BINS) * binw_s
    lam = _bin_rates(
        cfg, offsets, y_grid[:, None, None], v_grid[None, :, None], 0.0, flux0_cps, background_cps, binw_s
    )
    # window w starts at offset index w, i.e. shift s = TC_HALFWIDTH_BINS - w
    windows = np.lib.stride_tricks.sliding_window_view(lam, n, axis=-1)[..., ::-1, :]
    return y_grid, v_grid, tc_grid, _poisson_loglik(k, windows)


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
    positive raises ValueError.  The coarse grid scans y_off over
    +-Y_HALFWIDTH_WAISTS waists, v over V_GRID_MPS and t_c over
    +-TC_HALFWIDTH_BINS bins around the centroid of the dip's count deficit
    (see `_crossing_index`), which lies between the two lobes even when one
    of them floors many bins at zero counts.  The grid's rates are evaluated
    once per (y_off, v, bin offset), so the trace's time axis must be finite,
    strictly increasing and uniform, each step within 1e-6 of the median
    step, or ValueError names the first bad bin.  Then, for each sign of y_off,
    one Nelder-Mead refinement starts at the best grid point of that sign
    and is held to it (y_off = 0 is allowed on both sides).  Returns the
    parameters of the better side, their uncertainties from the inverse
    expected Poisson information at the fit (flux0 held fixed) and, as
    mirror_log_lik, the log-likelihood of the other side.
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
    i_cross = _crossing_index(k)
    if flux0_cps is None:
        flux0_cps = estimate_flux0(trace, det.background_cps)
    if not flux0_cps > 0:
        raise ValueError(f"empty-cavity rate must be positive, got {flux0_cps!r} counts/s")

    y_grid, v_grid, tc_grid, grid_ll = _coarse_grid(cfg, t, k, i_cross, flux0_cps, det.background_cps, binw_s)
    n_evals = grid_ll.size

    scale = np.array([cfg.geometry.w0_um, 0.1, 5e-5])
    ln_fact = float(np.sum(gammaln(k + 1.0)))

    def neg_ll(u):
        y, v, tc = u * scale
        if v <= 0:
            return 1e300
        lam_u = _bin_rates(cfg, t, y, v, tc, flux0_cps, det.background_cps, binw_s)
        ll = _poisson_loglik(k, lam_u)
        return -ll if np.isfinite(ll) else 1e300

    # one refinement per side of y = 0, started at the best grid point on that
    # side and bounded to it; y = 0 belongs to both sides
    sides = []
    for sign in (1.0, -1.0):
        side_ll = np.where((sign * y_grid >= 0)[:, None, None], grid_ll, -np.inf)
        i, j, l = np.unravel_index(int(np.argmax(side_ll)), grid_ll.shape)
        res = minimize(
            neg_ll,
            np.array([y_grid[i], v_grid[j], tc_grid[l]]) / scale,
            method="Nelder-Mead",
            bounds=[(0.0, None) if sign > 0 else (None, 0.0), (None, None), (None, None)],
            options={"xatol": REFINE_REL_TOL, "fatol": 1e-9, "maxfev": MAX_REFINE_EVALS},
        )
        n_evals += res.nfev
        sides.append(res)
    best, mirror = sorted(sides, key=lambda res: res.fun)

    params = FitParams(*(float(v) for v in best.x * scale))
    log_lik = float(-best.fun - ln_fact)
    mirror_log_lik = float(-mirror.fun - ln_fact)

    sigma, n_info = _expected_info_sigma(cfg, t, best.x * scale, flux0_cps, det.background_cps, binw_s)
    n_evals += n_info

    return FitResult(
        params=params,
        sigma_y_um=float(sigma[0]),
        sigma_v_mps=float(sigma[1]),
        sigma_tc_s=float(sigma[2]),
        log_lik=log_lik,
        mirror_log_lik=mirror_log_lik,
        converged=bool(best.success),
        n_evals=int(n_evals),
    )


def _expected_info_sigma(cfg, t, p_hat, flux0_cps, background_cps, binw_s):
    """(sigma, rate evaluations) for (y, v, t_c), sigma = sqrt(diag(I^-1)) for
    the expected Poisson information I = J diag(1/lam) J^T at the fit; NaN
    for a non-positive diagonal entry or a singular I.  J, the rate Jacobian,
    comes from central differences: one rate evaluation covers the fit and
    its six displaced hypotheses, stacked on a leading axis."""
    h = _INFO_STEP * np.array([cfg.geometry.w0_um, p_hat[1], binw_s])
    theta = p_hat + np.concatenate([np.zeros((1, 3)), np.diag(h), -np.diag(h)])
    lam = _bin_rates(cfg, t, *theta.T[..., None], flux0_cps, background_cps, binw_s)
    jac = (lam[1:4] - lam[4:]) / (2.0 * h[:, None])
    try:
        diag = np.diag(np.linalg.inv((jac / lam[0]) @ jac.T))
        sigma = np.where(diag > 0, np.sqrt(np.abs(diag)), np.nan)
    except np.linalg.LinAlgError:
        sigma = np.full(3, np.nan)
    return sigma, len(theta)


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
