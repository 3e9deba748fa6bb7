#!/usr/bin/env python3
"""Monte Carlo calibration of fit precision versus detected flux.

For each empty-cavity count rate, simulates Poisson transits at the
reference trajectory and reports the median recovery errors and the mean
sigma the fitter reports (from the inverse expected Poisson information at
the fit), showing how the off-axis precision approaches the 0.1 um
scale as the flux grows.

Usage: python scripts/run_fit_calibration.py [n_seeds]
"""

import sys

import numpy as np

from cavity_transit import (
    DetectorConfig,
    SystemConfig,
    Trajectory,
    expected_trace,
    fit_transits,
    sample_counts,
)

FLUXES = (2e6, 5e6, 2e7, 1e8)
TRUTH = (-16.3, 0.39)


def main():
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    cfg = SystemConfig()
    y, v = TRUTH
    truth = Trajectory(y, v)
    print(f"trajectory y = {y} um, v = {v} m/s, {n_seeds} seeds per flux")
    print(f"{'flux0 (cps)':>12} {'lam0/bin':>9} {'med |ey| um':>12} {'med |ev| m/s':>13} {'mean sigma_y':>13}")
    for flux in FLUXES:
        det = DetectorConfig(flux0_cps=flux)
        clean = expected_trace(cfg, truth, det)
        fits = fit_transits(cfg, det, [sample_counts(clean, det, seed) for seed in range(n_seeds)])
        for fit in fits:
            if isinstance(fit, ValueError):
                raise fit
        err_y = [abs(fit.params.y_off_um - y) for fit in fits]
        err_v = [abs(fit.params.v_mps - v) for fit in fits]
        sig_y = [fit.sigma_y_um for fit in fits]
        lam0 = flux * det.bin_width_us * 1e-6
        print(
            f"{flux:12.0e} {lam0:9.0f} {np.median(err_y):12.3f} "
            f"{np.median(err_v):13.4f} {np.nanmean(sig_y):13.3f}"
        )


if __name__ == "__main__":
    main()
