#!/usr/bin/env python3
"""Simulate the three reference transits, fit each trace and print a
true-versus-fitted table with the fitter's uncertainties (from the inverse
expected Poisson information at the fit) and the mirror margin.

Usage: python scripts/run_transit_demo.py [seed]
"""

import sys

from cavity_transit import (
    DetectorConfig,
    SystemConfig,
    Trajectory,
    expected_trace,
    fit_transit,
    sample_counts,
    x_resolution,
)


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    cfg = SystemConfig()
    det = DetectorConfig()
    print(f"seed {seed}, flux0 {det.flux0_cps:.0e} cps, bin {det.bin_width_us:g} us")
    header = f"{'true y':>8} {'true v':>7} | {'fit y':>8} {'sigma':>6} {'fit v':>7} {'sigma':>7} {'dloglik':>8} {'res_x':>6}"
    print(header)
    print("-" * len(header))
    for y, v in ((-16.3, 0.39), (0.0, 0.42), (18.0, 0.42)):
        trace = sample_counts(expected_trace(cfg, Trajectory(y, v), det), det, seed)
        fit = fit_transit(cfg, det, trace)
        p = fit.params
        dll = fit.log_lik - fit.mirror_log_lik
        print(
            f"{y:8.1f} {v:7.2f} | {p.y_off_um:8.2f} {fit.sigma_y_um:6.2f} "
            f"{p.v_mps:7.3f} {fit.sigma_v_mps:7.4f} {dll:8.1f} "
            f"{x_resolution(p.v_mps, det):6.2f}"
        )
        if not fit.sign_resolved:
            print("         (mirror hypothesis not excluded: sign unresolved)")


if __name__ == "__main__":
    main()
