#!/usr/bin/env python3
"""Full thermometry run: sample a thermal ensemble, write the V-curve and
the temperature estimate.

Usage: python scripts/run_thermometry.py [outdir] [n_atoms]
"""

import json
import sys
from pathlib import Path

import numpy as np

from cavity_transit import FallConfig, estimate_temperature, sample_ensemble, v_shape_curve
from cavity_transit.config import CESIUM_MASS_KG
from cavity_transit.fileio import write_ensemble_csv, write_temperature_json


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/thermometry")
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000
    outdir.mkdir(parents=True, exist_ok=True)
    fc = FallConfig()
    ensemble = sample_ensemble(fc, 186e-6, CESIUM_MASS_KG, n, seed=42)
    write_ensemble_csv(outdir / "ensemble.csv", ensemble)

    centers, means = v_shape_curve(ensemble, n_bins=64)
    lines = ["t_arr_ms,mean_v_arr_mps"] + [
        f"{c:.17g},{m:.17g}" for c, m in zip(centers, means)
    ]
    (outdir / "v_curve.csv").write_text("\n".join(lines) + "\n")

    est = estimate_temperature(ensemble, fc, CESIUM_MASS_KG)
    write_temperature_json(outdir / "temperature.json", est)
    print(json.dumps(json.loads((outdir / "temperature.json").read_text()), indent=2))
    i_min = int(np.argmin(means))
    print(f"V-curve minimum: {means[i_min]:.4f} m/s at {centers[i_min]:.2f} ms")
    print(f"wrote {outdir}/ensemble.csv, v_curve.csv, temperature.json")


if __name__ == "__main__":
    main()
