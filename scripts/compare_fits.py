#!/usr/bin/env python3
"""Fit the same simulated transits with two source trees and compare the
FitResults field by field.

Each tree fits in one fresh interpreter that imports `cavity_transit` from
that tree alone.  The transits are the Monte Carlo study of the test suite
(seeds 0-99 at each of the three reference trajectories, tilted TEM10,
5e6 counts/s, no background) plus 25 seeds each of: tilted TEM10 at
(10 um, 0.5 m/s) and (-5 um, 0.3 m/s) with 1e6 counts/s of background, at
(10 um, 0.5 m/s) with the same background and t_c = 0.03 s, and at
(3 um, 0.45 m/s) with 500 counts/s of background and t_c = 0.0123456 s;
untilted TEM10 at (-10 um, 0.4 m/s); and TEM21 tilted by 30 degrees at
(-17 um, 0.45 m/s) and at (13.7 um, 0.58 m/s), the last with 2e5 counts/s
of background and without.  The (13.7 um, 0.58 m/s) runs of one fit end in
different local optima, so those two cases are the sharpest check of a
change to the Newton engine.  A fit that raises ValueError (a dipless
trace, say) is recorded as its error message.

Printed: the number of fits that differ per case, the number that differ in
each field, the largest |difference| of each field, and the lowest
difference B - A of `log_lik` and `mirror_log_lik`.  NaN equals NaN.  For
a change that may move fits in their last digits, it also prints the
largest |difference| of y_off_um, v_mps and t_c_s in units of A's sigma of
that parameter, the largest relative change of each sigma, and the number
of fits whose `converged`, sign verdict (log_lik - mirror_log_lik above
SIGN_MARGIN) or `n_evals` changed.  A fit with sigma_y_um above
Y_UNIDENTIFIED_UM in A or B has no identified y (an untilted mode at
y = 0, say); such fits are listed one by one and left out of the sigma
maxima.  Each case also shows each tree's mean wall time per fit, and the
last line the ratio of the totals.  These times are informational: the
trees run one after the other on a possibly busy host, and the first case
pays each process's one-time costs.  Speed claims rest on
`benchmarks/run.py`.

A tree that has `fit_transits` also fits each case's seeds in one call of
it.  For such a tree each case shows how many of those batched fits differ
from the tree's own per-trace fits, with the batched wall time per fit
beside the per-trace one (informational, as above).

Usage: python scripts/compare_fits.py SRC_A SRC_B

SRC_A and SRC_B are `src` directories (for example the one of this checkout
and the one of an exported parent commit).  Exits 0 when every fit is
equal and no batched fit differs from its tree's per-trace fit, 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

TEM10 = (1, 0)
SIGN_MARGIN = 10.0  # reconstruct.SIGN_RESOLVE_MARGIN
Y_UNIDENTIFIED_UM = 1e3
PARAM_SIGMA = {"y_off_um": "sigma_y_um", "v_mps": "sigma_v_mps", "t_c_s": "sigma_tc_s"}

# (label, mode (m, n), tilt_deg, y_um, v_mps, t_c_s, background_cps, seeds)
CASES = [
    *[(f"mc ({y}, {v})", TEM10, 45.0, y, v, 0.0, 0.0, 100) for y, v in ((-16.3, 0.39), (0.0, 0.42), (18.0, 0.42))],
    ("bg 1e6 (10, 0.5)", TEM10, 45.0, 10.0, 0.5, 0.0, 1e6, 25),
    ("bg 1e6 (-5, 0.3)", TEM10, 45.0, -5.0, 0.3, 0.0, 1e6, 25),
    ("bg 1e6 (10, 0.5) t_c 0.03", TEM10, 45.0, 10.0, 0.5, 0.03, 1e6, 25),
    ("bg 500 (3, 0.45) t_c", TEM10, 45.0, 3.0, 0.45, 0.0123456, 500.0, 25),
    ("untilted (-10, 0.4)", TEM10, 0.0, -10.0, 0.4, 0.0, 0.0, 25),
    ("TEM21 30 deg (-17, 0.45)", (2, 1), 30.0, -17.0, 0.45, 0.0, 0.0, 25),
    ("TEM21 30 deg (13.7, 0.58)", (2, 1), 30.0, 13.7, 0.58, 0.0, 0.0, 25),
    ("TEM21 30 deg bg 2e5 (13.7, 0.58)", (2, 1), 30.0, 13.7, 0.58, 0.0, 2e5, 25),
]

# Runs inside the fresh interpreter: argv is (src,); prints one JSON object:
# "fits" holds one list per case, each item a FitResult dict or an error
# string, and "seconds" the wall time of each case's fit_transit calls;
# "batched" and "batched_seconds" hold the same for one fit_transits call
# per case, or are null for a tree without fit_transits.
DRIVER = """
import dataclasses, json, sys, time
sys.path.insert(0, sys.argv[1])
import cavity_transit
from cavity_transit import (
    DetectorConfig, ModeGeometry, ModeIndex, SystemConfig, Trajectory, expected_trace, fit_transit, sample_counts
)
fit_transits = getattr(cavity_transit, "fit_transits", None)

def record(fit):
    if isinstance(fit, ValueError):
        return f"{type(fit).__name__}: {fit}"
    # a tree whose FitResult nests its parameters flattens them in to_dict
    return fit.to_dict() if hasattr(fit, "to_dict") else dataclasses.asdict(fit)

out, seconds, batched, batched_seconds = [], [], [], []
for label, mode, tilt, y, v, t_c, background, seeds in CASES:
    cfg = SystemConfig(mode=ModeIndex(*mode), geometry=ModeGeometry(tilt_deg=tilt))
    det = DetectorConfig(background_cps=background)
    clean = expected_trace(cfg, Trajectory(y, v, t_c_s=t_c), det)
    traces = [sample_counts(clean, det, seed) for seed in range(seeds)]
    fits = []
    seconds.append(0.0)
    for trace in traces:
        start = time.perf_counter()
        try:
            fit = fit_transit(cfg, det, trace)
        except ValueError as exc:
            fit = exc
        seconds[-1] += time.perf_counter() - start
        fits.append(record(fit))
    out.append(fits)
    if fit_transits is not None:
        start = time.perf_counter()
        batch = fit_transits(cfg, det, traces)
        batched_seconds.append(time.perf_counter() - start)
        batched.append([record(fit) for fit in batch])
if fit_transits is None:
    batched = batched_seconds = None
print(json.dumps({"fits": out, "seconds": seconds, "batched": batched, "batched_seconds": batched_seconds}))
"""


def run_tree(src: Path) -> dict:
    code = f"CASES = {CASES!r}\n" + DRIVER
    proc = subprocess.run([sys.executable, "-c", code, str(src)], check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _same(x, y) -> bool:
    return x == y or (isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y))


def _delta(x, y) -> float:
    if _same(x, y):
        return 0.0
    return abs(y - x) if math.isfinite(x) and math.isfinite(y) else math.inf


def _ratio(delta: float, scale: float) -> float:
    """delta / scale; 0 for no delta, inf for a scale that is not positive and finite."""
    if delta == 0.0:
        return 0.0
    return delta / scale if 0.0 < scale < math.inf else math.inf


def _same_fit(a, b) -> bool:
    """Two fits (dicts) or error strings equal, NaN equal to NaN."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)


def compare(run_a: dict, run_b: dict) -> int:
    n_fits = n_diff = 0
    worst: dict[str, float] = {}
    per_field: dict[str, int] = {}
    low = {"log_lik": math.inf, "mirror_log_lik": math.inf}
    in_sigma = dict.fromkeys(PARAM_SIGMA, 0.0)
    sigma_rel = dict.fromkeys(PARAM_SIGMA.values(), 0.0)
    changed = {"converged": 0, "sign verdict": 0, "n_evals": 0}
    unidentified = []
    batch_diff = {"A": [], "B": []}  # per case, for a tree with fit_transits
    cases = zip(CASES, run_a["fits"], run_b["fits"], run_a["seconds"], run_b["seconds"])
    for (label, *_), fits_a, fits_b, s_a, s_b in cases:
        differ = 0
        for seed, (a, b) in enumerate(zip(fits_a, fits_b)):
            n_fits += 1
            if isinstance(a, str) or isinstance(b, str):
                if a != b:
                    differ += 1
                    print(f"  {label}: A {a!r}, B {b!r}")
                continue
            if not all(_same(a[key], b[key]) for key in a):
                differ += 1
            for key in a:
                per_field[key] = per_field.get(key, 0) + (not _same(a[key], b[key]))
                worst[key] = max(worst.get(key, 0.0), _delta(a[key], b[key]))
            for key in low:
                low[key] = min(low[key], b[key] - a[key])
            for key, sigma in PARAM_SIGMA.items():
                in_sigma[key] = max(in_sigma[key], _ratio(_delta(a[key], b[key]), a[sigma]))
            verdict_a, verdict_b = (f["log_lik"] - f["mirror_log_lik"] > SIGN_MARGIN for f in (a, b))
            changed["converged"] += a["converged"] != b["converged"]
            changed["sign verdict"] += verdict_a != verdict_b
            changed["n_evals"] += a["n_evals"] != b["n_evals"]
            rel = {key: _ratio(_delta(a[key], b[key]), abs(a[key])) for key in sigma_rel}
            if max(a["sigma_y_um"], b["sigma_y_um"]) > Y_UNIDENTIFIED_UM:
                unidentified.append((label, seed, a, b, rel))
                continue
            for key, value in rel.items():
                sigma_rel[key] = max(sigma_rel[key], value)
        ms_a, ms_b = (1e3 * s / len(fits_a) for s in (s_a, s_b))
        print(f"{label}: {differ} of {len(fits_a)} fits differ (ms per fit, informational: A {ms_a:.1f}, B {ms_b:.1f})")
        n_diff += differ
        for tree, run in (("A", run_a), ("B", run_b)):
            if run["batched"] is not None:
                c = len(batch_diff[tree])
                fits, batch, s, s_batch = run["fits"][c], run["batched"][c], run["seconds"][c], run["batched_seconds"][c]
                batch_diff[tree].append(sum(not _same_fit(x, y) for x, y in zip(fits, batch)))
                print(
                    f"  {tree} batched: {batch_diff[tree][-1]} of {len(batch)} differ from {tree}'s per-trace fits "
                    f"(ms per fit, informational: per-trace {1e3 * s / len(fits):.1f}, batched {1e3 * s_batch / len(batch):.1f})"
                )
    for key, value in per_field.items():
        print(f"{key}: {value} fits differ")
    for key, value in worst.items():
        print(f"max |delta| {key}: {value:.3g}")
    for key, value in low.items():
        print(f"lowest delta (B - A) {key}: {value:.3g}")
    for key, value in in_sigma.items():
        print(f"max |delta| {key} in units of A's {PARAM_SIGMA[key]}: {value:.3g}")
    for key, value in sigma_rel.items():
        print(f"max relative change {key}: {value:.3g} (y identified)")
    print("fits that changed: " + ", ".join(f"{key} {value}" for key, value in changed.items()))
    print(f"y not identified (sigma_y_um > {Y_UNIDENTIFIED_UM:g} um in A or B): {len(unidentified)} fits")
    for label, seed, a, b, rel in unidentified:
        print(
            f"  {label} seed {seed}: y_off_um A {a['y_off_um']:.3g}, sigma_y_um A {a['sigma_y_um']:.3g}, "
            f"B {b['sigma_y_um']:.3g}; relative change "
            + ", ".join(f"{key} {value:.3g}" for key, value in rel.items())
        )
    print(f"{n_fits - n_diff} of {n_fits} fits equal, {n_diff} differ")
    for tree, run in (("A", run_a), ("B", run_b)):
        if run["batched"] is None:
            print(f"{tree} has no fit_transits")
        else:
            print(f"{tree} batched fits that differ from {tree}'s per-trace fits: {sum(batch_diff[tree])}")
    total_a, total_b = sum(run_a["seconds"]), sum(run_b["seconds"])
    print(f"fit wall time, informational: A {total_a:.2f} s, B {total_b:.2f} s, A / B {total_a / total_b:.2f}")
    return 1 if n_diff or sum(batch_diff["A"]) or sum(batch_diff["B"]) else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    args = parser.parse_args()
    for src in (args.src_a, args.src_b):
        if not (src / "cavity_transit" / "__init__.py").is_file():
            parser.error(f"{src} holds no cavity_transit package")
    return compare(run_tree(args.src_a.resolve()), run_tree(args.src_b.resolve()))


if __name__ == "__main__":
    sys.exit(main())
