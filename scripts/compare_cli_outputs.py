#!/usr/bin/env python3
"""Run a fixed set of CLI commands against two source trees and list the
output files whose bytes differ.

Each tree's commands run in one fresh interpreter that imports
`cavity_transit` from that tree alone: mode images (the default TEM10, a
21 x 21 TEM10 and a 37 x 37 TEM21 at 30 degrees), position and frequency
scans (one with the cavity detuned from the atom by delta_ca = 3 MHz),
fixed-coupling scans (g = 20.5 MHz, and an empty cavity at delta_ca = 0 and
at 3 MHz), degeneracy, ensembles with and without timing jitter, thermometry
from each ensemble and from fits, thermometry from a hand-written ensemble
that `np.loadtxt` refuses (an underscore in a value, a whitespace-only line
and CRLF line ends), so that it is read row by row, 12 transits with
background, a single fit and a batch fit.  One transit reads a config file
(`run.cfg`: a seed and a tilt), overrides a key by flag and dumps its
effective configuration to `dump.cfg`, which is compared like its trace.
Three commands then write again over files that earlier ones wrote, with
other contents, so that the writer's replace path runs: a single fit, the
21 x 21 mode image (its CSV and its SVG, now untilted) and a transit's
config dump.  Nineteen bad-input commands follow: a one-sample and a
reversed fixed-coupling scan, a fit of a malformed trace, a fit of a good
trace with a zero empty-cavity rate, thermometry over a fit directory whose
one fit JSON lacks `v_mps`, over two directories of 12 fits of which one has
a NaN `v_mps` or an infinite `t_c_s`, and over an ensemble with one infinite
arrival time, two transits that argparse refuses (one with a non-numeric
value and one with an unknown flag), a position scan at y = NaN, a detuning
scan at x = NaN, fixed-coupling scans at g = NaN and g = inf, mode images
with a NaN or negative extent and with 0 and 1 samples, and a mode image
whose `--out` ends in `.svg`, where its heatmap would go.  Last come the
top-level `--help` and `transit --help`.  The exit code of every command
(the code of a SystemExit, or 1 for an exception the CLI does not catch) is
written to `exit_codes.txt`, whatever it printed to stderr to `stderr.txt`
and to stdout (the help texts) to `stdout.txt`, with the tree's `src` path
replaced by `<src>` so that the same warning from two trees reads the same.
These files are compared like any other output, and their differing lines
are printed.  For a differing CSV with the same row count, the number of
differing rows and the largest relative difference of its numeric fields are
printed too; for a differing JSON file with the same keys (nested keys
joined by dots), the differing keys and the largest relative difference of
their values (inf where a value is not a number).

Each interpreter runs the command list twice, into a `first` and a `second`
directory, so that the second pass runs on whatever the first left in the
process (the command-line parser, the fit grid's cached tables).  The first
passes of the two trees are compared, and then each tree's second pass with
its first: a command whose output, stderr, stdout or exit code depends on
an earlier call in the same process shows up there.

Usage: python scripts/compare_cli_outputs.py SRC_A SRC_B

SRC_A and SRC_B are `src` directories (for example the one of this checkout
and the one of an exported parent commit).  Exits 0 when every file is
byte-identical in all three comparisons, 1 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

BACKGROUND = "--background-cps=200000.0"

COMMANDS = [
    ["mode-image", "--out=mode_image.csv"],
    [
        "mode-image", "--mode-m=2", "--mode-n=1", "--tilt-deg=30", "--samples=37", "--extent-um=40",
        "--out=mode_image_tem21.csv",
    ],
    ["mode-image", "--samples=21", "--extent-um=30", "--out=mode_image_small.csv"],
    ["scan", "--axis=pos", "--y=0", "--out=scan_pos_y0.csv"],
    ["scan", "--axis=pos", "--y=-16.3", "--out=scan_pos_y-16.3.csv"],
    ["scan", "--axis=freq", "--out=scan_freq_node.csv"],
    ["scan", "--axis=freq", "--x=10", "--y=10", "--out=scan_freq_lobe.csv"],
    ["scan", "--axis=freq", "--x=16.83", "--y=0", "--tilt-deg=0", "--out=scan_freq_peak.csv"],
    ["scan", "--axis=freq", "--x=5", "--y=-8", "--delta-ca=3", "--out=scan_freq_dca.csv"],
    ["scan", "--axis=freq", "--g=20.5", "--out=scan_g20.5.csv"],
    ["scan", "--axis=freq", "--g=0", "--delta-ca=0", "--out=scan_g0.csv"],
    ["scan", "--axis=freq", "--g=0", "--delta-ca=3", "--out=scan_g0_dca3.csv"],
    ["degeneracy", "--y=10", "--v=0.42", "--out=degeneracy_y10.json"],
    ["degeneracy", "--y=0", "--v=0.42", "--z=50", "--out=degeneracy_y0.json"],
    ["ensemble", "--n=2000", "--seed=5", "--out=ensemble.csv"],
    ["thermometry", "--ensemble=ensemble.csv", "--out=temperature_ensemble.json"],
    ["ensemble", "--n=5000", "--timing-jitter-ms=0.05", "--out=ensemble_jitter.csv"],
    ["thermometry", "--ensemble=ensemble_jitter.csv", "--out=temperature_ensemble_jitter.json"],
    *[
        [
            "transit", f"--y={-20.0 + 3.5 * i!r}", f"--v={0.36 + 0.01 * i!r}",
            f"--tc={1e-4 * (i % 3)!r}", BACKGROUND, f"--seed={i}", f"--out=traces/release_{i:02d}.csv",
        ]
        for i in range(12)
    ],
    [
        "transit", "--config=run.cfg", "--y=-16.3", "--v=0.39", "--flux0-cps=2e6",
        "--dump-config=dump.cfg", "--out=trace_config.csv",
    ],
    ["fit", "--trace=traces/release_00.csv", BACKGROUND, "--out=fit_single.json"],
    ["fit", "--trace=traces", BACKGROUND, "--out=fits"],
    ["thermometry", "--fits=fits", "--out=temperature_fits.json"],
    ["thermometry", "--ensemble=rowwise_ensemble.csv", "--out=temperature_rowwise.json"],
    # write again over files written above
    ["fit", "--trace=traces/release_01.csv", BACKGROUND, "--out=fit_single.json"],
    ["mode-image", "--samples=21", "--extent-um=30", "--tilt-deg=0", "--out=mode_image_small.csv"],
    [
        "transit", "--config=run.cfg", "--y=18", "--v=0.42", "--flux0-cps=3e6",
        "--dump-config=dump.cfg", "--out=trace_config_2.csv",
    ],
    # bad input: these must fail with exit code 2 and a message on stderr
    ["scan", "--axis=freq", "--g=5", "--samples=1", "--out=bad_scan_one_sample.csv"],
    ["scan", "--axis=freq", "--g=5", "--delta-min=5", "--delta-max=-5", "--out=bad_scan_reversed.csv"],
    ["fit", "--trace=malformed_trace.csv", "--out=bad_fit.json"],
    ["fit", "--trace=traces/release_00.csv", "--flux0-known=0", "--out=bad_fit_flux0.json"],
    ["thermometry", "--fits=fits_missing_key", "--out=bad_temperature.json"],
    ["thermometry", "--fits=fits_nan_speed", "--out=bad_temperature_nan_speed.json"],
    ["thermometry", "--fits=fits_inf_time", "--out=bad_temperature_inf_time.json"],
    ["thermometry", "--ensemble=nonfinite_ensemble.csv", "--out=bad_temperature_inf.json"],
    ["transit", "--y=0", "--v=0.4", "--tilt-deg=abc", "--out=bad_transit_tilt.csv"],
    ["transit", "--y=0", "--v=0.4", "--bogus=1", "--out=bad_transit_flag.csv"],
    ["scan", "--axis=pos", "--y=nan", "--out=bad_scan_pos_y_nan.csv"],
    ["scan", "--axis=freq", "--x=nan", "--out=bad_scan_freq_x_nan.csv"],
    ["scan", "--axis=freq", "--g=nan", "--out=bad_scan_g_nan.csv"],
    ["scan", "--axis=freq", "--g=inf", "--out=bad_scan_g_inf.csv"],
    ["mode-image", "--extent-um=nan", "--out=bad_mode_image_nan.csv"],
    ["mode-image", "--samples=0", "--out=bad_mode_image_0.csv"],
    ["mode-image", "--samples=1", "--out=bad_mode_image_1.csv"],
    ["mode-image", "--extent-um=-5", "--out=bad_mode_image_negative.csv"],
    ["mode-image", "--samples=5", "--out=bad_mode_image.svg"],
    # help: exit code 0 and the text on stdout
    ["--help"],
    ["transit", "--help"],
]

RUN_CONFIG = "# a config file read by one transit\nseed = 4\ntilt_deg = 30\n"

MALFORMED_TRACE = "t_s,expected_T,counts\n0.0,1.0,50\nnot,a_number,x\n"
# a fit JSON without its v_mps key
FIT_MISSING_KEY = (
    '{"y_off_um": 1.0, "t_c_s": 0.0, "sigma_y_um": 0.1, "sigma_v_mps": 0.005, "sigma_tc_s": 1e-06,'
    ' "log_lik": -100.0, "mirror_log_lik": -150.0, "converged": true, "n_evals": 1}\n'
)
# twelve fits each, the second with a NaN speed or an infinite crossing time
NONFINITE_FITS = {
    name: [
        json.dumps(
            {**json.loads(FIT_MISSING_KEY), "v_mps": 0.4 + 0.01 * i, "t_c_s": 0.03 + 0.001 * i}
            | (bad if i == 1 else {})
        )
        + "\n"
        for i in range(12)
    ]
    for name, bad in (("fits_nan_speed", {"v_mps": math.nan}), ("fits_inf_time", {"t_c_s": math.inf}))
}
# twelve ensemble records, the sixth with an infinite arrival time
NONFINITE_ENSEMBLE = "v0_mps,t_arr_ms,v_arr_mps\n" + "".join(
    f"{0.01 * i!r},{'inf' if i == 5 else repr(30.0 + i)},{0.31 + 0.001 * i!r}\n" for i in range(12)
)
# twelve ensemble records with CRLF line ends, an underscore in the fourth
# value and a whitespace-only line
ROWWISE_ENSEMBLE = "v0_mps,t_arr_ms,v_arr_mps\r\n" + "".join(
    f"{'1_0e-2' if i == 3 else repr(0.01 * i)},{30.0 + 0.5 * i!r},{0.31 + 0.001 * i!r}\r\n"
    + (" \t \r\n" if i == 6 else "")
    for i in range(12)
)

# Runs inside the fresh interpreter: argv is (src, outdir).  Each pass writes
# its inputs and outputs into its own subdirectory of outdir.
DRIVER = """
import contextlib, io, os, sys, warnings
src, outdir = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
from cavity_transit.cli import main

def run_pass(passdir):
    os.makedirs(passdir)
    os.chdir(passdir)
    os.makedirs("traces")
    with open("malformed_trace.csv", "w") as f:
        f.write(MALFORMED_TRACE)
    os.makedirs("fits_missing_key")
    with open("fits_missing_key/fit.json", "w") as f:
        f.write(FIT_MISSING_KEY)
    with open("run.cfg", "w") as f:
        f.write(RUN_CONFIG)
    with open("nonfinite_ensemble.csv", "w") as f:
        f.write(NONFINITE_ENSEMBLE)
    with open("rowwise_ensemble.csv", "w", newline="") as f:
        f.write(ROWWISE_ENSEMBLE)
    for name, texts in NONFINITE_FITS.items():
        os.makedirs(name)
        for i, text in enumerate(texts):
            with open(os.path.join(name, f"fit_{i:02d}.json"), "w") as f:
                f.write(text)
    codes, errs, outs = [], [], []
    for argv in COMMANDS:
        err, out = io.StringIO(), io.StringIO()
        # entering catch_warnings forgets which warnings were shown, so a pass
        # reports every warning, not only those an earlier pass did not show
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            try:
                code = main(argv)
            except SystemExit as exc:
                # argparse refuses the command line, or prints its help, before the CLI runs
                code = exc.code
            except Exception as exc:
                # as from the shell: exit code 1 and the exception on stderr
                code = 1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        codes.append(f"{code} {' '.join(argv)}")
        for texts, stream in ((errs, err), (outs, out)):
            if stream.getvalue():
                # a warning names the file that raised it; drop the tree's own path
                texts.append(f"$ {' '.join(argv)}\\n{stream.getvalue().replace(src, '<src>')}")
    with open("exit_codes.txt", "w") as f:
        f.write("\\n".join(codes) + "\\n")
    for name, texts in (("stderr.txt", errs), ("stdout.txt", outs)):
        with open(name, "w") as f:
            f.write("".join(texts))

for name in PASSES:
    run_pass(os.path.join(outdir, name))
"""

PASSES = ("first", "second")


def run_tree(src: Path, outdir: Path) -> None:
    outdir.mkdir(parents=True)
    code = (
        f"COMMANDS = {COMMANDS!r}\nMALFORMED_TRACE = {MALFORMED_TRACE!r}\n"
        f"FIT_MISSING_KEY = {FIT_MISSING_KEY!r}\nRUN_CONFIG = {RUN_CONFIG!r}\n"
        f"NONFINITE_ENSEMBLE = {NONFINITE_ENSEMBLE!r}\nROWWISE_ENSEMBLE = {ROWWISE_ENSEMBLE!r}\n"
        f"NONFINITE_FITS = {NONFINITE_FITS!r}\nPASSES = {PASSES!r}\n" + DRIVER
    )
    subprocess.run([sys.executable, "-c", code, str(src), str(outdir)], check=True)


def _fields(line: str):
    out = []
    for f in line.split(","):
        try:
            out.append(float(f))
        except ValueError:
            out.append(f)
    return out


def _relative(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else math.inf


def csv_difference(a: Path, b: Path):
    """(differing rows, largest relative difference) or None when the files
    do not line up row for row and field for field."""
    la, lb = a.read_text().splitlines(), b.read_text().splitlines()
    if len(la) != len(lb):
        return None
    rows, worst = 0, 0.0
    for ra, rb in zip(la, lb):
        if ra == rb:
            continue
        rows += 1
        fa, fb = _fields(ra), _fields(rb)
        if len(fa) != len(fb):
            return None
        for x, y in zip(fa, fb):
            if x == y:
                continue
            if not (isinstance(x, float) and isinstance(y, float)):
                return None
            worst = max(worst, _relative(x, y))
    return rows, worst


def _leaves(value, prefix: str = "") -> dict:
    """{dotted key: value} of every leaf of a parsed JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {prefix: value}
    out = {}
    for key, item in items:
        out.update(_leaves(item, f"{prefix}.{key}" if prefix else str(key)))
    return out


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_difference(a: Path, b: Path):
    """(differing keys, largest relative difference of their values) or None
    when the files are not both JSON with the same keys.  NaN equals NaN; a
    differing value that is not a number on both sides counts as inf."""
    try:
        va, vb = _leaves(json.loads(a.read_text())), _leaves(json.loads(b.read_text()))
    except json.JSONDecodeError:
        return None
    if va.keys() != vb.keys():
        return None
    keys, worst = [], 0.0
    for key, x in va.items():
        y = vb[key]
        if x == y or (_number(x) and _number(y) and math.isnan(x) and math.isnan(y)):
            continue
        keys.append(key)
        worst = max(worst, _relative(x, y) if _number(x) and _number(y) else math.inf)
    return keys, worst


def compare(dir_a: Path, dir_b: Path, names=("A", "B")) -> int:
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    n_diff = 0
    for rel in sorted(files_a ^ files_b):
        print(f"only in {names[0] if rel in files_a else names[1]}: {rel}")
        n_diff += 1
    for rel in sorted(files_a & files_b):
        a, b = dir_a / rel, dir_b / rel
        if a.read_bytes() == b.read_bytes():
            continue
        n_diff += 1
        detail = None
        if rel.suffix == ".csv" and (diff := csv_difference(a, b)):
            detail = f"{diff[0]} rows, max relative difference {diff[1]:.3g}"
        elif rel.suffix == ".json" and (diff := json_difference(a, b)):
            detail = f"keys {', '.join(diff[0])}; max relative difference {diff[1]:.3g}"
        print(f"differs: {rel}" + (f" ({detail})" if detail else ""))
        if rel.suffix == ".txt":
            for line in difflib.unified_diff(
                a.read_text().splitlines(), b.read_text().splitlines(), *names, n=0, lineterm=""
            ):
                if not line.startswith(("---", "+++", "@@")):
                    print(f"  {line}")
    n_same = len(files_a & files_b) - (n_diff - len(files_a ^ files_b))
    print(f"{n_same} identical, {n_diff} differing or missing")
    return 1 if n_diff else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    args = parser.parse_args()
    for src in (args.src_a, args.src_b):
        if not (src / "cavity_transit" / "__init__.py").is_file():
            parser.error(f"{src} holds no cavity_transit package")
    with tempfile.TemporaryDirectory() as tmp:
        dir_a, dir_b = Path(tmp) / "a", Path(tmp) / "b"
        run_tree(args.src_a.resolve(), dir_a)
        run_tree(args.src_b.resolve(), dir_b)
        first, second = PASSES
        print(f"A against B, {first} pass:")
        code = compare(dir_a / first, dir_b / first)
        for name, outdir in (("A", dir_a), ("B", dir_b)):
            print(f"{name}, {second} pass against {first}:")
            code |= compare(outdir / first, outdir / second, (first, second))
        return code


if __name__ == "__main__":
    sys.exit(main())
