"""CSV and JSON wire formats shared by the simulator, fitter and CLI.

Floats are written with 17 significant digits so every file round-trips to
the exact double that produced it.  Each CSV is a header line plus one row
per record, written by `_write_csv` and streamed back by `_read_csv` (an
ensemble is parsed by `np.loadtxt` first), which names the line of any
malformed row.  JSON files hold the `dataclasses.asdict` form of a result,
written by `_write_json`.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import asdict, fields
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .detector import TransitTrace, _time_axis_fault
from .kinematics import Ensemble
from .reconstruct import FitResult
from .svgplot import _grid
from .thermometry import TemperatureEstimate

_TRACE_HEADER = "t_s,expected_T,counts"
_ENSEMBLE_HEADER = "v0_mps,t_arr_ms,v_arr_mps"
_WRITE_BLOCK = 4096  # rows formatted per write: no list or string of a whole file is held


class CsvFormatError(ValueError):
    """Malformed CSV input; the message carries the offending line number."""


def _write_csv(path, header: str, row_format: str, rows) -> None:
    """Write the header line and then each row tuple formatted by
    row_format, a `%` format ending in a newline, a block at a time.  A row
    that fails to format leaves no partial file: a new file is removed, and
    an existing regular file (through a symlink, its target) keeps its
    bytes, as the rows go to a temporary file beside it that replaces it
    only once all are written.  A FIFO or a device such as /dev/stdout is
    written in place."""
    path, target = Path(path), None
    try:
        # the exclusive create that tells a new file from an existing one is
        # the one call a new file needs: two stats before a plain create
        # added about 85 us to a 720 us create on ext4 (2-core guest)
        f, remove = path.open("x"), path
    except FileExistsError:
        if path.is_file():
            target = Path(os.path.realpath(path))
            remove = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            f = remove.open("w")
        else:  # a FIFO, a device, or a symlink to no file yet, which this creates
            remove = None if path.exists() else Path(os.path.realpath(path))
            f = path.open("w")
    rows = iter(rows)
    try:
        with f:
            f.write(header + "\n")
            while block := "".join(map(row_format.__mod__, islice(rows, _WRITE_BLOCK))):
                f.write(block)
        if target is not None:
            os.replace(remove, target)
    except BaseException:
        if remove is not None:
            remove.unlink(missing_ok=True)
        raise


def _read_csv(path, header: str, parse_row):
    """Yield (line number, parse_row(fields)) for each non-blank data row.

    The first line must equal the header, and every row must have as many
    fields as the header.  A ValueError from parse_row becomes a
    CsvFormatError naming the line.
    """
    path = Path(path)
    n_fields = header.count(",") + 1
    with path.open() as f:
        if f.readline().strip() != header:
            raise CsvFormatError(f"{path}:1: expected header {header!r}")
        for lineno, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != n_fields:
                # a blank line splits into one field, and every header has more
                if not line.strip():
                    continue
                raise CsvFormatError(f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")
            try:
                yield lineno, parse_row(parts)
            except ValueError as exc:
                raise CsvFormatError(f"{path}:{lineno}: {exc}") from None


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def write_scan_csv(path, axis_name: str, axis_values, transmissions) -> None:
    """Scan output: header `x_um,T` or `delta_pa_mhz,T`, one row per sample."""
    _write_csv(path, f"{axis_name},T", "%.17g,%.17g\n", zip(axis_values, transmissions))


def write_trace_csv(path, trace: TransitTrace) -> None:
    """Trace format `t_s,expected_T,counts`; counts column empty until sampled."""
    counts = [""] * len(trace) if trace.counts is None else map(int, trace.counts)
    _write_csv(path, _TRACE_HEADER, "%.17g,%.17g,%s\n", zip(trace.t, trace.expected_T, counts))


def _trace_row(parts):
    return float(parts[0]), float(parts[1]), None if parts[2] == "" else int(parts[2])


def read_trace_csv(path) -> TransitTrace:
    """Read a trace; its times must be finite, strictly increasing and
    uniformly spaced, each step within 1e-6 of the median step."""
    linenos, t, T, counts = [], [], [], []
    for lineno, (ti, Ti, ki) in _read_csv(path, _TRACE_HEADER, _trace_row):
        linenos.append(lineno)
        t.append(ti)
        T.append(Ti)
        counts.append(ki)

    def fail(i, message):
        raise CsvFormatError(f"{path}:{linenos[i]}: {message}")

    if fault := _time_axis_fault(t):
        fail(*fault)
    has_counts = [c is not None for c in counts]
    if any(has_counts) and not all(has_counts):
        fail(has_counts.index(False), "counts column is only partially filled")
    return TransitTrace(
        t=np.array(t),
        expected_T=np.array(T),
        counts=np.array(counts, dtype=np.int64) if all(has_counts) and counts else None,
    )


def write_ensemble_csv(path, ensemble: Ensemble) -> None:
    """Ensemble format `v0_mps,t_arr_ms,v_arr_mps`, one row per atom."""
    columns = (ensemble.v0_mps, ensemble.t_arr_ms, ensemble.v_arr_mps)
    blocks = (slice(s, s + _WRITE_BLOCK) for s in range(0, len(ensemble), _WRITE_BLOCK))
    rows = chain.from_iterable(zip(*(c[b].tolist() for c in columns)) for b in blocks)
    _write_csv(path, _ENSEMBLE_HEADER, "%.17g,%.17g,%.17g\n", rows)


def read_ensemble_csv(path) -> Ensemble:
    """Read an ensemble; every value must be finite.  `np.loadtxt` parses
    the rows after the header in one call; a file it refuses, or whose
    values are not n finite rows of three, is read again row by row by
    `_read_csv`, whose values and messages are the reference."""
    with Path(path).open() as f:
        if f.readline().strip() == _ENSEMBLE_HEADER:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns on no rows, which the re-read handles
                try:
                    data = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
                except ValueError:
                    data = np.empty((0, 0))
            if data.shape[1] == 3 and np.isfinite(data).all():
                return Ensemble(*data.T)
    rows = list(_read_csv(path, _ENSEMBLE_HEADER, lambda parts: tuple(map(float, parts))))
    for field, name in enumerate(_ENSEMBLE_HEADER.split(",")):  # v0_mps first, as the file orders them
        for lineno, row in rows:
            if not math.isfinite(row[field]):
                raise CsvFormatError(f"{path}:{lineno}: {name} {row[field]!r} is not finite")
    return Ensemble(*np.array([row for _, row in rows], dtype=np.float64).reshape(len(rows), 3).T)


def write_fit_json(path, result: FitResult) -> None:
    _write_json(path, asdict(result))


def read_fit_json(path) -> FitResult:
    """Read a fit written by `write_fit_json`.  A document that is not an
    object, a missing key, or a parameter, sigma or log-likelihood that is
    not a number raises ValueError naming the file and the key."""
    try:
        d = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(d, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(d).__name__}")
    for f in fields(FitResult):
        if f.name not in d:
            raise ValueError(f"{path}: missing key {f.name!r}")
        if f.type == "float" and type(d[f.name]) not in (int, float):
            raise ValueError(f"{path}: {f.name} must be a number, got {d[f.name]!r}")
    return FitResult(**{f.name: d[f.name] for f in fields(FitResult)})


def write_temperature_json(path, est: TemperatureEstimate) -> None:
    _write_json(path, asdict(est))


def write_degeneracy_json(path, reports) -> None:
    _write_json(path, [asdict(r) for r in reports])


def write_mode_image_csv(path, x_um, y_um, intensity) -> None:
    """Mode image grid: `x_um,y_um,intensity`, row-major over y then x.
    The intensity's shape must be (len(y_um), len(x_um))."""
    x, y, z = _grid(x_um, y_um, intensity)
    # each x and y is formatted once and copied into its rows by %s
    x_fields = ["%.17g" % v for v in x.tolist()]
    rows = chain.from_iterable(
        zip(x_fields, repeat("%.17g" % yv), z_row.tolist()) for yv, z_row in zip(y.tolist(), z)
    )
    _write_csv(path, "x_um,y_um,intensity", "%s,%s,%.17g\n", rows)
