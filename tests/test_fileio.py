"""Wire-format round trips: every file must reload to the exact values."""

import json
import re
import xml.etree.ElementTree as ET
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_transit import (
    DetectorConfig,
    EnsembleRecord,
    FallConfig,
    FitResult,
    SystemConfig,
    TemperatureEstimate,
    Trajectory,
    TransitTrace,
    expected_trace,
    sample_counts,
    sample_ensemble,
)
from cavity_transit.config import (
    CESIUM_MASS_KG,
    ConfigError,
    RunConfig,
    dump_run_config,
    load_run_config,
)
from cavity_transit.fileio import (
    CsvFormatError,
    read_ensemble_csv,
    read_fit_json,
    read_trace_csv,
    write_ensemble_csv,
    write_fit_json,
    write_scan_csv,
    write_temperature_json,
    write_trace_csv,
)
from cavity_transit.svgplot import heatmap_svg

CFG = SystemConfig()
DET = DetectorConfig()


def test_sampled_trace_round_trips_exactly(tmp_path):
    trace = sample_counts(expected_trace(CFG, Trajectory(-16.3, 0.39), DET), DET, 5)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    back = read_trace_csv(path)
    assert np.array_equal(back.t, trace.t)
    assert np.array_equal(back.expected_T, trace.expected_T)
    assert np.array_equal(back.counts, trace.counts)


def test_unsampled_trace_round_trips_with_empty_counts(tmp_path):
    trace = expected_trace(CFG, Trajectory(0.0, 0.42), DET)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    assert path.read_text().splitlines()[1].endswith(",")
    back = read_trace_csv(path)
    assert back.counts is None
    assert np.array_equal(back.t, trace.t)
    assert np.array_equal(back.expected_T, trace.expected_T)


def test_partially_filled_counts_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t_s,expected_T,counts\n0.0,1.0,50\n1e-05,1.0,\n")
    with pytest.raises(CsvFormatError, match=":3:"):
        read_trace_csv(path)


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time,T,n\n0.0,1.0,50\n")
    with pytest.raises(CsvFormatError, match=":1:"):
        read_trace_csv(path)


def test_wrong_field_count_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t_s,expected_T,counts\n0.0,1.0\n")
    with pytest.raises(CsvFormatError, match=":2:"):
        read_trace_csv(path)


def _trace_text(times):
    return "t_s,expected_T,counts\n" + "".join(f"{t!r},1.0,50\n" for t in times)


@pytest.mark.parametrize(
    "times, line, message",
    [
        ([0.0, 1e-5, float("nan"), 3e-5], 4, "not finite"),
        ([0.0, 1e-5, float("inf"), 3e-5], 4, "not finite"),
        ([0.0, 1e-5, 1e-5, 2e-5], 4, "does not follow"),
        ([0.0, 2e-5, 1e-5, 3e-5], 4, "does not follow"),
        ([0.0, 1e-5, 2e-5, 3.5e-5, 4.5e-5], 5, "median step"),
    ],
    ids=["nan", "inf", "repeat", "backwards", "non-uniform"],
)
def test_bad_time_axis_rejected(tmp_path, times, line, message):
    path = tmp_path / "trace.csv"
    path.write_text(_trace_text(times))
    with pytest.raises(CsvFormatError, match=f":{line}: .*{message}"):
        read_trace_csv(path)


def test_time_step_within_tolerance_accepted(tmp_path):
    # steps that differ by less than 1e-6 of the median step still load
    path = tmp_path / "trace.csv"
    path.write_text(_trace_text([0.0, 1e-5, 2e-5 + 5e-12, 3e-5]))
    assert len(read_trace_csv(path)) == 4


def test_blank_lines_skipped_and_counted(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t_s,expected_T,counts\n0.0,1.0,50\n\n1e-05,1.0,50\n2e-05,1.0,\n")
    with pytest.raises(CsvFormatError, match=":5: counts column is only partially filled"):
        read_trace_csv(path)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(
    t0=st.floats(-1.0, 1.0),
    step=st.floats(1e-7, 1e-3),
    values=st.lists(st.tuples(_finite, st.integers(0, 2**62)), max_size=30),
    sampled=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_trace_csv_round_trip_property(tmp_path_factory, t0, step, values, sampled):
    t = t0 + step * np.arange(len(values))
    T = [v for v, _ in values]
    trace = TransitTrace(t, T, [k for _, k in values] if sampled else None)
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    write_trace_csv(path, trace)
    back = read_trace_csv(path)
    assert np.array_equal(back.t, trace.t)
    assert np.array_equal(back.expected_T, trace.expected_T)
    if sampled and values:
        assert np.array_equal(back.counts, trace.counts)
    else:
        assert back.counts is None


@given(st.lists(st.tuples(_finite, _finite, _finite), max_size=30))
@settings(max_examples=100, deadline=None)
def test_ensemble_csv_round_trip_property(tmp_path_factory, rows):
    records = [EnsembleRecord(*r) for r in rows]
    path = tmp_path_factory.mktemp("ensemble") / "ens.csv"
    write_ensemble_csv(path, records)
    assert read_ensemble_csv(path) == records


def _same_fields(a, b) -> bool:
    """Field-wise equality of two dataclass instances, type included, with NaN equal to NaN."""
    return all(
        type(x) is type(y) and (x == y or (x != x and y != y)) for x, y in zip(astuple(a), astuple(b))
    )


@given(
    st.builds(
        FitResult,
        y_off_um=_finite,
        v_mps=_finite,
        t_c_s=_finite,
        sigma_y_um=st.floats(),
        sigma_v_mps=st.floats(),
        sigma_tc_s=st.floats(),
        log_lik=_finite,
        mirror_log_lik=_finite,
        converged=st.booleans(),
        n_evals=st.integers(0, 2**62),
    )
)
@settings(max_examples=100, deadline=None)
def test_fit_json_round_trip_property(tmp_path_factory, result):
    path = tmp_path_factory.mktemp("fit") / "fit.json"
    write_fit_json(path, result)
    assert _same_fields(read_fit_json(path), result)


@given(
    st.builds(
        TemperatureEstimate,
        temperature_k=st.floats(),
        sigma_t_k=st.floats(),
        n_used=st.integers(0, 2**62),
        v_min_mps=st.floats(),
        t_min_ms=st.floats(),
    )
)
@settings(max_examples=100, deadline=None)
def test_temperature_json_round_trip_property(tmp_path_factory, est):
    path = tmp_path_factory.mktemp("temperature") / "temperature.json"
    write_temperature_json(path, est)
    assert _same_fields(TemperatureEstimate(**json.loads(path.read_text())), est)


def test_ensemble_round_trips_exactly(tmp_path):
    records = sample_ensemble(FallConfig(), 186e-6, CESIUM_MASS_KG, 250, seed=3)
    path = tmp_path / "ens.csv"
    write_ensemble_csv(path, records)
    assert read_ensemble_csv(path) == records


def test_ensemble_header_checked(tmp_path):
    path = tmp_path / "ens.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(CsvFormatError, match=":1:"):
        read_ensemble_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "expected a JSON object, got list"),
        ("{", "Expecting property name"),
    ],
    ids=["not-an-object", "not-json"],
)
def test_bad_fit_json_names_the_file(tmp_path, text, message):
    path = tmp_path / "fit.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        read_fit_json(path)


def test_scan_csv_headers(tmp_path):
    path = tmp_path / "scan.csv"
    write_scan_csv(path, "x_um", [1.0, 2.0], [0.5, 0.25])
    assert path.read_text().splitlines()[0] == "x_um,T"
    write_scan_csv(path, "delta_pa_mhz", [0.0], [1.0])
    assert path.read_text().splitlines()[0] == "delta_pa_mhz,T"


def test_config_dump_load_round_trip(tmp_path):
    rc = RunConfig()
    rc.tilt_deg = -37.5
    rc.flux0_cps = 2.5e7
    rc.seed = 99
    rc.out = "somewhere.csv"
    path = tmp_path / "run.cfg"
    dump_run_config(path, rc)
    assert load_run_config(path) == rc


def test_config_rejects_bad_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("g0_mhz 23.9\n")
    with pytest.raises(ConfigError, match=":1:"):
        load_run_config(path)
    path.write_text("seed = not_an_int\n")
    with pytest.raises(ConfigError, match="invalid value"):
        load_run_config(path)


def test_config_comments_and_blanks_ignored(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\nkappa_mhz = 3.1\n")
    assert load_run_config(path).kappa_mhz == 3.1


def test_heatmap_svg_is_wellformed(tmp_path):
    path = tmp_path / "map.svg"
    z = np.linspace(0, 1, 25).reshape(5, 5)
    heatmap_svg(path, np.arange(5.0), np.arange(5.0), z, xlabel="x (um)", ylabel="y (um)")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == 25 + 2  # cells + background + frame


def test_heatmap_svg_shape_check():
    z = np.zeros((3, 4))
    with pytest.raises(ValueError, match="shape"):
        heatmap_svg("/tmp/unused.svg", np.arange(3.0), np.arange(3.0), z, "x", "y")
