"""Wire-format round trips: every file must reload to the exact values."""

import json
import math
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
from cavity_transit import fileio
from cavity_transit.fileio import (
    CsvFormatError,
    read_ensemble_csv,
    read_fit_json,
    read_trace_csv,
    write_ensemble_csv,
    write_fit_json,
    write_mode_image_csv,
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


def test_heatmap_svg_rejects_non_finite_z(tmp_path):
    path = tmp_path / "map.svg"
    for bad in (math.nan, math.inf):
        z = np.linspace(0, 1, 6).reshape(2, 3)
        z[1, 2] = bad
        with pytest.raises(ValueError, match="z must be finite"):
            heatmap_svg(path, np.arange(3.0), np.arange(2.0), z, "x", "y")
    assert not path.exists()


# The per-cell heatmap writer that heatmap_svg replaced: the reference its
# array colours and row formats must match byte for byte.
_REFERENCE_ANCHORS = [
    (68, 1, 84),
    (71, 44, 122),
    (59, 81, 139),
    (44, 113, 142),
    (33, 144, 141),
    (39, 173, 129),
    (92, 200, 99),
    (170, 220, 50),
    (253, 231, 37),
]


def _reference_color(t):
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(_REFERENCE_ANCHORS) - 1)
    i = min(int(pos), len(_REFERENCE_ANCHORS) - 2)
    frac = pos - i
    r, g, b = (
        round(a + frac * (b_ - a))
        for a, b_ in zip(_REFERENCE_ANCHORS[i], _REFERENCE_ANCHORS[i + 1])
    )
    return f"rgb({r},{g},{b})"


def _reference_heatmap_svg(x, y, z, xlabel, ylabel, title=""):
    x, y, z = (np.asarray(a, dtype=float) for a in (x, y, z))
    margin, plot = 60, 480
    width, height = plot + 2 * margin, plot + 2 * margin
    zmin, zmax = float(z.min()), float(z.max())
    span = (zmax - zmin) or 1.0
    cw, ch = plot / len(x), plot / len(y)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for j in range(len(y)):
        py = margin + plot - (j + 1) * ch
        for i in range(len(x)):
            fill = _reference_color((z[j, i] - zmin) / span)
            parts.append(
                f'<rect x="{margin + i * cw:.2f}" y="{py:.2f}" '
                f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" fill="{fill}"/>'
            )
    axis_font = 'font-family="sans-serif" font-size="13"'
    parts += [
        f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
        f'fill="none" stroke="black"/>',
        f'<text x="{margin}" y="{margin + plot + 18}" {axis_font}>{x[0]:g}</text>',
        f'<text x="{margin + plot}" y="{margin + plot + 18}" {axis_font} '
        f'text-anchor="end">{x[-1]:g}</text>',
        f'<text x="{margin - 6}" y="{margin + plot}" {axis_font} '
        f'text-anchor="end">{y[0]:g}</text>',
        f'<text x="{margin - 6}" y="{margin + 12}" {axis_font} text-anchor="end">{y[-1]:g}</text>',
        f'<text x="{margin + plot / 2}" y="{margin + plot + 40}" {axis_font} '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="18" y="{margin + plot / 2}" {axis_font} text-anchor="middle" '
        f'transform="rotate(-90 18 {margin + plot / 2})">{ylabel}</text>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2}" y="{margin - 14}" {axis_font} '
            f'text-anchor="middle">{title}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# t = k/16 puts every even k on an anchor and every odd k halfway between two,
# where channels such as 1 + 0.5 * 43 = 22.5 round half to even; t = 1 is the
# last anchor.
_TIES = np.arange(17) / 16


@pytest.mark.parametrize(
    "x, y, z, title",
    [
        (np.arange(17.0), [0.0, 1.0], np.stack([_TIES, _TIES[::-1]]), "ties"),
        (np.arange(3.0), np.arange(4.0), np.full((4, 3), 7.5), ""),
        (np.linspace(-5, 5, 7), [-1.5, 0.0, 2.5], np.arange(21.0).reshape(3, 7) ** 2, "non-square"),
    ],
    ids=["anchors-and-ties", "constant", "non-square"],
)
def test_heatmap_svg_matches_the_per_cell_reference(tmp_path, x, y, z, title):
    path = tmp_path / "map.svg"
    heatmap_svg(path, x, y, z, "x (um)", "y (um)", title)
    assert path.read_text() == _reference_heatmap_svg(x, y, z, "x (um)", "y (um)", title)


def _rows(*columns):
    """The per-value `f"{v:.17g}"` rows that the CSV writers must produce."""
    return "".join(",".join(f"{float(v):.17g}" for v in row) + "\n" for row in zip(*columns))


# -0.0, the smallest subnormal, a subnormal, the largest finite, ties and
# non-finite values
_EDGE_VALUES = [-0.0, 5e-324, 1.5e-310, 1e308, -1.7976931348623157e308, 0.1, 1 / 3, 2.5, math.nan, math.inf, -math.inf]


def test_csv_writers_match_per_value_formatting(tmp_path, monkeypatch):
    # blocks of 4 rows: the 11-row files end in a partial block
    monkeypatch.setattr(fileio, "_WRITE_BLOCK", 4)
    path = tmp_path / "out.csv"
    values = _EDGE_VALUES
    reverse = values[::-1]
    write_scan_csv(path, "x_um", values, reverse)
    assert path.read_text() == "x_um,T\n" + _rows(values, reverse)
    write_ensemble_csv(path, [EnsembleRecord(*r) for r in zip(values, reverse, values)])
    assert path.read_text() == "v0_mps,t_arr_ms,v_arr_mps\n" + _rows(values, reverse, values)
    t = np.arange(len(values)) * 1e-5
    counts = np.arange(len(values)) * 7
    write_trace_csv(path, TransitTrace(t, values, counts))
    expected = "".join(f"{ti:.17g},{v:.17g},{k}\n" for ti, v, k in zip(t, values, counts))
    assert path.read_text() == "t_s,expected_T,counts\n" + expected
    write_trace_csv(path, TransitTrace(t, values))
    expected = "".join(f"{ti:.17g},{v:.17g},\n" for ti, v in zip(t, values))
    assert path.read_text() == "t_s,expected_T,counts\n" + expected
    x, y = [-0.0, 1e308, 5e-324, 2.5], [math.nan, 0.1, -1.0]
    z = np.array(values + [7.0]).reshape(3, 4)
    write_mode_image_csv(path, x, y, z)
    rows = "".join(f"{xv:.17g},{yv:.17g},{z[j, i]:.17g}\n" for j, yv in enumerate(y) for i, xv in enumerate(x))
    assert path.read_text() == "x_um,y_um,intensity\n" + rows


def test_csv_writers_write_the_header_alone_for_no_rows(tmp_path):
    path = tmp_path / "out.csv"
    write_ensemble_csv(path, [])
    assert path.read_text() == "v0_mps,t_arr_ms,v_arr_mps\n"
    assert read_ensemble_csv(path) == []
    write_scan_csv(path, "delta_pa_mhz", [], [])
    assert path.read_text() == "delta_pa_mhz,T\n"
    write_trace_csv(path, TransitTrace([], []))
    assert path.read_text() == "t_s,expected_T,counts\n"


def test_mode_image_csv_shape_check(tmp_path):
    path = tmp_path / "mode.csv"
    with pytest.raises(ValueError, match=re.escape("z shape (5, 5) does not match (2, 2)")):
        write_mode_image_csv(path, [0.0, 1.0], [0.0, 1.0], np.zeros((5, 5)))
    assert not path.exists()


@pytest.mark.parametrize("field, index", [("v0_mps", 0), ("t_arr_ms", 1), ("v_arr_mps", 2)])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_ensemble_value_rejected_with_its_line(tmp_path, field, index, value):
    good = "0.1,31.9,0.31\n"
    bad = good.rstrip("\n").split(",")
    bad[index] = value
    path = tmp_path / "ens.csv"
    # the blank line is counted: the bad row is line 5
    path.write_text("v0_mps,t_arr_ms,v_arr_mps\n" + good + "\n" + good + ",".join(bad) + "\n" + good)
    message = f"{path}:5: {field} {float(value)!r} is not finite"
    with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
        read_ensemble_csv(path)
