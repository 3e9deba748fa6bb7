"""End-to-end command-line tests: determinism, formats, exit codes."""

import argparse
import json
import math
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from cavity_transit import (
    DetectorConfig,
    Detunings,
    FallConfig,
    FitResult,
    ModeGeometry,
    ModeIndex,
    ModePoint,
    Rates,
    SystemConfig,
    Trajectory,
    expected_trace,
    mode_amplitude,
    sample_counts,
    transmission_vs_coupling,
)
from cavity_transit import cli
from cavity_transit.cli import main
from cavity_transit.config import (
    RunConfig,
    detector_config,
    fall_config,
    load_run_config,
    system_config,
)
from cavity_transit.fileio import read_trace_csv, write_trace_csv


def run(*argv):
    return main([str(a) for a in argv])


def test_transit_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("transit", "--y", -16.3, "--v", 0.39, "--seed", 7, "--out", a) == 0
    assert run("transit", "--y", -16.3, "--v", 0.39, "--seed", 7, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert run("transit", "--y", -16.3, "--v", 0.39, "--seed", 8, "--out", c) == 0
    assert a.read_bytes() != c.read_bytes()


def test_fit_on_simulated_transit_converges(tmp_path):
    trace_path = tmp_path / "trace.csv"
    fit_path = tmp_path / "fit.json"
    assert run("transit", "--y", -16.3, "--v", 0.39, "--seed", 1, "--out", trace_path) == 0
    assert run("fit", "--trace", trace_path, "--out", fit_path) == 0
    result = json.loads(fit_path.read_text())
    assert result["converged"] is True
    assert abs(result["y_off_um"] - (-16.3)) < 2.0
    assert abs(result["v_mps"] - 0.39) < 0.03


def test_trace_csv_format(tmp_path):
    path = tmp_path / "trace.csv"
    run("transit", "--y", 0.0, "--v", 0.42, "--seed", 2, "--out", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,expected_T,counts"
    assert len(lines) == 51
    trace = read_trace_csv(path)
    assert trace.counts is not None and len(trace) == 50


def test_scan_fixed_zero_coupling_matches_lorentzian(tmp_path):
    # a Lorentzian in delta_pa - delta_ca, the cavity resonant with the atom or not
    kappa = 2.6
    for dca in (0, 3):
        path = tmp_path / f"scan_{dca}.csv"
        assert run("scan", "--axis", "freq", "--delta-ca", dca, "--g", 0, "--out", path) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "delta_pa_mhz,T"
        for line in lines[1:]:
            d, T = map(float, line.split(","))
            assert abs(T - kappa**2 / (kappa**2 + (d - dca) ** 2)) < 1e-12


def test_scan_fixed_coupling_matches_pointwise_loop(tmp_path):
    path = tmp_path / "scan.csv"
    assert run("scan", "--axis", "freq", "--g", 20.5, "--delta-ca", 3, "--out", path) == 0
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    rates = Rates(23.9, 2.6, 2.6)
    loop = [transmission_vs_coupling(20.5, rates, Detunings(d, 3.0)) for d in rows[:, 0]]
    np.testing.assert_allclose(rows[:, 1], loop, rtol=1e-15, atol=0.0)


def test_scan_csv_full_precision(tmp_path):
    path = tmp_path / "scan.csv"
    run("scan", "--axis", "pos", "--y", 0.0, "--samples", 11, "--out", path)
    for line in path.read_text().splitlines()[1:]:
        x_str, t_str = line.split(",")
        # 17 significant digits round-trip the exact double
        assert float(t_str) == float(f"{float(t_str):.17g}")


def test_scan_flag_conflict(tmp_path, capsys):
    assert run("scan", "--axis", "pos", "--g", 5, "--out", tmp_path / "s.csv") == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--samples", 1), "need at least 2 samples, got 1"),
        (("--delta-min", 5, "--delta-max", -5), "empty detuning range (5.0, -5.0)"),
        (("--delta-min=-inf",), "detuning range bounds must be finite, got (-inf, 40.0)"),
    ],
    ids=["one-sample", "reversed", "infinite"],
)
def test_freq_scan_axis_checked_with_fixed_coupling(tmp_path, capsys, flags, message):
    out = tmp_path / "s.csv"
    for coupling in ((), ("--g", 5)):
        assert run("scan", "--axis", "freq", *coupling, *flags, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_position_scan_bounds_must_be_finite(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run("scan", "--axis", "pos", "--x-max", "inf", "--samples", 5, "--out", out) == 2
    assert "position range bounds must be finite, got (-80.0, inf)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("scan", "--axis", "pos", "--y", "nan"), "off-axis position y must be finite, got nan"),
        (("scan", "--axis", "freq", "--x", "nan"), "scan point x must be finite, got nan"),
        (("scan", "--axis", "freq", "--y", "inf"), "scan point y must be finite, got inf"),
        (("scan", "--axis", "freq", "--g", "nan"), "--g must be non-negative and finite, got nan"),
        (("scan", "--axis", "freq", "--g", "inf"), "--g must be non-negative and finite, got inf"),
        (("mode-image", "--extent-um", "nan"), "image range bounds must be finite, got (nan, nan)"),
        (("mode-image", "--extent-um", -5), "empty image range (5.0, -5.0)"),
        (("mode-image", "--samples", 0), "need at least 2 samples, got 0"),
        (("mode-image", "--samples", 1), "need at least 2 samples, got 1"),
    ],
    ids=["pos-y-nan", "freq-x-nan", "freq-y-inf", "g-nan", "g-inf", "image-nan", "image-negative", "image-0", "image-1"],
)
def test_degenerate_scan_and_image_arguments_write_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert run(*argv, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_malformed_trace_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t_s,expected_T,counts\n0.0,1.0,50\nnot,a_number,x\n")
    assert run("fit", "--trace", bad, "--out", tmp_path / "f.json") == 2
    err = capsys.readouterr().err
    assert f"{bad}:3:" in err
    assert err.count(str(bad)) == 1
    missing = tmp_path / "missing.csv"
    assert run("fit", "--trace", missing, "--out", tmp_path / "f.json") == 2
    err = capsys.readouterr().err
    assert "No such file" in err
    assert err.count(str(missing)) == 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    # the second is a key that no longer exists: an old config fails loudly
    cfg = tmp_path / "run.cfg"
    for line in ("bogus_key = 1", "cross_term_sign = -1"):
        cfg.write_text(f"g0_mhz = 23.9\n{line}\n")
        assert run("transit", "--config", cfg, "--y", 0, "--v", 0.4, "--out", tmp_path / "t.csv") == 2
        assert "unknown key" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# test config\nseed = 5\ntilt_deg = 0\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    # flag overrides the file seed
    run("transit", "--config", cfg, "--seed", 5, "--y", 10, "--v", 0.4, "--out", a)
    run("transit", "--config", cfg, "--y", 10, "--v", 0.4, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_dumped_config_reproduces_run(tmp_path):
    dump = tmp_path / "effective.cfg"
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(
        "transit", "--y", -16.3, "--v", 0.39, "--seed", 3, "--tilt-deg", 30.0,
        "--flux0-cps", 2e6, "--out", a, "--dump-config", dump,
    )
    assert dump.exists()
    run("transit", "--config", dump, "--y", -16.3, "--v", 0.39, "--out", b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv, field",
    [
        (("scan", "--axis", "pos", "--w0-um", "nan"), "w0_um"),
        (("scan", "--axis", "pos", "--g0-mhz", "nan"), "g0"),
        (("scan", "--axis", "pos", "--kappa-mhz", "inf"), "kappa"),
        (("scan", "--axis", "pos", "--tilt-deg", "nan"), "tilt_deg"),
        (("transit", "--y", 0, "--v", 0.4, "--flux0-cps", "nan"), "flux0_cps"),
        (("transit", "--y", 0, "--v", 0.4, "--window-stop-us", "inf"), "window_us"),
        (("transit", "--y", "nan", "--v", 0.4), "y_off_um"),
        (("degeneracy", "--y", 10, "--v", 0.42, "--w0-um", "nan"), "w0_um"),
        (("ensemble", "--temperature-uk", "nan"), "temperature_k"),
        (("ensemble", "--drop-height-m", "nan"), "drop_height_m"),
        (("ensemble", "--timing-jitter-ms", "inf"), "timing_jitter_s"),
    ],
    ids=lambda v: " ".join(map(str, v)) if isinstance(v, tuple) else v,
)
def test_non_finite_setting_is_rejected_by_name(tmp_path, capsys, argv, field):
    out = tmp_path / "out.csv"
    assert run(*argv, "--out", out) == 2
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ("mode-image",),
        ("scan", "--axis", "pos"),
        ("transit", "--y", 0, "--v", 0.4),
        ("fit", "--trace", "missing.csv"),
        ("degeneracy", "--y", 10, "--v", 0.42),
        ("ensemble",),
        ("thermometry",),
    ],
    ids=lambda command: command[0],
)
def test_every_config_key_is_a_flag_of_every_command(tmp_path, monkeypatch, command):
    # the dump is written before the command runs, so its exit code is moot
    monkeypatch.chdir(tmp_path)
    step = {"int": 1, "float": 0.25}
    values = {f.name: f.default + step[f.type] for f in fields(RunConfig) if f.name != "out"}
    values["out"] = str(tmp_path / "out")
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in values.items()]
    run(*command, *flags, "--dump-config", tmp_path / "dump.cfg")
    assert load_run_config(tmp_path / "dump.cfg") == RunConfig(**values)


def test_run_config_defaults_are_the_component_defaults():
    rc = RunConfig()
    assert system_config(rc) == SystemConfig()
    assert detector_config(rc) == DetectorConfig()
    assert fall_config(rc) == FallConfig()


def test_ensemble_thermometry_pipeline(tmp_path):
    ens = tmp_path / "ens.csv"
    temp = tmp_path / "temp.json"
    assert run("ensemble", "--n", 2000, "--temperature-uk", 186, "--seed", 5, "--out", ens) == 0
    assert ens.read_text().splitlines()[0] == "v0_mps,t_arr_ms,v_arr_mps"
    assert run("thermometry", "--ensemble", ens, "--out", temp) == 0
    est = json.loads(temp.read_text())
    assert list(est) == ["temperature_k", "sigma_t_k", "n_used", "v_min_mps", "t_min_ms"]
    assert est["temperature_k"] == pytest.approx(186e-6, rel=0.15)
    assert est["n_used"] == 2000


def test_thermometry_rejects_a_non_finite_ensemble_value(tmp_path, capsys):
    ens = tmp_path / "ens.csv"
    assert run("ensemble", "--n", 50, "--seed", 5, "--out", ens) == 0
    lines = ens.read_text().splitlines()
    lines[3] = lines[3].split(",")[0] + ",inf," + lines[3].split(",")[2]
    ens.write_text("\n".join(lines) + "\n")
    temp = tmp_path / "temp.json"
    assert run("thermometry", "--ensemble", ens, "--out", temp) == 2
    assert f"error: {ens}:4: t_arr_ms inf is not finite" in capsys.readouterr().err
    assert not temp.exists()


def test_thermometry_from_fit_directory(tmp_path):
    from cavity_transit.fileio import write_fit_json
    from cavity_transit import FallConfig, arrival_from_initial

    fits_dir = tmp_path / "fits"
    fits_dir.mkdir()
    fc = FallConfig()
    rng = np.random.default_rng(0)
    for i, v0 in enumerate(rng.normal(0.0, 0.1079, 200)):
        t_arr, v_arr = arrival_from_initial(fc, v0)
        write_fit_json(
            fits_dir / f"fit_{i:03d}.json",
            FitResult(0.0, v_arr, t_arr, 0.1, 0.005, 1e-6, -100.0, -150.0, True, 1),
        )
    temp = tmp_path / "temp.json"
    assert run("thermometry", "--fits", fits_dir, "--out", temp) == 0
    est = json.loads(temp.read_text())
    assert est["temperature_k"] == pytest.approx(186e-6, rel=0.3)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.pop("v_mps"), "missing key 'v_mps'"),
        (lambda d: d.update(t_c_s="soon"), "t_c_s must be a number, got 'soon'"),
    ],
    ids=["missing-key", "non-numeric"],
)
def test_thermometry_rejects_a_bad_fit_json(tmp_path, capsys, edit, message):
    from cavity_transit.fileio import write_fit_json

    fits_dir = tmp_path / "fits"
    fits_dir.mkdir()
    good, bad = fits_dir / "a.json", fits_dir / "b.json"
    write_fit_json(good, FitResult(0.0, 0.4, 0.3, 0.1, 0.005, 1e-6, -100.0, -150.0, True, 1))
    d = json.loads(good.read_text())
    edit(d)
    bad.write_text(json.dumps(d))
    assert run("thermometry", "--fits", fits_dir, "--out", tmp_path / "t.json") == 2
    assert f"error: {bad}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize(
    "n_fits, key, value, message",
    [
        (12, "v_mps", math.nan, "v_arr_mps must be finite, got nan"),
        (12, "t_c_s", math.inf, "t_arr_ms must be finite, got inf"),
        # the ensemble is checked when it is built, before the estimate counts it
        (3, "v_mps", math.nan, "v_arr_mps must be finite, got nan"),
    ],
    ids=["nan-speed", "infinite-time", "nan-speed-few-fits"],
)
def test_thermometry_rejects_a_non_finite_fit(tmp_path, capsys, n_fits, key, value, message):
    from cavity_transit.fileio import write_fit_json

    fits_dir = tmp_path / "fits"
    fits_dir.mkdir()
    for i in range(n_fits):
        fit = FitResult(0.0, 0.4 + 0.01 * i, 0.03 + 0.001 * i, 0.1, 0.005, 1e-6, -100.0, -150.0, True, 1)
        if i == 1:
            fit = replace(fit, **{key: value})
        write_fit_json(fits_dir / f"fit_{i:02d}.json", fit)
    temp = tmp_path / "t.json"
    assert run("thermometry", "--fits", fits_dir, "--out", temp) == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not temp.exists()


def test_fit_rejects_zero_known_flux(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    run("transit", "--y", -16.3, "--v", 0.39, "--seed", 1, "--out", trace)
    assert run("fit", "--trace", trace, "--flux0-known=0", "--out", tmp_path / "f.json") == 2
    assert f"error: {trace}: empty-cavity rate must be positive" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


def test_fit_rejects_infinite_known_flux(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    run("transit", "--y", -16.3, "--v", 0.39, "--seed", 1, "--out", trace)
    assert run("fit", "--trace", trace, "--flux0-known", "inf", "--out", tmp_path / "f.json") == 2
    assert f"error: {trace}: empty-cavity rate must be positive, got inf" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


def test_batch_fit_directory_feeds_thermometry(tmp_path):
    traces = tmp_path / "traces"
    traces.mkdir()
    for seed in range(12):
        run("transit", "--y", -16.3, "--v", 0.39 + 0.003 * seed, "--seed", seed,
            "--out", traces / f"transit_{seed:02d}.csv")
    fits = tmp_path / "fits"
    assert run("fit", "--trace", traces, "--out", fits) == 0
    outputs = sorted(fits.glob("*.json"))
    assert [p.stem for p in outputs] == [f"transit_{s:02d}" for s in range(12)]
    assert all(json.loads(p.read_text())["converged"] for p in outputs)
    temp = tmp_path / "temp.json"
    assert run("thermometry", "--fits", fits, "--out", temp) == 0
    assert json.loads(temp.read_text())["n_used"] == 12


def test_batch_fit_goes_on_past_a_dipless_trace(tmp_path, capsys):
    traces = tmp_path / "traces"
    traces.mkdir()
    run("transit", "--y", -16.3, "--v", 0.39, "--seed", 1, "--out", traces / "a.csv")
    # 200 um off axis the atom never enters the mode: a flat trace
    run("transit", "--y", 200, "--v", 0.39, "--seed", 2, "--out", traces / "b.csv")
    run("transit", "--y", 18.0, "--v", 0.42, "--seed", 3, "--out", traces / "c.csv")
    fits = tmp_path / "fits"
    assert run("fit", "--trace", traces, "--out", fits) == 2
    assert sorted(p.name for p in fits.glob("*.json")) == ["a.json", "c.json"]
    err = capsys.readouterr().err
    assert f"error: {traces / 'b.csv'}: no transit dip" in err
    assert "a.csv" not in err and "c.csv" not in err


def test_batch_fit_reports_a_mixed_directory_in_filename_order(tmp_path, monkeypatch, capsys):
    from cavity_transit import reconstruct

    # one Newton step per run: every fit stops unconverged
    monkeypatch.setattr(reconstruct, "MAX_REFINE_STEPS", 1)
    traces = tmp_path / "traces"
    traces.mkdir()
    run("transit", "--y", -16.3, "--v", 0.39, "--seed", 1, "--out", traces / "a.csv")
    (traces / "b.csv").write_text("t_s,expected_T,counts\n0.0,1.0,50\nnot,a_number,x\n")
    run("transit", "--y", 18.0, "--v", 0.42, "--seed", 3, "--out", traces / "c.csv")
    run("transit", "--y", 200, "--v", 0.39, "--seed", 2, "--out", traces / "d.csv")  # no dip
    run("transit", "--y", 5.0, "--v", 0.45, "--seed", 4, "--out", traces / "e.csv")
    capsys.readouterr()
    fits = tmp_path / "fits"
    assert run("fit", "--trace", traces, "--out", fits) == 2
    stuck = "fit did not converge; best-so-far parameters written"
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 5
    assert lines[0] == f"{traces / 'a.csv'}: {stuck}"
    assert lines[1].startswith(f"error: {traces / 'b.csv'}:3: ")
    assert lines[2] == f"{traces / 'c.csv'}: {stuck}"
    assert lines[3] == f"error: {traces / 'd.csv'}: no transit dip detected in trace"
    assert lines[4] == f"{traces / 'e.csv'}: {stuck}"
    assert sorted(p.name for p in fits.glob("*.json")) == ["a.json", "c.json", "e.json"]
    assert not any(json.loads(p.read_text())["converged"] for p in fits.glob("*.json"))


def test_batch_fit_empty_directory(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert run("fit", "--trace", empty, "--out", tmp_path / "fits") == 2
    assert "no trace CSV" in capsys.readouterr().err


def test_ensemble_timing_jitter_flag(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run("ensemble", "--n", 100, "--seed", 1, "--out", a)
    run("ensemble", "--n", 100, "--seed", 1, "--timing-jitter-ms", 5, "--out", b)
    assert a.read_bytes() != b.read_bytes()
    col_v0 = lambda p: [line.split(",")[0] for line in p.read_text().splitlines()[1:]]
    assert col_v0(a) == col_v0(b)


def test_thermometry_input_flags_conflict(tmp_path, capsys):
    assert run("thermometry", "--out", tmp_path / "t.json") == 2
    err = capsys.readouterr().err
    assert "exactly one" in err


def test_thermometry_rejects_a_fit_directory_without_fits(tmp_path, capsys):
    (tmp_path / "fits").mkdir()
    (tmp_path / "fits" / "trace.csv").write_text("")
    assert run("thermometry", "--fits", tmp_path / "fits", "--out", tmp_path / "t.json") == 2
    assert capsys.readouterr().err == f"error: no fit JSON files found in {tmp_path / 'fits'}\n"
    assert not (tmp_path / "t.json").exists()


def test_degeneracy_report_json(tmp_path):
    out = tmp_path / "deg.json"
    assert run("degeneracy", "--y", 10, "--v", 0.42, "--out", out) == 0
    reports = {r["transform"]: r for r in json.loads(out.read_text())}
    assert [list(r) for r in reports.values()] == [["transform", "sup_diff", "degenerate"]] * 3
    assert not reports["y-mirror"]["degenerate"]
    assert reports["z-antinode-shift"]["degenerate"]
    assert reports["z-mirror"]["degenerate"]


def test_fit_nonconvergence_exit_code(tmp_path, monkeypatch):
    import cavity_transit.cli as cli

    stuck = FitResult(0.0, 0.42, 0.0, 1.0, 0.01, 1e-6, -1.0, -1.0, False, 99)
    monkeypatch.setattr(cli, "fit_transits", lambda cfg, det, traces, **kw: [stuck for _ in traces])
    trace = tmp_path / "trace.csv"
    run("transit", "--y", 0, "--v", 0.42, "--out", trace)
    assert run("fit", "--trace", trace, "--out", tmp_path / "f.json") == 3
    assert json.loads((tmp_path / "f.json").read_text())["converged"] is False


def test_cli_import_loads_no_scipy():
    # the runtime needs numpy alone; a fresh interpreter shows what importing
    # the command line pulls in
    import cavity_transit

    src = str(Path(cavity_transit.__file__).parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import cavity_transit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_main_builds_its_parsers_once_per_process(tmp_path, monkeypatch):
    # the parser is built on the first call and every later call reuses it
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert run("transit", "--y", 0, "--v", 0.42, "--out", tmp_path / "a.csv") == 0
    first = len(built)
    assert first > 0
    assert run("ensemble", "--n", 10, "--out", tmp_path / "e.csv") == 0
    assert len(built) == first
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_cli_import_builds_no_parser():
    # the parser is built by the first `main` call, not by the import
    src = str(Path(cli.__file__).parent.parent)
    code = (
        f"import argparse, sys; sys.path.insert(0, {src!r}); built = []; init = argparse.ArgumentParser.__init__\n"
        "def spy(self, *args, **kwargs):\n    built.append(self)\n    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = spy\n"
        "import cavity_transit.cli as cli\n"
        "print(len(built), cli.build_parser.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True).stdout
    assert out.split() == ["0", "0"]


def test_reused_parser_carries_no_state_between_calls(tmp_path, capsys):
    # a refused command line, two help texts and a seeded transit leave
    # nothing behind: a later transit without flags gets every default
    with pytest.raises(SystemExit) as refused:
        run("transit", "--y", 0, "--v", 0.4, "--bogus", 1, "--out", tmp_path / "bad.csv")
    assert refused.value.code == 2
    assert not (tmp_path / "bad.csv").exists()
    helps = []
    for _ in range(2):
        capsys.readouterr()
        with pytest.raises(SystemExit) as shown:
            run("--help")
        assert shown.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "transit" in helps[0]
    seeded, unseeded = tmp_path / "seeded.csv", tmp_path / "unseeded.csv"
    flags = ("--tilt-deg", 30, "--background-cps", 500, "--tc", 1e-4, "--z", 50)
    assert run("transit", "--y", -16.3, "--v", 0.39, "--seed=3", *flags, "--out", seeded) == 0
    assert run("transit", "--y", -16.3, "--v", 0.39, "--out", unseeded) == 0
    rc = RunConfig()
    det = detector_config(rc)
    trace = expected_trace(system_config(rc), Trajectory(-16.3, 0.39), det)
    write_trace_csv(tmp_path / "in_process.csv", sample_counts(trace, det, 0))
    assert unseeded.read_bytes() == (tmp_path / "in_process.csv").read_bytes()
    assert seeded.read_bytes() != unseeded.read_bytes()


def test_no_transit_trace_is_validation_error(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    lines = ["t_s,expected_T,counts"] + [f"{i * 1e-5:.17g},1,50" for i in range(50)]
    flat.write_text("\n".join(lines) + "\n")
    assert run("fit", "--trace", flat, "--out", tmp_path / "f.json") == 2
    assert "no transit dip" in capsys.readouterr().err


def test_mode_image_nodal_line_at_45_degrees(tmp_path):
    out = tmp_path / "mode.csv"
    assert run("mode-image", "--samples", 121, "--extent-um", 40, "--out", out) == 0
    assert out.with_suffix(".svg").exists()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    data = np.array([[float(a), float(b), float(c)] for a, b, c in rows])
    n = 121
    x = data[:n, 0]
    grid = data[:, 2].reshape(n, n)
    y_vals = data[::n, 1]
    # per-row intensity minimum traces the nodal line x(y)
    x_min = np.array([x[np.argmin(grid[j])] for j in range(n)])
    slope = np.polyfit(y_vals, x_min, 1)[0]
    angle = math.degrees(math.atan(abs(slope)))
    assert abs(angle - 45.0) <= 1.0


def test_mode_image_tem00_is_circularly_symmetric(tmp_path):
    # iso-level radii of the underlying field, located by root finding
    geo = ModeGeometry(tilt_deg=45.0)
    idx = ModeIndex(0, 0)
    peak = mode_amplitude(idx, geo, ModePoint(0.0, 0.0, 0.0)) ** 2
    level = 0.5 * peak

    def radius(phi):
        f = lambda r: mode_amplitude(
            idx, geo, ModePoint(r * math.cos(phi), r * math.sin(phi), 0.0)
        ) ** 2 - level
        return brentq(f, 1e-6, 3 * geo.w0_um, xtol=1e-13)

    radii = [radius(phi) for phi in np.linspace(0, 2 * math.pi, 37)]
    assert max(radii) - min(radii) < 1e-9


def test_mode_image_tem01_untilted_nodal_line_along_x(tmp_path):
    out = tmp_path / "mode01.csv"
    assert (
        run("mode-image", "--mode-m", 0, "--mode-n", 1, "--tilt-deg", 0,
            "--samples", 81, "--extent-um", 40, "--out", out) == 0
    )
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    data = np.array([[float(a), float(b), float(c)] for a, b, c in rows])
    n = 81
    grid = data[:, 2].reshape(n, n)
    y_vals = data[::n, 1]
    # for every column the minimum over y sits on the y = 0 row
    j_zero = int(np.argmin(np.abs(y_vals)))
    assert np.all(np.argmin(grid, axis=0) == j_zero)
