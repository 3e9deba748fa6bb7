"""Tests of the benchmark's own arithmetic and failure accounting.

Run from the repository root:  python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [3, 6], which overlap, and d [8, 12],
    # which runs past a's end; b holds e [2, 3].
    t = spans.Tracer()
    a = t.record("a", 0.0, 10.0)
    b = t.record("b", 1.0, 4.0, parent=a)
    t.record("c", 3.0, 6.0, parent=a)
    t.record("d", 8.0, 12.0, parent=a)
    t.record("e", 2.0, 3.0, parent=b)
    selfs = spans.self_times(t.start, t.end, t.parent)
    # a loses [1, 6] and [8, 10]; b loses e; leaves keep their duration
    assert selfs.tolist() == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_live_spans_nest_and_sum():
    t = spans.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
        with t.span("inner"):
            pass
    assert list(t.parent) == [-1, 0, 0]
    summary = spans.summarise(t)
    assert summary["inner"]["calls"] == 2
    total = t.end[0] - t.start[0]
    assert summary["outer"]["self_s"] + summary["inner"]["self_s"] == pytest.approx(total)
    assert summary["outer"]["wall_s"] == pytest.approx(total)


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert spans.tail_percentile(n) == expected


def test_instrumented_wraps_every_binding_and_restores():
    from cavity_transit import cli, reconstruct

    original = reconstruct.fit_transit
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        assert cli.fit_transit is reconstruct.fit_transit
        assert reconstruct.fit_transit is not original
        cfg = reconstruct.SystemConfig()
        reconstruct.transmission_at(cfg, reconstruct.LabPoint(np.zeros(7), 1.0, 0.0))
    assert reconstruct.fit_transit is original and cli.fit_transit is original
    summary = spans.summarise(tracer)
    assert summary["transmission.transmission_at.forward"]["work"] == 7
    assert summary["modes.effective_coupling"]["calls"] == 1


def test_transmission_split_by_caller():
    t = spans.Tracer()
    fit = t.record("reconstruct.fit_transit", 0.0, 10.0)
    t.record("transmission.transmission_at", 1.0, 2.0, parent=fit)
    nm = t.record("reconstruct.minimize", 3.0, 9.0, parent=fit)
    t.record("transmission.transmission_at", 4.0, 5.0, parent=nm)
    t.record("transmission.transmission_at", 11.0, 12.0)
    summary = spans.summarise(t)
    for caller in ("grid", "refine", "forward"):
        assert summary[f"transmission.transmission_at.{caller}"]["calls"] == 1


def test_timings_are_median_ratios_to_the_reference_kernel():
    out = workloads.Outcome()
    ref = workloads.REFERENCE_S
    # a pass is a, b, b, c; the reference kernel ran at half speed in the
    # first pass, so its operations took twice as long
    for speed, repeat in ((2.0, [4, 2, 2, 6]), (1.0, [2, 3, 1, 3]), (1.0, [3, 1, 1, 3])):
        for key, units in zip(("a", "b", "b", "c"), repeat):
            out.time_op(key, units * ref, speed * ref)
        out.ops += 2
        out.passes += 1
    assert out.ratios["a"] == [2.0, 2.0, 3.0] and out.ratios["c"] == [3.0, 3.0, 3.0]
    assert out.ratios["b"] == [1.0, 1.0, 3.0, 1.0, 1.0, 1.0]
    # medians per kind: a 2, b 1, c 3; a pass at the reference speed is
    # 2 + 1 + 1 + 3 units
    assert out.scaled_s() == pytest.approx([2 * ref, ref, ref, 3 * ref])
    assert out.scaled_p50_s == pytest.approx(1.5 * ref)
    assert out.scaled_ops_per_s == pytest.approx(2 / (7 * ref))
    assert out.scaled_total() == pytest.approx(24 * ref)
    assert out.timed_s == pytest.approx(31 * ref) and len(out.latencies_s) == 12


def _two_inputs_one_second_each(monkeypatch):
    ticks = iter(range(10**6))
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: float(next(ticks)))
    monkeypatch.setattr(workloads, "MC_INPUTS", 2)


def test_repeated_fits_agree(tmp_path, monkeypatch):
    _two_inputs_one_second_each(monkeypatch)
    out = workloads.mc_fit(7, 3.0, tmp_path)
    assert out.passes == 2 and out.attempted == 4 and out.ops == 4
    assert out.failed == 0 and out.ratios == {0: [1.0, 1.0], 1: [1.0, 1.0]}


def test_repeat_that_differs_is_a_failed_check(tmp_path, monkeypatch):
    _two_inputs_one_second_each(monkeypatch)
    real, fits = workloads.reconstruct.fit_transit, []

    def drifting_fit(*args, **kwargs):
        fits.append(real(*args, **kwargs))
        return dataclasses.replace(fits[-1], log_lik=fits[-1].log_lik + (len(fits) > 2))

    monkeypatch.setattr(workloads.reconstruct, "fit_transit", drifting_fit)
    out = workloads.mc_fit(7, 3.0, tmp_path)
    assert out.passes == 2 and out.ops == 2
    assert out.failures["repeat fit differs"] == 2 and out.check_failures == 2


def _fake_runner(codes: dict):
    def run_cmd(argv):
        return codes.get(argv[0], 0), f"{argv[0]} refused", 0.001

    return run_cmd


def test_nonzero_cli_exit_is_counted_not_raised(tmp_path):
    rng = np.random.default_rng(0)
    releases = workloads.draw_releases(rng, 3)
    out = workloads.Outcome()
    runner = _fake_runner({"transit": 2, "fit": 2, "thermometry": 2})
    workloads.pipeline_round(runner, tmp_path / "r", releases, out)
    assert out.attempted == 3 + 2
    assert out.failures["transit exit 2"] == 3
    assert out.failures["fit exit 2"] == 1
    assert out.failures["thermometry exit 2"] == 1
    assert out.ops == 0 and out.check_failures == 0


def test_subprocess_exit_code_is_returned(tmp_path):
    env = run.child_env(1)
    calls = {}
    runner = workloads.subprocess_runner(env, ROOT, calls)
    code, err, wall = runner(["transit", "--v=0.4", f"--out={tmp_path / 't.csv'}"])
    assert code == 2 and "--y" in err and wall > 0
    assert len(calls["transit"]) == 1


def test_dipless_trace_is_counted_not_raised(tmp_path):
    # --miss-every 10: the sixth of eleven releases of each round misses
    # the mode; one in-process pass
    args = run.parse_args(
        ["--workload", "cli-pipeline", "--seed", "3", "--seconds", "1", "--miss-every", "10"]
    )
    out = run.run_loop(args.workload, args.seed, 1e-9, tmp_path / "w", args, {})
    n = workloads.ROUNDS_PER_PASS
    assert out.passes == 1 and out.extra["rounds"] == n
    assert out.attempted == n * (11 + 2)
    assert out.failures["trace left unfitted"] >= n  # the misses, at least
    assert out.failures["fit exit 2"] == n
    assert out.ops + out.failures["trace left unfitted"] == n * 11
    assert out.check_failures == 0


def test_misses_sit_far_off_axis_between_crossings():
    releases = workloads.draw_releases(np.random.default_rng(0), 20, miss_every=10)
    far = [i for i, r in enumerate(releases) if abs(r.y_um) > workloads.RELEASE_Y_UM]
    assert len(releases) == 22 and far == [5, 15]
    assert all(abs(releases[i].y_um) > 3 * 23.8 for i in far)
    assert len(workloads.draw_releases(np.random.default_rng(0), 20)) == 20


def test_in_process_commands_get_a_span_from_the_first_call(tmp_path):
    tracer = spans.Tracer()
    run_cmd = workloads.inprocess_runner({}, tracer)
    with spans.instrumented(tracer):
        code, _, _ = run_cmd(["transit", "--y=1.0", "--v=0.4", f"--out={tmp_path / 't.csv'}"])
    assert code == 0
    assert tracer.names[tracer.name[0]] == "cli.transit"
    assert [i for i, p in enumerate(tracer.parent) if p == -1] == [0]


def test_cli_traces_match_in_process_reproduction(tmp_path):
    rng = np.random.default_rng(5)
    releases = workloads.draw_releases(rng, workloads.RELEASES_PER_ROUND)
    out = workloads.Outcome()
    workloads.pipeline_round(workloads.inprocess_runner({}), tmp_path / "r", releases, out)
    assert out.failed == 0, dict(out.failures)
    assert out.ops == workloads.RELEASES_PER_ROUND


def test_benchmark_json_matches_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        metrics.PER_LAYER
    )
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_per_layer_names_all_present_for_empty_trace():
    values = metrics.per_layer({}, 0, {})
    assert set(values) == {name for name, _, _ in metrics.PER_LAYER}


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "mc-fit", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
