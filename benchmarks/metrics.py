"""Metric names, units and directions, and the per-layer figures of a
traced run.  BENCHMARK.json at the repository root lists the same names;
the benchmark's tests keep the two in step.

Per-layer figures are per workload operation ("per op"): per completed fit
on mc-fit and cli-pipeline, per completed forward set on forward-thermo.
`self` times exclude the time of traced calls made inside; `wall` times and
`ns_per_point` include it, so they stay comparable when a refactor merges
or splits the traced functions.  A layer a workload does not reach reads 0.
"""

from __future__ import annotations

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_FILEIO_TIMED = (
    "read_trace_csv",
    "write_trace_csv",
    "read_fit_json",
    "write_fit_json",
    "read_ensemble_csv",
    "write_ensemble_csv",
    "write_mode_image_csv",
)
_CLI_COMMANDS = ("transit", "fit", "thermometry")
_TRANSMISSION_CALLERS = ("grid", "refine", "forward")

PER_LAYER = (
    ("reconstruct.fit_transit.calls", "count/op", "lower"),
    ("reconstruct.fit_transit.self_ms", "ms/op", "lower"),
    ("reconstruct.n_evals_per_fit", "count", "lower"),
    ("reconstruct.converged_frac", "frac", "higher"),
    ("reconstruct.minimize.calls", "count/op", "lower"),
    ("reconstruct.minimize.nfev_per_fit", "count", "lower"),
    ("reconstruct.minimize.self_ms", "ms/op", "lower"),
    ("reconstruct.estimate_flux0.self_ms", "ms/op", "lower"),
    ("reconstruct.degeneracy_scan.self_ms", "ms/op", "lower"),
    ("reconstruct.err_y_p50_um", "um", "lower"),
    ("reconstruct.err_v_p50_mps", "m/s", "lower"),
    ("reconstruct.sign_resolved_frac", "frac", "higher"),
    *(
        row
        for caller in _TRANSMISSION_CALLERS
        for row in (
            (f"transmission.transmission_at.{caller}.calls", "count/op", "lower"),
            (f"transmission.transmission_at.{caller}.points", "count/op", "lower"),
            (f"transmission.transmission_at.{caller}.self_s", "s/op", "lower"),
            (f"transmission.transmission_at.{caller}.wall_s", "s/op", "lower"),
            (f"transmission.transmission_at.{caller}.ns_per_point", "ns", "lower"),
        )
    ),
    ("transmission.transmission_vs_coupling.calls", "count/op", "lower"),
    ("transmission.detuning_scan.self_ms", "ms/op", "lower"),
    ("transmission.position_scan.self_ms", "ms/op", "lower"),
    ("modes.effective_coupling.calls", "count/op", "lower"),
    ("modes.effective_coupling.self_s", "s/op", "lower"),
    ("modes.mode_amplitude.ns_per_point", "ns", "lower"),
    ("detector.expected_trace.self_ms", "ms/op", "lower"),
    ("detector.sample_counts.self_us", "us/op", "lower"),
    ("kinematics.sample_ensemble.self_ms", "ms/op", "lower"),
    ("kinematics.sample_ensemble.records_per_s", "1/s", "higher"),
    ("thermometry.estimate_temperature.self_ms", "ms/op", "lower"),
    ("thermometry.records_from_fits.self_ms", "ms/op", "lower"),
    *((f"fileio.{f}.self_ms", "ms/op", "lower") for f in _FILEIO_TIMED),
    ("fileio.bytes_read", "B/op", "lower"),
    ("fileio.bytes_written", "B/op", "lower"),
    ("svgplot.heatmap_svg.self_ms", "ms/op", "lower"),
    ("config.self_ms", "ms/op", "lower"),
    ("cli.import_ms", "ms", "lower"),
    *((f"cli.{c}.wall_ms", "ms", "lower") for c in _CLI_COMMANDS),
    *((f"cli.{c}.self_ms", "ms/op", "lower") for c in _CLI_COMMANDS),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.spans_per_op", "count/op", "lower"),
)

_ZERO = {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "work": 0.0, "flag": 0.0}


def per_layer(summary: dict, n_ops: int, extra: dict) -> dict[str, float]:
    """Per-layer values from a span summary (see `spans.summarise`).

    `extra` supplies the figures that do not come from spans: recovery
    errors, subprocess CLI timings, import time and tracing overhead.
    """

    def row(key):
        return summary.get(key, _ZERO)

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    def self_per_op(key, scale):
        return per_op(row(key)["self_s"]) * scale

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    fit = row("reconstruct.fit_transit")
    v = {
        "reconstruct.fit_transit.calls": per_op(fit["calls"]),
        "reconstruct.fit_transit.self_ms": self_per_op("reconstruct.fit_transit", 1e3),
        "reconstruct.n_evals_per_fit": ratio(fit["work"], fit["calls"]),
        "reconstruct.converged_frac": ratio(fit["flag"], fit["calls"]),
        "reconstruct.minimize.calls": per_op(row("reconstruct.minimize")["calls"]),
        "reconstruct.minimize.nfev_per_fit": ratio(row("reconstruct.minimize")["work"], fit["calls"]),
        "reconstruct.minimize.self_ms": self_per_op("reconstruct.minimize", 1e3),
        "reconstruct.estimate_flux0.self_ms": self_per_op("reconstruct.estimate_flux0", 1e3),
        "reconstruct.degeneracy_scan.self_ms": self_per_op("reconstruct.degeneracy_scan", 1e3),
    }
    for key in ("err_y_p50_um", "err_v_p50_mps", "sign_resolved_frac"):
        v[f"reconstruct.{key}"] = extra.get(key, 0.0)
    for caller in _TRANSMISSION_CALLERS:
        r = row(f"transmission.transmission_at.{caller}")
        base = f"transmission.transmission_at.{caller}"
        v[f"{base}.calls"] = per_op(r["calls"])
        v[f"{base}.points"] = per_op(r["work"])
        v[f"{base}.self_s"] = per_op(r["self_s"])
        v[f"{base}.wall_s"] = per_op(r["wall_s"])
        v[f"{base}.ns_per_point"] = ratio(r["wall_s"], r["work"], 1e9)
    ens = row("kinematics.sample_ensemble")
    v.update(
        {
            "transmission.transmission_vs_coupling.calls": per_op(
                row("transmission.transmission_vs_coupling")["calls"]
            ),
            "transmission.detuning_scan.self_ms": self_per_op("transmission.detuning_scan", 1e3),
            "transmission.position_scan.self_ms": self_per_op("transmission.position_scan", 1e3),
            "modes.effective_coupling.calls": per_op(row("modes.effective_coupling")["calls"]),
            "modes.effective_coupling.self_s": self_per_op("modes.effective_coupling", 1.0),
            "modes.mode_amplitude.ns_per_point": ratio(
                row("modes.mode_amplitude")["wall_s"], row("modes.mode_amplitude")["work"], 1e9
            ),
            "detector.expected_trace.self_ms": self_per_op("detector.expected_trace", 1e3),
            "detector.sample_counts.self_us": self_per_op("detector.sample_counts", 1e6),
            "kinematics.sample_ensemble.self_ms": self_per_op("kinematics.sample_ensemble", 1e3),
            "kinematics.sample_ensemble.records_per_s": ratio(ens["work"], ens["self_s"]),
            "thermometry.estimate_temperature.self_ms": self_per_op(
                "thermometry.estimate_temperature", 1e3
            ),
            "thermometry.records_from_fits.self_ms": self_per_op(
                "thermometry.records_from_fits", 1e3
            ),
        }
    )
    for f in _FILEIO_TIMED:
        v[f"fileio.{f}.self_ms"] = self_per_op(f"fileio.{f}", 1e3)
    v["fileio.bytes_read"] = per_op(
        sum(r["work"] for k, r in summary.items() if k.startswith("fileio.read_"))
    )
    v["fileio.bytes_written"] = per_op(
        sum(r["work"] for k, r in summary.items() if k.startswith("fileio.write_"))
    )
    v["svgplot.heatmap_svg.self_ms"] = self_per_op("svgplot.heatmap_svg", 1e3)
    v["config.self_ms"] = per_op(
        sum(r["self_s"] for k, r in summary.items() if k.startswith("config."))
    ) * 1e3
    v["cli.import_ms"] = extra.get("cli.import_ms", 0.0)
    for c in _CLI_COMMANDS:
        v[f"cli.{c}.wall_ms"] = extra.get(f"cli.{c}.wall_ms", 0.0)
        v[f"cli.{c}.self_ms"] = self_per_op(f"cli.{c}", 1e3)
    v["trace.overhead_frac"] = extra.get("trace.overhead_frac", 0.0)
    v["trace.spans_per_op"] = per_op(sum(r["calls"] for r in summary.values()))
    return v
