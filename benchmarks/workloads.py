"""The three benchmark workloads.

Each workload is a closed loop with one caller: an operation starts only
when the previous one has returned.  Inputs come from the workload seed
alone: the seed draws a fixed set of operations, and passes over that set
repeat until `seconds` of operation time is spent, so every operation is
timed several times.  Right before each operation the benchmark's own
reference kernel is timed, and the operation's time is also kept as a
multiple of it (see `Outcome`).  Every operation's output is checked, and
a failure or a failed check is counted in the `Outcome`, never raised.
Check time is not timed.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cavity_transit import (
    cli,
    config,
    detector,
    fileio,
    kinematics,
    modes,
    reconstruct,
    svgplot,
    thermometry,
    transmission,
)

REFERENCE_TRANSITS = ((-16.3, 0.39), (0.0, 0.42), (18.0, 0.42))
MC_INPUTS = 30  # Poisson samples per pass, 10 of each reference transit
SIGN_MARGIN = 10.0  # log-likelihood units, as in acceptance criterion 6

RELEASES_PER_ROUND = 10  # crossing releases; thermometry needs at least 10 fits
ROUNDS_PER_PASS = 3  # release sets, each a transit/fit/thermometry round
RELEASE_Y_UM = 20.0  # |y| of a release that crosses the mode
MISS_Y_WAISTS = 4.0  # |y| of a release that misses it: no dip
BACKGROUND_CPS = 500.0  # dark counts in cli-pipeline
TEMPERATURE_K = 186e-6

# The reference kernel's time on a quiet host (a 2-core Xeon guest): the
# speed that times scaled by the kernel are quoted at.
REFERENCE_S = 2.5e-3
_REF_SMALL = np.linspace(0.0, 1.0, 50)
_REF_LARGE = np.linspace(0.0, 1.0, 50_000)

MODE_IMAGE_SAMPLES = 161
MODE_IMAGE_EXTENT_UM = 50.0
SCAN_SAMPLES = 2001
ENSEMBLE_ATOMS = 100_000
TEMPERATURE_SIGMAS = 5.0


@dataclass
class Outcome:
    """What one timed loop did.

    `ops` is the unit per-layer figures are divided by: completed fits, or
    completed forward sets.  `latencies_s` holds every operation's wall
    time and `reference_s` the reference kernel's time before it.
    `ratios` holds, for each kind of operation, every repeat's wall time
    over that reference time; the end-to-end timings are taken from these,
    because the shared host slows the kernel and the operation alike.  A
    kind is one input (mc-fit), one command of one round (cli-pipeline:
    the transits of a round do the same work, its fit has its own traces)
    or one step of the forward set; `pass_keys` lists the kinds in one
    pass, in order.
    """

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    first_error: dict = field(default_factory=dict)
    check_failures: int = 0
    timed_s: float = 0.0
    ops: int = 0
    latencies_s: list = field(default_factory=list)
    reference_s: list = field(default_factory=list)
    ratios: dict = field(default_factory=dict)
    pass_keys: list = field(default_factory=list)
    passes: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def time_op(self, key, seconds: float, reference_s: float) -> None:
        """Record one operation of the kind `key` and the reference time before it."""
        self.timed_s += seconds
        self.latencies_s.append(seconds)
        self.reference_s.append(reference_s)
        self.ratios.setdefault(key, []).append(seconds / reference_s)
        if self.passes == 0:
            self.pass_keys.append(key)

    def scaled_s(self) -> list[float]:
        """One pass's operations, each its kind's median ratio times REFERENCE_S."""
        return [statistics.median(self.ratios[k]) * REFERENCE_S for k in self.pass_keys]

    def scaled_total(self) -> float:
        """Every repeat's time at the reference speed, summed."""
        return sum(sum(r) for r in self.ratios.values()) * REFERENCE_S

    @property
    def scaled_p50_s(self) -> float:
        """Median operation time at the reference speed."""
        return statistics.median(self.scaled_s()) if self.pass_keys else math.nan

    @property
    def scaled_ops_per_s(self) -> float:
        """Completed operations per second at the reference speed."""
        total = sum(self.scaled_s())
        return self.ops / self.passes / total if self.passes and total else math.nan

    def count(self, reason: str | None, detail: str = "", check: bool = False) -> bool:
        """Count one attempted operation; True when it succeeded."""
        self.attempted += 1
        if reason is None:
            return True
        self.failures[reason] += 1
        self.first_error.setdefault(reason, detail)
        if check:
            self.check_failures += 1
        return False


def reference_kernel() -> float:
    """Fixed work in the package's own idiom: small-array numpy calls in a
    Python loop, one large-array call and float formatting."""
    total = 0.0
    for i in range(300):
        total += float(np.sum(np.exp(-_REF_SMALL * (i * 1e-3))))
    total += float(np.sum(np.exp(-_REF_LARGE)))
    return total + len(",".join(f"{v:.6g}" for v in _REF_LARGE[:2000]))


def reference_seconds() -> float:
    """Wall time of one reference kernel, measured now."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------- mc-fit


def warmup_mc_fit() -> None:
    cfg, det = transmission.SystemConfig(), detector.DetectorConfig()
    y, v = REFERENCE_TRANSITS[0]
    clean = detector.expected_trace(cfg, kinematics.Trajectory(y, v), det)
    reconstruct.fit_transit(cfg, det, detector.sample_counts(clean, det, 0))


def mc_fit(seed: int, seconds: float, workdir: Path) -> Outcome:
    """Simulate and fit Poisson transits of the three reference trajectories.

    One operation is `expected_trace` + `sample_counts` + `fit_transit` of
    one of MC_INPUTS sample seeds; every repeat must return the same fit.
    """
    cfg, det = transmission.SystemConfig(), detector.DetectorConfig()
    rng = np.random.default_rng(seed)
    inputs = [
        (*REFERENCE_TRANSITS[i % len(REFERENCE_TRANSITS)], int(s))
        for i, s in enumerate(rng.integers(2**31, size=MC_INPUTS))
    ]
    out = Outcome()
    first = {}  # input -> its fit in the first pass
    clock = time.perf_counter
    while out.timed_s < seconds:
        for i, (y, v, sample_seed) in enumerate(inputs):
            ref = reference_seconds()
            t0 = clock()
            try:
                clean = detector.expected_trace(cfg, kinematics.Trajectory(y, v), det)
                fit = reconstruct.fit_transit(
                    cfg, det, detector.sample_counts(clean, det, sample_seed)
                )
            except Exception as exc:  # a failing operation is counted, not fatal
                out.time_op(i, clock() - t0, ref)
                out.count("exception", _describe(exc))
                continue
            out.time_op(i, clock() - t0, ref)
            first.setdefault(i, fit)
            if not _finite(fit.sigma_y_um, fit.sigma_v_mps, fit.sigma_tc_s):
                out.count("non-finite sigma", f"input {i}", check=True)
            elif fit != first[i]:
                out.count("repeat fit differs", f"input {i}", check=True)
            elif out.count(None if fit.converged else "not converged", f"input {i}"):
                out.ops += 1
        out.passes += 1
    err_y, err_v, dll = [], [], []
    for i, fit in first.items():
        y, v, _ = inputs[i]
        err_y.append(abs(fit.params.y_off_um - y))
        err_v.append(abs(fit.params.v_mps - v))
        if y != 0.0:
            dll.append(fit.log_lik - fit.mirror_log_lik)
    out.extra["err_y_p50_um"] = float(np.median(err_y)) if err_y else math.nan
    out.extra["err_v_p50_mps"] = float(np.median(err_v)) if err_v else math.nan
    out.extra["sign_resolved_frac"] = (
        float(np.mean(np.asarray(dll) > SIGN_MARGIN)) if dll else math.nan
    )
    out.extra["accuracy_fits"] = len(err_y)
    return out


# ---------------------------------------------------------- cli-pipeline


@dataclass(frozen=True)
class Release:
    y_um: float
    v_mps: float
    t_c_s: float
    seed: int


def draw_releases(rng: np.random.Generator, n: int, miss_every: int = 0) -> list[Release]:
    """n thermal releases that cross the mode: arrival time and speed of
    atoms dropped from the trap, and an off-axis offset.

    With miss_every = K, a release that misses the mode (MISS_Y_WAISTS off
    axis, so its trace shows no dip) is added at positions K // 2, K // 2 + K,
    and so on, so that crossing releases sort after each miss.
    """
    n_miss = 0
    while miss_every and miss_every // 2 + n_miss * miss_every < n + n_miss:
        n_miss += 1
    total = n + n_miss
    rc = config.RunConfig()
    g, h = rc.gravity_mps2, rc.drop_height_m
    sigma_v = math.sqrt(kinematics.K_BOLTZMANN * TEMPERATURE_K / rc.atom_mass_kg)
    v0 = rng.normal(0.0, sigma_v, total)
    v_arr = np.sqrt(v0**2 + 2.0 * g * h)
    t_arr = (v_arr - v0) / g
    y = rng.uniform(-RELEASE_Y_UM, RELEASE_Y_UM, total)
    if n_miss:
        y[miss_every // 2 :: miss_every] = MISS_Y_WAISTS * rc.w0_um
    seeds = rng.integers(2**31, size=total)
    return [
        Release(float(y[i]), float(v_arr[i]), float(t_arr[i]), int(seeds[i]))
        for i in range(total)
    ]


def subprocess_runner(env: dict, cwd: Path, calls: dict):
    """Runs one CLI command as a fresh `python -m cavity_transit` process."""

    def run(argv):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cavity_transit", *argv],
                env=env,
                cwd=cwd,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
            code, err = proc.returncode, proc.stderr.strip()
        except subprocess.TimeoutExpired:
            code, err = -1, "timed out"
        wall = time.perf_counter() - t0
        calls.setdefault(argv[0], []).append(wall)
        return code, err, wall

    return run


def inprocess_runner(calls: dict, tracer=None):
    """Runs one CLI command through `cli.main` in this process."""

    def run(argv):
        t0 = time.perf_counter()
        with tracer.span(f"cli.{argv[0]}") if tracer is not None else nullcontext():
            try:
                code, err = cli.main(argv), ""
            except Exception as exc:  # an escaping exception is a failure
                code, err = 1, _describe(exc)
        wall = time.perf_counter() - t0
        calls.setdefault(argv[0], []).append(wall)
        return code, err, wall

    return run


def _expected_trace_bytes(rel: Release, path: Path) -> bytes:
    """The trace CSV the `transit` command should write, made in-process."""
    rc = config.RunConfig(background_cps=BACKGROUND_CPS, seed=rel.seed)
    det = config.detector_config(rc)
    trace = detector.expected_trace(
        config.system_config(rc), kinematics.Trajectory(rel.y_um, rel.v_mps, rel.t_c_s), det
    )
    fileio.write_trace_csv(path, detector.sample_counts(trace, det, rc.seed))
    return path.read_bytes()


# Release failures that are wrong output rather than a refused operation.
CHECK_REASONS = ("trace differs from in-process", "fit json unreadable", "non-finite sigma")


def _check_release(rel: Release, code: int, err: str, trace: Path, fit: Path, scratch: Path):
    """First failure of one release (transit, trace bytes, fit), or None."""
    if code != 0:
        return f"transit exit {code}", err
    if not trace.is_file() or trace.read_bytes() != _expected_trace_bytes(rel, scratch):
        return "trace differs from in-process", trace.name
    if not fit.is_file():
        return "trace left unfitted", trace.name
    try:
        result = fileio.read_fit_json(fit)
    except (ValueError, KeyError, TypeError) as exc:
        return "fit json unreadable", _describe(exc)
    if not result.converged:
        return "not converged", fit.name
    if not _finite(result.sigma_y_um, result.sigma_v_mps, result.sigma_tc_s):
        return "non-finite sigma", fit.name
    return None, ""


def pipeline_round(
    run, rounddir: Path, releases: list[Release], out: Outcome, tracer=None, round_no: int = 0
) -> None:
    """transit per release, then `fit --trace DIR`, then `thermometry --fits`.

    Each command's wall time is one timed repeat of that command.  The
    output checks run afterwards, untimed and, in a traced run, untraced.
    """
    traces, fits = rounddir / "traces", rounddir / "fits"
    traces.mkdir(parents=True)
    temperature = rounddir / "temperature.json"
    bg = f"--background-cps={BACKGROUND_CPS!r}"
    transit_results = []

    def timed(argv):
        ref = reference_seconds()
        code, err, wall = run(argv)
        out.time_op((argv[0], round_no), wall, ref)
        return code, err

    for i, rel in enumerate(releases):
        path = traces / f"release_{i:04d}.csv"
        code, err = timed(
            [
                "transit",
                f"--y={rel.y_um!r}",
                f"--v={rel.v_mps!r}",
                f"--tc={rel.t_c_s!r}",
                bg,
                f"--seed={rel.seed}",
                f"--out={path}",
            ]
        )
        transit_results.append((code, err, path))
    fit_code, fit_err = timed(["fit", f"--trace={traces}", f"--out={fits}", bg])
    th_code, th_err = timed(["thermometry", f"--fits={fits}", f"--out={temperature}"])

    with tracer.paused() if tracer is not None else nullcontext():
        scratch = rounddir / "expected.csv"
        for rel, (code, err, path) in zip(releases, transit_results):
            fit = fits / (path.stem + ".json")
            reason, detail = _check_release(rel, code, err, path, fit, scratch)
            if out.count(reason, detail, check=reason in CHECK_REASONS):
                out.ops += 1
        out.count(None if fit_code == 0 else f"fit exit {fit_code}", fit_err)
        if th_code != 0:
            out.count(f"thermometry exit {th_code}", th_err)
            return
        try:
            t_k = float(json.loads(temperature.read_text())["temperature_k"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out.count("temperature json unreadable", _describe(exc), check=True)
            return
        ok = math.isfinite(t_k) and t_k > 0
        out.count(None if ok else "temperature not finite and positive", repr(t_k), check=True)


def cli_pipeline(
    seed: int, seconds: float, workdir: Path, run, miss_every: int = 0, tracer=None
) -> Outcome:
    """Passes of the shell pipeline over ROUNDS_PER_PASS sets of releases
    drawn from the seed, until `seconds` of command time is spent."""
    rng = np.random.default_rng(seed)
    rounds = [draw_releases(rng, RELEASES_PER_ROUND, miss_every) for _ in range(ROUNDS_PER_PASS)]
    out = Outcome()
    while out.timed_s < seconds:
        for r, releases in enumerate(rounds):
            rounddir = workdir / f"pass_{out.passes:03d}" / f"round_{r}"
            pipeline_round(run, rounddir, releases, out, tracer, r)
        out.passes += 1
    out.extra["rounds"] = out.passes * ROUNDS_PER_PASS
    return out


# -------------------------------------------------------- forward-thermo


def warmup_forward_thermo() -> None:
    transmission.position_scan(transmission.SystemConfig(), 0.0, (-80.0, 80.0), SCAN_SAMPLES)


def _forward_set(cfg, fc, mass_kg, ens_seed: int, workdir: Path):
    """One forward set; returns a list of (step, wall seconds, reference
    seconds, reason, detail)."""
    clock = time.perf_counter
    results = []

    def step(name, fn, check):
        ref = reference_seconds()
        t0 = clock()
        try:
            value = fn()
        except Exception as exc:  # a failing step is counted, not fatal
            results.append((name, clock() - t0, ref, "exception", _describe(exc)))
            return
        wall = clock() - t0
        bad = check(value)
        results.append((name, wall, ref, bad, name) if bad else (name, wall, ref, None, ""))

    def mode_image():
        x = np.linspace(-MODE_IMAGE_EXTENT_UM, MODE_IMAGE_EXTENT_UM, MODE_IMAGE_SAMPLES)
        xx, yy = np.meshgrid(x, x)
        mp = modes.lab_to_mode(modes.LabPoint(xx, yy, 0.0), cfg.geometry.tilt_deg)
        intensity = modes.mode_amplitude(cfg.mode, cfg.geometry, mp) ** 2
        fileio.write_mode_image_csv(workdir / "mode.csv", x, x, intensity)
        svgplot.heatmap_svg(workdir / "mode.svg", x, x, intensity, "x (um)", "y (um)", "mode")
        return intensity

    def check_image(intensity):
        if not (np.all(np.isfinite(intensity)) and intensity.min() >= 0 and intensity.max() > 0):
            return "mode image not finite and positive"
        if (workdir / "mode.svg").stat().st_size == 0:
            return "empty svg"
        return None

    def scans():
        pos = [
            transmission.position_scan(cfg, y, (-80.0, 80.0), SCAN_SAMPLES)[1]
            for y, _ in REFERENCE_TRANSITS
        ]
        _, lobe = transmission.detuning_scan(
            cfg, modes.LabPoint(10.0, 10.0, 0.0), (-40.0, 40.0), SCAN_SAMPLES
        )
        node = transmission.transmission_at(cfg, modes.LabPoint(0.0, 0.0, 0.0))
        return pos, lobe, node

    def check_scans(value):
        pos, lobe, node = value
        for T in (*pos, lobe):
            if not (np.all(np.isfinite(T)) and T.min() >= 0 and T.max() <= 1 + 1e-12):
                return "transmission outside [0, 1]"
        if abs(node - 1.0) > 1e-12:
            return "T(g=0) != 1 on resonance"
        if len(transmission.local_maxima(lobe)) != 2:
            return "no vacuum-Rabi doublet"
        return None

    def degeneracy():
        det = detector.DetectorConfig()
        return [
            (y, reconstruct.degeneracy_scan(
                cfg, kinematics.Trajectory(y, v), reconstruct.KNOWN_TRANSFORMS, det=det
            ))
            for y, v in REFERENCE_TRANSITS
        ]

    def check_degeneracy(value):
        for y, reports in value:
            for rep in reports:
                expect = rep.transform != "y-mirror" or y == 0.0
                if rep.degenerate != expect:
                    return f"{rep.transform} degeneracy wrong at y={y}"
        return None

    def thermometry_step():
        records = kinematics.sample_ensemble(fc, TEMPERATURE_K, mass_kg, ENSEMBLE_ATOMS, ens_seed)
        path = workdir / "ensemble.csv"
        fileio.write_ensemble_csv(path, records)
        back = fileio.read_ensemble_csv(path)
        return records, back, thermometry.estimate_temperature(back, fc, mass_kg)

    def check_thermometry(value):
        records, back, est = value
        if back != records:
            return "ensemble csv round trip differs"
        if not abs(est.temperature_k - TEMPERATURE_K) <= TEMPERATURE_SIGMAS * est.sigma_t_k:
            return "temperature off by more than 5 sigma"
        return None

    step("mode-image", mode_image, check_image)
    step("scans", scans, check_scans)
    step("degeneracy", degeneracy, check_degeneracy)
    step("thermometry", thermometry_step, check_thermometry)
    return results


def forward_thermo(seed: int, seconds: float, workdir: Path) -> Outcome:
    """Repeat the fixed forward set, one per pass; the seed draws its
    ensemble seed.  Each of its four steps is an operation."""
    rc = config.RunConfig()
    cfg, fc = config.system_config(rc), config.fall_config(rc)
    ens_seed = int(np.random.default_rng(seed).integers(2**31))
    out = Outcome()
    while out.timed_s < seconds:
        ok = True
        for name, wall, ref, reason, detail in _forward_set(
            cfg, fc, rc.atom_mass_kg, ens_seed, workdir
        ):
            out.time_op(name, wall, ref)
            ok &= out.count(reason, detail, check=reason is not None and reason != "exception")
        out.ops += ok
        out.passes += 1
    return out
