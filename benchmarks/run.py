#!/usr/bin/env python3
"""Benchmark of the cavity_transit pipeline.

    python3 benchmarks/run.py --workload mc-fit --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from `src/` of the
checkout the script sits in, never from an installed copy; without that
source the script exits with code 2 before measuring anything.

With --trace 0 it measures the end-to-end metrics: set-up time over several
fresh interpreters, then a closed loop of the workload for --seconds, in
passes over a fixed set of operations drawn from --seed.  The timings are
quoted at a reference speed: each operation's wall time is divided by that
of a fixed reference kernel timed right before it.  cli-pipeline runs its
commands through `cli.main` in this process; what a fresh
`python -m cavity_transit` process adds is in its set-up time.  With
--trace 1 it runs the loop twice for --seconds / 2 each, untraced and then
with spans around the package's public functions, and reports the
per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import metrics

# spans and workloads import numpy, which reads the BLAS thread cap when it
# is first imported: they are imported inside functions, after main sets it.

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR_PARENT = ROOT / ".bench_work"
WORKLOADS = ("mc-fit", "cli-pipeline", "forward-thermo")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_WARMUP = {
    "mc-fit": "warmup_mc_fit",
    "forward-thermo": "warmup_forward_thermo",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--miss-every",
        type=int,
        default=0,
        metavar="K",
        help="cli-pipeline: add a release that misses the mode every K releases (0: none)",
    )
    return p.parse_args(argv)


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_THREAD_VARS:
        env[var] = str(blas_threads)
    return env


def machine(seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():  # else git would report an enclosing repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "cavity_transit").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
        "seed": seed,
    }


def _timed_child(cmd, env) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[:3])} exited {proc.returncode}: {proc.stderr.strip()}")
    return wall


def setup_seconds(workload: str, env: dict) -> list[float]:
    """Wall time of fresh interpreters that import, configure and warm up."""
    if workload == "cli-pipeline":
        cmd = [sys.executable, "-m", "cavity_transit", "--help"]
    else:
        code = f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import workloads; workloads.{_WARMUP[workload]}()"
        cmd = [sys.executable, "-c", code]
    return [_timed_child(cmd, env) for _ in range(SETUP_REPEATS)]


def import_ms(env: dict) -> float:
    """Median time of `import cavity_transit.cli` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import cavity_transit.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip()) * 1e3)
    return statistics.median(times)


def run_loop(workload, seed, seconds, workdir, args, calls, tracer=None):
    """One closed loop in this process; cli-pipeline calls `cli.main`."""
    import workloads

    workdir.mkdir(parents=True)
    if workload == "mc-fit":
        return workloads.mc_fit(seed, seconds, workdir)
    if workload == "forward-thermo":
        return workloads.forward_thermo(seed, seconds, workdir)
    runner = workloads.inprocess_runner(calls, tracer)
    return workloads.cli_pipeline(seed, seconds, workdir, runner, args.miss_every, tracer)


def subprocess_round(args, env, workdir, calls):
    """One round of the pipeline as fresh `python -m cavity_transit` processes."""
    import numpy as np
    import workloads

    rng = np.random.default_rng(args.seed)
    releases = workloads.draw_releases(rng, workloads.RELEASES_PER_ROUND, args.miss_every)
    out = workloads.Outcome()
    runner = workloads.subprocess_runner(env, ROOT, calls)
    workloads.pipeline_round(runner, workdir, releases, out)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_failures(outcome) -> None:
    for reason, n in sorted(outcome.failures.items()):
        print(f"  failure  {n:5d} x {reason}: {outcome.first_error.get(reason, '')}")


def print_row(name, value, unit, note=""):
    print(f"  {name:<44} {value:>14.6g} {unit:<9} {note}".rstrip())


def end_to_end(args, env, work) -> tuple[dict, list]:
    import spans
    import workloads

    setups = setup_seconds(args.workload, env)
    calls: dict = {}
    out = run_loop(args.workload, args.seed, args.seconds, work / "run", args, calls)
    lat = out.latencies_s
    values = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": out.scaled_ops_per_s,
        "latency_p50_ms": out.scaled_p50_s * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(
        f"end-to-end ({len(setups)} set-ups, {out.timed_s:.2f} s timed, {out.passes} passes"
        f" of {len(out.pass_keys)} operations, at the reference speed)"
    )
    ref = statistics.median(out.reference_s)
    print(f"  reference kernel: median {ref * 1e3:.3f} ms, {ref / workloads.REFERENCE_S:.3f} x its quiet-host time")
    for name, unit, _ in metrics.END_TO_END:
        print_row(name, values[name], unit)
    print(f"workload figures (every repeat, {len(lat)} timed operations)")
    frac = out.failed / out.attempted if out.attempted else 0.0
    print_row("failed_frac", frac, "frac", f"{out.failed}/{out.attempted} ops")
    if args.workload in ("mc-fit", "cli-pipeline"):
        fits_per_s = out.ops / out.timed_s if out.timed_s else 0.0
        print_row("fits_per_s", fits_per_s, "1/s", f"{out.ops} completed fits")
    if args.workload == "mc-fit":
        print_row("fit_p50_ms", spans.percentile(lat, 50) * 1e3, "ms", f"n={len(lat)}")
        tail = spans.tail_percentile(len(lat))
        if tail is not None and tail > 50:
            print_row(f"fit_p{tail:g}_ms", spans.percentile(lat, tail) * 1e3, "ms", f"n={len(lat)}")
        n_acc = out.extra["accuracy_fits"]
        print_row("err_y_p50_um", out.extra["err_y_p50_um"], "um", f"{n_acc} distinct fits")
        print_row("err_v_p50_mps", out.extra["err_v_p50_mps"], "m/s", f"{n_acc} distinct fits")
        print_row("sign_resolved_frac", out.extra["sign_resolved_frac"], "frac", "y != 0 fits")
    if args.workload == "cli-pipeline":
        for cmd, walls in calls.items():
            print_row(f"{cmd}_ms", statistics.median(walls) * 1e3, "ms", f"n={len(walls)}, in-process")
        print_row("rounds", out.extra["rounds"], "count")
    if args.workload == "forward-thermo":
        print_row("wall_s", out.timed_s / out.passes, "s", f"mean of {out.passes} forward sets")
    print_failures(out)
    return values, [out]


def traced(args, env, work) -> tuple[dict, list]:
    import spans

    half = args.seconds / 2.0
    extra: dict = {}
    outcomes = []
    if args.workload == "cli-pipeline":
        extra["cli.import_ms"] = import_ms(env)
        calls: dict = {}
        # one round of fresh processes, for the per-command wall times
        outcomes.append(subprocess_round(args, env, work / "subprocess", calls))
        for cmd, walls in calls.items():
            extra[f"cli.{cmd}.wall_ms"] = statistics.median(walls) * 1e3
    plain = run_loop(args.workload, args.seed, half, work / "untraced", args, {})
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        timed = run_loop(args.workload, args.seed, half, work / "traced", args, {}, tracer=tracer)
    outcomes += [plain, timed]
    extra.update({k: plain.extra[k] for k in ("err_y_p50_um", "err_v_p50_mps", "sign_resolved_frac") if k in plain.extra})
    if plain.ops and timed.ops:
        per_op = [o.scaled_total() / o.ops for o in (timed, plain)]
        extra["trace.overhead_frac"] = per_op[0] / per_op[1] - 1.0
    summary = spans.summarise(tracer)
    values = metrics.per_layer(summary, timed.ops, extra)
    print(f"traced run: {tracer.n_spans} spans, {timed.ops} ops traced, {plain.ops} ops untraced")
    print("span summary (totals over the traced half)")
    print(f"  {'span':<44} {'calls':>9} {'self_s':>10} {'work':>14}")
    for key, r in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {key:<44} {r['calls']:>9d} {r['self_s']:>10.4f} {r['work']:>14.6g}")
    print("per-layer metrics (per op)")
    for name, unit, _ in metrics.PER_LAYER:
        print_row(name, values[name], unit)
    for out in outcomes:
        print_failures(out)
    return values, outcomes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cavity_transit" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cavity_transit'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    blas_threads = len(os.sched_getaffinity(0))
    env = child_env(blas_threads)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = env[var]
    sys.path.insert(0, str(SRC))
    import cavity_transit

    if Path(cavity_transit.__file__).resolve().parent != (SRC / "cavity_transit").resolve():
        print(f"error: imported cavity_transit from {cavity_transit.__file__}", file=sys.stderr)
        return 2

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + json.dumps(machine(args.seed, blas_threads), sort_keys=True))
    WORKDIR_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR_PARENT))
    try:
        values, outcomes = (traced if args.trace else end_to_end)(args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORKDIR_PARENT.rmdir()
        except OSError:
            pass
    spec = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    result = {
        "correct": attempted > 0 and all(o.check_failures == 0 for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            # JSON has no NaN: a figure with no samples (no fits) reads 0
            name: {"value": float(values[name]) if math.isfinite(values[name]) else 0.0, "unit": unit}
            for name, unit, _ in spec
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
