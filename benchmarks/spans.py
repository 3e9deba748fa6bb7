"""In-memory spans for the traced benchmark run.

The package is traced from outside: `instrumented` swaps chosen public
functions of the `cavity_transit` modules for wrappers that open a span,
and puts the originals back on exit.  Nothing under `src/` changes.

A span is (name, parent, start, end) plus two optional numbers set from
the call's arguments or result: `work`, the units of work it did (array
points, file bytes, likelihood evaluations or records, by function), and
`flag`, 1 when its result has a property counted as a share (a converged
fit).  Spans are kept in flat arrays while the run goes and summarised at the end.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Percentiles a timing may be reported at, in tenths of a percent.
_PERCENTILES_TENTHS = (999, 990, 900, 500)
MIN_SAMPLES_BEYOND = 10


def tail_percentile(n_samples: int) -> float | None:
    """Highest reportable percentile with at least ten samples beyond it.

    Candidates are 99.9, 99, 90 and 50; None when even the median has fewer
    than ten samples above it (fewer than 20 samples).
    """
    for tenths in _PERCENTILES_TENTHS:
        if n_samples * (1000 - tenths) // 1000 >= MIN_SAMPLES_BEYOND:
            return tenths / 10.0
    return None


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), pct))


class Tracer:
    """Records nested spans of one thread in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.flag = array("d")
        self._stack: list[int] = []
        self.active = True

    @property
    def n_spans(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work.append(0.0)
        self.flag.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (output checks, for instance)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def record(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span directly (used by tests)."""
        i = self.open(name)
        self._stack.pop()
        self.parent[i] = parent
        self.start[i] = start
        self.end[i] = end
        return i


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered, cur_lo, cur_hi = 0.0, None, None
        for k in sorted(kids, key=lambda k: start[k]):
            lo, hi = max(start[k], lo_p), min(end[k], hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def _has_ancestor(tracer: Tracer, i: int, name_id: int | None) -> bool:
    if name_id is None:
        return False
    p = tracer.parent[i]
    while p >= 0:
        if tracer.name[p] == name_id:
            return True
        p = tracer.parent[p]
    return False


# transmission_at is split by where it is called from: the grid search and
# Fisher probes sit directly under fit_transit, the Nelder-Mead refinement
# under minimize, and everything else is a forward evaluation.
SPLIT_BY_CALLER = "transmission.transmission_at"


def summarise(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per-span-name totals: calls, self_s, wall_s (inclusive), work and flag."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    ids = tracer._name_ids
    split_id = ids.get(SPLIT_BY_CALLER)
    fit_id = ids.get("reconstruct.fit_transit")
    min_id = ids.get("reconstruct.minimize")
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "work": 0.0, "flag": 0.0}
    )
    for i in range(tracer.n_spans):
        nid = tracer.name[i]
        key = tracer.names[nid]
        if nid == split_id:
            if _has_ancestor(tracer, i, min_id):
                key += ".refine"
            elif _has_ancestor(tracer, i, fit_id):
                key += ".grid"
            else:
                key += ".forward"
        row = out[key]
        row["calls"] += 1
        row["self_s"] += float(selfs[i])
        row["wall_s"] += tracer.end[i] - tracer.start[i]
        row["work"] += tracer.work[i]
        row["flag"] += tracer.flag[i]
    return dict(out)


def _wrap(tracer: Tracer, name: str, fn, work=None, flag=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        i = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if work is not None:
            tracer.work[i] = work(args, kwargs, out)
        if flag is not None:
            tracer.flag[i] = float(bool(flag(args, kwargs, out)))
        return out

    return wrapper


def _point_count(arg_index: int):
    """Elements in the broadcast of a LabPoint/ModePoint argument."""

    def count(args, kwargs, out):
        p = args[arg_index]
        return float(np.broadcast(*p).size)

    return count


def _file_size(args, kwargs, out):
    return float(os.path.getsize(args[0]))


def _ensemble_size(args, kwargs, out):
    return float(len(out))


def _fit_evals(args, kwargs, out):
    return float(out.n_evals)


def _fit_converged(args, kwargs, out):
    return out.converged


def _nfev(args, kwargs, out):
    return float(out.nfev)


PACKAGE = "cavity_transit"

# Public functions the workloads reach that get a span.  Small helpers
# called inside every likelihood evaluation (hermite, lab_to_mode,
# relative_amplitude, x_at, bin_centers) are left out: a span there costs
# more than the work it times, and their time shows as self time of the
# caller.
TRACED = {
    "modes": {
        "mode_amplitude": {"work": _point_count(2)},
        "effective_coupling": {"work": _point_count(3)},
    },
    "transmission": {
        "transmission_at": {"work": _point_count(1)},
        "transmission_vs_coupling": {},
        "position_scan": {},
        "detuning_scan": {},
    },
    "kinematics": {"sample_ensemble": {"work": _ensemble_size}},
    "detector": {"expected_trace": {}, "sample_counts": {}},
    "reconstruct": {
        "fit_transit": {"work": _fit_evals, "flag": _fit_converged},
        "minimize": {"work": _nfev},
        "estimate_flux0": {},
        "degeneracy_scan": {},
    },
    "thermometry": {"estimate_temperature": {}, "records_from_fits": {}, "v_shape_curve": {}},
    "config": {
        "apply_overrides": {},
        "system_config": {},
        "detector_config": {},
        "fall_config": {},
    },
    "fileio": {
        f: {"work": _file_size}
        for f in (
            "read_trace_csv",
            "write_trace_csv",
            "read_fit_json",
            "write_fit_json",
            "read_ensemble_csv",
            "write_ensemble_csv",
            "write_mode_image_csv",
            "write_temperature_json",
        )
    },
    "svgplot": {"heatmap_svg": {}},
}


@contextmanager
def instrumented(tracer: Tracer):
    """Route calls to the traced functions through span wrappers.

    Every loaded module of the package that holds a traced function under
    any name gets the wrapper, so calls made through `from x import f`
    bindings are traced too.  The originals are restored on exit.
    """
    modules = [m for n, m in list(sys.modules.items()) if n.partition(".")[0] == PACKAGE]
    patched = []
    try:
        for short, funcs in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{short}"]
            for fname, hooks in funcs.items():
                orig = getattr(home, fname)
                wrapper = _wrap(tracer, f"{short}.{fname}", orig, **hooks)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, orig))
        yield tracer
    finally:
        for mod, attr, orig in reversed(patched):
            setattr(mod, attr, orig)
