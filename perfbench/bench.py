"""Workloads, pipeline, output checks and tracing of the burnback benchmark.

A workload is one registry case run the way the CLI runs it: the same
public calls, in the same order, as the `curves` and `contours` handlers
of burnback.cli (build_case -> geom_cache -> solve -> burn_curves ->
emit_csv -> emit_svg -> field emit_csv), without argparse or files.
Passes over the case run in a closed loop in a single process.

Importing this module imports numpy, scipy and burnback, so run.py pins
the BLAS/OpenMP thread counts before importing it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np
import scipy

import burnback
from burnback.cases import build_case
from burnback.contour import Contour, make_circle
from burnback.eikonal import solve
from burnback.mesh import geom_cache
from burnback.postproc import burn_curves, emit_csv, emit_svg, error_field

# Set-up is repeated this many times per run; set-up metrics are medians.
SETUP_REPEATS = 5


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Job:
    """One case run as `burnback curves` plus `burnback contours`.

    Each field is the CLI flag of the same name; None means the flag is
    left out and the handler's default applies (8 SVG levels, mesh shown).
    """

    case: str
    tau_min: float | None = None
    tau_max: float | None = None
    tau_count: int = 33
    levels: tuple[float, ...] | None = None


def _star_job(case, rng) -> Job:
    return Job("star")


def _circle_dense_job(case, rng) -> Job:
    # Criterion-7 range (before casing contact) at 8x its 33 levels, so
    # every 8th level is the criterion grid; the seed shifts the tau grid
    # and the SVG levels by the same fraction of their own spacing.
    shift = rng.uniform(-0.5, 0.5)
    step = 0.8 / 256
    nsvg = 32
    return Job(
        "circle",
        tau_min=case.depth * (0.05 + shift * step),
        tau_max=case.depth * (0.85 + shift * step),
        tau_count=257,
        levels=tuple(case.depth * (k + shift) / (nsvg + 1) for k in range(1, nsvg + 1)),
    )


# workload -> (registry case, job builder taking the built case and a seeded RNG)
WORKLOADS = {
    "circle-dense": ("circle", _circle_dense_job),
    "star": ("star", _star_job),
}


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """In-memory spans: [name, start, end, parent index, case name].

    A disabled tracer records nothing and its spans cost one method call.
    overhead_s accumulates the tracer's own bookkeeping time.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self.case: str | None = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Summed self time per span name over spans[first:last]."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] is not None and rec[3] >= first:
                child[rec[3] - first] += rec[2] - rec[1]
        out: dict[str, float] = {}
        for rec, c in zip(spans, child):
            out[rec[0]] = out.get(rec[0], 0.0) + (rec[2] - rec[1]) - c
        return out

    def dump(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": a, "end": b, "parent": p, "case": c}
            for i, (n, a, b, p, c) in enumerate(self.spans)
        ]


class _Span:
    __slots__ = ("tracer", "name", "rec")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t_in = time.perf_counter()
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.rec = [self.name, 0.0, 0.0, parent, tr.case]
        tr._stack.append(len(tr.spans))
        tr.spans.append(self.rec)
        self.rec[1] = t0 = time.perf_counter()
        tr.overhead_s += t0 - t_in
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.rec[2] = t1
        self.tracer._stack.pop()
        self.tracer.overhead_s += time.perf_counter() - t1
        return False


_NULL_SPAN = contextlib.nullcontext()


@contextlib.contextmanager
def _traced_distance(tracer: Tracer):
    """Wrap Contour.distance in a span while a traced set-up lasts.

    Registry builders call it inside build_case, so this is the only way
    to see the contour layer without touching the library.
    """
    orig = Contour.distance
    if tracer.enabled:

        def distance(contour, points):
            with tracer.span("contour.distance"):
                return orig(contour, points)

        Contour.distance = distance
    try:
        yield
    finally:
        Contour.distance = orig


# ---------------------------------------------------------------------------
# set-up


# The circle case's closed-form field is the radius minus the port radius
# of circle_case; set-up cross-checks it against the contour layer.  Port
# nodes sit on chords of the arc, up to ~2e-6 inside it, where the field
# is negative and the distance positive, hence the abs().
_CIRCLE_PORT_RADIUS = 1.0


@dataclass
class Prepared:
    case: object
    cache: object
    oracle_gap: float | None = None


def _import_burnback() -> None:
    """Import the burnback package afresh, then put the loaded one back.

    numpy and scipy stay loaded, so this costs what the package's own
    modules do at import; the benchmark keeps using the first import.
    """

    def ours():
        return [k for k in sys.modules if k == "burnback" or k.startswith("burnback.")]

    loaded = {k: sys.modules.pop(k) for k in ours()}
    try:
        importlib.import_module("burnback")
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(loaded)


def set_up(name: str, tracer: Tracer):
    """Import the package, build the case and its geometry cache, SETUP_REPEATS times.

    Returns the last build, the wall time of each repeat and the span
    range each repeat recorded.
    """
    times, ranges = [], []
    tracer.case = name
    for _ in range(SETUP_REPEATS):
        first = len(tracer.spans)
        t0 = time.perf_counter()
        with tracer.span("setup"):
            with tracer.span("setup.import"):
                _import_burnback()
            with tracer.span("cases.build"):
                case = build_case(name)
            with tracer.span("mesh.geom_cache"):
                cache = geom_cache(case.mesh)
            gap = None
            if name == "circle":
                exact = make_circle(_CIRCLE_PORT_RADIUS).distance(case.mesh.nodes)
                gap = float(np.abs(exact - np.abs(case.exact)).max())
        times.append(time.perf_counter() - t0)
        ranges.append((first, len(tracer.spans)))
    return Prepared(case, cache, gap), times, ranges


# ---------------------------------------------------------------------------
# the pipeline: the curves and contours handlers of burnback.cli


# default of `burnback contours --nlevels`
_CLI_NLEVELS = 8


@dataclass
class Artifacts:
    field: object
    curves_csv: str
    svg: str
    field_csv: str
    levels: list[float]


def run_job(job: Job, prep: Prepared, tracer: Tracer) -> Artifacts:
    case, mesh = prep.case, prep.case.mesh
    with tracer.span("eikonal.solve"):
        res = solve(mesh, case.rate, config=case.config, cache=prep.cache)

    depth = case.depth if case.depth is not None else float(res.s.max())
    lo = job.tau_min if job.tau_min is not None else 0.05 * depth
    hi = job.tau_max if job.tau_max is not None else 0.95 * depth
    tau = np.linspace(lo, hi, job.tau_count)
    labels = case.labels if case.labels is not None else np.ones(mesh.n_nodes, dtype=np.int64)
    with tracer.span("postproc.burn_curves"):
        curves = burn_curves(mesh, res.s, labels, case.rate_ratio, tau)
    with tracer.span("postproc.emit_csv"):
        curves_csv = emit_csv(curves)

    if job.levels is not None:
        levels = list(job.levels)
    else:
        k = np.arange(1, _CLI_NLEVELS + 1)
        levels = list(depth * k / (_CLI_NLEVELS + 1.0))
    with tracer.span("postproc.emit_svg"):
        svg = emit_svg(mesh, res.s, levels=levels, contour=case.port, show_mesh=True)

    with tracer.span("postproc.emit_csv"):
        field_csv = emit_csv(res.s, mesh=mesh)
    return Artifacts(res, curves_csv, svg, field_csv, levels)


# ---------------------------------------------------------------------------
# output checks


# Field-error gate of the star case in the acceptance suite (criterion 4).
STAR_ERROR_GATE = 0.015


def _table(text: str, header: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"CSV header {lines[:1]} is not {header!r}")
    table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    if not np.all(np.isfinite(table)):
        raise ValueError("non-finite value in CSV")
    return table


def transit_split(field) -> tuple[int, int]:
    """Steps before the summed pseudo-time reaches max(s), and the rest."""
    reach = np.cumsum(field.dt_history)
    transit = min(int(np.searchsorted(reach, field.s.max())), field.n_steps)
    return transit, field.n_steps - transit


def _circle_laws(curves: np.ndarray) -> float:
    """Criterion 7 on every 8th dense level: dP/dtau = 2 pi, dA/dtau = P."""
    tau, P, A = curves[::8, 0], curves[::8, 1], curves[::8, 2]
    dP = np.gradient(P, tau)[1:-1]
    dA = np.gradient(A, tau)[1:-1]
    perim = float(np.abs(dP / (2.0 * np.pi) - 1.0).max())
    area = float(np.abs(dA / P[1:-1] - 1.0).max())
    return max(perim, area)


def check(job: Job, prep: Prepared, art: Artifacts, tracer: Tracer) -> dict:
    """Check one case's artifacts; returns its record with a failure list."""
    case, mesh, field = prep.case, prep.case.mesh, art.field
    fails = []
    transit, settle = transit_split(field)
    rec = {
        "case": job.case,
        "nodes": mesh.n_nodes,
        "triangles": mesh.n_triangles,
        "steps": field.n_steps,
        "transit_steps": transit,
        "settle_steps": settle,
        "converged": bool(field.converged),
    }
    if not field.converged:
        fails.append(f"not converged in {field.n_steps} steps")

    curves = _table(art.curves_csv, "tau,P_b,A_p,A_eq")
    if curves.shape != (job.tau_count, 4):
        fails.append(f"curves CSV holds {curves.shape} values")
    nodes = _table(art.field_csv, "node,x,y,s")
    if nodes.shape != (mesh.n_nodes, 4) or np.any(nodes[:, 0] != np.arange(mesh.n_nodes)):
        fails.append(f"field CSV holds {nodes.shape} values")
    s = nodes[:, 3]

    groups = art.svg.split('<g class="isochrone"')[1:]
    if len(groups) != len(art.levels):
        fails.append(f"SVG has {len(groups)} isochrone groups for {len(art.levels)} levels")
    blank = sum("<polyline" not in g for g in groups)
    if blank:
        fails.append(f"{blank} requested isochrones not drawn")
    if not art.svg.endswith("</svg>\n") or 'stroke="#cccccc"' not in art.svg:
        fails.append("SVG document or mesh underlay malformed")

    if case.exact is not None:
        with tracer.span("postproc.error_field"):
            err = error_field(mesh, s, case.exact).max_abs
        rec["err_pct"] = 100.0 * err
    if prep.oracle_gap is not None and not prep.oracle_gap < 1e-12:
        fails.append(f"closed-form field differs from the contour distance by {prep.oracle_gap:.3g}")

    if job.case == "circle":
        dev = _circle_laws(curves)
        rec["curve_dev_pct"] = 100.0 * dev
        if not dev < 0.02:
            fails.append(f"criterion-7 growth laws off by {100 * dev:.2f}% (gate 2%)")
    elif job.case == "star":
        if not err < STAR_ERROR_GATE:
            fails.append(f"field error {100 * err:.3f}% over the {100 * STAR_ERROR_GATE:g}% gate")
        # no closed-form burn curve: compare with the curve that the
        # exact field draws on the same mesh and levels
        ones = np.ones(mesh.n_nodes, dtype=np.int64)
        ref = burn_curves(mesh, case.exact, ones, 1.0, curves[:, 0]).P_b
        dev = float(np.abs(curves[:, 1] - ref).max() / ref.max())
        rec["curve_dev_pct"] = 100.0 * dev
    rec["failures"] = fails
    return rec


# ---------------------------------------------------------------------------
# the closed loop and its metrics


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _medians(samples: list[dict]) -> dict:
    """Per-metric medians of {name: (value, unit)} samples."""
    if not samples:
        return {}
    return {
        name: _metric(statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }


def _setup_layers(tracer: Tracer, span_range, mesh) -> dict:
    t = tracer.self_times(*span_range)
    return {
        "setup.import_s": (t.get("setup.import", 0.0), "s"),
        "cases.build_s": (t.get("cases.build", 0.0), "s"),
        "mesh.geom_cache_s": (t.get("mesh.geom_cache", 0.0), "s"),
        "contour.distance_s": (t.get("contour.distance", 0.0), "s"),
        "mesh.nodes": (mesh.n_nodes, "count"),
        "mesh.triangles": (mesh.n_triangles, "count"),
    }


@dataclass
class Pass:
    run_s: float
    span_range: tuple[int, int]
    record: dict
    art: Artifacts
    overhead_s: float


def _pass_layers(tracer: Tracer, p: Pass, job: Job) -> dict:
    t = tracer.self_times(*p.span_range)
    rec, art = p.record, p.art
    solve_s = t.get("eikonal.solve", 0.0)
    curves_s = t.get("postproc.burn_curves", 0.0)
    node_steps = rec["steps"] * rec["nodes"]
    return {
        "eikonal.steps": (rec["steps"], "count"),
        "eikonal.transit_steps": (rec["transit_steps"], "count"),
        "eikonal.settle_steps": (rec["settle_steps"], "count"),
        "eikonal.node_steps": (node_steps, "count"),
        "eikonal.solve_s": (solve_s, "s"),
        "eikonal.us_per_step": (1e6 * solve_s / rec["steps"], "us"),
        "eikonal.ns_per_node_step": (1e9 * solve_s / node_steps, "ns"),
        "postproc.burn_curves_s": (curves_s, "s"),
        "postproc.levels": (job.tau_count, "count"),
        "postproc.ms_per_level": (1e3 * curves_s / job.tau_count, "ms"),
        "postproc.emit_svg_s": (t.get("postproc.emit_svg", 0.0), "s"),
        "postproc.svg_bytes": (len(art.svg.encode()), "bytes"),
        "postproc.emit_csv_s": (t.get("postproc.emit_csv", 0.0), "s"),
        "postproc.csv_bytes": (len(art.curves_csv.encode()) + len(art.field_csv.encode()), "bytes"),
        "postproc.error_field_s": (t.get("postproc.error_field", 0.0), "s"),
        "trace.run_s": (p.run_s, "s"),
        "trace.overhead_s": (p.overhead_s, "s"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, cold_import_s: float):
    """Set up, then run passes over the workload's case for about `seconds`.

    Returns (result, context, tracer).  run_s and the per-layer metrics
    are medians over passes that passed their checks, set-up metrics
    medians over set-up repeats.
    """
    name, make_job = WORKLOADS[workload]
    tracer = Tracer(trace)
    with _traced_distance(tracer):
        prep, setup_times, setup_ranges = set_up(name, tracer)
    job = make_job(prep.case, random.Random(seed))

    records, passes = [], []
    start = time.perf_counter()
    while True:
        first, overhead0 = len(tracer.spans), tracer.overhead_s
        with tracer.span("case"):
            try:
                t0 = time.perf_counter()
                art = run_job(job, prep, tracer)
                run_s = time.perf_counter() - t0
                rec = check(job, prep, art, tracer)
            except Exception as exc:  # a failed pass is counted, and the loop goes on
                traceback.print_exc(file=sys.stderr)
                rec = {"case": job.case, "failures": [f"{type(exc).__name__}: {exc}"]}
        records.append(rec)
        if not rec["failures"]:
            overhead = tracer.overhead_s - overhead0
            passes.append(Pass(run_s, (first, len(tracer.spans)), rec, art, overhead))
        # start another pass only if one more, at the mean pass time so
        # far, ends inside the window: run length stays near `seconds`
        elapsed = time.perf_counter() - start
        if elapsed * (len(records) + 1) / len(records) > seconds:
            break

    failed = sum(bool(r["failures"]) for r in records)
    attempted = len(records)
    if trace:
        metrics = _medians([_setup_layers(tracer, r, prep.case.mesh) for r in setup_ranges])
        metrics.update(_medians([_pass_layers(tracer, p, job) for p in passes]))
    else:
        run_s = statistics.median(p.run_s for p in passes) if passes else math.nan
        err = [r["err_pct"] for r in records if "err_pct" in r]
        dev = [r["curve_dev_pct"] for r in records if "curve_dev_pct" in r]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "run_s": _metric(run_s, "s"),
            "max_err_pct": _metric(max(err, default=math.nan), "%"),
            "curve_dev_pct": _metric(max(dev, default=math.nan), "%"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
            "pass_ratio": _metric((attempted - failed) / attempted, "ratio"),
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "cold_import_s": cold_import_s,
        "job": asdict(job),
        "pass_run_s": [p.run_s for p in passes],
        "passes": records,
    }
    return result, context, tracer


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "burnback": burnback.__file__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }
