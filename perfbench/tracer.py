"""In-memory span tracer for the chargedbh modules.

:class:`Tracer` replaces every public function of every chargedbh module by
a wrapper that records one span (name, start, end, parent) per call.  A
function is wrapped in every module that binds it, because a
``from .exact_rnt import unit_sphere_area`` binding is looked up in the
importing module, not in ``exact_rnt``.  Spans stay in memory; the
per-layer metrics are derived from them after a batch (:func:`layer_metrics`).
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

import chargedbh
from chargedbh import cli, exact_rnt, graph_data, imcf, inequalities, surface_geometry

MODULES = (cli, imcf, surface_geometry, graph_data, exact_rnt, inequalities)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in MODULES)

SPEED = "surface_geometry.mean_curvature_speed"
CURVATURE = "surface_geometry.curvature"
INTEGRALS = tuple(
    "surface_geometry." + f
    for f in (
        "area",
        "total_mean_curvature",
        "total_intrinsic_curvature",
        "yamabe_quotients",
        "charge_flux",
        "newton_maclaurin_margin",
    )
)
GRID_BUILDERS = ("surface_geometry.axisymmetric_grid", "surface_geometry.full_grid")
STEP = "imcf.imcf_step"
WRITERS = ("cli.write_json", "cli.write_csv")


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        origin = getattr(obj, "__module__", "") or ""
        if origin.startswith("chargedbh."):
            yield attr, obj, origin.rsplit(".", 1)[1] + "." + obj.__name__


class Tracer:
    """Context manager that wraps the package's public functions while active.

    Spans are tuples (name, start, end, parent_id, span_id) appended when a
    call returns or raises.  A call made on a worker thread with no open
    span of its own takes the innermost open span of the installing thread
    as its parent (the sweep's thread pool).  ``events`` holds the counts
    recorded at the same boundaries, as (key, value, parent_id, span_id).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.events: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        self._local.stack = self._main_stack
        wrapped = {}
        for module in (chargedbh,) + MODULES:
            for attr, fn, name in list(_public_functions(module)):
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(name, fn)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        spans, events, ids, local = self.spans, self.events, self._ids, self._local
        main_stack, clock = self._main_stack, time.perf_counter
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((name, start, end, parent, span_id))
            if hook is not None:
                events.append(hook(args, kwargs) + (parent, span_id))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _speed_hook(args, kwargs):
    grid = _arg(args, kwargs, 0, "grid")
    return ("speed:" + grid.mode, grid.num_nodes)


def _step_hook(args, kwargs):
    state = _arg(args, kwargs, 0, "state")
    return ("step:" + state.surface.grid.mode, _arg(args, kwargs, 1, "dt"))


def _slope_hook(args, kwargs):
    return ("slope_points", np.size(_arg(args, kwargs, 1, "r")))


def _scalar_curvature_hook(args, kwargs):
    return ("scalar_curvature_points", np.size(_arg(args, kwargs, 1, "r")))


def _json_hook(args, kwargs):
    path = _arg(args, kwargs, 1, "path")
    return ("bytes_written", os.path.getsize(path) if path is not None else 0)


def _csv_hook(args, kwargs):
    # rows and bytes of one CSV file, folded into one event
    return ("csv", (len(_arg(args, kwargs, 1, "rows")), os.path.getsize(_arg(args, kwargs, 2, "path"))))


_HOOKS = {
    SPEED: _speed_hook,
    STEP: _step_hook,
    "exact_rnt.embedding_slope": _slope_hook,
    "graph_data.graph_scalar_curvature": _scalar_curvature_hook,
    "cli.write_json": _json_hook,
    "cli.write_csv": _csv_hook,
}


def _self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        children[parent].append((start, end))
    out = {}
    for name, start, end, parent, span_id in spans:
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span_id] = (end - start) - covered
    return out


def _percentile_ms(durations, q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(spans, events, surfaces: int) -> dict[str, float]:
    """Per-layer metrics of one traced batch.

    ``surfaces`` is the number of horizon surfaces the batch evaluated
    outside any flow; flow states (one per step plus the initial state of
    each run) are added from the trace.  The mass quadrature node count is
    the number of radii at which ``mass_via_formula`` evaluates the scalar
    curvature directly (bulk rule plus tail probes).
    """
    self_time = _self_times(spans)
    names = {span_id: name for name, _, _, _, span_id in spans}
    module_self = dict.fromkeys(LAYERS, 0.0)
    fn_self = defaultdict(float)
    fn_total = defaultdict(float)
    calls = defaultdict(int)
    speed_per_step = defaultdict(int)
    step_duration = {}
    for name, start, end, parent, span_id in spans:
        module_self[name.split(".", 1)[0]] += self_time[span_id]
        fn_self[name] += self_time[span_id]
        calls[name] += 1
        if names.get(parent) != name:  # outermost span of a recursion-free chain
            fn_total[name] += end - start
        if name == SPEED and names.get(parent) == STEP:
            speed_per_step[parent] += 1
        if name == STEP:
            step_duration[span_id] = end - start
    mass_spans = {i for i, n in names.items() if n == "graph_data.mass_via_formula"}
    counts = defaultdict(float)
    speed_calls = defaultdict(int)
    speed_self = defaultdict(float)
    step_durations = {"axisymmetric": [], "full": []}
    for key, value, parent, span_id in events:
        if key.startswith("step:"):
            step_durations[key.split(":", 1)[1]].append(step_duration[span_id])
            counts["flow_time"] += value
        elif key.startswith("speed:"):
            mode = key.split(":", 1)[1]
            speed_calls[mode] += 1
            speed_self[mode] += self_time[span_id]
            counts["speed_node_evals"] += value
        elif key == "csv":
            counts["csv_rows"] += value[0]
            counts["bytes_written"] += value[1]
        elif key == "scalar_curvature_points":
            if parent in mass_spans:
                counts["quad_nodes"] += value
        else:
            counts[key] += value

    steps = calls[STEP]
    substeps = sum((c - 1) // 4 for c in speed_per_step.values())
    flow_time = counts["flow_time"]
    flow_states = steps + calls["imcf.run_flow"]
    n_surfaces = flow_states + surfaces
    per_call_us = {
        mode: speed_self[mode] / speed_calls[mode] * 1e6 if speed_calls[mode] else 0.0
        for mode in ("axisymmetric", "full")
    }
    total_calls = calls[SPEED]
    return {
        "cli.self_s": module_self["cli"],
        "cli.write_s": sum(fn_total[w] for w in WRITERS),
        "cli.bytes_written": counts["bytes_written"],
        "cli.csv_rows": counts["csv_rows"],
        "imcf.self_s": module_self["imcf"],
        "imcf.steps": steps,
        "imcf.substeps": substeps,
        "imcf.substeps_per_unit_t": substeps / flow_time if flow_time else 0.0,
        # an axisymmetric batch has ~2000 steps, a full-grid one 200: each
        # percentile leaves at least ten steps above it
        "imcf.step_axi_p50_ms": _percentile_ms(step_durations["axisymmetric"], 50),
        "imcf.step_axi_p99_ms": _percentile_ms(step_durations["axisymmetric"], 99),
        "imcf.step_full_p50_ms": _percentile_ms(step_durations["full"], 50),
        "imcf.step_full_p95_ms": _percentile_ms(step_durations["full"], 95),
        "imcf.flux_chain_s": fn_total["imcf.flux_chain"],
        "surface_geometry.self_s": module_self["surface_geometry"],
        "surface_geometry.speed_calls": total_calls,
        "surface_geometry.speed_self_s": fn_self[SPEED],
        "surface_geometry.speed_us_per_call": fn_self[SPEED] / total_calls * 1e6 if total_calls else 0.0,
        "surface_geometry.speed_axi_us_per_call": per_call_us["axisymmetric"],
        "surface_geometry.speed_full_us_per_call": per_call_us["full"],
        "surface_geometry.speed_node_evals": counts["speed_node_evals"],
        "surface_geometry.curvature_calls": calls[CURVATURE],
        "surface_geometry.curvature_calls_per_surface": calls[CURVATURE] / n_surfaces if n_surfaces else 0.0,
        "surface_geometry.curvature_self_s": fn_self[CURVATURE],
        "surface_geometry.integrals_self_s": sum(fn_self[f] for f in INTEGRALS),
        "surface_geometry.grid_builds": sum(calls[g] for g in GRID_BUILDERS),
        "surface_geometry.grid_build_s": sum(fn_total[g] for g in GRID_BUILDERS),
        "graph_data.self_s": module_self["graph_data"],
        "graph_data.load_s": fn_total["graph_data.load_graph_data"],
        "graph_data.mass_s": fn_total["graph_data.mass_via_formula"],
        "graph_data.quad_nodes": counts["quad_nodes"],
        "graph_data.adm_s": fn_total["graph_data.adm_mass_limit"],
        "graph_data.dec_residual_s": fn_total["graph_data.energy_condition_residual"],
        "exact_rnt.self_s": module_self["exact_rnt"],
        "exact_rnt.embed_profile_s": fn_total["exact_rnt.embed_profile"],
        "exact_rnt.slope_points": counts["slope_points"],
        "inequalities.self_s": module_self["inequalities"],
        "inequalities.penrose_report_calls": calls["inequalities.penrose_report"],
        "inequalities.penrose_report_self_s": fn_self["inequalities.penrose_report"],
        "inequalities.theorem_certificates_self_s": fn_self["inequalities.theorem_certificates"],
        "inequalities.certificates_emitted": calls["inequalities.make_report"],
    }
