"""Measurement loop of the chargedbh benchmark.

:func:`measure` runs one workload for a number of seconds and returns the
result object that ``run.py`` prints.  Untraced runs (``trace=False``) give
the end-to-end metrics; traced runs give the per-layer metrics, derived from
the spans of :class:`tracer.Tracer`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, field
from statistics import median

import numpy as np
import scipy

import chargedbh
from chargedbh import graph_data as gd
from chargedbh import surface_geometry as sg

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
TIME_UNITS = ("s", "ms", "us")
IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import chargedbh\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def metric_units() -> dict[str, str]:
    """Name -> unit of every metric that BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}


@dataclass
class Tally:
    """Operations attempted and failed, with the first few problems."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, name: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{name}: {problem}")


def run_batch(ops, tally: Tally, reference: list[str] | None = None):
    """Run every operation once; returns (seconds spent in calls per part,
    output digests).

    An operation fails when its call raises, its check names a problem, or
    its outputs differ from those of the same operation in ``reference``.
    """
    elapsed = dict.fromkeys((op.part for op in ops), 0.0)
    digests = []
    for k, op in enumerate(ops):
        for path in op.files:
            if os.path.exists(path):
                os.remove(path)
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception:  # a failed operation is counted, the run goes on
            elapsed[op.part] += time.perf_counter() - start
            tally.record(op.name, traceback.format_exc(limit=-3))
            digests.append("")
            continue
        elapsed[op.part] += time.perf_counter() - start
        problem = op.check(result)
        digest = hashlib.sha256(op.outputs(result)).hexdigest()
        if problem is None and reference is not None and digest != reference[k]:
            problem = "outputs differ from the first batch"
        tally.record(op.name, problem)
        digests.append(digest)
    return elapsed, digests


def setup_seconds() -> float:
    """Time of ``import chargedbh`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=SRC),
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "chargedbh": chargedbh.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _spheroid_mean_curvature(n, points, a, c):
    # meridian ellipse R^2/a^2 + Z^2/c^2 = 1 rotated about the Z axis
    rr, zz = points[..., 0], points[..., 1]
    g = np.sqrt(rr**2 / a**4 + zz**2 / c**4)
    return 1.0 / (a * a * c * c * g**3) + (n - 2) / (a * a * g)


def convergence() -> dict:
    """Accuracy diagnostics: spheroid mean curvature against the closed form
    for each grid mode and resolution, and exact-family mass against r_max."""
    a, c, n = 1.0, 2.0, 3
    h_err = {}
    for mode, resolutions in (("axisymmetric", (16, 32, 64, 128)), ("full", (16, 32, 64))):
        h_err[mode] = {}
        for res in resolutions:
            surface = sg.make_spheroid(sg.make_grid(n, mode, res), a, c)
            curv = sg.curvature(surface)
            if mode == "full":  # meridian components of the ambient positions
                p = curv.points
                points = np.stack([np.hypot(p[..., 0], p[..., 1]), p[..., 2]], axis=-1)
            else:
                points = curv.points
            exact = _spheroid_mean_curvature(n, points, a, c)
            h_err[mode][str(res)] = float(np.max(np.abs(curv.H - exact)))
    mass_err = {}
    data = gd.rnt_graph_data(3, 1.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", gd.TruncationWarning)
        for factor in (1e2, 1e3, 1e4, 1e5):
            total = gd.mass_via_formula(data, r_max=factor * data.r_start).total
            mass_err[f"{factor:g}"] = abs(total - 1.0)
    return {"spheroid_H_max_error": h_err, "rnt_mass_error_vs_r_max": mass_err}


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            started: float | None = None) -> dict:
    """Run ``workload`` until ``seconds`` after ``started`` (default: now)
    and return the result object.

    The result has the keys ``correct``, ``attempted``, ``failed`` and
    ``metrics`` of the benchmark contract, plus ``info`` (environment,
    convergence diagnostics, problems), which ``run.py`` prints separately.
    The diagnostics and a tiny warm-up batch run first.  Then rounds repeat
    as long as the next one is expected to end within the time.  An
    untraced round is one import probe for ``setup_s`` and one batch, so
    that both medians sample the host over the whole run.  A traced round
    is an untraced batch and a traced one; there are at least two traced
    batches, so that the counters can be compared.
    """
    started = time.perf_counter() if started is None else started
    units = metric_units()
    os.makedirs(WORK_ROOT, exist_ok=True)
    tally = Tally()
    info: dict = {"environment": environment(), "convergence": convergence()}
    with tempfile.TemporaryDirectory(prefix="run-", dir=WORK_ROOT) as work:
        run_batch(workloads.build(workload, seed, os.path.join(work, "warm-up"), tiny=True), tally)
        ops = workloads.build(workload, seed, os.path.join(work, "batch"), tiny=tiny)
        surfaces = sum(op.surfaces for op in ops)
        setup, untraced, traced, layers, parts = [], [], [], [], []
        reference = None
        loop_start = time.perf_counter()
        while True:
            if not trace:
                setup.append(setup_seconds())
            elapsed, digests = run_batch(ops, tally, reference)
            reference = reference or digests
            untraced.append(sum(elapsed.values()))
            parts.append(elapsed)
            if trace:
                with tracer.Tracer() as recorder:
                    elapsed, _ = run_batch(ops, tally, reference)
                traced.append(sum(elapsed.values()))
                layers.append(tracer.layer_metrics(recorder.spans, recorder.events, surfaces))
                del recorder  # frees the spans before the next round
            now = time.perf_counter()
            # stop before a round that would end after the time is up
            per_round = (now - loop_start) / len(untraced)
            if now + per_round > started + seconds and (not trace or len(traced) >= 2):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with contextlib.suppress(OSError):  # left in place while another run uses it
        os.rmdir(WORK_ROOT)
    info["batches"] = {"untraced": len(untraced), "traced": len(traced), "operations": len(ops)}
    info["part_wall_s"] = {part: median([p[part] for p in parts]) for part in parts[0]}

    if trace:
        metrics = {}
        for name, value in layers[0].items():
            if units[name] not in TIME_UNITS:  # machine-independent counts
                for other in layers[1:]:
                    tally.record("counters repeat", None if other[name] == value
                                 else f"{name}: {value} then {other[name]}")
                metrics[name] = value
            else:
                metrics[name] = median([layer[name] for layer in layers])
        metrics["trace_overhead_s"] = median(traced) - median(untraced)
        modules = sum(metrics[f"{m}.self_s"] for m in tracer.LAYERS)
        info["accounting"] = {
            "traced_wall_s": median(traced),
            "untraced_wall_s": median(untraced),
            "module_self_sum_s": modules,
        }
    else:
        metrics = {
            "wall_s": median(untraced),
            "setup_s": median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        info["setup_samples_s"] = setup
        info["wall_samples_s"] = untraced
    info["problems"] = tally.problems
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        "info": info,
    }


def fail_rate(result: dict) -> float:
    return result["failed"] / result["attempted"]
