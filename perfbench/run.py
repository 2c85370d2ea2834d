"""Benchmark of the chargedbh package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow --seed 1 --seconds 55 --trace 0

Workloads: flow and certify (see workloads.py).
The program is imported from ``src/`` of the checkout; inputs are made from
``--seed`` and written under ``.perfbench-work/``, which is removed again.
The whole run, import probes and diagnostics included, ends within
``--seconds`` of its start, unless a single round takes longer.

Standard output ends with one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (``wall_s``, ``setup_s``, ``peak_rss_mb``);
with ``--trace 1`` they are the per-layer ones and ``trace_overhead_s``.
The lines before it give each metric with its unit, ``fail_rate`` with its
counts, the environment, and accuracy diagnostics.  Exit code 0 means the
run completed (``correct`` tells whether every output check passed); 2 means
the arguments or the checkout are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

STARTED = time.perf_counter()  # --seconds counts from here
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("flow", "certify")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "chargedbh", "__init__.py")):
        print(f"error: no chargedbh package under {src}", file=sys.stderr)
        return 2
    # one BLAS thread: the sweep's --jobs 2 already uses both cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import harness

    result = harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), started=STARTED
    )
    info = result.pop("info")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for part, seconds in info["part_wall_s"].items():
        print(f"{args.workload} wall_s of part {part} = {seconds:.6g} s")
    print(
        f"{args.workload} fail_rate = {harness.fail_rate(result):.6g} "
        f"({result['failed']} failed / {result['attempted']} attempted)"
    )
    for problem in info.pop("problems"):
        print(f"problem: {problem}", file=sys.stderr)
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
