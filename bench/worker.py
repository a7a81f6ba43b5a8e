"""One pass of one workload, in a process of its own.

    python3 bench/worker.py --workload NAME --variant V --work DIR [--trace]

Imports transfer_knn from the checkout's ``src/``, writes the workload's
inputs under DIR, prints ``ready``, runs the timed pass, checks every output
and prints one JSON line with the pass's measurements.  ``bench/run.py``
starts it and times everything up to ``ready`` as set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import types
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS_PATH = os.path.join(HERE, "pins.json")

# Pin BLAS and OpenMP pools before numpy loads, so that --threads is the only
# parallelism in a pass.
BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_PINS)

import numpy as np  # noqa: E402  (numpy must load after the pins)

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Calibration units run per pass, spread over the gaps around the operations.
CALIBRATION_UNITS = 24
_CAL_RNG = np.random.default_rng(0)
_CAL_SORTED = np.sort(_CAL_RNG.random(8192))
_CAL_QUERIES = _CAL_RNG.random(2000)


def load_package():
    """transfer_knn modules from ROOT/src, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "transfer_knn", "cli.py")):
        raise SystemExit(f"transfer_knn sources not found under {src}")
    sys.path.insert(0, src)
    import transfer_knn
    from transfer_knn import _integrate, cli, distributions, estimator, geom, harness, transfer

    if os.path.dirname(os.path.abspath(transfer_knn.__file__)) != os.path.join(src, "transfer_knn"):
        raise SystemExit(f"imported transfer_knn from {transfer_knn.__file__}, not {src}")
    return types.SimpleNamespace(
        cli=cli,
        distributions=distributions,
        estimator=estimator,
        geom=geom,
        harness=harness,
        transfer=transfer,
        integrate=_integrate,
    )


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def calibration_unit() -> float:
    """Wall seconds of one fixed unit of numpy calls on small arrays.

    The unit (searchsorted, cumsum, sort and a gather, the kind of work the
    estimator and samplers do) never changes and never calls transfer_knn, so
    its time follows only the speed the machine gives this process.
    """
    start = perf_counter()
    for _ in range(25):
        idx = np.searchsorted(_CAL_SORTED, _CAL_QUERIES)
        cum = np.cumsum(_CAL_SORTED)
        (cum[np.minimum(idx, _CAL_SORTED.size - 1)] - np.sort(3.0 * _CAL_QUERIES)).mean()
    return perf_counter() - start


def execute(tk, ops, tracer=None):
    """Run the operations as one timed pass; returns (wall_s, cpu_s, cal).

    wall_s and cpu_s cover the operations only.  cal holds the times of the
    calibration units run before, between and after them, outside the timers.
    With a tracer, every layer is wrapped for the pass and restored after it.
    """
    gaps = len(ops) + 1
    per_gap = -(-CALIBRATION_UNITS // gaps)
    cal = []
    if tracer is not None:
        layers.instrument(tracer, tk)
    try:
        wall = cpu = 0.0
        for op in ops:
            cal += [calibration_unit() for _ in range(per_gap)]
            wall0, cpu0 = perf_counter(), process_time()
            op.execute(tk)
            wall += perf_counter() - wall0
            cpu += process_time() - cpu0
        cal += [calibration_unit() for _ in range(per_gap)]
        return wall, cpu, cal
    finally:
        if tracer is not None:
            tracer.uninstall()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tk = load_package()
    pins = load_pins().get(args.workload, {}).get(str(args.variant), {})
    ops = workloads.prepare(args.workload, args.variant, args.work, tk)
    print("ready", flush=True)
    tracer = tracing.Tracer() if args.trace else None
    wall, cpu, cal = execute(tk, ops, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = {}
    for op in ops:
        problems = workloads.check(op, pins.get(op.label, {}))
        if problems:
            failures[op.label] = problems
    per_layer = None
    if tracer is not None:
        tracer.write(os.path.join(args.work, "spans.npz"))
        written = sum(len(data) for op in ops if isinstance(op, workloads.CliOp)
                      for data in op.outputs().values())
        per_layer = layers.metrics(tracer, written)
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "calibration_s": cal,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "digests": {
            op.label: {k: workloads.sha256(v) for k, v in op.outputs().items()}
            for op in ops
        },
        "per_layer": per_layer,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
