"""transfer-knn benchmark.

    python3 bench/run.py --workload {sweep_1d,sweep_2d,numerics} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each pass of the workload runs in a fresh
process (``bench/worker.py``), one at a time, until S seconds have passed and
at least three passes (two when traced) have run; untraced passes step through
the workload's input variants, starting from the one the seed picks.  With
``--trace 0`` the last line of output is the end-to-end result:

    wall_s       wall seconds of one full pass (time to a reproduction), at
                 the reference speed described below,
    cpu_s        process CPU seconds of one pass, all threads included, at
                 the reference speed,
    peak_rss_mb  peak resident memory of the process running the pass,
    setup_s      interpreter start, imports and writing the inputs, up to the
                 pass (one sample per process, so several per run).

wall_s and cpu_s are given at a fixed reference speed of the machine.  On a
shared 2-core VM the speed a process gets drifts by up to half for minutes at
a time, so the raw time of a pass, averaged over 35-second windows of the same
code, spread by 6% to 26% (interquartile range over median) from window to
window.  So each pass also times a fixed calibration unit
(``worker.calibration_unit``, numpy calls only, no transfer_knn code) in the
gaps before, between and after its operations, and

    wall_s = sum of pass wall times / sum of pass mean unit times * CAL_REF_S

and likewise cpu_s, over the run's untraced passes.  CAL_REF_S is the unit's
median time on that VM, so the figures stay close to seconds.  Over two sets
of ten runs per workload there, the raw pass time spread by 4% to 15% and its
set median moved by up to 11%; scaled, by 4% to 8% and 3%.  setup_s is the
median over the passes of each set-up time scaled by its own pass's units,
since its raw median moved by 20% between two sets of runs on that VM.  The
raw times stay in the detail record.  peak_rss_mb is the median over the
passes.

The error rate is ``failed / attempted`` over operations (one CLI invocation
or one library call each).  With ``--trace 1`` untraced and traced passes
alternate and the last line holds the per-layer metrics of ``bench/layers.py``,
medians over the traced passes, plus the tracing overhead (fastest traced pass
minus fastest untraced pass).  The line before it is a detail record: machine
block, every pass's numbers and any failures.
Scratch files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

import layers
import workloads
from worker import BLAS_PINS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
MIN_PASSES = 3
# No new pass starts unless it can end this long after the run began.
DEADLINE_S = 165.0
# Median time of one worker.calibration_unit on a 2-core Xeon VM.
CAL_REF_S = 0.009
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_pins": BLAS_PINS,
        "sweep_threads": workloads.SWEEP_THREADS,
    }


def run_pass(workload: str, variant: int, trace: bool, deadline: float) -> dict:
    """Start one worker and collect its result; never raises on its failure."""
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--variant", str(variant),
        "--work", work,
    ] + (["--trace"] if trace else [])
    env = dict(os.environ, PYTHONHASHSEED="0", **BLAS_PINS)
    env.pop("TRANSFER_KNN_THREADS", None)
    sample = {"trace": trace}
    err_path = os.path.join(WORK, f"stderr-{os.path.basename(work)}.txt")
    try:
        with open(err_path, "w") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env, text=True
            )
            timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
            timer.start()
            try:
                ready = proc.stdout.readline()
                sample["setup_s"] = perf_counter() - start
                tail = proc.stdout.read().splitlines()
                code = proc.wait()
            finally:
                timer.cancel()
                proc.stdout.close()
        if ready.strip() != "ready" or code != 0 or not tail:
            with open(err_path) as fh:
                message = fh.read()[-2000:]
            sample["error"] = f"worker exit {code} after {ready.strip()!r}: {message}"
            return sample
        sample.update(json.loads(tail[-1]))
        spans = os.path.join(work, "spans.npz")
        if trace and os.path.exists(spans):
            os.replace(spans, os.path.join(WORK, f"spans-{workload}.npz"))
        return sample
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if "error" not in sample and os.path.exists(err_path):
            os.unlink(err_path)


def median(samples, key) -> float:
    return statistics.median(s[key] for s in samples)


def fastest(samples, key) -> float:
    return min(s[key] for s in samples)


def at_reference_speed(samples, key) -> float:
    """Total of key over the passes, scaled by their calibration units."""
    units = sum(statistics.fmean(s["calibration_s"]) for s in samples)
    return sum(s[key] for s in samples) / units * CAL_REF_S


def setup_at_reference_speed(samples) -> float:
    """Median set-up time, each scaled by its own pass's calibration units."""
    return statistics.median(
        s["setup_s"] / statistics.fmean(s["calibration_s"]) * CAL_REF_S for s in samples
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "transfer_knn", "cli.py")):
        print(f"error: no transfer_knn sources under {ROOT}/src", file=sys.stderr)
        return 2

    variants = workloads.VARIANTS[args.workload]
    start = perf_counter()
    deadline = start + DEADLINE_S
    passes = []
    while True:
        now = perf_counter()
        enough = len(passes) >= (2 if args.trace else MIN_PASSES)
        if enough and now - start >= args.seconds:
            break
        longest = max((p.get("setup_s", 0.0) + p.get("wall_s", 0.0) for p in passes), default=0.0)
        if passes and now + 1.5 * longest > deadline:
            break
        # Untraced passes step through the input variants, so that a run's
        # figures do not hang on one variant's data.  A traced run keeps one
        # variant, so its counts repeat exactly and its overhead compares
        # like with like.
        variant = (args.seed + (0 if args.trace else len(passes))) % variants
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(dict(run_pass(args.workload, variant, traced, deadline), variant=variant))
        if "error" in passes[-1]:
            break

    good = [p for p in passes if "error" not in p]
    attempted = sum(p["attempted"] for p in good) + len(passes) - len(good)
    failed = sum(p["failed"] for p in good) + len(passes) - len(good)
    plain = [p for p in good if not p["trace"]]
    traced = [p for p in good if p["trace"]]
    correct = failed == 0 and bool(plain)
    if args.trace:
        correct = correct and bool(traced)
    metrics = {}
    if args.trace and traced and plain:
        for name, (unit, _) in layers.PER_LAYER.items():
            if name != "trace.overhead_s":
                value = statistics.median(p["per_layer"][name] for p in traced)
                metrics[name] = {"value": value, "unit": unit}
        overhead = fastest(traced, "wall_s") - fastest(plain, "wall_s")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    elif not args.trace and plain:
        values = {
            "wall_s": at_reference_speed(plain, "wall_s"),
            "cpu_s": at_reference_speed(plain, "cpu_s"),
            "peak_rss_mb": median(plain, "peak_rss_mb"),
            "setup_s": setup_at_reference_speed(good),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "error_rate": failed / attempted if attempted else 1.0,
        "passes": [
            {k: v for k, v in p.items() if k != "per_layer"}
            for p in passes
        ],
        "per_layer_passes": [p["per_layer"] for p in traced],
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
