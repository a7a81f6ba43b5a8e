"""Write a BENCH_<label>.json result: every workload, end to end and per layer.

    python3 bench/record.py --label seed

For each workload, runs ``bench/run.py`` for BENCHMARK.json's run_seconds,
untraced once per seed 1..RUNS and
traced once (seed 1), then records each end-to-end metric's median, quartiles
and spread (interquartile range over median) across the runs, the same for
the unscaled pass times and calibration unit times (``raw``), the error rate,
every per-layer metric and the machine block.  The file goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def bench(workload, seed, seconds, trace) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": values}


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    record = {"label": args.label, "commit": commit(), "runs": RUNS,
              "seconds": seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        e2e, raw, attempted, failed = {}, {}, 0, 0
        for seed in range(1, RUNS + 1):
            detail, result = bench(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                e2e.setdefault(name, []).append(metric["value"])
            plain = [p for p in detail["passes"] if not p["trace"]]
            for name, value in (
                ("wall_s", statistics.fmean(p["wall_s"] for p in plain)),
                ("setup_s", statistics.median(p["setup_s"] for p in plain)),
                ("unit_s", statistics.fmean(statistics.fmean(p["calibration_s"]) for p in plain)),
            ):
                raw.setdefault(name, []).append(value)
            print(workload, seed, {k: round(v[-1], 4) for k, v in e2e.items()}, file=sys.stderr)
        record["machine"] = detail["machine"]
        detail, traced = bench(workload, 1, seconds, 1)
        record["workloads"][workload] = {
            "e2e": {name: summary(values) for name, values in e2e.items()},
            "raw": {name: summary(values) for name, values in raw.items()},
            "error_rate": failed / attempted,
            "attempted": attempted,
            "layers": {name: m["value"] for name, m in traced["metrics"].items()},
            "traced_passes": [p for p in detail["passes"] if p["trace"]],
        }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
