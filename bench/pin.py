"""Record the sha256 of every output of every workload variant.

    python3 bench/pin.py

Runs each variant once, untraced, in this process, and rewrites
``bench/pins.json``.  The independent reference checks of
``bench/workloads.py`` must pass first.  Run it only when a change is meant to
alter seeded outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import workloads
from worker import PINS_PATH, execute, load_package


def main() -> int:
    tk = load_package()
    pins = {}
    ok = True
    for workload, count in workloads.VARIANTS.items():
        pins[workload] = {}
        for variant in range(count):
            with tempfile.TemporaryDirectory() as work:
                ops = workloads.prepare(workload, variant, work, tk)
                wall, _, _ = execute(tk, ops)
                pins[workload][str(variant)] = {
                    op.label: {k: workloads.sha256(v) for k, v in op.outputs().items()}
                    for op in ops
                }
                for op in ops:
                    for problem in workloads.check(op, None):
                        ok = False
                        print(f"{workload}[{variant}] {op.label}: {problem}", file=sys.stderr)
            print(f"{workload}[{variant}]: {wall:.2f} s", file=sys.stderr)
    if not ok:
        return 1
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
