"""The benchmark's own tests: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import layers
import tracing
import worker
import workloads

TK = worker.load_package()


def _owners():
    dist = TK.distributions
    return [
        TK.cli, dist, TK.estimator, TK.geom, TK.harness, TK.transfer, TK.integrate,
        TK.geom.NeighborIndex, TK.estimator.TrainedEstimator,
        dist.DistributionFamily, *dist.DistributionFamily.__subclasses__(),
    ]


def _pass(workload, work_dir, tracer=None):
    ops = workloads.prepare(workload, 0, work_dir, TK)
    worker.execute(TK, ops, tracer)
    return ops


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_writes_identical_outputs_and_restores_names(workload, tmp_path):
    plain = _pass(workload, str(tmp_path / "plain"))
    before = [dict(vars(owner)) for owner in _owners()]
    tracer = tracing.Tracer()
    traced = _pass(workload, str(tmp_path / "traced"), tracer)
    after = [dict(vars(owner)) for owner in _owners()]

    assert len(tracer.spans()["start"]) > 0
    assert [op.outputs() for op in traced] == [op.outputs() for op in plain]
    pins = worker.load_pins()[workload]["0"]
    for op in plain:
        assert workloads.check(op, pins[op.label]) == []
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)
    metrics = layers.metrics(tracer, 0)
    assert set(metrics) == set(layers.PER_LAYER) - {"trace.overhead_s"}


def test_self_time_subtracts_child_spans():
    class Layer:
        @staticmethod
        def outer():
            time.sleep(0.02)
            Layer.inner()
            Layer.inner()

        @staticmethod
        def inner():
            time.sleep(0.03)

    tracer = tracing.Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    try:
        Layer.outer()
    finally:
        tracer.uninstall()
    calls, busy, own = tracer.totals()
    assert calls == {"outer": 1, "inner": 2}
    assert own["outer"] == pytest.approx(busy["outer"] - busy["inner"])
    assert 0.02 <= own["outer"] < 0.05
    assert isinstance(vars(Layer)["outer"], staticmethod)


def test_count_counts_every_call_without_spans():
    class Leaf:
        def value(self, depth):
            return 1 + (self.value(depth - 1) if depth else 0)

    original = vars(Leaf)["value"]
    tracer = tracing.Tracer()
    tracer.count(Leaf, "value", "leaf")
    try:
        assert Leaf().value(2) == 3
        assert Leaf().value(0) == 1
    finally:
        tracer.uninstall()
    assert tracer.counts()["leaf.calls"] == 4
    assert vars(Leaf)["value"] is original


def test_run_fails_without_the_program(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "numerics", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    import run

    with open(os.path.join(worker.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == layers.PER_LAYER


def test_reference_speed_scales_by_the_calibration_units():
    import run

    steady = [{"wall_s": 2.0, "calibration_s": [run.CAL_REF_S] * 3}] * 2
    slowed = [{"wall_s": 3.0, "calibration_s": [1.5 * run.CAL_REF_S] * 3}] * 2
    assert run.at_reference_speed(steady, "wall_s") == pytest.approx(2.0)
    assert run.at_reference_speed(slowed, "wall_s") == pytest.approx(2.0)
    assert worker.calibration_unit() > 0
