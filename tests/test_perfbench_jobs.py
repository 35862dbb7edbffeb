"""The benchmark's timed jobs, run once each on seed 0 of every workload.

``perfbench/workloads.py`` calls the package by keyword and reads the
fields of its results; a renamed one then fails here, not only in a
benchmark run.  The run is traced as ``perfbench/run.py --trace 1`` traces
it, so a wrapped name that disappears, which drops its metrics without an
error, or a metric that is not finite, which ``json.dumps`` writes as the
bare token NaN, fails here too.
"""
import json
import math
from pathlib import Path
from time import perf_counter

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


@pytest.mark.parametrize("workload", ["desk_run", "speed_family", "sequences"])
def test_benchmark_job_passes_its_checks(workloads, workload):
    import spans  # loaded by the workloads fixture, beside workloads

    inputs = workloads.build(workload, 0)
    tracer = spans.Tracer()
    with tracer.installed("job"):
        t0 = perf_counter()
        out = workloads.job(workload, inputs)
        seconds = perf_counter() - t0
    assert workloads.check(workload, inputs, out) == []
    assert tracer.missing == []
    metrics = tracer.layer_metrics("job", seconds)
    # run.py adds trace.overhead_s itself, from the untraced repetitions
    names = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    assert set(metrics) == names - {"trace.overhead_s"}
    assert all(math.isfinite(value) for value, _ in metrics.values()), metrics
    json.dumps({name: value for name, (value, _) in metrics.items()}, allow_nan=False)
