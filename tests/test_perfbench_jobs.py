"""The benchmark's timed jobs, run once each on seed 0 of every workload.

``perfbench/workloads.py`` calls the package by keyword and reads the
fields of its results; a renamed one then fails here, not only in a
benchmark run.
"""
import pytest


@pytest.mark.parametrize("workload", ["desk_run", "speed_family", "sequences"])
def test_benchmark_job_passes_its_checks(workloads, workload):
    inputs = workloads.build(workload, 0)
    out = workloads.job(workload, inputs)
    assert workloads.check(workload, inputs, out) == []
