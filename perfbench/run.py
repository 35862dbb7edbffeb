"""Benchmark of the retreatwave library: seeded workloads run in one process.

    python3 perfbench/run.py --workload desk_run --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
The workloads are ``desk_run``, ``speed_family`` and ``sequences`` (see
perfbench/README.md).  A run builds the seeded inputs, repeats the workload's
job while the next repetition still fits in ``--seconds`` (at least once),
checks every output, and prints two lines: a report with the environment,
sample counts, failures and the figures under their ROADMAP names, then
the result ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones, taken from
one traced repetition that follows one untraced repetition.  Spans and the
report are also written to ``.bench_out/`` in the checkout.  Untraced
repetitions run with a reference load interleaved (perfbench/pace.py); their
times are given without it and at a fixed host speed.
"""
import os

# One BLAS thread: the benchmark is a single-process load on one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("desk_run", "speed_family", "sequences")
SETUP_PROBES = 5  # fresh processes whose median import-plus-inputs time is setup_s
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time importing the package and building the inputs, print it, exit")
    return p.parse_args(argv)


def import_package() -> None:
    """Import retreatwave from this checkout's src/, or exit with status 1."""
    if not (SRC / "retreatwave" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'retreatwave'}")
    sys.path.insert(0, str(SRC))
    import retreatwave

    if Path(retreatwave.__file__).resolve().parent != SRC / "retreatwave":
        sys.exit(f"perfbench: imported retreatwave from {retreatwave.__file__}, not from {SRC}")


def setup_probe(args) -> None:
    t0 = perf_counter()
    import_package()
    import workloads

    workloads.build(args.workload, args.seed)
    print(repr(perf_counter() - t0))


def setup_seconds(args) -> list[float]:
    """Set-up time of SETUP_PROBES fresh processes, one after the other."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def repeat(job, after, budget_s: float) -> list[tuple[float, float]]:
    """Run ``job`` until another repetition would overrun ``budget_s``; at least once.

    Returns the clock readings at the start and end of each repetition.
    ``after`` receives each repetition's outputs outside the timed region;
    they are dropped before the next repetition, so peak memory does not
    grow with the number of repetitions.
    """
    reps = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        out = job()
        reps.append((t0, perf_counter()))
        after(out)
        del out
        if perf_counter() - start + statistics.median(b - a for a, b in reps) > budget_s:
            return reps


def result_latencies_ms(host, own, scaled, intervals) -> list[float]:
    """Latency of each result: its wall time without the reference runs in it,
    at the nominal host speed of its repetition."""
    ms = []
    for own_s, scaled_s, rep in zip(own, scaled, intervals):
        for a, b, per in rep:
            inside = host.inside(a, b)[1] if host else 0.0
            ms.append(1e3 * ((b - a) - inside) * (scaled_s / own_s) / per)
    return ms


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                      "MKL_NUM_THREADS")},
    }


def percentile(values, q):
    import numpy

    return float(numpy.percentile(values, q))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_package()
    setups = setup_seconds(args)
    import pace
    import spans
    import workloads as wl

    tracer = spans.Tracer() if args.trace else None
    with tracer.installed("setup") if tracer else contextlib.nullcontext():
        inp = wl.build(args.workload, args.seed)
    if args.workload == "speed_family":
        inp["tight"] = wl.tight_references(inp)

    missing: list[str] = []
    intervals: list[list] = []  # (start, end, per) of each result, one list per repetition
    failures: list[str] = []
    acc: dict[str, float] = {}
    reps = 0

    def untraced():
        marks: list = []
        with wl.result_clock(args.workload, marks, missing):
            out = wl.job(args.workload, inp)
        intervals.append(wl.result_intervals(args.workload, out, marks))
        return out

    def after(out):
        nonlocal reps
        reps += 1
        failures.extend(wl.check(args.workload, inp, out))
        if reps == 1:
            acc.update(wl.accuracy(args.workload, inp, out))

    with (contextlib.nullcontext() if tracer else pace.Pace()) as host:
        reps_at = repeat(untraced, after, 0.0 if tracer else args.seconds)
    wall = [b - a for a, b in reps_at]
    own, times = zip(*(host.job_seconds(a, b) for a, b in reps_at)) if host else (wall, wall)
    result_ms = result_latencies_ms(host, own, times, intervals)
    steps = None
    if tracer:
        with tracer.installed("job"):
            t0 = perf_counter()
            out = wl.job(args.workload, inp)
            traced_s = perf_counter() - t0
        after(out)
        steps = wl.expected_steps(args.workload, out)
        del out
    attempted = reps * len(wl.operations(args.workload, inp))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics: dict[str, tuple[float, str]] = {}
    if tracer:
        metrics.update(tracer.layer_metrics("job", traced_s))
        metrics["trace.overhead_s"] = (traced_s - statistics.median(times), "s")
        missing += tracer.missing
    else:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["time_to_solution_s"] = (statistics.median(times), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        for name in ("speed_error", "profile_error"):
            if name in acc:
                metrics[name] = (acc[name], "1")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": reps,
        "time_to_solution_s": times,
        "job_own_s": own,
        "job_wall_s": wall,
        "pace": host and {"interval_s": pace.INTERVAL_S, "nominal_s": pace.NOMINAL_S,
                          "runs": len(host.durations),
                          "mean_s": statistics.fmean(host.durations) if host.durations else None},
        "setup_s": setups,
        "result_samples": len(result_ms),
        "failure_rate": {"value": len(failures) / attempted, "failed": len(failures),
                         "attempted": attempted},
        "failures": sorted(set(failures)),
        "missing_wrapped_names": sorted(set(missing)),
        "frontsolver_steps_expected": steps,
        "named_metrics": named_metrics(args.workload, setups, times, peak_rss_mb,
                                       result_ms, acc, len(failures), attempted),
        "environment": environment(),
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    dump = {"report": report, "result": result}
    if tracer:
        dump["spans"] = tracer.spans
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(dump))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


def named_metrics(workload, setups, times, rss, latencies, acc, failed, attempted) -> dict:
    """The end-to-end figures under the names used in ROADMAP.md, with sample counts.

    Besides the gated metrics this gives the latency of each result of the
    workload (median and a tail percentile with at least ten samples beyond
    it) and the largest speed-solve residual.
    """
    named = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "time_to_solution_s": (statistics.median(times), "s", len(times)),
        "peak_rss_mb": (rss, "MB", 1),
        "failure_rate": (failed / attempted, "1", attempted),
    }
    n = len(latencies)
    if workload == "speed_family" and n:
        named["speed_solve_ms.p50"] = (percentile(latencies, 50), "ms", n)
        named["speed_solve_ms.p75"] = (percentile(latencies, 75), "ms", n)
    if workload == "sequences" and n:
        named["seq_iter_ms.p50"] = (percentile(latencies, 50), "ms", n)
        named["seq_iter_ms.p98"] = (percentile(latencies, 98), "ms", n)
    if workload == "desk_run" and n:
        named["sim_time_unit_ms.p50"] = (percentile(latencies, 50), "ms", n)
        named["sim_time_unit_ms.p75"] = (percentile(latencies, 75), "ms", n)
    if workload == "desk_run" and acc:
        named["final_speed_rel_error"] = (acc["speed_error"], "1", 1)
        named["final_profile_error"] = (acc["profile_error"], "1", 1)
    if workload == "sequences" and acc:
        named["seq_bracket_width"] = (acc["seq_bracket_width"], "1/time", 1)
    if "max_abs_residual" in acc:
        named["max_abs_residual"] = (acc["max_abs_residual"], "1", 1)
    return {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in named.items()}


if __name__ == "__main__":
    sys.exit(main())
