"""In-memory span tracing of the retreatwave layers, done from outside the package.

The benchmark never edits the library.  To see inside it, :func:`patched`
swaps a module-level name of the package for a wrapper and puts the original
back afterwards.  A wrapped function that a later version of the package no
longer has is recorded as missing; the metrics that depend on it are then
left out of the result instead of being reported as zero.

:class:`Tracer` records one span per call of the names in :data:`SPANS`:
``[name, start, end, parent, run_id]``, with ``parent`` the index of the
enclosing span.  A span's self time is its duration minus that of its
children.  ``phaseplane.solve_ivp`` gets no span of its own; its ``nfev`` is
added to a counter of the innermost open span, so integration work stays
inside the phase-plane layer that asked for it.
"""
from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module of the package, attribute, span name).  Names are patched where the
# callers look them up, which is not always the module that defines them:
# slope_residual, for example, finds integrate_trajectory in wavespeed.
SPANS = (
    ("frontsolver", "run", "frontsolver.run"),
    ("frontsolver", "step", "frontsolver.step"),
    ("frontsolver", "solve_banded", "frontsolver.solve_banded"),
    ("wavespeed", "find_wave_speed", "wavespeed.find_wave_speed"),
    ("wavespeed", "density_sweep", "wavespeed.density_sweep"),
    ("wavespeed", "perturbed_wave_speeds", "wavespeed.perturbed_wave_speeds"),
    ("wavespeed", "bracketing_sequences", "wavespeed.bracketing_sequences"),
    ("wavespeed", "slope_residual", "wavespeed.slope_residual"),
    ("verify", "slope_residual", "wavespeed.slope_residual"),
    ("wavespeed", "integrate_trajectory", "phaseplane.integrate_trajectory"),
    ("wavespeed", "reconstruct_profile", "phaseplane.reconstruct_profile"),
    ("wavespeed", "closed_form_zero_speed", "phaseplane.closed_form_zero_speed"),
    ("wavespeed", "make_perturbation_pair", "reaction.make_perturbation_pair"),
    ("reaction", "make_perturbation_pair", "reaction.make_perturbation_pair"),
    ("reaction", "validate_monostable", "reaction.validate_monostable"),
    ("reaction", "parse_reaction", "reaction.parse_reaction"),
    ("verify", "residual_monotonicity_audit", "verify.residual_monotonicity_audit"),
    ("verify", "speed_trend", "verify.speed_trend"),
)
NFEV_COUNTER = ("phaseplane", "solve_ivp")


@contextlib.contextmanager
def patched(module: str, attr: str, make_wrapper, missing: list):
    """Replace ``retreatwave.<module>.<attr>`` by ``make_wrapper(original)``."""
    mod = importlib.import_module(f"retreatwave.{module}")
    original = getattr(mod, attr, None)
    if original is None:
        missing.append(f"{module}.{attr}")
        yield
        return
    setattr(mod, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(mod, attr, original)


class Tracer:
    """Spans, nfev counters and a few return values of the traced calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.nfev: dict[str, int] = defaultdict(int)
        self.speed_results: list[tuple[int, int, float]] = []
        self.dts: list[float] = []
        self.solve_bytes: int | None = None
        self.sequence_iterations = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._run_id = ""

    @contextlib.contextmanager
    def installed(self, run_id: str):
        """Trace every call made inside the block under ``run_id``."""
        self._run_id = run_id
        self.missing = []
        with contextlib.ExitStack() as stack:
            for module, attr, name in SPANS:
                stack.enter_context(
                    patched(module, attr, lambda fn, n=name: self._span(n, fn), self.missing)
                )
            stack.enter_context(patched(*NFEV_COUNTER, self._count_nfev, self.missing))
            yield

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        record = self._record

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else None, self._run_id]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            record(name, args, out)
            return out

        return wrapper

    def _record(self, name, args, out):
        if name == "frontsolver.step":
            self.dts.append(out.t - args[0].t)
        elif name == "frontsolver.solve_banded":
            # computed, not measured: 3N band matrix, N right-hand side, N result
            self.solve_bytes = args[1].nbytes + 2 * args[2].nbytes
        elif name == "wavespeed.find_wave_speed":
            self.speed_results.append((out.function_calls, out.iterations, out.residual))
        elif name == "wavespeed.bracketing_sequences":
            self.sequence_iterations += sum(len(seq.c_list) - 1 for seq in out)

    def _count_nfev(self, fn):
        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            owner = self.spans[self._stack[-1]][0] if self._stack else "none"
            self.nfev[owner] += int(sol.nfev)
            return sol

        return wrapper

    def layer_metrics(self, job_run_id: str, job_seconds: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``{name: (value, unit)}``.

        A layer that did not run on this workload reports a count of 0 and
        statistics of 0; a wrapped name that no longer exists leaves its
        metrics out.
        """
        durations: dict[str, list[float]] = defaultdict(list)
        self_time: dict[str, float] = defaultdict(float)
        child_sum = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_sum[parent] += end - start
        job_self = 0.0
        for i, (name, start, end, parent, run_id) in enumerate(self.spans):
            durations[name].append(end - start)
            self_time[name] += end - start - child_sum[i]
            if run_id == job_run_id:
                job_self += end - start - child_sum[i]

        def calls(name):
            return float(len(durations[name]))

        def pct(name, q, scale):
            d = durations[name]
            return float(np.percentile(d, q)) * scale if d else 0.0

        speeds = self.speed_results
        gone = {name for module, attr, name in SPANS if f"{module}.{attr}" in self.missing}
        if ".".join(NFEV_COUNTER) in self.missing:
            gone.add("nfev")
        m: dict[str, tuple[float, str]] = {}

        def put(metric, value, unit, *deps):
            if not gone.intersection(deps):
                m[metric] = (float(value), unit)

        step, solve, run = "frontsolver.step", "frontsolver.solve_banded", "frontsolver.run"
        put("frontsolver.steps", calls(step), "count", step)
        put("frontsolver.dt_min", min(self.dts, default=0.0), "time", step)
        put("frontsolver.dt_max", max(self.dts, default=0.0), "time", step)
        put("frontsolver.step.us_p50", pct(step, 50, 1e6), "us", step)
        put("frontsolver.step.us_p99", pct(step, 99, 1e6), "us", step)
        put("frontsolver.rhs_self_s", self_time[step], "s", step, solve)
        put("frontsolver.solve_s", sum(durations[solve]), "s", solve)
        put("frontsolver.solve_bytes", self.solve_bytes or 0, "B-computed", solve)
        put("frontsolver.run.bookkeeping_s", self_time[run], "s", run, step)
        for short in ("integrate_trajectory", "reconstruct_profile"):
            name = f"phaseplane.{short}"
            put(f"{name}.calls", calls(name), "count", name)
            put(f"{name}.ms_p50", pct(name, 50, 1e3), "ms", name)
            put(f"{name}.self_s", self_time[name], "s", name)
        put("phaseplane.integrate_nfev", self.nfev["phaseplane.integrate_trajectory"], "count",
            "phaseplane.integrate_trajectory", "nfev")
        put("phaseplane.reconstruct_nfev", self.nfev["phaseplane.reconstruct_profile"], "count",
            "phaseplane.reconstruct_profile", "nfev")
        oracle = "phaseplane.closed_form_zero_speed"
        put(f"{oracle}.calls", calls(oracle), "count", oracle)
        put(f"{oracle}.self_s", self_time[oracle], "s", oracle)
        find, seqs = "wavespeed.find_wave_speed", "wavespeed.bracketing_sequences"
        put("wavespeed.residual_evals_per_speed",
            np.mean([s[0] for s in speeds]) if speeds else 0.0, "count", find)
        put("wavespeed.iterations_per_speed",
            np.mean([s[1] for s in speeds]) if speeds else 0.0, "count", find)
        put("wavespeed.max_abs_residual", max((s[2] for s in speeds), default=0.0), "1", find)
        put(f"{find}.self_s", self_time[find], "s", find)
        put(f"{seqs}.self_s", self_time[seqs], "s", seqs)
        put("wavespeed.sequence_iterations", self.sequence_iterations, "count", seqs)
        audit, trend = "verify.residual_monotonicity_audit", "verify.speed_trend"
        put(f"{audit}.s", sum(durations[audit]), "s", audit)
        put(f"{trend}.ms", sum(durations[trend]) * 1e3, "ms", trend)
        parse, validate = "reaction.parse_reaction", "reaction.validate_monostable"
        pair = "reaction.make_perturbation_pair"
        put(f"{parse}.ms", sum(durations[parse]) * 1e3, "ms", parse)
        put(f"{validate}.calls", calls(validate), "count", validate)
        put(f"{pair}.ms", sum(durations[pair]) * 1e3, "ms", pair)
        put("trace.unaccounted_share", (job_seconds - job_self) / job_seconds, "1")
        return m
