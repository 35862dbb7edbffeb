"""Seeded inputs, timed jobs and output checks of the three workloads.

``build`` turns a seed into inputs with ``random.Random(seed)``; the library
only ever receives the generated reactions, grids and numbers.  ``job`` is
the part that is timed.  It calls the package through module attributes
looked up at call time, so the wrappers of :mod:`spans` see every call.
``check`` runs after the timing; it counts each public call of a job as one
operation and each exception or failed output check as one failure, without
aborting.
"""
from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from retreatwave import frontsolver, phaseplane, reaction, verify, wavespeed

from spans import patched

# Headline problem of the paper's desk-scale run: logistic r=1, d=1, delta=2.
HEADLINE_F, D, DELTA = "logistic:r=1", 1.0, 2.0
TOL = 1e-10  # find_wave_speed's default residual tolerance

# desk_run: T_END lies in the settled regime.  Both errors stop changing in
# their first 12 digits by t=20 on every initial datum the seeds draw.
N, L_Y, T_END = 2000, 100.0, 25.0

# speed_family: FAMILY_SIZE problems f = r*u*(xi-u)*(1+a*u^2) and N_DELTAS
# sweep points in [max(1.05, 1.05*xi), 3*xi] each.  Problem i lies in stratum
# (i * g) mod FAMILY_SIZE of the ranges of r, xi, a and d, with g from
# LATTICE: a fixed Latin hypercube, so that every seed draws the same mix of
# cheap and costly problems.  The seed places each value in the middle half of
# its stratum and each delta in the middle half of its sixth of the range.
# xi stays in [1, 2]: below 1 the speed bracket fails, and above 2 the
# absolute residual tolerance sits below the integration noise often enough
# (about 1 solve in 1000 for xi in [2, 4]) to fail a seed now and then.
FAMILY_SIZE, N_DELTAS, MID, AUDIT_GRID, EPSILON = 8, 6, 3, 50, 0.05
RANGES = ((0.5, 3.0), (1.0, 2.0), (0.0, 0.5), (0.5, 2.0))  # r, xi, a, d
LATTICE = (1, 3, 5, 7)
# Accuracy references: solves at 100x tighter tolerances, at sweep points
# ACCURACY_AT of every problem.  The error of one solve varies by a factor
# of 1.7 (standard deviation) from one problem to the next; with 8 problems
# at the middle delta only, the accuracy metrics spread by 13 % over ten
# seeds, with 24 points by under 6 %.
TIGHT = phaseplane.IntegrationOptions(rtol=1e-12, atol=1e-14)
ACCURACY_AT = (1, MID, 5)

# sequences: criterion 6.  Upper starts stay in [0.75 c*, 0] and lower ones in
# [c*-1.5, c*-0.5]: closer to c* the first step forces M above 10, which
# changes the sequence itself rather than its starting point.
SEQ_M, SEQ_N_MAX = 10, 400

@dataclass
class Problem:
    d: float
    xi: float
    f: reaction.ReactionFunction
    deltas: list[float]


def _jittered(rng: random.Random, lo: float, hi: float, strata: list[int], n: int) -> list[float]:
    """For each k, a uniform draw in the middle half of slice k of [lo, hi] cut in n.

    Drawing from the whole stratum doubled the spread of speed_family's
    accuracy across seeds (14 % against 8 % over ten seeds).
    """
    return [lo + (hi - lo) * (k + 0.25 + 0.5 * rng.random()) / n for k in strata]


def build(workload: str, seed: int) -> dict:
    """Inputs of ``workload`` for ``seed``: parsed reactions, grids, data."""
    rng = random.Random(seed)
    if workload == "desk_run":
        f = reaction.parse_reaction(HEADLINE_F)
        grid = frontsolver.Grid1D(L_y=L_Y, N=N)
        if seed == 0:
            u0 = frontsolver.exp_approach_u0(DELTA)
        else:
            # generic data with the same boundary value and far field: a
            # steeper or flatter approach plus a bump that vanishes at y=0
            k, bump = rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.5)
            u0 = lambda y: 1.0 + (DELTA - 1.0) * np.exp(-k * y) + bump * y * np.exp(-y)
        initial = frontsolver.InitialData.from_callable(grid, DELTA, u0)
        return {"f": f, "initial": initial, "config": frontsolver.SolverConfig(T_end=T_END)}
    if workload == "speed_family":
        n = FAMILY_SIZE
        columns = [_jittered(rng, lo, hi, [i * g % n for i in range(n)], n)
                   for (lo, hi), g in zip(RANGES, LATTICE)]
        problems = []
        for r, xi, a, d in zip(*columns):
            coeffs = (r * xi, -r, r * a * xi, -r * a)
            f = reaction.parse_reaction("custom:" + ",".join(repr(c) for c in coeffs))
            lo, hi = max(1.05, 1.05 * xi), 3.0 * xi
            deltas = _jittered(rng, lo, hi, list(range(N_DELTAS)), N_DELTAS)
            reaction.make_perturbation_pair(f, EPSILON)  # rejects an inadmissible epsilon
            problems.append(Problem(d=d, xi=xi, f=f, deltas=deltas))
        return {"problems": problems}
    if workload == "sequences":
        f = reaction.parse_reaction(HEADLINE_F)
        if seed == 0:
            upper_share, lower_gap = 0.0, 1.0  # criterion 6: c_upper_0 = 0, c_lower_0 = c* - 1
        else:
            upper_share, lower_gap = rng.uniform(0.0, 0.75), rng.uniform(0.5, 1.5)
        return {"f": f, "upper_share": upper_share, "lower_gap": lower_gap}
    raise ValueError(f"unknown workload {workload!r}")


def _attempt(out: dict, key: str, fn, *args, **kwargs):
    """Call fn, keeping its result or its exception under ``key``."""
    try:
        out[key] = fn(*args, **kwargs)
    except Exception as exc:  # every failure is counted by check(), none aborts the job
        out[key] = exc
        return None
    return out[key]


def job(workload: str, inp: dict) -> dict:
    """The timed work of one repetition; returns results or exceptions by name."""
    out: dict = {}
    if workload == "desk_run":
        f = inp["f"]
        ref = _attempt(out, "find_wave_speed", wavespeed.find_wave_speed, D, f, DELTA)
        if ref is not None:
            rec = _attempt(out, "run", frontsolver.run, inp["initial"], D, DELTA, f,
                           inp["config"], reference=ref.profile)
            if rec is not None:
                _attempt(out, "speed_trend", verify.speed_trend, rec, ref.retreat_speed)
    elif workload == "speed_family":
        for i, p in enumerate(inp["problems"]):
            sweep = _attempt(out, f"{i}.density_sweep", wavespeed.density_sweep, p.d, p.f, p.deltas)
            base = sweep.results[MID] if sweep is not None else None
            _attempt(out, f"{i}.perturbed_wave_speeds", wavespeed.perturbed_wave_speeds, p.d, p.f,
                     p.deltas[MID], EPSILON, c_star_base=base.c_star if base else None)
            _attempt(out, f"{i}.residual_monotonicity_audit", verify.residual_monotonicity_audit,
                     p.d, p.f, p.deltas[MID], AUDIT_GRID)
    else:
        f = inp["f"]
        ref = _attempt(out, "find_wave_speed", wavespeed.find_wave_speed, D, f, DELTA)
        if ref is not None:
            out["sequences.start"] = perf_counter()
            _attempt(out, "bracketing_sequences", wavespeed.bracketing_sequences, D, f, DELTA,
                     c_upper_0=inp["upper_share"] * ref.c_star,
                     c_lower_0=ref.c_star - inp["lower_gap"], M=SEQ_M, n_max=SEQ_N_MAX,
                     reference=ref)
            out["sequences.end"] = perf_counter()
    return out


def operations(workload: str, inp: dict) -> list[str]:
    """Names of the public calls one repetition of ``workload`` makes."""
    if workload == "desk_run":
        return ["find_wave_speed", "run", "speed_trend"]
    if workload == "speed_family":
        return [f"{i}.{name}" for i in range(len(inp["problems"]))
                for name in ("density_sweep", "perturbed_wave_speeds", "residual_monotonicity_audit")]
    return ["find_wave_speed", "bracketing_sequences"]


def _strictly(values, sign: float) -> bool:
    return all(sign * (b - a) > 0.0 for a, b in zip(values, values[1:]))


def check(workload: str, inp: dict, out: dict) -> list[str]:
    """Failed operations of one repetition, each with its reason."""
    failures = []
    for key in operations(workload, inp):
        res = out.get(key)
        if res is None:
            failures.append(f"{key}: not run, an earlier call failed")
            continue
        if isinstance(res, Exception):
            failures.append(f"{key}: {type(res).__name__}: {res}")
            continue
        reason = _check_one(key.split(".")[-1], res, out)
        if reason:
            failures.append(f"{key}: {reason}")
    return failures


def _check_one(name: str, res, out: dict) -> str | None:
    if name == "find_wave_speed":
        return None if res.residual <= TOL else f"|r(c*)| = {res.residual:.3e} > {TOL:g}"
    if name == "run":
        return None if res.termination_reason == "completed" else res.termination_reason
    if name == "speed_trend":
        c = out["find_wave_speed"].retreat_speed
        if not res.final_speed_error <= 0.02 * c:
            return f"final speed error {res.final_speed_error:.3e} > 2% of {c:.6g}"
        if not res.final_profile_error <= 0.05:
            return f"final profile error {res.final_profile_error:.3e} > 0.05"
        return None
    if name == "density_sweep":
        if res.errors:
            return f"failed deltas {res.errors}"
        if any(r.residual > TOL for r in res.results):
            return f"|r(c*)| above {TOL:g}"
        return None if _strictly(res.retreat_speeds(), +1.0) else "speeds not strictly increasing"
    if name == "perturbed_wave_speeds":
        if max(res.lower.residual, res.upper.residual) > TOL:
            return f"|r(c*)| above {TOL:g}"
        straddle = res.lower.c_star < res.base_c_star < res.upper.c_star
        return None if straddle else "perturbed speeds do not straddle c*"
    if name == "residual_monotonicity_audit":
        if not res.strictly_decreasing:
            return "residual not strictly decreasing"
        return None if len(res.sign_change_cells) == 1 else f"sign-change cells {res.sign_change_cells}"
    if name == "bracketing_sequences":
        c_star = out["find_wave_speed"].c_star
        upper, lower = res
        if not (_strictly(upper.c_list, -1.0) and min(upper.c_list) > c_star):
            return "upper sequence not decreasing above c*"
        if not (_strictly(lower.c_list, +1.0) and max(lower.c_list) < c_star):
            return "lower sequence not increasing below c*"
        return None
    raise ValueError(f"no check for {name!r}")


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(max(v, 1e-300)) for v in values) / len(values))


def accuracy(workload: str, inp: dict, out: dict) -> dict[str, float]:
    """speed_error, profile_error, max_abs_residual and seq_bracket_width of one repetition.

    desk_run: relative error of g'(T) against c(delta), and sup |U(T) - q*|.
    speed_family: geometric means over the problems and the sweep points
    ACCURACY_AT of the relative error of c* and the sup error of
    q(x) / (delta - xi) against a solve at 100x tighter tolerances.
    sequences: final bracket width relative to |c*|, and the larger final
    sup gap of the two directions' profiles.
    """
    acc: dict[str, float] = {}
    if workload == "desk_run":
        ref, trend = out.get("find_wave_speed"), out.get("speed_trend")
        if isinstance(trend, verify.ConvergenceReport):
            acc["speed_error"] = trend.final_speed_error / ref.retreat_speed
            acc["profile_error"] = trend.final_profile_error
            acc["max_abs_residual"] = ref.residual
    elif workload == "speed_family":
        speed_errs, profile_errs, residuals = [], [], []
        for i, (p, tights) in enumerate(zip(inp["problems"], inp["tight"])):
            sweep = out.get(f"{i}.density_sweep")
            if not isinstance(sweep, wavespeed.SweepTable):
                continue
            residuals += [r.residual for r in sweep.results if r is not None]
            pert = out.get(f"{i}.perturbed_wave_speeds")
            if isinstance(pert, wavespeed.PerturbedSpeeds):
                residuals += [pert.lower.residual, pert.upper.residual]
            for k, tight in zip(ACCURACY_AT, tights):
                res = sweep.results[k]
                if res is None or tight is None:
                    continue
                x = np.linspace(0.0, tight.profile.x_grid[-1], 2001)
                speed_errs.append(abs(res.c_star - tight.c_star) / abs(tight.c_star))
                gap = np.max(np.abs(res.profile.q_at(x) - tight.profile.q_at(x)))
                profile_errs.append(float(gap) / (p.deltas[k] - p.xi))
        if speed_errs:
            acc["speed_error"] = _geomean(speed_errs)
            acc["profile_error"] = _geomean(profile_errs)
            acc["max_abs_residual"] = max(residuals)
    else:
        ref, seqs = out.get("find_wave_speed"), out.get("bracketing_sequences")
        if isinstance(seqs, tuple):
            upper, lower = seqs
            acc["seq_bracket_width"] = upper.c_list[-1] - lower.c_list[-1]
            acc["speed_error"] = acc["seq_bracket_width"] / abs(ref.c_star)
            acc["profile_error"] = max(upper.sup_gaps[-1], lower.sup_gaps[-1])
            acc["max_abs_residual"] = ref.residual
    return acc


def tight_references(inp: dict) -> list[list]:
    """Accuracy references of speed_family: per problem, one per sweep point
    of ACCURACY_AT (None where the solve fails)."""
    refs = []
    for p in inp["problems"]:
        refs.append([])
        for k in ACCURACY_AT:
            try:
                refs[-1].append(wavespeed.find_wave_speed(p.d, p.f, p.deltas[k], tol=1e-12,
                                                          opts=TIGHT))
            except Exception:  # a missing reference only narrows the accuracy mean
                refs[-1].append(None)
    return refs


@contextlib.contextmanager
def result_clock(workload: str, marks: list, missing: list):
    """Collect the timestamps that result latencies are computed from.

    A result is what a user of the workload waits for: one unit of simulated
    time on desk_run, one wave speed on speed_family, one sequence iterate on
    sequences.  The hook only reads the clock, so it stays on in untraced runs.
    """
    if workload == "desk_run":
        def wrap(fn):
            def step(state, *args, **kwargs):
                if not marks:
                    marks.append((perf_counter(), state.t))
                new = fn(state, *args, **kwargs)
                if math.floor(new.t) > math.floor(marks[-1][1]):
                    marks.append((perf_counter(), new.t))
                return new
            return step
        target = ("frontsolver", "step")
    elif workload == "speed_family":
        def wrap(fn):
            def find_wave_speed(*args, **kwargs):
                t0 = perf_counter()
                res = fn(*args, **kwargs)
                marks.append((t0, perf_counter()))
                return res
            return find_wave_speed
        target = ("wavespeed", "find_wave_speed")
    else:
        def wrap(fn):
            def reconstruct_profile(*args, **kwargs):
                marks.append(perf_counter())  # every iterate rebuilds one profile
                return fn(*args, **kwargs)
            return reconstruct_profile
        target = ("wavespeed", "reconstruct_profile")
    with patched(*target, wrap, missing):
        yield


def result_intervals(workload: str, out: dict, marks: list) -> list[tuple[float, float, float]]:
    """``(start, end, per)`` of each result of one repetition, from its ``result_clock`` marks.

    The result's latency is ``(end - start) / per``: ``per`` is the simulated
    time the interval covers on desk_run, and 1 elsewhere.
    """
    if workload == "desk_run":
        return [(w0, w1, t1 - t0) for (w0, t0), (w1, t1) in zip(marks, marks[1:])]
    if workload == "speed_family":
        return [(t0, t1, 1.0) for t0, t1 in marks]
    start, end = out.get("sequences.start"), out.get("sequences.end")
    if start is None or len(marks) < 2:
        return []
    points = [start] + [m for m in marks if start < m < end] + [end]
    return [(a, b, 1.0) for a, b in zip(points, points[1:])]


def expected_steps(workload: str, out: dict) -> int | None:
    """ceil(T/dt) for the dt the desk run recorded, as ``run`` computes it."""
    rec = out.get("run")
    if workload != "desk_run" or not isinstance(rec, frontsolver.RunRecord):
        return None
    return max(1, math.ceil(rec.config["T_end"] / rec.config["dt"] - 1e-12))
