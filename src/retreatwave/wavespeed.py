"""Retreat speed selection for the free-boundary semi-wave.

The boundary condition q'(0) = c*delta/d singles out one wave speed among the
one-parameter family of decreasing profiles.  The slope residual

    r(c) = q_c'(0) - (delta/d) * c

is strictly decreasing in c, with slope in (-delta/d, -xi/d), positive at
c0 = d * P0(delta) / xi and negative on [c_up, 0], c_up = c0*xi/delta, with
P0 the zero-speed closed form and xi the stable zero (see ``bracket_low``).
A search solves one start at a fixed speed, checks its residual against
these ends, and then solves the phase-plane collocation with c as one more
unknown and r(c) = 0 as one more row, inside the ends (``phaseplane``); it
never solves at an end.  The retreat speed is -c*.  Every search of c*
starts at the same speed, so c* depends only on (d, f, delta).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BracketError, InputError, NumericalError, SequenceOrderingError
from .phaseplane import (
    IntegrationOptions,
    PhaseTrajectory,
    SemiWaveProfile,
    closed_form_zero_speed,
    integrate_trajectories,
    integrate_trajectory,
    reconstruct_profile,
    residual_slope,
    saddle_slope,
    solve_wave_speed,
)
from .reaction import ReactionFunction, make_perturbation_pair
from .serialize import write_csv

__all__ = [
    "SpeedResult",
    "SweepTable",
    "SequenceRun",
    "PerturbedSpeeds",
    "slope_residual",
    "bracket_low",
    "find_wave_speed",
    "density_sweep",
    "perturbed_wave_speeds",
    "bracketing_sequences",
]

# Below this gap between delta and the stable zero the bracket degenerates
# (the closed-form endpoint tends to 0) and the root find is ill conditioned.
MIN_DELTA_GAP = 1e-6
SUP_GRID = np.linspace(0.0, 50.0, 1001)
DEFAULT_TOL = 1e-10  # the largest |r(c*)| a speed search accepts
FLOOR_ULPS = 4  # k of the residual's rounding floor k*eps*max(|P(delta)|, |delta*c/d|)


@dataclass(eq=False)
class SpeedResult:
    """Selected wave speed c* with its proven bracket (c0, c_up), residual and trajectory."""

    delta: float
    c_star: float
    retreat_speed: float
    bracket: tuple[float, float]
    residual: float
    trajectory: PhaseTrajectory = field(repr=False)
    iterations: int
    function_calls: int

    @cached_property
    def profile(self) -> SemiWaveProfile:
        """The profile of c*, built from the trajectory on the first read and kept."""
        return reconstruct_profile(self.trajectory)

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "c_star": self.c_star,
            "retreat_speed": self.retreat_speed,
            "bracket_low": self.bracket[0],
            "bracket_high": self.bracket[1],
            "residual": self.residual,
            "iterations": self.iterations,
            "function_calls": self.function_calls,
            "slope_at_zero": self.trajectory.endpoint_slope,
            "tail_rate": self.trajectory.saddle_slope,
        }


@dataclass(eq=False)
class SweepTable:
    """Per-delta speed results and dc*/ddelta; failed rows keep their error message
    and a NaN slope."""

    deltas: list[float]
    results: list[SpeedResult | None]
    errors: dict[float, str]
    dc_ddelta: list[float]

    def retreat_speeds(self) -> list[float]:
        return [r.retreat_speed for r in self.results if r is not None]

    def assert_monotone(self) -> None:
        speeds = self.retreat_speeds()
        if any(b <= a for a, b in zip(speeds, speeds[1:])):
            raise NumericalError("retreat speed is not strictly increasing across the sweep")

    def to_csv(self, path) -> None:
        rows = []
        for delta, res, slope in zip(self.deltas, self.results, self.dc_ddelta):
            if res is None:
                rows.append((delta, math.nan, math.nan, math.nan, math.nan, 0, math.nan))
            else:
                rows.append(
                    (
                        delta,
                        res.c_star,
                        res.retreat_speed,
                        res.residual,
                        res.bracket[0],
                        res.iterations,
                        slope,
                    )
                )
        write_csv(
            path,
            ("delta", "c_star", "retreat_speed", "residual", "bracket_low", "iterations",
             "dc_ddelta"),
            rows,
        )


@dataclass(eq=False)
class PerturbedSpeeds:
    """Speeds of the sandwiching reactions, straddling the base speed."""

    lower: SpeedResult
    upper: SpeedResult
    base_c_star: float


@dataclass(eq=False)
class SequenceRun:
    """One monotone bracketing sequence c_0, ..., c_{n_max} closing in on c*.

    The update law is c_{n+1} = (d/delta)*slope_list[n] + sign/(M+n) with
    sign +1 for the upper direction and -1 for the lower one, and M the
    forcing offset after any escalation.  The lists hold all n_max + 1
    iterates.  ``sup_gaps`` holds the sup-norm distance of each iterate's
    profile from the reference profile on a shared grid.  No profile is
    kept: profile j is
    ``reconstruct_profile(integrate_trajectory(c_list[j], d, f, delta))``,
    bit-identical to the one the sequence built as a lane of a two-lane
    solve, so every list is that of the direction run on its own.
    """

    direction: str
    M: int
    c_list: list[float]
    slope_list: list[float]
    sup_gaps: list[float]

    def to_csv(self, path) -> None:
        rows = [
            (n, c, s, g)
            for n, (c, s, g) in enumerate(zip(self.c_list, self.slope_list, self.sup_gaps))
        ]
        write_csv(path, ("n", "c", "slope_at_zero", "sup_gap"), rows)


def slope_residual(c, d: float, f: ReactionFunction, delta: float):
    """The slope residual r(c) = q_c'(0) - (delta/d)*c, from one solve.

    ``c`` is a speed or a 1-d array of speeds; an array is solved as the
    lanes of one batch and gives an array of residuals, each bit for bit
    the residual of its speed alone.
    """
    residuals = np.array(
        [traj.residual for traj in integrate_trajectories(np.atleast_1d(c), d, f, delta)]
    )
    return residuals if np.ndim(c) else float(residuals[0])


def bracket_low(d: float, f: ReactionFunction, delta: float) -> float:
    """Lower bracket endpoint c0 = d * P0(delta) / xi, where the slope residual is positive.

    With y = -P_c and a = -c/d > 0, y*y' = a*y - f/d on (xi, delta] and
    z = a*(q - xi) + |P0(q)| is a strict supersolution, so -P_c(delta) < z(delta)
    and r(c) > -c*xi/d - |P0(delta)|, which is 0 at c0.  No trajectory is solved.
    """
    return d * closed_form_zero_speed(delta, d, f) / f.stable_zero


def _require_gap(xi: float, delta: float, whose: str = "") -> None:
    if delta < xi + MIN_DELTA_GAP:
        msg = f"delta must exceed the stable zero {xi:g}{whose} by at least {MIN_DELTA_GAP:g}"
        raise InputError(msg)


def find_wave_speed(
    d: float,
    f: ReactionFunction,
    delta: float,
    tol: float = DEFAULT_TOL,
    opts: IntegrationOptions | None = None,
) -> SpeedResult:
    """Find the unique c* in the proven bracket (c0, c_up) with zero slope residual.

    c0 = ``bracket_low`` and c_up = c0*xi/delta (r(c_up) < 0 as P_c < P0 for
    c < 0) are closed form.  The search solves one start at the fixed speed
    c_s = 2*d*P0(delta)/(xi + delta), the root for the mean slope of r.  Its
    residual must not put c* beyond the proven end on its side
    (``_proven_bounds``), and its sign narrows the bracket;
    ``phaseplane.solve_wave_speed`` then finds c* inside it.  ``iterations``
    counts the Newton steps of the speed solve, and ``function_calls`` the
    collocation solves of the call: the start and the speed solve.

    |r(c*)| is computed as the difference of P(delta) and delta*c/d, so it
    cannot be resolved below the floor FLOOR_ULPS*eps*max(|P(delta)|,
    |delta*c/d|) there: a ``tol`` below that floor raises NumericalError
    naming it, and so does a residual above ``tol``.
    """
    if not tol >= 1e-12:
        raise InputError(f"tol must be at least 1e-12, got {tol}")
    xi = f.stable_zero
    _require_gap(xi, delta)
    saddle_slope(0.0, d, f)  # an overflow raises here, not in bracket_low's quadrature
    c_low = bracket_low(d, f, delta)
    ends = (c_low, c_low * xi / delta)
    start = integrate_trajectory(2.0 * c_low * xi / (xi + delta), d, f, delta, opts)
    bounds = _proven_bounds(start, f, ends)
    final, steps = solve_wave_speed(start, f, bounds, opts)
    scale = max(abs(final.endpoint_slope), abs(final.delta / final.d * final.c))
    floor = FLOOR_ULPS * float(np.finfo(float).eps) * scale
    if tol < floor:
        raise NumericalError(
            f"tol {tol:.1e} lies below the reachable floor {floor:.3e} = "
            f"{FLOOR_ULPS}*eps*max(|P(delta)|, |delta*c/d|) of the slope residual at "
            f"c={final.c!r}"
        )
    if abs(final.residual) > tol:
        raise NumericalError(
            f"slope residual {abs(final.residual):.3e} at c={final.c!r} did not reach tol "
            f"{tol:.1e}"
        )
    return SpeedResult(
        delta=float(delta),
        c_star=float(final.c),
        retreat_speed=float(-final.c),
        bracket=(float(ends[0]), float(ends[1])),
        residual=float(abs(final.residual)),
        trajectory=final,
        iterations=steps,
        function_calls=2,
    )


def _proven_bounds(start: PhaseTrajectory, f, ends) -> tuple[float, float]:
    """The part of the proven ``ends`` (c0, c_up) that holds c*, from the solved ``start``.

    As -delta/d < r' < -xi/d, c* lies beyond c + r(c)*d/delta, below when
    r(c) < 0 and above when r(c) > 0: a start whose bound reaches the proven
    end on that side raises BracketError.  Otherwise the start, which lies
    inside the ends, replaces the end on its other side.
    """
    c_low, c_up = ends
    r = start.residual
    reach = start.c + r * start.d / start.delta
    if (reach <= c_low) if r < 0.0 else (reach >= c_up):
        raise BracketError(
            f"bracket sign check failed: r({start.c!r}) = {r:.3e} puts c* beyond "
            f"{reach!r}, outside ({c_low!r}, {c_up!r}); the reaction may be invalid or "
            f"delta <= {f.stable_zero:g}"
        )
    return (start.c if r > 0.0 else c_low), (start.c if r < 0.0 else c_up)


def _dc_ddelta(res: SpeedResult, f: ReactionFunction) -> float:
    """dc*/ddelta at a found speed, from its trajectory: no further solve.

    r(c, delta) = P_c(delta) - delta*c/d and the phase-plane ODE give
    dr/ddelta = -f(delta)/(d*P_c(delta)), so the implicit function theorem
    gives dc*/ddelta = -(dr/ddelta)/r'(c*), with r'(c*) from one linear solve
    (``residual_slope``).  For delta > xi both derivatives are negative, and so
    is dc*/ddelta: the retreat speed increases strictly in delta.
    """
    traj = res.trajectory
    dr_ddelta = -float(f(traj.delta)) / (traj.d * traj.endpoint_slope)
    return -dr_ddelta / residual_slope(traj, f)


def density_sweep(
    d: float,
    f: ReactionFunction,
    deltas,
    tol: float = DEFAULT_TOL,
) -> SweepTable:
    """Run find_wave_speed over a finite, strictly increasing list of deltas.

    Each row is the search of its delta alone, with dc*/ddelta from its
    trajectory (``_dc_ddelta``).  Per-delta failures are recorded and the
    sweep continues; the table's CSV carries nan rows for failures.
    """
    deltas = [float(x) for x in deltas]
    if not all(map(math.isfinite, deltas)) or any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise InputError("deltas must be finite and strictly increasing")
    results: list[SpeedResult | None] = []
    slopes: list[float] = []
    errors: dict[float, str] = {}
    for delta in deltas:
        try:
            res = find_wave_speed(d, f, delta, tol)
            slope = _dc_ddelta(res, f)
        except (InputError, NumericalError) as exc:
            res, slope = None, math.nan
            errors[delta] = str(exc)
        results.append(res)
        slopes.append(slope)
    return SweepTable(deltas=deltas, results=results, errors=errors, dc_ddelta=slopes)


def perturbed_wave_speeds(
    d: float,
    f: ReactionFunction,
    delta: float,
    epsilon: float,
    tol: float = DEFAULT_TOL,
    c_star_base: float | None = None,
) -> PerturbedSpeeds:
    """Wave speeds of the sandwiching pair; they must straddle the base c*.

    The base speed is searched for first when ``c_star_base`` is not given.
    """
    pair = make_perturbation_pair(f, epsilon)
    for name, member in (("lower", pair.lower), ("upper", pair.upper)):
        _require_gap(member.stable_zero, delta, f" of the {name} member at epsilon={epsilon:g}")
    if c_star_base is None:
        c_star_base = find_wave_speed(d, f, delta, tol).c_star
    lower = find_wave_speed(d, pair.lower, delta, tol)
    upper = find_wave_speed(d, pair.upper, delta, tol)
    if not lower.c_star < c_star_base < upper.c_star:
        raise NumericalError(
            f"perturbed speeds do not straddle the base speed: "
            f"{lower.c_star!r} < {c_star_base!r} < {upper.c_star!r} fails"
        )
    return PerturbedSpeeds(lower=lower, upper=upper, base_c_star=float(c_star_base))


def _escalate_m(M: int, gap: float, direction: str) -> int:
    """Double M until the first forcing term 1/M fits under ``gap``."""
    if not gap > 0.0:
        raise SequenceOrderingError(
            f"{direction} start point has a residual of the wrong sign; "
            "it does not bracket the wave speed"
        )
    M_dir = M
    while 1.0 / M_dir >= gap:
        M_dir *= 2
        if M_dir > 10**5:
            raise SequenceOrderingError(
                f"auto-escalation exceeded M=1e5 for the {direction} sequence "
                f"(needed 1/M < {gap:.3e})"
            )
    return M_dir


def bracketing_sequences(
    d: float,
    f: ReactionFunction,
    delta: float,
    c_upper_0: float = 0.0,
    c_lower_0: float | None = None,
    M: int = 10,
    n_max: int = 2000,
    reference: SpeedResult | None = None,
) -> tuple[SequenceRun, SequenceRun]:
    """Iterate the monotone sequences closing in on c* from both sides.

    Returns (upper, lower).  The upper sequence starts at c_upper_0 in
    (c*, 0], decreases strictly and stays above c*; the lower mirrors it from
    below.  M is doubled for a sequence whose first step would break its
    ordering, up to M = 1e5, before either sequence runs.  The two sequences
    then step in lockstep: each n is one two-lane solve of (upper c_n,
    lower c_n) and one profile per lane, and a lane is bit for bit its
    speed's solve alone.  Each sequence runs exactly n_max steps: the
    forcing term 1/(M+n) makes convergence asymptotic, so no step size
    marks it.  The first iterate that breaks its ordering raises
    SequenceOrderingError naming its direction and n; where both break at
    the same n, the upper one is named.
    """
    if M <= 0 or n_max <= 0:
        raise InputError("M and n_max must be positive")
    if reference is None:
        reference = find_wave_speed(d, f, delta)
    c_star = reference.c_star
    if c_lower_0 is None:
        c_lower_0 = c_star - 1.0
    if not c_star < c_upper_0 <= 0.0:
        raise InputError(
            f"c_upper_0 must lie in (c*, 0] = ({c_star!r}, 0], got {c_upper_0!r}"
        )
    if not c_lower_0 < c_star:
        raise InputError(f"c_lower_0 must lie below c* = {c_star!r}, got {c_lower_0!r}")
    q_ref = reference.profile.q_at(SUP_GRID)

    # a start that cannot be forced fails before either sequence runs
    starts = integrate_trajectories([float(c_upper_0), float(c_lower_0)], d, f, delta)
    directions = ((+1.0, "upper"), (-1.0, "lower"))
    # ordering gap for the first step: sign*(c0 - (d/delta)*slope0) must
    # exceed 1/M, which is exactly sign*(-d/delta)*residual(c0)
    Ms = [_escalate_m(M, sign * (t.c - (d / delta) * t.endpoint_slope), name)
          for (sign, name), t in zip(directions, starts)]
    runs = [SequenceRun(name, M_dir, [], [], []) for (_, name), M_dir in zip(directions, Ms)]
    cs = [t.c for t in starts]
    trajs = starts
    for n in range(n_max + 1):
        if n:
            trajs = integrate_trajectories(cs, d, f, delta)
        for i, ((sign, name), run, traj) in enumerate(zip(directions, runs, trajs)):
            run.c_list.append(cs[i])
            run.slope_list.append(float(traj.endpoint_slope))
            q = reconstruct_profile(traj).q_at(SUP_GRID)
            run.sup_gaps.append(float(np.max(np.abs(q - q_ref))))
            if n == n_max:
                continue
            c = float((d / delta) * run.slope_list[n] + sign / (run.M + n))
            monotone = c < cs[i] if sign > 0 else c > cs[i]
            sandwich = c > c_star if sign > 0 else c < c_star
            if not (monotone and sandwich):
                raise SequenceOrderingError(
                    f"{name} sequence broke ordering at n={n}: "
                    f"c_n={cs[i]!r}, c_next={c!r}, c*={c_star!r}, M={run.M}"
                )
            cs[i] = c
    upper, lower = runs
    return upper, lower
