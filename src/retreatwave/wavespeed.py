"""Retreat speed selection for the free-boundary semi-wave.

The boundary condition q'(0) = c*delta/d singles out one wave speed among the
one-parameter family of decreasing profiles.  The slope residual

    r(c) = q_c'(0) - (delta/d) * c

is strictly decreasing in c, negative at c = 0 and positive at c0, which is
d * P0(delta) (the zero-speed closed form scaled by d), doubled until r > 0;
that ends because r(c) ~ -c*xi/d as c -> -inf, and is needed for xi < 1.  So
c* is found by bracketed root finding on [c0, 0].  The retreat speed is -c*.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import BracketError, InputError, NumericalError, SequenceOrderingError
from .phaseplane import (
    IntegrationOptions,
    PhaseTrajectory,
    SemiWaveProfile,
    closed_form_zero_speed,
    integrate_trajectory,
    reconstruct_profile,
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
# Doublings of the lower bracket endpoint before giving up on a positive residual.
MAX_BRACKET_DOUBLINGS = 30
SUP_GRID = np.linspace(0.0, 50.0, 1001)
# Profiles of each bracketing sequence kept for the sandwich checks.
PROFILE_KEEP = 8


@dataclass(eq=False)
class SpeedResult:
    """Selected wave speed c* with its bracket, residual and trajectory."""

    delta: float
    c_star: float
    retreat_speed: float
    bracket: tuple[float, float]
    residual: float
    trajectory: PhaseTrajectory = field(repr=False)
    iterations: int
    function_calls: int

    @property
    def profile(self) -> SemiWaveProfile:
        """The profile of c*, rebuilt from the trajectory on every read: bind it once."""
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
    """Per-delta speed results; failed rows keep their error message."""

    deltas: list[float]
    results: list[SpeedResult | None]
    errors: dict[float, str]

    def retreat_speeds(self) -> list[float]:
        return [r.retreat_speed for r in self.results if r is not None]

    def assert_monotone(self) -> None:
        speeds = self.retreat_speeds()
        if any(b <= a for a, b in zip(speeds, speeds[1:])):
            raise NumericalError("retreat speed is not strictly increasing across the sweep")

    def to_csv(self, path) -> None:
        rows = []
        for delta, res in zip(self.deltas, self.results):
            if res is None:
                rows.append((delta, float("nan"), float("nan"), float("nan"), float("nan"), 0))
            else:
                rows.append(
                    (
                        delta,
                        res.c_star,
                        res.retreat_speed,
                        res.residual,
                        res.bracket[0],
                        res.iterations,
                    )
                )
        write_csv(
            path,
            ("delta", "c_star", "retreat_speed", "residual", "bracket_low", "iterations"),
            rows,
        )


@dataclass(eq=False)
class PerturbedSpeeds:
    """Speeds of the sandwiching reactions, straddling the base speed."""

    lower: SpeedResult
    upper: SpeedResult
    base_c_star: float
    epsilon: float


@dataclass(eq=False)
class SequenceRun:
    """One monotone bracketing sequence c_0, c_1, ... closing in on c*.

    The update law is c_{n+1} = (d/delta)*slope_list[n] + sign/(M+n) with
    sign +1 for the upper direction and -1 for the lower one.  ``sup_gaps``
    holds the sup-norm distance of each iterate's profile from the reference
    profile on a shared grid.
    """

    direction: str
    M: int
    c_list: list[float]
    slope_list: list[float]
    converged_at: int | None
    sup_gaps: list[float]
    profiles: list[SemiWaveProfile] = field(repr=False)

    def to_csv(self, path) -> None:
        rows = [
            (n, c, s, g)
            for n, (c, s, g) in enumerate(zip(self.c_list, self.slope_list, self.sup_gaps))
        ]
        write_csv(path, ("n", "c", "slope_at_zero", "sup_gap"), rows)


def slope_residual(c: float, d: float, f: ReactionFunction, delta: float) -> float:
    """The slope residual r(c) = q_c'(0) - (delta/d)*c, from one trajectory integration."""
    return integrate_trajectory(c, d, f, delta).residual


def bracket_low(
    d: float,
    f: ReactionFunction,
    delta: float,
    opts: IntegrationOptions | None = None,
) -> list[PhaseTrajectory]:
    """Trajectories that find a lower bracket endpoint; the last has a positive residual.

    Starts at c0 = d * P0(delta) = -sqrt(2*d*int_delta^xi f) and doubles it
    until the slope residual there is positive.
    """
    c = d * closed_form_zero_speed(delta, d, f)
    trajs = []
    for _ in range(MAX_BRACKET_DOUBLINGS + 1):
        trajs.append(integrate_trajectory(c, d, f, delta, opts))
        if trajs[-1].residual > 0.0:
            return trajs
        c *= 2.0
    raise BracketError(
        f"slope residual still {trajs[-1].residual:.3e} at c={trajs[-1].c:.6g}; "
        "the reaction may be invalid"
    )


def _ledger_residual(
    c: float,
    ledger: dict[float, PhaseTrajectory],
    d: float,
    f: ReactionFunction,
    delta: float,
    opts: IntegrationOptions | None,
) -> float:
    """Slope residual at c, integrated only if ``ledger`` has no entry for c."""
    traj = ledger.get(c)
    if traj is None:
        traj = ledger[c] = integrate_trajectory(c, d, f, delta, opts)
    return traj.residual


def find_wave_speed(
    d: float,
    f: ReactionFunction,
    delta: float,
    tol: float = 1e-10,
    opts: IntegrationOptions | None = None,
) -> SpeedResult:
    """Find the unique c* in (bracket_low, 0) with zero slope residual.

    Brent's method (bisection-safeguarded inverse interpolation) exploits the
    strict monotonicity of the residual, and bisection polishes the root if
    |r(c*)| is still above ``tol``.  Every evaluation goes into one ledger
    keyed by c, so each speed is integrated once; ``function_calls`` is the
    number of distinct speeds integrated.  The result carries the trajectory
    at c*; its profile is built only when read.
    """
    if tol < 1e-12:
        raise InputError(f"tol must be at least 1e-12, got {tol}")
    xi = f.stable_zero
    if delta < xi + MIN_DELTA_GAP:
        raise InputError(
            f"delta must exceed the stable zero {xi:g} by at least {MIN_DELTA_GAP:g}"
        )

    ledger: dict[float, PhaseTrajectory] = {}
    args = (ledger, d, f, delta, opts)
    r_high = _ledger_residual(0.0, *args)
    if not r_high < 0.0:
        raise BracketError(
            f"bracket sign check failed: r(0) = {r_high:.3e}; the reaction "
            f"may be invalid or delta <= {xi:g}"
        )
    low = bracket_low(d, f, delta, opts)
    ledger.update((traj.c, traj) for traj in low)
    c_low = low[-1].c

    # the ledger goes in through args: brentq's wrapper of the callable sits
    # in a reference cycle, so anything a closure captured would outlive the call
    c_star, info = brentq(
        _ledger_residual, c_low, 0.0, args=args,
        xtol=1e-12, rtol=8.9e-16, maxiter=200, full_output=True,
    )
    _ledger_residual(c_star, *args)
    polish = 0
    while abs(ledger[c_star].residual) > tol and polish < 80:
        # brentq met its x tolerance but the residual target is tighter; keep
        # bisecting on the tightest sign-change interval in the ledger
        lo = max(c for c, traj in ledger.items() if traj.residual > 0.0)
        hi = min(c for c, traj in ledger.items() if traj.residual < 0.0)
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        _ledger_residual(mid, *args)
        c_star = mid
        polish += 1
    final = ledger[c_star]
    residual = abs(final.residual)
    if residual > tol:
        raise NumericalError(
            f"slope residual {residual:.3e} did not reach tol {tol:.1e} at c={c_star!r}"
        )

    return SpeedResult(
        delta=float(delta),
        c_star=float(c_star),
        retreat_speed=float(-c_star),
        bracket=(float(c_low), 0.0),
        residual=float(residual),
        trajectory=final,
        iterations=int(info.iterations) + polish,
        function_calls=len(ledger),
    )


def density_sweep(
    d: float,
    f: ReactionFunction,
    deltas,
    tol: float = 1e-10,
) -> SweepTable:
    """Run find_wave_speed over a strictly increasing list of deltas.

    Per-delta failures are recorded and the sweep continues; the table's
    CSV carries nan rows for failures.
    """
    deltas = [float(x) for x in deltas]
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise InputError("deltas must be strictly increasing")
    results: list[SpeedResult | None] = []
    errors: dict[float, str] = {}
    for delta in deltas:
        try:
            results.append(find_wave_speed(d, f, delta, tol))
        except (InputError, NumericalError) as exc:
            results.append(None)
            errors[delta] = str(exc)
    return SweepTable(deltas=deltas, results=results, errors=errors)


def perturbed_wave_speeds(
    d: float,
    f: ReactionFunction,
    delta: float,
    epsilon: float,
    tol: float = 1e-10,
    c_star_base: float | None = None,
) -> PerturbedSpeeds:
    """Wave speeds of the sandwiching pair; they must straddle the base c*."""
    pair = make_perturbation_pair(f, epsilon)
    if c_star_base is None:
        c_star_base = find_wave_speed(d, f, delta, tol).c_star
    lower = find_wave_speed(d, pair.lower, delta, tol)
    upper = find_wave_speed(d, pair.upper, delta, tol)
    if not lower.c_star < c_star_base < upper.c_star:
        raise NumericalError(
            f"perturbed speeds do not straddle the base speed: "
            f"{lower.c_star!r} < {c_star_base!r} < {upper.c_star!r} fails"
        )
    return PerturbedSpeeds(
        lower=lower, upper=upper, base_c_star=float(c_star_base), epsilon=float(epsilon)
    )


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
    below.  If the first step of either sequence would break its ordering,
    M is doubled and that sequence restarts, up to M = 1e5.  Iteration stops
    at n_max or once |c_{n+1} - c_n| < 1/(M+n)**2, since the forcing term
    makes full convergence asymptotic.
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

    def run_direction(sign: float, c0: float, name: str) -> SequenceRun:
        traj0 = integrate_trajectory(c0, d, f, delta)
        slope0 = traj0.endpoint_slope
        # ordering gap for the first step: sign*(c0 - (d/delta)*slope0) must
        # exceed 1/M, which is exactly sign*(-d/delta)*residual(c0)
        gap = sign * (c0 - (d / delta) * slope0)
        M_dir = _escalate_m(M, gap, name)

        c_list = [float(c0)]
        slope_list = [float(slope0)]
        profiles: list[SemiWaveProfile] = []
        sup_gaps: list[float] = []

        def track(traj: PhaseTrajectory) -> None:
            prof = reconstruct_profile(traj)
            sup_gaps.append(float(np.max(np.abs(prof.q_at(SUP_GRID) - q_ref))))
            if len(profiles) < PROFILE_KEEP:
                profiles.append(prof)

        track(traj0)
        converged_at = None
        n = 0
        while n < n_max:
            c_next = (d / delta) * slope_list[n] + sign / (M_dir + n)
            monotone = c_next < c_list[n] if sign > 0 else c_next > c_list[n]
            sandwich = c_next > c_star if sign > 0 else c_next < c_star
            if not (monotone and sandwich):
                raise SequenceOrderingError(
                    f"{name} sequence broke ordering at n={n}: "
                    f"c_n={c_list[n]!r}, c_next={c_next!r}, c*={c_star!r}, M={M_dir}"
                )
            traj = integrate_trajectory(c_next, d, f, delta)
            c_list.append(float(c_next))
            slope_list.append(float(traj.endpoint_slope))
            track(traj)
            if abs(c_list[-1] - c_list[-2]) < 1.0 / (M_dir + n) ** 2:
                converged_at = n + 1
                break
            n += 1

        return SequenceRun(
            direction=name,
            M=M_dir,
            c_list=c_list,
            slope_list=slope_list,
            converged_at=converged_at,
            sup_gaps=sup_gaps,
            profiles=profiles,
        )

    upper = run_direction(+1.0, float(c_upper_0), "upper")
    lower = run_direction(-1.0, float(c_lower_0), "lower")
    return upper, lower
