"""Quantitative convergence checks of PDE runs against semi-wave references.

The front speed must settle at the retreat speed and the shifted density at
the selected profile; these post-processing helpers turn a run record and a
reference profile into error series and pass/fail reports.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .frontsolver import FrontFixedState, RunRecord
from .phaseplane import SemiWaveProfile
from .reaction import ReactionFunction
from .serialize import write_csv
from .wavespeed import _require_gap, bracket_low, slope_residual

__all__ = [
    "ConvergenceReport",
    "SandwichReport",
    "MonotonicityAudit",
    "profile_error",
    "truncation_correction",
    "sandwich_check",
    "speed_trend",
    "residual_monotonicity_audit",
]

TAIL_ROUNDING_ULPS = 4  # k of speed_trend's rounding floor k*eps*scale


@dataclass(eq=False)
class ConvergenceReport:
    """Error series aligned with a run record's rows.

    ``monotone_tail`` compares mean errors over the last two quartiles of the
    recorded time range; it is true when neither series grows there by more
    than rounding (see ``speed_trend``).
    """

    times: np.ndarray = field(repr=False)
    speed_error_series: np.ndarray = field(repr=False)
    profile_error_series: np.ndarray = field(repr=False)
    final_speed_error: float
    final_profile_error: float
    monotone_tail: bool

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ("t", "speed_error", "profile_error"),
            zip(self.times, self.speed_error_series, self.profile_error_series),
        )


@dataclass(eq=False)
class SandwichReport:
    """Nodewise bracketing outcome per sequence index."""

    tolerance: float
    passed: list[bool]
    first_failing: int | None

    @property
    def all_passed(self) -> bool:
        return all(self.passed)


@dataclass(eq=False)
class MonotonicityAudit:
    """Residual values on a uniform speed grid over the root bracket."""

    c_values: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    strictly_decreasing: bool
    sign_change_cells: list[int]

    def to_csv(self, path) -> None:
        write_csv(path, ("c", "residual"), zip(self.c_values, self.residuals))


def profile_error(state: FrontFixedState, qstar: SemiWaveProfile) -> float:
    """Sup over the grid of |U - qstar|, using the profile's analytic tail."""
    return float(np.max(np.abs(state.U - qstar.q_at(state.grid.nodes))))


def truncation_correction(state: FrontFixedState, qstar: SemiWaveProfile) -> float:
    """Reported tail bound at the truncation point: |U(L_y) - xi| + |q(L_y) - xi|."""
    far = qstar.xi
    return abs(float(state.U[-1]) - far) + abs(float(qstar.q_at(state.grid.L_y)) - far)


def sandwich_check(
    state: FrontFixedState,
    lower_profiles: list[SemiWaveProfile],
    upper_profiles: list[SemiWaveProfile],
) -> SandwichReport:
    """Check lower_j - tol <= U <= upper_j + tol nodewise, tol = 2h.

    The profiles come from the bracketing sequences; index j in the report
    matches the zipped order of the two lists.
    """
    tol = 2.0 * state.grid.h
    nodes = state.grid.nodes
    passed = []
    for lo, up in zip(lower_profiles, upper_profiles):
        ok = bool(
            np.all(lo.q_at(nodes) - tol <= state.U)
            and np.all(state.U <= up.q_at(nodes) + tol)
        )
        passed.append(ok)
    first_failing = next((j for j, ok in enumerate(passed) if not ok), None)
    return SandwichReport(tolerance=tol, passed=passed, first_failing=first_failing)


def _quartile_means(times: np.ndarray, errors: np.ndarray) -> tuple[float, float]:
    t0, t1 = float(times[0]), float(times[-1])
    span = t1 - t0
    q3 = (times >= t0 + 0.5 * span) & (times < t0 + 0.75 * span)
    q4 = times >= t0 + 0.75 * span
    vals3 = errors[q3]
    vals4 = errors[q4]
    m3 = float(np.nanmean(vals3)) if vals3.size else float("nan")
    m4 = float(np.nanmean(vals4)) if vals4.size else float("nan")
    return m3, m4


def speed_trend(record: RunRecord, c_target: float) -> ConvergenceReport:
    """Build |g'(t) - c_target| and profile error series from a run record.

    The tail is monotone unless the mean error of the last quartile exceeds
    that of the third by more than a rounding floor k*eps*scale, with
    k = TAIL_ROUNDING_ULPS = 4.  The scale is what the errors are differences
    of: |c_target| for the speed, and the largest max_U for the profile.
    Doubles of size at most s lie at most eps*s apart (one unit in the last
    place of x is at most eps*|x|).  The rows of a settled run repeat the
    scheme's discrete steady state, or one step cycle of it, up to rounding,
    so the two quartile means differ only in their last places: k = 4 lets
    each mean sit up to two such spacings from the settled value.  Rounding
    in the means themselves is smaller by the factor error/scale.  This is
    a budget, not a proof: settled headline runs (N = 2000, T = 100, dt from
    0.0025 to 0.02 and the default) show gaps of at most 0.25*eps*|c| in
    the speed and 0.01*eps*max_U in the profile, and a tail that grows by
    more than the floor is reported.
    """
    times = record.column("t")
    speed_err = np.abs(record.column("g_prime") - c_target)
    profile_err = record.column("sup_profile_error")
    floor = TAIL_ROUNDING_ULPS * float(np.finfo(float).eps)

    monotone = True
    if times.size >= 4 and times[-1] > times[0]:
        m3, m4 = _quartile_means(times, speed_err)
        if np.isfinite(m3) and np.isfinite(m4):
            monotone = monotone and (m4 - m3 <= floor * abs(c_target))
        if np.any(np.isfinite(profile_err)):
            p3, p4 = _quartile_means(times, profile_err)
            if np.isfinite(p3) and np.isfinite(p4):
                scale = float(np.max(record.column("max_U")))
                monotone = monotone and (p4 - p3 <= floor * scale)

    final_profile = float(profile_err[-1]) if profile_err.size else float("nan")
    return ConvergenceReport(
        times=times,
        speed_error_series=speed_err,
        profile_error_series=profile_err,
        final_speed_error=float(speed_err[-1]),
        final_profile_error=final_profile,
        monotone_tail=monotone,
    )


def residual_monotonicity_audit(
    d: float, f: ReactionFunction, delta: float, n_grid: int
) -> MonotonicityAudit:
    """Evaluate the slope residual on a uniform grid over [bracket_low, 0].

    The residual must decrease strictly along the grid and change sign in
    exactly one cell, the one containing the wave speed.  As in
    ``find_wave_speed``, delta must exceed the stable zero by MIN_DELTA_GAP.
    The n_grid speeds are the lanes of one vector integration
    (``slope_residual`` on an array); ``bracket_low`` is closed form.
    """
    if n_grid < 10:
        raise InputError(f"n_grid must be at least 10, got {n_grid}")
    _require_gap(f.stable_zero, delta)
    c_values = np.linspace(bracket_low(d, f, delta), 0.0, n_grid)
    residuals = slope_residual(c_values, d, f, delta)
    diffs = np.diff(residuals)
    signs = np.sign(residuals)
    cells = [
        j for j in range(len(c_values) - 1) if signs[j] > 0 and signs[j + 1] <= 0
    ]
    return MonotonicityAudit(
        c_values=c_values,
        residuals=residuals,
        strictly_decreasing=bool(np.all(diffs < 0.0)),
        sign_change_cells=cells,
    )
