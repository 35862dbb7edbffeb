"""Phase-plane trajectories and spatial semi-wave profiles.

A decreasing semi-wave q(x) with speed parameter c solves
d*q'' - c*q' + f(q) = 0, and along it the slope p = q' is a single-valued
function of q.  That function P(q) obeys the singular first-order ODE

    P'(q) = c/d - f(q) / (d * P(q)),

entering the equilibrium (xi, 0) of the (q, p) system along the stable
direction with slope (c - sqrt(c**2 - 4*d*f'(xi))) / (2*d) < 0, where xi is
the stable zero of f.  This module integrates that ODE outward from the
equilibrium to q = delta, provides the exact zero-speed solution as an
oracle, and rebuilds the spatial profile by marching dq/dx = P(q) from
q(0) = delta.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import PchipInterpolator

from .errors import InputError, IntegrationError, NumericalError
from .reaction import ReactionFunction
from .serialize import write_csv

__all__ = [
    "IntegrationOptions",
    "PhaseTrajectory",
    "SemiWaveProfile",
    "saddle_slope",
    "integrate_trajectory",
    "closed_form_zero_speed",
    "reconstruct_profile",
]


@dataclass(frozen=True)
class IntegrationOptions:
    """Tolerances for trajectory integration.

    ``start_offset`` is the fraction of (delta - xi) used to step off the
    singular equilibrium before handing over to the adaptive integrator.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    start_offset: float = 1e-8


DEFAULT_OPTIONS = IntegrationOptions()
TRAJECTORY_SAMPLES = 2500  # samples of P on [xi + eta, delta]
PROFILE_SAMPLES = 1200  # samples of q on [0, x_end]
TAIL_CUT = 1e-6  # the profile march stops at q - xi = TAIL_CUT * (delta - xi)


@dataclass(eq=False)
class PhaseTrajectory:
    """Sampled curve p = P(q) on [xi, delta] for one speed parameter c.

    ``endpoint_slope`` is P(delta) = q'(0) of the corresponding profile and
    ``saddle_slope`` is P'(xi), the linearized decay rate at the equilibrium.
    The monotone interpolant of the samples is built on first use.
    """

    c: float
    d: float
    delta: float
    xi: float
    q: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    endpoint_slope: float
    saddle_slope: float

    @cached_property
    def _interp(self) -> PchipInterpolator:
        return PchipInterpolator(self.q, self.p, extrapolate=True)

    @property
    def residual(self) -> float:
        """Slope residual r(c) = P(delta) - (delta/d)*c of the boundary law."""
        return self.endpoint_slope - (self.delta / self.d) * self.c

    def p_at(self, q):
        """Interpolated P(q); monotone cubic through the samples."""
        return self._interp(q)

    def ode_residual(self, f: ReactionFunction) -> float:
        """Max |P'(q) - (c/d - f(q)/(d P))| at 200 interior collocation points."""
        qs = np.linspace(self.xi, self.delta, 202)[1:-1]
        ps = self._interp(qs)
        dps = self._interp.derivative()(qs)
        rhs = self.c / self.d - np.asarray(f(qs)) / (self.d * ps)
        return float(np.max(np.abs(dps - rhs)))

    def to_csv(self, path) -> None:
        write_csv(path, ("q", "P"), zip(self.q, self.p))


@dataclass(eq=False)
class SemiWaveProfile:
    """Monotone profile q(x) with q(0) = delta decaying toward xi.

    The sampled range ends where q - xi reaches the tail cutoff; beyond it
    the profile continues analytically as xi + (q_end - xi) *
    exp(tail_rate * (x - x_end)), with ``tail_rate`` equal to the trajectory's
    saddle slope.
    """

    x_grid: np.ndarray = field(repr=False)
    q_values: np.ndarray = field(repr=False)
    xi: float
    delta: float
    tail_rate: float
    slope_at_zero: float

    def __post_init__(self):
        self._interp = PchipInterpolator(self.x_grid, self.q_values, extrapolate=False)

    def q_at(self, x):
        """Evaluate the profile anywhere on [0, inf)."""
        x = np.asarray(x, dtype=float)
        x_end = self.x_grid[-1]
        q_end = self.q_values[-1]
        inside = self._interp(np.minimum(x, x_end))
        tail = self.xi + (q_end - self.xi) * np.exp(self.tail_rate * (x - x_end))
        out = np.where(x <= x_end, inside, tail)
        return out if out.ndim else float(out)

    def to_csv(self, path) -> None:
        write_csv(path, ("x", "q"), zip(self.x_grid, self.q_values))


def saddle_slope(c: float, d: float, f: ReactionFunction) -> float:
    """Slope of the stable trajectory entering (stable_zero, 0).

    Requires f'(stable_zero) < 0 so the radicand c**2 - 4*d*f'(xi) is
    positive; the returned value is strictly negative.
    """
    if not d > 0:
        raise InputError(f"diffusivity must be positive, got {d}")
    fp = float(f.deriv(f.stable_zero))
    if not fp < 0.0:
        raise InputError(
            f"f'(stable_zero) must be negative for a saddle, got {fp:.3e}"
        )
    return (c - np.sqrt(c * c - 4.0 * d * fp)) / (2.0 * d)


def _curvature_at_saddle(c: float, d: float, f: ReactionFunction, lam: float) -> float:
    """Second-order series coefficient s2 in P = lam*s + s2*s**2/2 at the saddle.

    Matching powers of s = q - xi in d*P*P' = c*P - f gives
    s2 = -f''(xi) / (3*d*lam - c); the denominator is strictly negative for
    the stable branch.  f'' is estimated by a central difference of deriv.
    """
    xi = f.stable_zero
    h = 6e-6 * max(1.0, xi)
    f2 = (float(f.deriv(xi + h)) - float(f.deriv(xi - h))) / (2.0 * h)
    return -f2 / (3.0 * d * lam - c)


def integrate_trajectory(
    c: float,
    d: float,
    f: ReactionFunction,
    delta: float,
    opts: IntegrationOptions | None = None,
) -> PhaseTrajectory:
    """Integrate the phase-plane ODE from the equilibrium out to q = delta.

    The 0/0 start is removed by a second-order series step to
    q = xi + eta with eta = start_offset*(delta - xi); the outward direction
    is self-correcting, so the series truncation decays along the way.
    """
    opts = opts or DEFAULT_OPTIONS
    xi = f.stable_zero
    if not delta > xi:
        raise InputError(f"delta must exceed the stable zero {xi:g}, got {delta}")
    if not d > 0:
        raise InputError(f"diffusivity must be positive, got {d}")

    lam = saddle_slope(c, d, f)
    sigma2 = _curvature_at_saddle(c, d, f, lam)
    eta = opts.start_offset * (delta - xi)
    q0 = xi + eta
    p0 = lam * eta + 0.5 * sigma2 * eta * eta
    if not np.isfinite(p0):
        raise IntegrationError(f"series start P(xi + eta) = {p0} is not finite at c={c:g}")

    def rhs(q, p):
        return c / d - float(f(q)) / (d * p[0])

    sol = solve_ivp(
        rhs,
        (q0, delta),
        [p0],
        method="RK45",
        rtol=opts.rtol,
        atol=opts.atol,
        dense_output=True,
    )
    if not sol.success or sol.t[-1] < delta:
        raise IntegrationError(
            f"phase-plane integration failed at c={c:g}: {sol.message}",
            last_good=float(sol.t[-1]),
        )

    q_samples = np.linspace(q0, delta, TRAJECTORY_SAMPLES)
    p_samples = sol.sol(q_samples)[0]
    if np.any(p_samples >= 0.0):
        raise NumericalError(
            f"trajectory left the lower half plane at c={c:g}; "
            "the reaction may not be monostable on (xi, delta]"
        )
    q_full = np.concatenate(([xi], q_samples))
    p_full = np.concatenate(([0.0], p_samples))
    return PhaseTrajectory(
        c=float(c),
        d=float(d),
        delta=float(delta),
        xi=float(xi),
        q=q_full,
        p=p_full,
        endpoint_slope=float(p_samples[-1]),
        saddle_slope=float(lam),
    )


def closed_form_zero_speed(q: float, d: float, f: ReactionFunction) -> float:
    """Exact trajectory value at zero speed: P0(q) = -sqrt((2/d) * int_q^xi f).

    For q beyond the stable zero the integrand makes the radicand positive;
    a negative radicand beyond round-off signals a non-monostable reaction.
    Quadrature is adaptive Gauss-Kronrod at relative tolerance 1e-12 so the
    oracle error stays far below the integrator's.
    """
    xi = f.stable_zero
    if not d > 0:
        raise InputError(f"diffusivity must be positive, got {d}")
    if q < xi - 1e-12:
        raise InputError(f"q must be at least the stable zero {xi:g}, got {q}")
    integral, _ = quad(f, q, xi, epsabs=1e-14, epsrel=1e-12, limit=200)
    radicand = (2.0 / d) * integral
    if radicand < -1e-12:
        raise NumericalError(
            f"negative radicand {radicand:.3e} at q={q:g}: f is not monostable"
        )
    return -float(np.sqrt(max(radicand, 0.0)))


def reconstruct_profile(traj: PhaseTrajectory, x_max: float = 100.0) -> SemiWaveProfile:
    """March dq/dx = P(q) from q(0) = delta until the tail cutoff or x_max.

    P is the monotone interpolant of the trajectory; x -> inf as q -> xi, so
    the march stops at q - xi = TAIL_CUT*(delta - xi) and the infinite tail
    is represented by the saddle-slope decay rate.  The march itself advances the log-tail
    variable w = ln(q - xi), which decays asymptotically linearly and keeps
    the samples strictly monotone even when q - xi spans many decades.
    """
    span = traj.delta - traj.xi
    q_cut = TAIL_CUT * span
    if not x_max > 0.0:
        raise InputError(f"x_max must be positive, got {x_max}")

    qcheck = np.linspace(traj.xi + q_cut, traj.delta, 400)
    if np.any(traj.p_at(qcheck) >= 0.0):
        raise NumericalError(
            "trajectory interpolant is not negative on the marching range; "
            "cannot build a monotone profile"
        )

    w_floor = np.log(q_cut)

    def rhs(x, y):
        s = np.exp(np.clip(y[0], w_floor - 1.0, np.log(span)))
        return traj.p_at(traj.xi + s) / s

    def hit_tail(x, y):
        return y[0] - w_floor

    hit_tail.terminal = True
    hit_tail.direction = -1

    sol = solve_ivp(
        rhs,
        (0.0, x_max),
        [np.log(span)],
        method="RK45",
        rtol=1e-10,
        atol=1e-10,
        dense_output=True,
        events=hit_tail,
    )
    if not sol.success:
        raise IntegrationError(
            f"profile march failed: {sol.message}", last_good=float(sol.t[-1])
        )
    x_end = float(sol.t_events[0][0]) if sol.t_events[0].size else float(sol.t[-1])

    x_grid = np.linspace(0.0, x_end, PROFILE_SAMPLES)
    w_values = sol.sol(x_grid)[0]
    if np.any(np.diff(w_values) >= 0.0):
        raise NumericalError("reconstructed profile is not strictly decreasing")
    q_values = traj.xi + np.exp(w_values)
    q_values[0] = traj.delta
    if np.any(np.diff(q_values) >= 0.0):
        raise NumericalError("reconstructed profile is not strictly decreasing")
    if np.any(q_values <= traj.xi):
        raise NumericalError("reconstructed profile fell to the stable zero")

    return SemiWaveProfile(
        x_grid=x_grid,
        q_values=q_values,
        xi=traj.xi,
        delta=traj.delta,
        tail_rate=traj.saddle_slope,
        slope_at_zero=traj.endpoint_slope,
    )
