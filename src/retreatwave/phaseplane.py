"""Phase-plane trajectories and spatial semi-wave profiles.

A decreasing semi-wave q(x) with speed parameter c solves
d*q'' - c*q' + f(q) = 0, and along it the slope p = q' is a single-valued
function of q.  That function P(q) obeys the singular first-order ODE

    P'(q) = c/d - f(q) / (d * P(q)),

entering the equilibrium (xi, 0) of the (q, p) system along the stable
direction with slope (c - sqrt(c**2 - 4*d*f'(xi))) / (2*d) < 0, where xi is
the stable zero of f.  This module integrates that ODE outward from the
equilibrium to q = delta, provides the exact zero-speed solution as an
oracle, and builds the spatial profile from the same integration: since
dq/dx = P(q), x(q) is the integral of 1/(-P) from q to delta.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy.integrate import OdeSolution, quad, solve_ivp
from scipy.interpolate import CubicHermiteSpline

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
TRAJECTORY_SAMPLES = 2500  # samples of P on [xi + eta, delta] checked and written
PROFILE_SAMPLES = 1200  # samples of q on [0, x_end]
TAIL_CUT = 1e-6  # the profile samples end at q - xi = TAIL_CUT * (delta - xi)


@dataclass(eq=False)
class PhaseTrajectory:
    """Curve p = P(q) on [xi, delta] for one speed parameter c.

    ``endpoint_slope`` is P(delta) = q'(0) of the corresponding profile and
    ``saddle_slope`` is P'(xi), the linearized decay rate at the equilibrium.
    ``dense`` is the integrator's continuous solution on [xi + eta, delta]
    and the only stored form of P: ``p_at``, ``ode_residual``, ``to_csv``
    and the profile quadrature all read it.
    """

    c: float
    d: float
    delta: float
    xi: float
    endpoint_slope: float
    saddle_slope: float
    dense: OdeSolution = field(repr=False)

    @property
    def residual(self) -> float:
        """Slope residual r(c) = P(delta) - (delta/d)*c of the boundary law."""
        return self.endpoint_slope - (self.delta / self.d) * self.c

    def p_at(self, q):
        """P(q) from the integrator's dense output."""
        return self.dense(q)[0]

    def ode_residual(self, f: ReactionFunction) -> float:
        """Max |P'(q) - (c/d - f(q)/(d P))| at 200 interior points; P' by central difference."""
        qs = np.linspace(self.xi, self.delta, 202)[1:-1]
        h = 1e-6 * (self.delta - self.xi)
        dps = (self.p_at(qs + h) - self.p_at(qs - h)) / (2.0 * h)
        rhs = self.c / self.d - np.asarray(f(qs)) / (self.d * self.p_at(qs))
        return float(np.max(np.abs(dps - rhs)))

    def to_csv(self, path) -> None:
        """Write (xi, 0) and TRAJECTORY_SAMPLES points of P on [xi + eta, delta]."""
        q = np.linspace(self.dense.t_min, self.delta, TRAJECTORY_SAMPLES)
        rows = zip(np.concatenate(([self.xi], q)), np.concatenate(([0.0], self.p_at(q))))
        write_csv(path, ("q", "P"), rows)


@dataclass(eq=False)
class SemiWaveProfile:
    """Monotone profile q(x) with q(0) = delta decaying toward xi.

    The sampled range ends where q - xi reaches the tail cutoff; beyond it
    the profile continues analytically as xi + (q_end - xi) *
    exp(tail_rate * (x - x_end)), with ``tail_rate`` equal to the trajectory's
    saddle slope.  Inside it the profile is the cubic Hermite interpolant of
    the samples and their slopes q'(x) = P(q), which are not stored.
    """

    x_grid: np.ndarray = field(repr=False)
    q_values: np.ndarray = field(repr=False)
    xi: float
    delta: float
    tail_rate: float
    slopes: InitVar[np.ndarray]

    def __post_init__(self, slopes):
        self._interp = CubicHermiteSpline(self.x_grid, self.q_values, slopes, extrapolate=False)

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
    positive; the returned value is strictly negative.  A slope that is not
    finite (the radicand overflowed) raises IntegrationError.
    """
    if not d > 0:
        raise InputError(f"diffusivity must be positive, got {d}")
    fp = float(f.deriv(f.stable_zero))
    if not fp < 0.0:
        raise InputError(
            f"f'(stable_zero) must be negative for a saddle, got {fp:.3e}"
        )
    lam = (c - np.sqrt(c * c - 4.0 * d * fp)) / (2.0 * d)
    if not np.isfinite(lam):
        raise IntegrationError(f"saddle slope {lam} is not finite at c={c:g}")
    return lam


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
    if not xi < delta < np.inf:
        raise InputError(f"delta must exceed the stable zero {xi:g} and be finite, got {delta}")
    if not 0 < d < np.inf:
        raise InputError(f"diffusivity must be positive and finite, got {d}")
    if not np.isfinite(c):
        raise InputError(f"speed c must be finite, got {c}")

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

    p_samples = sol.sol(np.linspace(q0, delta, TRAJECTORY_SAMPLES))[0]
    if np.any(p_samples >= 0.0):
        raise NumericalError(
            f"trajectory left the lower half plane at c={c:g}; "
            "the reaction may not be monostable on (xi, delta]"
        )
    return PhaseTrajectory(
        c=float(c),
        d=float(d),
        delta=float(delta),
        xi=float(xi),
        endpoint_slope=float(p_samples[-1]),
        saddle_slope=float(lam),
        dense=sol.sol,
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


def reconstruct_profile(traj: PhaseTrajectory) -> SemiWaveProfile:
    """Profile q(x) from its trajectory by the quadrature x(q) = int_q^delta ds / (-P(s)).

    In w = ln(q - xi) the integrand (q - xi)/(-P) is smooth and tends to
    -1/saddle_slope at the equilibrium, so composite Simpson on points uniform
    in w, with P read from the trajectory's dense output, resolves both the
    boundary and the tail.  The samples run from q(0) = delta to the tail
    cutoff q - xi = TAIL_CUT*(delta - xi); the profile continues beyond it
    with the saddle-slope decay rate.
    """
    span = traj.delta - traj.xi
    w = np.linspace(np.log(TAIL_CUT * span), np.log(span), 2 * PROFILE_SAMPLES - 1)
    q = traj.xi + np.exp(w)
    q[-1] = traj.delta
    p = traj.dense(q)[0]
    if not np.all(p < 0.0):
        raise NumericalError(
            "trajectory is not negative on the profile range; "
            "cannot build a monotone profile"
        )
    g = (q - traj.xi) / -p
    panels = (w[1] - w[0]) / 3.0 * (g[:-2:2] + 4.0 * g[1:-1:2] + g[2::2])
    # x grows from the boundary, where w is largest, so the sums run backwards
    x_grid = np.concatenate(([0.0], np.cumsum(panels[::-1])))
    q_values = q[::-2]
    if not np.all(np.diff(x_grid) > 0.0):
        raise NumericalError("reconstructed profile abscissae are not strictly increasing")
    if not np.all(np.diff(q_values) < 0.0):
        raise NumericalError("reconstructed profile is not strictly decreasing")
    if not np.all(q_values > traj.xi):
        raise NumericalError("reconstructed profile fell to the stable zero")

    return SemiWaveProfile(
        x_grid=x_grid,
        q_values=q_values,
        xi=traj.xi,
        delta=traj.delta,
        tail_rate=traj.saddle_slope,
        slopes=p[::-2],
    )
