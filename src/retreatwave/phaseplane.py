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
dq/dx = P(q), x(q) is the integral of 1/(-P) from q to delta.  Every speed
shares the independent variable q, so one integration can carry many speeds
as the lanes of a vector ODE.  The integrator is this module's own
Dormand-Prince 5(4) stepper, ``solve_ivp``, with the step control of scipy's
RK45; one lane runs as one loop on Python floats.  It builds the quartic
dense output of every step as one piecewise polynomial in q, and each speed
keeps its own column of it.  The quadrature points of the profile and of
r'(c) depend on (xi, delta) alone and are built once per pair.

The module's numerics are plain numpy, with no ``scipy.integrate`` or
``scipy.interpolate`` to import: piecewise polynomials in the power basis
(``PiecewisePolynomial``, the profile's cubic Hermite interpolant among
them), Simpson's rule and a running three-point parabola rule, and an
adaptive 21-point Gauss-Kronrod quadrature.  The tests hold each one to an
exact oracle within a stated rounding bound: rational arithmetic, exactness
on polynomials of the rule's degree, and antiderivatives.
"""
from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, IntegrationError, NumericalError
from .reaction import ReactionFunction
from .serialize import write_csv

__all__ = [
    "IntegrationOptions",
    "PhaseTrajectory",
    "SemiWaveProfile",
    "saddle_slope",
    "integrate_trajectory",
    "integrate_trajectories",
    "closed_form_zero_speed",
    "reconstruct_profile",
    "residual_slope",
]


@dataclass(frozen=True)
class IntegrationOptions:
    """Tolerances for trajectory integration."""

    rtol: float = 1e-10
    atol: float = 1e-12


DEFAULT_OPTIONS = IntegrationOptions()
TRAJECTORY_SAMPLES = 2500  # samples of P on [xi + eta, delta] checked and written
PROFILE_SAMPLES = 1200  # samples of q on [0, x_end]
TAIL_CUT = 1e-6  # the profile samples end at q - xi = TAIL_CUT * (delta - xi)
START_OFFSET = 1e-8  # the series start is at q - xi = START_OFFSET * (delta - xi)
QUAD_PANELS = 200  # most panels of the adaptive Gauss-Kronrod quadrature


class PiecewisePolynomial:
    """Piecewise polynomial in the power basis (the layout of scipy's ``PPoly``).

    On [x[i], x[i+1]] it is sum_k c[k, i] * (t - x[i])**(K-1-k), highest
    power first; trailing axes of ``c`` are independent columns, and a call
    returns shape t.shape + c.shape[2:].  ``x`` must be strictly increasing.
    With ``extrapolate`` the first and last pieces continue beyond the ends;
    without it, points outside [x[0], x[-1]] give NaN.  ``_power_sum`` sums a
    value to within 3K roundings of sum_k |c[k, i]| * |t - x[i]|**(K-1-k).
    """

    def __init__(self, c: np.ndarray, x: np.ndarray, extrapolate: bool = True):
        self.c = c
        self.x = x
        self.extrapolate = extrapolate

    def piece(self, t):
        """Index i of the piece that evaluates t: x[i] <= t < x[i+1], the end
        pieces taking what lies beyond.

        Points in ascending order, more of them than breakpoints, are not
        searched one by one (``_runs``).  Other points, and any with a NaN,
        are searched.
        """
        t = np.asarray(t)
        if t.ndim == 1 and t.size > self.x.size - 2 and (t[:-1] <= t[1:]).all():
            return self._runs(t)
        return self.x[1:-1].searchsorted(t, "right")

    def _runs(self, t):
        """``piece`` of 1-d ascending points, unchecked: the breakpoints are
        located among the points and each piece's index is repeated over its
        run of points, which gives the indices a search would."""
        inner = self.x[1:-1]
        ends = np.empty(inner.size + 2, dtype=np.intp)  # piece i is t[ends[i]:ends[i+1]]
        ends[0], ends[-1] = 0, t.size
        ends[1:-1] = t.searchsorted(inner)
        return np.repeat(np.arange(inner.size + 1), ends[1:] - ends[:-1])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        return self._at(flat, self.piece(flat)).reshape(t.shape + self.c.shape[2:])

    def _at(self, t, i):
        """The values at 1-d points t, which lie in the pieces i."""
        x, c = self.x, self.c
        s = (t - x[i]).reshape((-1,) + (1,) * (c.ndim - 2))
        out = _power_sum(c.take(i, axis=1), s)
        if not self.extrapolate:
            out[(t < x[0]) | (t > x[-1])] = np.nan
        return out


def _power_sum(coeffs, s):
    """sum_k coeffs[k] * s**(K-1-k): the constant first, then each power of s
    by one more multiplication.  Arrays, or a sequence of Python floats and a
    Python float, which give the same sum.

    Rounding is monotone, so for s >= 0 the rounded sum does not fall when
    a coefficient is raised, nor, once every coefficient but the constant is
    >= 0, when s grows; ``_step_bounds`` relies on both.
    """
    out = coeffs[-1] + 0.0
    z = s
    for k in range(len(coeffs) - 2, -1, -1):
        out += coeffs[k] * z
        if k:
            z = z * s
    return out


def _hermite_pieces(x, y, dydx, i) -> tuple:
    """Power-basis coefficients, highest power first, of the pieces i of the
    cubic Hermite interpolant of (x, y, dydx): each is the cubic with the
    given values and slopes at x[i] and x[i + 1], so it reproduces any cubic
    up to rounding.  x must be strictly increasing.
    """
    x0, y0, s0, j = x.take(i), y.take(i), dydx.take(i), i + 1
    dx = x.take(j) - x0
    slope = (y.take(j) - y0) / dx
    t = (s0 + dydx.take(j) - 2 * slope) / dx
    return t / dx, (slope - s0) / dx - t, s0, y0


def _cubic_hermite(x, y, dydx) -> PiecewisePolynomial:
    """The cubic Hermite interpolant of (x, y, dydx), every piece built, NaN outside
    [x[0], x[-1]]: the reference for ``SemiWaveProfile.q_at``."""
    c = np.array(_hermite_pieces(x, y, dydx, np.arange(len(x) - 1)))
    return PiecewisePolynomial(c, x, extrapolate=False)


@dataclass(eq=False)
class PhaseTrajectory:
    """Curve p = P(q) on [xi, delta] for one speed parameter c.

    ``endpoint_slope`` is P(delta) = q'(0) of the corresponding profile and
    ``saddle_slope`` is P'(xi), the linearized decay rate at the equilibrium.
    ``dense`` is the integrator's dense output on [xi + eta, delta] as one
    piecewise quartic (a ``PiecewisePolynomial``, breakpoints at the
    Dormand-Prince steps, extrapolating beyond them) and the only stored form
    of P: ``p_at``, ``ode_residual``, ``to_csv`` and the quadratures of the
    profile and of r'(c) read it.  Its coefficients, shape (5, steps), are
    this speed's column of the integration's quartics, a view of them also
    when the speed was one lane of a batch.
    """

    c: float
    d: float
    delta: float
    xi: float
    endpoint_slope: float
    saddle_slope: float
    dense: PiecewisePolynomial = field(repr=False)

    @property
    def residual(self) -> float:
        """Slope residual r(c) = P(delta) - (delta/d)*c of the boundary law."""
        return self.endpoint_slope - (self.delta / self.d) * self.c

    def p_at(self, q):
        """P(q), from the piecewise polynomial."""
        return self.dense(q)

    def ode_residual(self, f: ReactionFunction) -> float:
        """Max |P'(q) - (c/d - f(q)/(d P))| at 200 interior points; P' by central difference."""
        qs = np.linspace(self.xi, self.delta, 202)[1:-1]
        h = 1e-6 * (self.delta - self.xi)
        dps = (self.p_at(qs + h) - self.p_at(qs - h)) / (2.0 * h)
        rhs = self.c / self.d - np.asarray(f(qs)) / (self.d * self.p_at(qs))
        return float(np.max(np.abs(dps - rhs)))

    def to_csv(self, path) -> None:
        """Write (xi, 0) and TRAJECTORY_SAMPLES points of P on [xi + eta, delta]."""
        q = np.linspace(self.dense.x[0], self.delta, TRAJECTORY_SAMPLES)
        rows = zip(np.concatenate(([self.xi], q)), np.concatenate(([0.0], self.p_at(q))))
        write_csv(path, ("q", "P"), rows)


@dataclass(eq=False)
class SemiWaveProfile:
    """Monotone profile q(x) with q(0) = delta decaying toward xi.

    The sampled range ends where q - xi reaches the tail cutoff; beyond it
    the profile continues analytically as xi + (q_end - xi) *
    exp(tail_rate * (x - x_end)), with ``tail_rate`` equal to the trajectory's
    saddle slope.  Inside it the profile is the cubic Hermite interpolant of
    the samples and their slopes q'(x) = P(q), NaN for x < 0; ``q_at`` builds
    only the pieces its points fall in.  From ``reconstruct_profile``,
    ``q_values`` is a read-only view of shared points.
    """

    x_grid: np.ndarray = field(repr=False)
    q_values: np.ndarray = field(repr=False)
    xi: float
    tail_rate: float
    slopes: np.ndarray = field(repr=False)

    def q_at(self, x):
        """Evaluate the profile anywhere on [0, inf)."""
        x = np.asarray(x, dtype=float)
        grid = self.x_grid
        x_end = grid[-1]
        q_end = self.q_values[-1]
        out = np.asarray(self.xi + (q_end - self.xi) * np.exp(self.tail_rate * (x - x_end)))
        inside = x <= x_end  # the interpolant only there: most of a long grid is tail
        t = x[inside]
        i = grid[1:-1].searchsorted(t, "right")  # the pieces ``_cubic_hermite`` would read
        q = _power_sum(_hermite_pieces(grid, self.q_values, self.slopes, i), t - grid.take(i))
        q[t < grid[0]] = np.nan
        out[inside] = q
        return out if out.ndim else float(out)

    def to_csv(self, path) -> None:
        write_csv(path, ("x", "q"), zip(self.x_grid, self.q_values))


def saddle_slope(c: float, d: float, f: ReactionFunction) -> float:
    """Slope of the stable trajectory entering (stable_zero, 0).

    Requires f'(stable_zero) < 0 so the radicand c**2 - 4*d*f'(xi) is
    positive; the returned value is strictly negative.  A slope that is not
    finite (the radicand overflowed) raises IntegrationError.
    """
    if not 0 < d < np.inf:
        raise InputError(f"diffusivity must be positive and finite, got {d}")
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
    """Integrate the phase-plane ODE for one speed: the one-lane ``integrate_trajectories``."""
    return integrate_trajectories([c], d, f, delta, opts)[0]


def integrate_trajectories(
    cs,
    d: float,
    f: ReactionFunction,
    delta: float,
    opts: IntegrationOptions | None = None,
) -> list[PhaseTrajectory]:
    """Integrate the phase-plane ODE from the equilibrium out to q = delta for each speed in cs.

    The speeds are the lanes of one vector ODE in q, integrated by one RK45
    call whose step control takes the RMS of all lanes' scaled errors; the
    trajectories share its dense output.  The 0/0 start is removed by a
    second-order series step to q = xi + eta with eta =
    START_OFFSET*(delta - xi); the outward direction is self-correcting, so
    the series truncation decays along the way.  A lane that fails raises
    the error its own one-lane integration would, naming its speed.
    """
    opts = opts or DEFAULT_OPTIONS
    xi = f.stable_zero
    if not xi < delta < np.inf:
        raise InputError(f"delta must exceed the stable zero {xi:g} and be finite, got {delta}")
    if not 0 < d < np.inf:
        raise InputError(f"diffusivity must be positive and finite, got {d}")
    cs = np.asarray(cs, dtype=float)
    if cs.ndim != 1 or cs.size == 0:
        raise InputError(f"speeds must be a non-empty 1-d array, got shape {cs.shape}")
    # Python floats: a numpy scalar would warn where c*c overflows in saddle_slope
    cs = cs.tolist()

    eta = START_OFFSET * (delta - xi)
    q0 = xi + eta
    lams, p0s = [], []
    for c in cs:
        if not math.isfinite(c):
            raise InputError(f"speed c must be finite, got {c}")
        lam = saddle_slope(c, d, f)
        sigma2 = _curvature_at_saddle(c, d, f, lam)
        p0 = lam * eta + 0.5 * sigma2 * eta * eta
        if not math.isfinite(p0):
            raise IntegrationError(f"series start P(xi + eta) = {p0} is not finite at c={c:g}")
        lams.append(lam)
        p0s.append(p0)

    # one lane steps on Python floats; P = 0 is the pole of the right-hand
    # side, where a NaN rejects the step as numpy's inf would.  f.value_fn is
    # bound once: an RHS call makes no frame for ReactionFunction.__call__
    value = f.value_fn
    if len(cs) == 1:
        c_d = cs[0] / d

        def rhs(q, p):
            dp = d * p
            return c_d - float(value(q)) / dp if dp else math.nan
    else:
        cd = np.array(cs) / d

        def rhs(q, p):
            return cd - float(value(q)) / (d * p)

    sol = solve_ivp(rhs, (q0, delta), p0s, rtol=opts.rtol, atol=opts.atol)
    if not sol.success:
        # the lane closest to P = 0, where its right-hand side blows up
        c = cs[int(np.argmax(sol.y[:, -1]))]
        raise IntegrationError(f"phase-plane integration failed at c={c:g}: {sol.message}")

    dense = sol.dense
    left = _lane_leaving_lower_half_plane(dense, q0, delta)
    if left is not None:
        raise NumericalError(
            f"trajectory left the lower half plane at c={cs[left]:g}; "
            "the reaction may not be monostable on (xi, delta]"
        )
    # each lane reads its column of the shared quartics, a view, and sums
    # P(delta) from its last piece on Python floats, as a call of ``dense``
    # would sum it
    s_end = delta - float(dense.x[-2])
    return [
        PhaseTrajectory(
            c=c,
            d=float(d),
            delta=float(delta),
            xi=float(xi),
            endpoint_slope=_power_sum(last, s_end),
            saddle_slope=float(lam),
            dense=PiecewisePolynomial(dense.c[:, :, lane], dense.x),
        )
        for lane, (c, lam, last) in enumerate(zip(cs, lams, dense.c[:, -1].T.tolist()))
    ]


def _step_bounds(dense: PiecewisePolynomial) -> np.ndarray:
    """An upper bound of each step's polynomial on its step, shape (steps, lanes).

    On a step of width h it is c[-1] + sum_k max(c[k], 0) * h**(K-1-k), summed
    by ``_power_sum``, so it is also at least every rounded value ``dense``
    gives on the step.  A NaN coefficient gives a NaN bound.
    """
    c = np.maximum(dense.c, 0.0)
    c[-1] = dense.c[-1]
    h = (dense.x[1:] - dense.x[:-1]).reshape((-1,) + (1,) * (c.ndim - 2))
    return _power_sum(c, h)


def _lane_leaving_lower_half_plane(dense: PiecewisePolynomial, q0: float, delta: float):
    """The lowest lane where P < 0 fails at one of TRAJECTORY_SAMPLES points of [q0, delta].

    A step whose bound from ``_step_bounds`` is negative holds no such point,
    so only the points in the other steps, a NaN bound among them, are
    evaluated, one lane at a time.  None when every lane passes.
    """
    unproven = ~(_step_bounds(dense) < 0.0)
    if not unproven.any():
        return None
    q = np.linspace(q0, delta, TRAJECTORY_SAMPLES)
    step = dense.piece(q)
    for lane in np.flatnonzero(unproven.any(axis=0)):
        at = np.flatnonzero(unproven[step, lane])
        if not np.all(PiecewisePolynomial(dense.c[:, :, lane], dense.x)(q[at]) < 0.0):
            return int(lane)
    return None


# Dormand & Prince's 5(4) pair (J. Comput. Appl. Math. 6, 1980) and Shampine's
# quartic dense output (Math. Comp. 46, 1986): the coefficients of scipy's RK45.
# solve_ivp's one-lane loop spells the same tableau out as constants.
_C = (0.0, 1/5, 3/10, 4/5, 8/9, 1.0)  # Python floats: the stage abscissae stay floats
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_P_HIGH_FIRST = np.ascontiguousarray(_P.T[::-1])  # rows Q_4 .. Q_1
_POWERS = np.arange(3, 0, -1)[:, None]  # h**(j-1) divides Q_j for j = 4, 3, 2
SAFETY = 0.9  # on the step factor predicted from the error estimate
MIN_FACTOR, MAX_FACTOR = 0.2, 10.0  # bounds of the step factor
ERROR_EXPONENT = -1 / 5  # the error estimate is of order 4
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


@dataclass(eq=False)
class RK45Solution:
    """What ``solve_ivp`` returns: steps, values, status, RHS calls and dense output.

    ``t`` holds the accepted breakpoints and ``y`` the lanes there, shape
    (lanes, len(t)).  ``dense`` is the piecewise quartic on ``t``, with
    coefficients of shape (5, steps, lanes); it is None after a failure.
    """

    t: np.ndarray
    y: np.ndarray
    success: bool
    message: str
    nfev: int
    dense: PiecewisePolynomial | None = field(repr=False)


def solve_ivp(fun, t_span, y0, rtol: float, atol: float) -> RK45Solution:
    """Phaseplane's own RK45: integrate y' = fun(t, y) forward over t_span.

    Every rule is scipy's RK45 (``solve_ivp(method="RK45")``): the
    Dormand-Prince tableau and its dense output, scipy's initial step, the
    RMS over the lanes of the error scaled by atol + max(|y|, |y_new|)*rtol,
    step factors SAFETY*err**ERROR_EXPONENT clipped to [MIN_FACTOR,
    MAX_FACTOR] and kept at most 1 after a rejection, and failure with
    TOO_SMALL_STEP once the step falls below 10 ulp of t.  With one lane, y
    is a Python float and fun must return one; the loop then writes the
    tableau out on floats, with no call but fun's per stage.  Otherwise y is
    an array of the lanes, stepped by ``_rk_step_lanes``.  The stages of the
    accepted steps go into one flat list and give every step's quartic at
    the end, so no per-step interpolant object is made.  ``nfev`` counts the
    calls of fun.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t < t_bound:
        raise ValueError(f"solve_ivp integrates forward, got t_span {t_span}")
    y = np.array(y0, dtype=float)
    lanes = y.size
    if lanes == 1:
        y = float(y[0])
    f = fun(t, y)
    # NaN when f is: the floor then takes its place, so the step is tried and fails
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol, abs if lanes == 1 else _rms)
    nfev = 2
    ts, ys, stages = [t], [y], []
    message = None
    spacing_end = t  # min_step holds while t < spacing_end
    # the step control compares instead of calling min and max: each
    # comparison is written so that a NaN takes the branch max or min would
    while t < t_bound and message is None:
        if not t < spacing_end:
            spacing = math.nextafter(t, math.inf) - t
            min_step = 10.0 * spacing
            # from t >= 0 the spacing stays the same up to the next power of
            # two, which is 2**53 spacings; below 0 it is looked up every step
            spacing_end = spacing * 2.0 ** 53 if t >= 0.0 else t
        if not h_abs >= min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                message = TOO_SMALL_STEP
                break
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
            h = h_abs = t_new - t
            if lanes > 1:
                y_new, f_new, error_norm, k = _rk_step_lanes(fun, t, y, f, h, rtol, atol)
            else:
                k1 = f
                k2 = fun(t + 1/5 * h, y + (1/5 * k1) * h)
                k3 = fun(t + 3/10 * h, y + (3/40 * k1 + 9/40 * k2) * h)
                k4 = fun(t + 4/5 * h, y + (44/45 * k1 - 56/15 * k2 + 32/9 * k3) * h)
                k5 = fun(t + 8/9 * h, y + (19372/6561 * k1 - 25360/2187 * k2
                                           + 64448/6561 * k3 - 212/729 * k4) * h)
                k6 = fun(t + h, y + (9017/3168 * k1 - 355/33 * k2 + 46732/5247 * k3
                                     + 49/176 * k4 - 5103/18656 * k5) * h)
                y_new = y + h * (35/384 * k1 + 500/1113 * k3 + 125/192 * k4
                                 - 2187/6784 * k5 + 11/84 * k6)
                f_new = fun(t + h, y_new)
                err = (-71/57600 * k1 + 71/16695 * k3 - 71/1920 * k4 + 17253/339200 * k5
                       - 22/525 * k6 + 1/40 * f_new) * h
                # scipy's max(|y|, |y_new|), where a NaN y_new leaves |y|
                y_abs = y if y >= 0.0 else -y
                y_new_abs = y_new if y_new >= 0.0 else -y_new
                err /= atol + (y_new_abs if y_new_abs > y_abs else y_abs) * rtol
                error_norm = err if err >= 0.0 else -err
                k = (k1, k2, k3, k4, k5, k6, f_new)
            nfev += 6
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = SAFETY * error_norm ** ERROR_EXPONENT
                    if factor > MAX_FACTOR:
                        factor = MAX_FACTOR
                if rejected and factor > 1.0:
                    factor = 1.0
                h_abs *= factor
                t, y, f = t_new, y_new, f_new
                ts.append(t)
                ys.append(y)
                stages.extend(k)
                break
            # a NaN error norm shrinks the step by MIN_FACTOR
            factor = SAFETY * error_norm ** ERROR_EXPONENT
            h_abs *= factor if factor > MIN_FACTOR else MIN_FACTOR
            rejected = True

    # dtype=float spares numpy the search for the items' common type
    t_out = np.array(ts, dtype=float)
    y_out = np.array(ys, dtype=float).reshape(len(ts), lanes).T
    dense = None
    if message is None:
        # the step from t_old of length h is y_old + h * sum_j Q_j * ((t - t_old)/h)**j,
        # j = 1..4, with Q = K.T @ P: one product gives every step's and every
        # lane's Q_j at once, highest power first, then each is divided by h**(j-1);
        # with one lane every reshape is a view, and coeffs[:, :, 0] is contiguous
        K = np.array(stages, dtype=float).reshape(-1, 7, lanes).transpose(1, 0, 2).reshape(7, -1)
        coeffs = np.empty((5, len(ts) - 1, lanes))
        np.dot(_P_HIGH_FIRST, K, out=coeffs[:4].reshape(4, -1))
        coeffs[:3] /= ((t_out[1:] - t_out[:-1]) ** _POWERS)[:, :, None]
        coeffs[4] = y_out[:, :-1].T
        dense = PiecewisePolynomial(coeffs, t_out)
        message = "The solver successfully reached the end of the integration interval."
    return RK45Solution(t_out, y_out, dense is not None, message, nfev, dense)


def _rms(x) -> float:
    """scipy's RMS norm, np.linalg.norm(x) / sqrt(x.size), whose 2-norm is sqrt(x @ x)."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol, norm) -> float:
    """scipy's select_initial_step for an error estimate of order 4 (Hairer, Norsett
    and Wanner, Solving ODEs I, Sec. II.4); its one RHS call is in the caller's nfev."""
    interval = t_bound - t0
    scale = atol + abs(y0) * rtol
    d0, d1 = norm(y0 / scale), norm(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def _rk_step_lanes(fun, t, y, f, h, rtol, atol):
    """One step on an array of lanes: y_new, f_new, the RMS scaled error and the stages."""
    K = np.empty((7, y.size))
    K[0] = f
    for s in range(1, 6):
        K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
    y_new = y + h * np.dot(K[:6].T, _B)
    K[6] = f_new = fun(t + h, y_new)
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    return y_new, f_new, _rms(np.dot(K.T, _E) * h / scale), K


# QUADPACK's 21-point Kronrod rule and its embedded 10-point Gauss rule
# (Piessens et al., QUADPACK, 1983, routine dqk21): abscissae on [0, 1)
# largest first, the Gauss points at the odd indices; the last Kronrod
# weight is the centre's.
_XGK = np.array((0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                 0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                 0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                 0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                 0.294392862701460198131126603103866, 0.148874338981631210884826001129720))
_WGK = np.array((0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                 0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                 0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                 0.123491976262065851077208745170633, 0.134709217311473325928054001771707,
                 0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                 0.149445554002916905664936468389821))
_WG = np.array((0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
                0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
                0.295524224714752870173892994651338))
# the 21 nodes on [-1, 1] in increasing order, with their Kronrod weights and
# their Gauss weights (0 where a node is not a Gauss point)
_NODES = np.concatenate((-_XGK, [0.0], _XGK[::-1]))
_KRONROD = np.concatenate((_WGK, _WGK[-2::-1]))
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _GAUSS[19:10:-2] = _WG


def _kronrod21(f, a: float, b: float) -> tuple[float, float]:
    """The 21-point Kronrod value K21 of int_a^b f and |K21 - G10|, from one call of f.

    |K21 - G10| estimates the error of the 10-point Gauss rule (exact to
    degree 19), so it is a generous estimate for K21 (exact to degree 31).
    f is called once, on the array of the 21 nodes; a scalar result counts
    for every node.  For b < a the value carries its sign.
    """
    half = 0.5 * (b - a)
    fx = np.broadcast_to(f(0.5 * (a + b) + half * _NODES), _NODES.shape)
    kronrod = half * float(_KRONROD @ fx)
    return kronrod, abs(kronrod - half * float(_GAUSS @ fx))


def _quad(f, a: float, b: float, epsabs: float, epsrel: float) -> float:
    """int_a^b f by adaptive 21-point Gauss-Kronrod quadrature.

    [a, b] starts as one panel; the panel with the largest error estimate
    (``_kronrod21``) is halved until the summed estimate meets
    max(epsabs, epsrel*|integral|).  An integrand that needs more than
    QUAD_PANELS panels raises NumericalError.
    """
    a, b = float(a), float(b)
    panels, pending = [], [(a, b)]
    while True:
        for lo, hi in pending:
            value, error = _kronrod21(f, lo, hi)
            heapq.heappush(panels, (-error, lo, hi, value))
        result = sum(panel[3] for panel in panels)
        if -sum(panel[0] for panel in panels) <= max(epsabs, epsrel * abs(result)):
            return result
        if len(panels) >= QUAD_PANELS:
            raise NumericalError(
                f"quadrature of {getattr(f, 'label', f)} on [{min(a, b):g}, {max(a, b):g}] "
                f"did not converge in {QUAD_PANELS} panels"
            )
        _, lo, hi, _ = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        pending = [(lo, mid), (mid, hi)]


def closed_form_zero_speed(q: float, d: float, f: ReactionFunction) -> float:
    """Exact trajectory value at zero speed: P0(q) = -sqrt((2/d) * int_q^xi f).

    For q beyond the stable zero the integrand makes the radicand positive;
    a negative radicand beyond round-off signals a non-monostable reaction.
    Quadrature is adaptive Gauss-Kronrod (``_quad``) at relative tolerance
    1e-12 so the oracle error stays far below the integrator's; one that does
    not converge raises NumericalError.
    """
    xi = f.stable_zero
    if not 0 < d < np.inf:
        raise InputError(f"diffusivity must be positive and finite, got {d}")
    if not xi - 1e-12 <= q < np.inf:
        raise InputError(f"q must be finite and at least the stable zero {xi:g}, got {q}")
    integral = _quad(f, q, xi, epsabs=1e-14, epsrel=1e-12)
    radicand = (2.0 / d) * integral
    if radicand < -1e-12:
        raise NumericalError(
            f"negative radicand {radicand:.3e} at q={q:g}: f is not monostable"
        )
    return -float(np.sqrt(max(radicand, 0.0)))


@functools.lru_cache(maxsize=8)
def _log_points(xi: float, delta: float):
    """Step h, read-only points q, uniform in w = ln(q - xi) from the tail cutoff to
    delta, and their read-only offsets q - xi.

    Every other point, from the first, is a sample of the profile, so those
    must lie above xi and rise strictly; where delta - xi is too small
    against xi for that, NumericalError.  The first point is checked first:
    where it rounds to xi, ties follow among the next ones.
    """
    span = delta - xi
    w = np.linspace(np.log(TAIL_CUT * span), np.log(span), 2 * PROFILE_SAMPLES - 1)
    q = xi + np.exp(w)
    q[-1] = delta
    where = f"(xi = {xi!r}, delta = {delta!r})"
    if not q[0] > xi:
        raise NumericalError(f"profile samples fell to the stable zero {where}")
    if not np.all(np.diff(q[::2]) > 0.0):
        raise NumericalError(f"profile samples are not strictly decreasing {where}")
    s = q - xi
    q.flags.writeable = s.flags.writeable = False
    return w[1] - w[0], q, s


def _log_grid(traj: PhaseTrajectory):
    """Step h, points q and offsets q - xi of ``_log_points``, whose points depend on
    (xi, delta) alone: every speed of a search or a sequence reuses them; and P(q),
    read as ``p_at`` reads it but without checking that the points ascend."""
    h, q, s = _log_points(traj.xi, traj.delta)
    p = traj.dense._at(q, traj.dense._runs(q))
    if not np.all(p < 0.0):
        raise NumericalError("trajectory is not negative on the quadrature range")
    return h, q, s, p


def _simpson_sums(y: np.ndarray) -> np.ndarray:
    """y0 + 4*y1 + y2 on each pair of intervals of y, an odd number of points: for
    points h apart, h/3 times it is Simpson's rule on the pair."""
    return y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2]


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running integral of y from its first point, points h apart (at least 3).

    Each interval takes the parabola through its two points and the next
    one, h/12*(5*y0 + 8*y1 - y2); the last, which has no next point, takes
    the parabola through its two points and the one before.  So the rule is
    exact on quadratics.
    """
    pieces = np.empty(len(y) - 1)
    pieces[:-1] = 5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:]
    pieces[-1] = 5.0 * y[-1] + 8.0 * y[-2] - y[-3]
    return np.concatenate(([0.0], np.cumsum(h / 12.0 * pieces)))


def residual_slope(traj: PhaseTrajectory, f: ReactionFunction) -> float:
    """r'(c) = S(delta) - delta/d at the trajectory's speed, by quadrature: no integration.

    S = dP/dc solves S' = a*S + 1/d with a = f/(d*P**2) < 0 on (xi, delta]
    and S(xi) = 0, so S(delta) = (1/d) int_xi^delta exp(int_s^delta a) ds lies
    in (0, (delta - xi)/d) and r'(c) in (-delta/d, -xi/d).  At the equilibrium
    a*(q - xi) tends to -kappa = f'(xi)/(d*lam**2), lam the saddle slope, so
    below the tail cutoff exp(int_s^delta a) ~ (s - xi)**kappa closes the integral.
    """
    h, q, s, p = _log_grid(traj)
    g = s * np.asarray(f(q)) / (traj.d * p * p)  # a*(q - xi): int a in w
    weight = np.exp(_cumulative_simpson(g[::-1], h)[::-1])  # exp(int_q^delta a)
    outer = np.sum(_simpson_sums(weight * s)) * (h / 3.0) + weight[0] * s[0] / (1.0 - g[0])
    return float((outer - traj.delta) / traj.d)


def reconstruct_profile(traj: PhaseTrajectory) -> SemiWaveProfile:
    """Profile q(x) from its trajectory by the quadrature x(q) = int_q^delta ds / (-P(s)).

    The integrand in w, (q - xi)/(-P), tends to -1/saddle_slope at the equilibrium;
    Simpson panels on ``_log_grid`` give x at every other point.  Beyond the tail
    cutoff the profile continues with the saddle-slope decay rate.
    """
    h, q, s, p = _log_grid(traj)
    g = s / -p
    panels = h / 3.0 * _simpson_sums(g)
    # x grows from the boundary, where w is largest, so the sums run backwards
    x_grid = np.concatenate(([0.0], np.cumsum(panels[::-1])))
    q_values = q[::-2]
    if not np.all(np.diff(x_grid) > 0.0):
        raise NumericalError("reconstructed profile abscissae are not strictly increasing")

    return SemiWaveProfile(
        x_grid=x_grid,
        q_values=q_values,
        xi=traj.xi,
        tail_rate=traj.saddle_slope,
        slopes=p[::-2],
    )
