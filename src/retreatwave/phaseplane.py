"""Phase-plane trajectories and spatial semi-wave profiles.

A decreasing semi-wave q(x) with speed parameter c solves
d*q'' - c*q' + f(q) = 0, and along it the slope p = q' is a single-valued
function of q.  That function P(q) obeys the singular first-order ODE

    d * P(q) * P'(q) = c * P(q) - f(q),

entering the equilibrium (xi, 0) of the (q, p) system along the stable
direction with slope (c - sqrt(c**2 - 4*d*f'(xi))) / (2*d) < 0, where xi is
the stable zero of f.  With s = q - xi = (delta - xi)*t and P = s*w the
singularity goes, since s*dw/ds = t*dw/dt:

    d*w*(w + t*dw/dt) - c*w + f(q)/s = 0   for t in [0, 1],

with f/s taken as f'(xi) at s = 0, where the equation is the saddle's
quadratic d*w**2 - c*w + f'(xi) = 0.  Only f/s depends on (xi, delta).  w
is analytic for every reaction the package builds, so this module
collocates it at the n + 1 Chebyshev-Lobatto points of [0, 1] (Trefethen,
Spectral Methods in MATLAB, SIAM 2000; Boyd, Chebyshev and Fourier Spectral
Methods, 2001) and solves the collocation equations by Newton's method.
The start is w's Taylor series at xi to order TAYLOR_ORDER, whose
coefficients the equation fixes from (c, d, f) alone; its constant term is
the saddle slope, which leads to the stable branch, and it stops before the
first term past the tangent that does not shrink at delta.  n starts at
N_START and doubles until the Chebyshev coefficients of w have decayed to
the options' tolerances.  The speeds of one call are the lanes of one
batched solve, and each lane stops on its own, so its values do not depend
on the batch.  With c as one more unknown and the boundary law P(delta) =
(delta/d)*c as one more row, the same equations give the wave speed
(``solve_wave_speed``), and their Jacobian gives r'(c) by one linear solve
(``residual_slope``).  The profile is x(q) = int_q^delta ds/(-P(s)), in ln t
the integral of -1/w, by Simpson's rule on points uniform in ln t.

The module's numerics are plain numpy, with ``np.linalg.solve`` for the
Newton steps and no ``scipy`` to import: the collocation, Clenshaw-Curtis
quadrature on its points for the zero-speed closed form, Simpson's rule,
and ``solve_ivp``, a one-lane Dormand-Prince 5(4) stepper with scipy's RK45
rules that nothing in the package calls: the tests integrate the phase-plane
ODE with it as an independent reference.  The tests hold each piece to an
exact oracle within a stated rounding bound.
"""
from __future__ import annotations

import functools
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
    "solve_wave_speed",
    "closed_form_zero_speed",
    "reconstruct_profile",
    "residual_slope",
]


@dataclass(frozen=True)
class IntegrationOptions:
    """Tolerances of a trajectory solve: its degree n is the first of N_START,
    2*N_START, ... whose last three Chebyshev coefficients of w lie within
    atol + rtol * (the largest one)."""

    rtol: float = 1e-10
    atol: float = 1e-12


DEFAULT_OPTIONS = IntegrationOptions()
TRAJECTORY_SAMPLES = 2500  # samples of P on (xi, delta] written
PROFILE_SAMPLES = 1200  # samples of q on [0, x_end]
TAIL_CUT = 1e-6  # the profile samples end at q - xi = TAIL_CUT * (delta - xi)
N_START, N_MAX = 16, 256  # the first and the largest collocation degree
TAYLOR_ORDER = 3  # the highest power of s - xi in the start of a solve (``_taylor_start``)
NEWTON_STEPS = 40  # most Newton steps of one solve at one degree
SEARCH_STEPS = 30  # most Newton steps of one speed solve, all degrees (``solve_wave_speed``)
NEWTON_TOL = 1e-13  # bound of the relative error estimate that stops Newton (``_newton``)


def _power_sum(coeffs, s):
    """sum_k coeffs[k] * s**(K-1-k): the constant first, then each power of s
    by one more multiplication.  Arrays, or a sequence of Python floats and a
    Python float, which give the same sum."""
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


@dataclass(eq=False)
class PhaseTrajectory:
    """Curve p = P(q) on [xi, delta] for one speed parameter c.

    ``endpoint_slope`` is P(delta) = q'(0) of the corresponding profile and
    ``saddle_slope`` is P'(xi), the linearized decay rate at the equilibrium.
    ``nodes`` holds w = P/(q - xi) at the n + 1 Chebyshev-Lobatto points of
    [xi, delta], ascending from xi, and is the only stored form of P:
    ``p_at``, ``ode_residual``, ``to_csv``, the profile and r'(c) read it.
    """

    c: float
    d: float
    delta: float
    xi: float
    endpoint_slope: float
    saddle_slope: float
    nodes: np.ndarray = field(repr=False)

    @property
    def residual(self) -> float:
        """Slope residual r(c) = P(delta) - (delta/d)*c of the boundary law."""
        return self.endpoint_slope - (self.delta / self.d) * self.c

    def p_at(self, q):
        """P(q) = (q - xi) * w(q), w by barycentric interpolation of the nodes."""
        q = np.asarray(q, dtype=float)
        s = q - self.xi
        t = s.reshape(-1) / (self.delta - self.xi)
        p = s * (_interpolation(self.nodes.size - 1, t) @ self.nodes).reshape(q.shape)
        return p if p.ndim else float(p)

    def ode_residual(self, f: ReactionFunction) -> float:
        """Max |P'(q) - (c/d - f(q)/(d P))| at 200 interior points; P' by central difference."""
        qs = np.linspace(self.xi, self.delta, 202)[1:-1]
        h = 1e-6 * (self.delta - self.xi)
        dps = (self.p_at(qs + h) - self.p_at(qs - h)) / (2.0 * h)
        rhs = self.c / self.d - np.asarray(f(qs)) / (self.d * self.p_at(qs))
        return float(np.max(np.abs(dps - rhs)))

    def to_csv(self, path) -> None:
        """Write (xi, 0) and TRAJECTORY_SAMPLES points of P on (xi, delta]."""
        q = np.linspace(self.xi, self.delta, TRAJECTORY_SAMPLES + 1)[1:]
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
    only the pieces its points fall in.
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
        i = grid[1:-1].searchsorted(t, "right")  # the pieces the interpolant would read
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


@functools.lru_cache(maxsize=8)
def _chebyshev(n: int):
    """The n + 1 Chebyshev-Lobatto points t of [0, 1], ascending, their
    barycentric weights, the differentiation matrix d/dt, the matrix that
    takes values to Chebyshev coefficients (up to sign) and the row of the
    polynomials' means over [0, 1], all read-only: the mean of T_k(2t - 1) is
    1/(1 - k**2) at even k and 0 at odd k, where the sign is open.

    D[i, k] = (weight_k/weight_i) / (t_i - t_k) off the diagonal, and each
    row sums to zero, as the derivative of a constant does (Trefethen,
    ``cheb.m``).
    """
    j = np.arange(n + 1)
    t = np.sin(0.5 * np.pi * j / n) ** 2  # (1 - cos(pi*j/n))/2, with no cancellation near 0
    weights = np.where(j % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    D = weights / weights[:, None] / (t[:, None] - t + np.eye(n + 1))
    D[j, j] = 0.0
    D[j, j] = -D.sum(axis=1)
    coeffs = np.cos(np.pi / n * np.outer(j, j)) * (2.0 / n)
    coeffs[:, [0, -1]] *= 0.5
    coeffs[[0, -1]] *= 0.5
    means = np.zeros(n + 1)
    means[::2] = 1.0 / (1.0 - j[::2] ** 2)
    for a in (t, weights, D, coeffs, means):
        a.flags.writeable = False
    return t, weights, D, coeffs, means


def _interpolation(n: int, t: np.ndarray) -> np.ndarray:
    """The matrix of barycentric interpolation from the points of ``_chebyshev(n)``
    to the points t: row k reads w(t[k]) off the node values, and a point on a
    node reads that node's value."""
    nodes, weights = _chebyshev(n)[:2]
    diff = t[:, None] - nodes
    on_node = diff == 0.0
    diff[on_node] = 1.0
    m = weights / diff
    m /= m.sum(axis=1, keepdims=True)
    hit = on_node.any(axis=1)
    m[hit] = on_node[hit]
    return m


def _collocation_grid(n: int, d: float, f: ReactionFunction, delta: float):
    """d*t at the points t of ``_chebyshev(n)``, f(q)/s at q = xi + (delta - xi)*t,
    s = q - xi (f'(xi) at s = 0), and d/dt, the cached D itself.  Points that
    round to xi raise NumericalError."""
    xi = f.stable_zero
    t, _, D = _chebyshev(n)[:3]
    q = xi + (delta - xi) * t
    q[-1] = delta
    s = q - xi
    if not s[1] > 0.0:
        raise NumericalError(f"collocation points fell to the stable zero (xi = {xi!r}, "
                             f"delta = {delta!r})")
    g = np.empty(n + 1)
    g[0] = f.deriv(xi)
    g[1:] = f(q[1:]) / s[1:]
    return d * t, g, D


@functools.lru_cache(maxsize=8)
def _taylor_rows(n: int) -> np.ndarray:
    """Rows k = 1 .. TAYLOR_ORDER, read-only: row k times the values of a function
    at the points of ``_chebyshev(n)`` is its k-th Taylor coefficient at t = 0,
    (d/dt)**k / k!, which is row 0 of the k-th power of D over k!."""
    D = _chebyshev(n)[2]
    rows = [D[0]]
    for k in range(2, TAYLOR_ORDER + 1):
        rows.append(rows[-1] @ D / k)
    rows = np.array(rows)
    rows.flags.writeable = False
    return rows


def _taylor_coefficients(c: float, lam: float, d: float, gk) -> list[float]:
    """Taylor coefficients b_0 .. b_K of w in t = s/(delta - xi) at speed c, from the
    saddle slope lam = b_0 and the coefficients gk[k - 1] of f/s in t, K = len(gk).

    The equation's power t**k, k >= 1, gives
    b_k = (gk_k + d*sum_{i=1}^{k-1} (k-i+1)*b_i*b_{k-i}) / (c - d*(k+2)*lam),
    whose denominator is positive since lam is the negative root of the
    saddle's quadratic.  The series stops before the first term that is not
    smaller than the one before it at t = 1, s = delta - xi (a NaN one too, and
    one over a denominator that rounds to 0): that term, unless it is a finite
    b_1, and the later ones are 0, so where the series diverges the start is
    its tangent line.  Python floats: no lane's arithmetic touches another's, and none warns.
    """
    b = [float(lam)] + [0.0] * len(gk)
    for k in range(1, len(gk) + 1):
        numerator = gk[k - 1]
        for i in range(1, k):
            numerator += d * (k - i + 1) * b[i] * b[k - i]
        denominator = c - d * (k + 2) * b[0]
        if not abs(numerator) < abs(b[k - 1]) * denominator:
            if k == 1 and denominator and math.isfinite(numerator / denominator):
                b[1] = numerator / denominator
            break
        b[k] = numerator / denominator
    return b


def _taylor_start(cs, lams, d: float, g: np.ndarray) -> np.ndarray:
    """Start node values, shape (L, n + 1), of the lanes at speeds cs with saddle
    slopes lams, on a grid whose values of f/s are g: each lane's Taylor series
    of w at xi to order TAYLOR_ORDER (``_taylor_coefficients``), by Horner's rule
    at the points of ``_chebyshev(n)``.  Node 0 is lam exactly, and a lane's
    values do not depend on the batch."""
    n, d = g.size - 1, float(d)
    gk = (_taylor_rows(n) @ g).tolist()
    cols = np.array([_taylor_coefficients(c, lam, d, gk) for c, lam in zip(cs, lams)]).T[..., None]
    t = _chebyshev(n)[0]
    w = cols[-1] * t
    for b in cols[-2:0:-1]:
        w += b
        w *= t
    return w + cols[0]


def _equations(w, c, d, dt, g, D):
    """The collocation equations F = d*w*(w + t*dw/dt) - c*w + g and their Jacobian
    dF/dw, for lanes w of shape (L, n + 1) at speeds c of shape (L, 1), on the
    grid (dt, g, D) of ``_collocation_grid``.  Each lane's dw/dt is its own
    product with D, so a lane's values do not depend on the others."""
    dw = d * w
    b = dw + dt * np.matmul(D, w[..., None])[..., 0] - c
    J = (dt * w)[..., None] * D
    J.reshape(len(w), -1)[:, ::w.shape[1] + 1] += dw + b
    return w * b + g, J


def _newton_step(J, F, c):
    """The Newton step J^-1 F of each lane, speeds c of shape (L, 1); a singular
    Jacobian raises IntegrationError naming the first lane that has one."""
    try:
        return np.linalg.solve(J, F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        lane = int(np.argmax(np.linalg.matrix_rank(J) < J.shape[-1]))
        raise IntegrationError(f"collocation Jacobian is singular at c={c[lane, 0]:g}") from None


def _newton(w, c, d, grid) -> np.ndarray:
    """The lanes w, shape (L, n + 1), at speeds c, shape (L, 1), after Newton steps.

    Step sizes are taken against max |w|.  A lane stops after a step whose
    size, times the square of its ratio theta to the step before, is at most
    NEWTON_TOL: under quadratic convergence, e' = K*e**2, the next step would
    be theta**2*size, and at the rounding floor, where theta is about 1, both
    steps are tiny.  A stopped lane is frozen, so its values do not depend
    on the batch.  A lane that is not finite, or not converged after
    NEWTON_STEPS steps, raises IntegrationError naming its speed.
    """
    out = np.empty_like(w)
    lanes = np.arange(len(w))
    last = np.full(len(w), np.nan)  # no step yet: the first step never stops a lane
    for _ in range(NEWTON_STEPS):
        F, J = _equations(w, c, d, *grid)
        step = _newton_step(J, F, c)
        w = w - step
        size = np.abs(step).max(axis=1) / np.abs(w).max(axis=1)
        if not np.isfinite(size).all():
            bad = float(c[np.argmin(np.isfinite(size)), 0])
            raise IntegrationError(f"collocation at c={bad:g} is not finite")
        done = size ** 3 <= NEWTON_TOL * last ** 2
        if done.any():
            out[lanes[done]] = w[done]
            lanes, w, c, size = lanes[~done], w[~done], c[~done], size[~done]
            if not lanes.size:
                return out
        last = size
    raise IntegrationError(f"collocation at c={float(c[0, 0]):g} did not converge "
                           f"in {NEWTON_STEPS} Newton steps")


def _decayed(a, rtol: float, atol: float):
    """Per lane (last axis): the last three Chebyshev coefficients a are within atol + rtol * max."""
    a = np.abs(a)
    return a[..., -3:].max(axis=-1) <= atol + rtol * a.max(axis=-1)


def _resolved(w, n: int, opts: IntegrationOptions) -> np.ndarray:
    """Per lane: the Chebyshev coefficients of w have decayed to the options' tolerances."""
    return _decayed(np.matmul(_chebyshev(n)[3], w[..., None])[..., 0], opts.rtol, opts.atol)


def _refined(w, n: int):
    """Lanes w at the 2n + 1 points of degree 2n, interpolated from degree n."""
    return np.matmul(_interpolation(n, _chebyshev(2 * n)[0]), w[..., None])[..., 0]


def _trajectory(c, d, f, delta, lam, w) -> PhaseTrajectory:
    """The trajectory of the converged node values w at speed c."""
    if not np.all(w < 0.0):
        raise NumericalError(
            f"trajectory left the lower half plane at c={c:g}; "
            "the reaction may not be monostable on (xi, delta]"
        )
    xi = f.stable_zero
    return PhaseTrajectory(c=float(c), d=float(d), delta=float(delta), xi=float(xi),
                           endpoint_slope=float((delta - xi) * w[-1]),
                           saddle_slope=float(lam), nodes=w)


def integrate_trajectory(
    c: float,
    d: float,
    f: ReactionFunction,
    delta: float,
    opts: IntegrationOptions | None = None,
) -> PhaseTrajectory:
    """Solve the phase-plane equation for one speed: the one-lane ``integrate_trajectories``."""
    return integrate_trajectories([c], d, f, delta, opts)[0]


def integrate_trajectories(
    cs,
    d: float,
    f: ReactionFunction,
    delta: float,
    opts: IntegrationOptions | None = None,
) -> list[PhaseTrajectory]:
    """Solve the collocation equations on [xi, delta] for each speed in cs.

    The speeds are the lanes of one batched Newton solve from the Taylor
    series of w at xi (``_taylor_start``), at degree N_START; a lane whose
    coefficients have not decayed (``_resolved``) moves on to twice the
    degree from its interpolated values, up to N_MAX.  Every lane's
    arithmetic is its own, so a trajectory is a pure function of its
    arguments, bit-identical in any batch.  A lane that fails raises the
    error its own solve would, naming its speed.
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
    lams = []
    for c in cs:
        if not math.isfinite(c):
            raise InputError(f"speed c must be finite, got {c}")
        lams.append(saddle_slope(c, d, f))

    n = N_START
    speeds = np.array(cs)[:, None]
    grid = _collocation_grid(n, d, f, delta)
    w = _taylor_start(cs, lams, d, grid[1])
    pending = np.arange(len(cs))
    nodes = [None] * len(cs)
    while True:
        w = _newton(w, speeds[pending], d, grid)
        done = _resolved(w, n, opts)
        for lane, values in zip(pending[done].tolist(), w[done]):
            nodes[lane] = values
        pending, w = pending[~done], w[~done]
        if not pending.size:
            break
        if n == N_MAX:
            raise IntegrationError(f"collocation at c={cs[pending[0]]:g} is not resolved "
                                   f"at degree {N_MAX}")
        w, n = _refined(w, n), 2 * n
        grid = _collocation_grid(n, d, f, delta)
    return [_trajectory(c, d, f, delta, lam, w) for c, lam, w in zip(cs, lams, nodes)]


def solve_wave_speed(start: PhaseTrajectory, f: ReactionFunction, bounds,
                     opts: IntegrationOptions | None = None) -> tuple[PhaseTrajectory, int]:
    """The trajectory whose slope residual vanishes, and the Newton steps taken.

    Newton runs on the collocation equations with c as one more unknown
    (dF/dc = -w) and the boundary law P(delta) - (delta/d)*c = 0 as one more
    row, from the speed and node values of ``start`` and at its degree.  c
    stays strictly inside ``bounds``: a step that would reach an end is
    shortened to go half way to it.  Newton stops as ``_newton`` does, on the
    larger of the relative steps in w and in c of two full steps in a row;
    the degree then doubles until the coefficients are resolved.  A solve
    not done in SEARCH_STEPS steps raises NumericalError.
    """
    opts = opts or DEFAULT_OPTIONS
    d, delta, xi = start.d, start.delta, start.xi
    lo, hi = bounds
    span = delta - xi
    w, c = start.nodes, start.c
    n, steps = w.size - 1, 0
    while True:
        grid = _collocation_grid(n, d, f, delta)
        bordered = np.zeros((1, n + 2, n + 2))
        bordered[0, -1, -2:] = span, -delta / d
        last = math.nan
        while True:
            if steps == SEARCH_STEPS:
                raise NumericalError(f"speed solve from c={start.c!r} did not converge "
                                     f"in {SEARCH_STEPS} Newton steps")
            F, J = _equations(w[None], np.array([[c]]), d, *grid)
            bordered[0, :-1, :-1] = J[0]
            bordered[0, :-1, -1] = -w
            rhs = np.append(F[0], span * w[-1] - (delta / d) * c)
            step = _newton_step(bordered, rhs[None], np.array([[c]]))[0]
            dc, scale = step[-1], 1.0
            if not lo < c - dc < hi:
                scale = 0.5 * (c - (lo if c - dc <= lo else hi)) / dc
            w, c = w - scale * step[:-1], c - scale * dc
            steps += 1
            size = max(np.abs(step[:-1]).max() / np.abs(w).max(), abs(dc / c))
            if not math.isfinite(size):
                raise IntegrationError(f"speed solve from c={start.c!r} is not finite")
            if scale == 1.0 and size ** 3 <= NEWTON_TOL * last ** 2:
                break
            last = size if scale == 1.0 else math.nan
        if _resolved(w[None], n, opts)[0]:
            break
        if n == N_MAX:
            raise IntegrationError(f"speed solve from c={start.c!r} is not resolved "
                                   f"at degree {N_MAX}")
        w, n = _refined(w[None], n)[0], 2 * n
    return _trajectory(c, d, f, delta, saddle_slope(c, d, f), w), steps


@dataclass(eq=False)
class RK45Solution:
    """What ``solve_ivp`` returns: the accepted steps ``t``, the values there as
    ``y`` of shape (1, len(t)), the status and the number of RHS calls."""

    t: np.ndarray
    y: np.ndarray
    success: bool
    message: str
    nfev: int


SAFETY = 0.9  # on the step factor predicted from the error estimate
MIN_FACTOR, MAX_FACTOR = 0.2, 10.0  # bounds of the step factor
ERROR_EXPONENT = -1 / 5  # the error estimate is of order 4
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def solve_ivp(fun, t_span, y0, rtol: float, atol: float) -> RK45Solution:
    """Integrate the scalar ODE y' = fun(t, y) forward over t_span by scipy's RK45 rules.

    Every rule is scipy's RK45 (``solve_ivp(method="RK45")``): Dormand and
    Prince's 5(4) tableau (J. Comput. Appl. Math. 6, 1980), scipy's initial
    step, the error scaled by atol + max(|y|, |y_new|)*rtol, step factors
    SAFETY*err**ERROR_EXPONENT clipped to [MIN_FACTOR, MAX_FACTOR] and kept
    at most 1 after a rejection, and failure with TOO_SMALL_STEP once the
    step falls below 10 ulp of t.  y0 holds one value; y is a Python float,
    fun returns one, and the loop writes the tableau out on floats.
    ``nfev`` counts the calls of fun.  The package solves by collocation;
    this integrator is the tests' independent reference.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t < t_bound:
        raise ValueError(f"solve_ivp integrates forward, got t_span {t_span}")
    y = float(np.asarray(y0, dtype=float).item())
    f = fun(t, y)
    # NaN when f is: the floor then takes its place, so the step is tried and fails
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    nfev = 2
    ts, ys = [t], [y]
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
                break
            # a NaN error norm shrinks the step by MIN_FACTOR
            factor = SAFETY * error_norm ** ERROR_EXPONENT
            h_abs *= factor if factor > MIN_FACTOR else MIN_FACTOR
            rejected = True

    if message is None:
        message = "The solver successfully reached the end of the integration interval."
    return RK45Solution(np.array(ts), np.array([ys]), message != TOO_SMALL_STEP, message, nfev)


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol) -> float:
    """scipy's select_initial_step for an error estimate of order 4 (Hairer, Norsett
    and Wanner, Solving ODEs I, Sec. II.4); its one RHS call is in the caller's nfev."""
    interval = t_bound - t0
    scale = atol + abs(y0) * rtol
    d0, d1 = abs(y0 / scale), abs(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = abs((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def _integral(f, a: float, b: float) -> float:
    """int_a^b f by Clenshaw-Curtis quadrature: (b - a) times the mean of f's Chebyshev
    series on the points of ``_chebyshev(n)``, with n doubling from N_START until its last
    three coefficients are within 1e-14/|b - a| + 1e-13 * the largest (``_decayed``), or
    NumericalError past N_MAX."""
    span = b - a
    if not span:
        return 0.0
    n = N_START
    while True:
        t, _, _, to_coeffs, means = _chebyshev(n)
        coeffs = to_coeffs @ f(a + span * t)
        if _decayed(coeffs, 1e-13, 1e-14 / abs(span)):
            return span * float(means @ coeffs)
        if n == N_MAX:
            raise NumericalError(f"quadrature of {getattr(f, 'label', f)} on [{min(a, b):g}, "
                                 f"{max(a, b):g}] is not resolved at degree {N_MAX}")
        n *= 2


def closed_form_zero_speed(q: float, d: float, f: ReactionFunction) -> float:
    """Exact trajectory value at zero speed: P0(q) = -sqrt((2/d) * int_q^xi f).

    For q beyond the stable zero the integrand makes the radicand positive;
    a negative radicand beyond round-off signals a non-monostable reaction.
    The integral is ``_integral``'s, far more accurate than the solve's P.
    """
    xi = f.stable_zero
    if not 0 < d < np.inf:
        raise InputError(f"diffusivity must be positive and finite, got {d}")
    if not xi - 1e-12 <= q < np.inf:
        raise InputError(f"q must be finite and at least the stable zero {xi:g}, got {q}")
    radicand = (2.0 / d) * _integral(f, q, xi)
    if radicand < -1e-12:
        raise NumericalError(f"negative radicand {radicand:.3e} at q={q:g}: f is not monostable")
    return -float(np.sqrt(max(radicand, 0.0)))


# points t of [TAIL_CUT, 1] LOG_STEP apart in ln t, and the samples: every other one from 1 down
_LOGS = np.linspace(math.log(TAIL_CUT), 0.0, 2 * PROFILE_SAMPLES - 1)
LOG_STEP, LOG_POINTS = _LOGS[1] - _LOGS[0], np.exp(_LOGS)
SAMPLE_POINTS = LOG_POINTS[::-2].copy()
LOG_POINTS.flags.writeable = SAMPLE_POINTS.flags.writeable = False


@functools.lru_cache(maxsize=8)
def _profile_interpolation(n: int) -> np.ndarray:
    """``_interpolation`` from degree n to LOG_POINTS, read-only: those are the
    same for every (xi, delta), so one matrix per degree serves every pair."""
    m = _interpolation(n, LOG_POINTS)
    m.flags.writeable = False
    return m


def _profile_samples(xi: float, delta: float):
    """The profile's samples q = xi + s, s = (delta - xi)*SAMPLE_POINTS, from delta
    down, and s.  The last q must lie above xi, checked first, as ties follow where
    it does not, and they must fall strictly; where delta - xi is too small, NumericalError."""
    s = (delta - xi) * SAMPLE_POINTS
    q = xi + s
    q[0] = delta
    where = f"(xi = {xi!r}, delta = {delta!r})"
    if not q[-1] > xi:
        raise NumericalError(f"profile samples fell to the stable zero {where}")
    if not (q[1:] < q[:-1]).all():
        raise NumericalError(f"profile samples are not strictly decreasing {where}")
    return q, s


def _simpson_sums(y: np.ndarray) -> np.ndarray:
    """y0 + 4*y1 + y2 on each pair of intervals of y, an odd number of points: for
    points h apart, h/3 times it is Simpson's rule on the pair."""
    return y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2]


def residual_slope(traj: PhaseTrajectory, f: ReactionFunction) -> float:
    """r'(c) = S(delta) - delta/d at the trajectory's speed, S = dP/dc: one linear solve.

    The collocation equations F(w, c) = 0 have dF/dc = -w, so dw/dc = J^-1 w
    with J = dF/dw at the trajectory's nodes, and S(delta) = (delta - xi) times
    its last entry.  In exact arithmetic S(delta) lies in (0, (delta - xi)/d),
    so r'(c) lies in (-delta/d, -xi/d).
    """
    grid = _collocation_grid(traj.nodes.size - 1, traj.d, f, traj.delta)
    _, J = _equations(traj.nodes[None], np.array([[traj.c]]), traj.d, *grid)
    dw_dc = _newton_step(J, traj.nodes[None], np.array([[traj.c]]))[0]
    return float((traj.delta - traj.xi) * dw_dc[-1] - traj.delta / traj.d)


def reconstruct_profile(traj: PhaseTrajectory) -> SemiWaveProfile:
    """Profile q(x) from its trajectory by the quadrature x(q) = int_q^delta ds / (-P(s)).

    In ln t, t = (q - xi)/(delta - xi), the integrand is -1/w, which tends to
    -1/saddle_slope at xi: w is read on LOG_POINTS by barycentric interpolation,
    and Simpson panels give x at the samples of ``_profile_samples``.  Beyond
    the tail cutoff the profile continues with the saddle-slope decay rate.
    """
    q, s = _profile_samples(traj.xi, traj.delta)
    w = _profile_interpolation(traj.nodes.size - 1) @ traj.nodes
    if not (w < 0.0).all():
        raise NumericalError("trajectory is not negative on the quadrature range")
    panels = LOG_STEP / 3.0 * _simpson_sums(-1.0 / w)
    # x grows from the boundary, where w is largest, so the sums run backwards
    x_grid = np.concatenate(([0.0], np.cumsum(panels[::-1])))
    if not (x_grid[1:] > x_grid[:-1]).all():
        raise NumericalError("reconstructed profile abscissae are not strictly increasing")
    return SemiWaveProfile(x_grid=x_grid, q_values=q, xi=traj.xi,
                           tail_rate=traj.saddle_slope, slopes=s * w[::-2])
