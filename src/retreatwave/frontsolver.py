"""Front-fixed finite-difference solver for the free-boundary problem.

In the frame y = x - g(t) attached to the front, the density U(t, y) obeys

    U_t - g'(t) U_y - d U_yy = f(U),   y > 0,
    U(t, 0) = delta,
    g'(t) = -(d/delta) U_y(t, 0),

on the half line.  The domain is truncated at y = L_y with a homogeneous
Neumann condition (the solution approaches the reaction's stable zero far
from the front).  Time stepping is IMEX: the front speed is frozen over the
step, diffusion and advection are advanced together with Crank-Nicolson
weighting, and the reaction is explicit.  Advection uses central
differences, whose error h^2/6*U''' is half the one-sided upwind stencil's.
The front speed is extracted from the second-order one-sided boundary
derivative, and g(t) accumulates by the trapezoid rule.

With advection implicit, the front speed bounds no step, and the scheme's
steady state does not depend on dt, so every step of a run has one size:
the cap dt_cap = 0.5/max|f'|, with max|f'| sampled on [0, c1], which bounds
the explicit reaction step dt*|f'| <= 1/2, or the user's dt.  The cap is in
the problem's own units, so a run is bit-identical to its image under
power-of-2 scalings of u, x and t.  A step that would cross an output time
or T_end is shortened to land on it, so rows sit at exact multiples of the
output interval.

The first four steps are backward-Euler half-steps (Rannacher, Numer. Math.
43, 1984), which damp the high modes of kinked data that Crank-Nicolson
leaves ringing when r = dt*d/(2h^2) > 1/2.  With r <= 1/2 and h*|g'| <= 2d
the weights (1 - 2r, r + a, r - a) of the explicit half, a = dt*g'/(4h), are
nonnegative and sum to 1, and the implicit half is an M-matrix, so the
linear part of a step keeps U within [min(U, delta), max(U, delta)].  Larger
steps give up that a priori discrete maximum principle; the bound check
0 < U <= c1 = (3/2)*sup(u0), made on every step, still guards them.

With g' frozen, the explicit half of a step is U + dt*f(U) plus one 2-tap
stencil on the differences of U, which adds exact zeros where U is flat.
The implicit matrix depends on g', so every step solves it afresh with
LAPACK ``dgtsv``, Gaussian elimination with partial pivoting, which is
backward stable on tridiagonal matrices (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., ch. 9).  The routine is imported on the
first step, since ``scipy.linalg`` takes most of the package's import time
and only this module needs it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BoundViolationError, InputError, NumericalError
from .phaseplane import SemiWaveProfile
from .reaction import ReactionFunction
from .serialize import read_csv, write_csv

__all__ = [
    "Grid1D",
    "FrontFixedState",
    "InitialData",
    "SolverConfig",
    "RunRecord",
    "ROW_FIELDS",
    "front_speed_from_state",
    "step",
    "run",
    "exp_approach_u0",
    "constant_u0",
    "profile_u0",
    "table_u0",
]

ROW_FIELDS = ("t", "g", "g_prime", "sup_profile_error", "min_U", "max_U")

REACTION_SAMPLES = 1001  # points of [0, c1] where the default cap bounds |f'|
STARTUP_STEPS = 4  # backward-Euler half-steps that open every run
# a step that lands within this fraction of its size of an output time keeps
# its size, so that rounding in the summed step sizes adds no sliver of a step
LANDING_SLACK = 2.0**-20
# above this cell Peclet number h*|g'|/d a run warns: the boundary layer of
# width d/|g'| is under-resolved, and the speed error is about 2.5*Pe^2
# (measured: 0.5 % at Pe = 0.045, 1.6 % at Pe = 0.082)
MAX_PECLET = 0.08


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid y_j = j*h on [0, L_y] with N cells, N+1 nodes."""

    L_y: float
    N: int

    def __post_init__(self):
        if not 0 < self.L_y < np.inf:
            raise InputError(f"L_y must be positive and finite, got {self.L_y}")
        if self.N < 200:
            raise InputError(f"N must be at least 200, got {self.N}")

    @property
    def h(self) -> float:
        return self.L_y / self.N

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.L_y, self.N + 1)


@dataclass(eq=False)
class FrontFixedState:
    """Grid function U(t, .) with the front position g and speed g'."""

    grid: Grid1D
    t: float
    U: np.ndarray = field(repr=False)
    g: float
    g_prime: float


@dataclass(eq=False)
class InitialData:
    """Initial density sampled on a grid, checked for admissibility.

    Admissibility is discrete: the boundary value equals delta (then pinned
    exactly), all values are finite and strictly positive.
    """

    grid: Grid1D
    g0: float
    samples: np.ndarray = field(repr=False)
    sup_norm: float
    inf_value: float

    @classmethod
    def from_callable(
        cls, grid: Grid1D, delta: float, u0: Callable, g0: float = 0.0
    ) -> "InitialData":
        if not np.isfinite(g0):
            raise InputError(f"g0 must be finite, got {g0}")
        u = np.asarray(u0(grid.nodes), dtype=float).copy()
        if u.shape != (grid.N + 1,):
            raise InputError("u0 must map the node array to one value per node")
        if not np.all(np.isfinite(u)):
            raise InputError("initial data contains non-finite values")
        if abs(u[0] - delta) > 1e-9 * max(1.0, abs(delta)):
            raise InputError(
                f"initial data must take the boundary value {delta:g} at y=0, got {u[0]!r}"
            )
        u[0] = delta
        inf_value = float(np.min(u))
        if not inf_value > 0.0:
            raise InputError(f"initial data must be strictly positive, min is {inf_value!r}")
        return cls(
            grid=grid,
            g0=float(g0),
            samples=u,
            sup_norm=float(np.max(u)),
            inf_value=inf_value,
        )


@dataclass(frozen=True)
class SolverConfig:
    """Numerical controls for a run.

    Every step has the size ``dt``; ``dt=None`` takes the cap 0.5/max|f'|
    (max|f'| over [0, c1] sampled at REACTION_SAMPLES points), which keeps
    the explicit reaction step dt*|f'| <= 1/2.  Steps with
    r = dt*d/(2h^2) > 1/2 give up the a priori discrete maximum principle;
    the first STARTUP_STEPS steps are backward-Euler half-steps, and the
    bound check 0 < U <= c1 guards every step.  ``output_every`` is a time
    interval: rows are recorded at its multiples and at T_end, which steps
    are shortened to land on exactly.  The ceiling on U is c1 = (3/2)*sup(u0).
    """

    T_end: float
    dt: float | None = None
    output_every: float = 0.5
    keep_snapshots: bool = False

    def __post_init__(self):
        if not 0 <= self.T_end < np.inf:
            raise InputError(f"T_end must be nonnegative and finite, got {self.T_end}")
        if self.dt is not None and not 0 < self.dt < np.inf:
            raise InputError(f"dt must be positive and finite, got {self.dt}")
        if not 0 < self.output_every < np.inf:
            raise InputError(f"output_every must be positive and finite, got {self.output_every}")


@dataclass(eq=False)
class RunRecord:
    """Time series of a run plus its configuration snapshot.

    ``config`` records the inputs, the step size ``dt``, and what the run did:
    ``steps`` taken and their smallest and largest sizes ``dt_min`` and
    ``dt_max`` (None before the first step).  ``rows`` are
    (t, g, g_prime, sup_profile_error, min_U, max_U) with the extrema taken
    over the nodes y > 0 (node 0 is pinned to delta).  The profile error
    column is nan when the run had no reference profile.
    """

    rows: list[tuple]
    config: dict
    termination_reason: str
    warnings: list[str] = field(default_factory=list)
    snapshots: list[FrontFixedState] = field(default_factory=list, repr=False)
    diagnostic: str | None = None

    def column(self, name: str) -> np.ndarray:
        idx = ROW_FIELDS.index(name)
        return np.array([row[idx] for row in self.rows], dtype=float)

    @property
    def final_state(self) -> FrontFixedState:
        return self.snapshots[-1]

    def to_csv(self, path) -> None:
        write_csv(path, ROW_FIELDS, self.rows)

    @classmethod
    def rows_from_csv(cls, path) -> "RunRecord":
        header, raw = read_csv(path)
        if tuple(header) != ROW_FIELDS:
            raise InputError(f"unexpected run record header {header!r}")
        return cls(
            rows=[tuple(r) for r in raw],
            config={},
            termination_reason="loaded",
        )


def front_speed_from_state(state: FrontFixedState, d: float, delta: float) -> float:
    """Front speed -(d/delta) U_y(t, 0) from the three-point boundary stencil."""
    return _boundary_speed(state.U, state.grid.h, d, delta)


def _boundary_speed(U: np.ndarray, h: float, d: float, delta: float) -> float:
    return float(-(d / delta) * (-3.0 * U[0] + 4.0 * U[1] - U[2]) / (2.0 * h))


@functools.cache
def _gtsv() -> Callable:
    """LAPACK's dgtsv, imported once, on first use."""
    from scipy.linalg.lapack import dgtsv

    return dgtsv


def solve_banded(l_and_u: tuple[int, int], ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system whose (3, N) band ``ab``, with ``l_and_u`` (1, 1),
    is in the layout of ``scipy.linalg.solve_banded``, which it matches bit for bit.

    The arguments keep the positions of scipy's, which the benchmark's tracer
    (``perfbench/spans.py``) reads.  A singular matrix raises ``NumericalError``.
    """
    *_, x, info = _gtsv()(ab[2, :-1], ab[1], ab[0, 1:], rhs)
    if info != 0:
        raise NumericalError(f"tridiagonal solve failed: LAPACK dgtsv info={info}")
    return x


def step(
    state: FrontFixedState,
    d: float,
    delta: float,
    f: ReactionFunction,
    dt: float,
    source: Callable | None = None,
    c1: float = math.inf,
    backward_euler: bool = False,
) -> FrontFixedState:
    """Advance one IMEX time step with the front speed frozen, then re-assert the bounds.

    Diffusion and central advection take Crank-Nicolson weighting, or with
    ``backward_euler`` are wholly implicit; the reaction and ``source`` are
    explicit.  ``c1`` is the a priori ceiling on U (none by default).
    """
    if not dt > 0:
        raise InputError(f"dt must be positive, got {dt}")
    h = state.grid.h
    gp = state.g_prime
    U = state.U
    N = state.grid.N
    # the implicit weights r of diffusion and a of advection; the explicit
    # half takes the same weights (Crank-Nicolson) or none
    theta = 1.0 if backward_euler else 0.5
    r = theta * dt * d / (h * h)
    a = theta * dt * gp / (2.0 * h)
    re, ae = (0.0, 0.0) if backward_euler else (r, a)
    # U + dt*f(U) plus diffusion and central advection as one 2-tap stencil
    # on dU, re*(dU[j+1] - dU[j]) + ae*(dU[j+1] + dU[j]), for every sign of g':
    # a flat U adds exact zeros, so rounding cannot bias the steady state by
    # O(eps/dt)
    rhs = U[1:] + dt * np.asarray(f(U[1:]), dtype=float)
    dU = U[1:] - U[:-1]
    rhs[: N - 1] += np.correlate(dU, (ae - re, re + ae), "valid")
    # ghost reflection at the far end, where the central advection vanishes
    rhs[N - 1] -= 2.0 * re * dU[N - 1]
    rhs[0] += (r - a) * delta
    if source is not None:
        rhs += dt * np.asarray(source(state.t, state.grid.nodes[1:]), dtype=float)

    # rows (a - r, 1 + 2r, -r - a), and the ghost row (-2r, 1 + 2r); the
    # first entry of the top band and the last of the bottom one are padding
    ab = np.empty((3, N))
    ab[0] = -r - a
    ab[1] = 1.0 + 2.0 * r
    ab[2] = a - r
    ab[2, N - 2] = -2.0 * r
    U_new = np.empty_like(U)
    U_new[0] = delta
    U_new[1:] = solve_banded((1, 1), ab, rhs)

    gp_new = _boundary_speed(U_new, h, d, delta)
    t_new = state.t + dt

    min_u = U_new.min()
    max_u = U_new.max()
    # a negated conjunction of the bounds, so that a NaN fails the check
    if not (min_u > 0.0 and max_u <= c1):
        diag = (
            f"t={t_new:.10g} g'={gp_new:.10g} min_U={min_u:.10g} max_U={max_u:.10g} "
            f"(bounds: U in (0, {c1}])"
        )
        raise BoundViolationError("a priori bound violated: " + diag, diagnostic=diag)

    g_new = state.g + 0.5 * dt * (gp + gp_new)
    return FrontFixedState(grid=state.grid, t=t_new, U=U_new, g=g_new, g_prime=gp_new)


def run(
    initial: InitialData,
    d: float,
    delta: float,
    f: ReactionFunction,
    config: SolverConfig,
    reference: SemiWaveProfile | None = None,
) -> RunRecord:
    """Integrate to T_end, recording rows at the output times.

    Every step has one size (see ``SolverConfig``), halved in the start-up
    and shortened to land on output times.  Per-row profile errors are taken
    against ``reference`` when given.  A bound violation terminates the run
    early with the diagnostic preserved; the record always carries the final
    state as its last snapshot.  A final cell Peclet number h*|g'|/d above
    MAX_PECLET adds a warning.
    """
    if not 0 < d < math.inf:
        raise InputError(f"diffusivity must be positive and finite, got {d}")
    if not f.stable_zero < delta < math.inf:
        raise InputError(f"delta must exceed {f.stable_zero:g} and be finite, got {delta}")
    grid = initial.grid
    h = grid.h
    U = initial.samples.copy()
    gp = _boundary_speed(U, h, d, delta)
    c1 = 1.5 * initial.sup_norm
    if config.dt is None:
        f_slope = float(np.max(np.abs(f.deriv(np.linspace(0.0, c1, REACTION_SAMPLES)))))
        dt_cap = 0.5 / f_slope
    else:
        dt_cap = config.dt

    q_ref = reference.q_at(grid.nodes) if reference is not None else None
    far_value = f.stable_zero

    def make_row(s: FrontFixedState) -> tuple:
        err = float(np.max(np.abs(s.U - q_ref))) if q_ref is not None else float("nan")
        return (
            s.t,
            s.g,
            s.g_prime,
            err,
            float(np.min(s.U[1:])),
            float(np.max(s.U[1:])),
        )

    state = FrontFixedState(grid=grid, t=0.0, U=U, g=initial.g0, g_prime=gp)
    rows = [make_row(state)]
    snapshots = [state] if config.keep_snapshots else []
    warnings: list[str] = []
    far_drift = abs(float(U[-1]) - far_value)

    termination = "completed"
    diagnostic = None
    steps = 0
    dt_min = dt_max = None
    n_out = max(1, math.ceil(config.T_end / config.output_every - 1e-9))
    k = 1
    # steps are timed from the last output time, so every interval of a
    # settled run repeats one step sequence, not one shifted by the rounding
    # of a summed t (at dt = 0.02 the settled g' then spreads 3.3e-15, not 1.2e-14)
    elapsed = 0.0
    while config.T_end > 0:
        startup = steps < STARTUP_STEPS
        dt = 0.5 * dt_cap if startup else dt_cap
        span = config.output_every if k < n_out else config.T_end - (k - 1) * config.output_every
        rest = span - elapsed
        lands = rest <= dt * (1.0 + LANDING_SLACK)
        if rest < dt * (1.0 - LANDING_SLACK):
            dt = rest
        try:
            state = step(state, d, delta, f, dt, c1=c1, backward_euler=startup)
        except BoundViolationError as exc:
            termination = "bound_violation"
            diagnostic = exc.diagnostic
            break
        steps += 1
        dt_min = dt if dt_min is None else min(dt_min, dt)
        dt_max = dt if dt_max is None else max(dt_max, dt)
        elapsed += dt
        if lands:
            state.t = config.T_end if k == n_out else k * config.output_every
            rows.append(make_row(state))
            far_drift = max(far_drift, abs(float(state.U[-1]) - far_value))
            if config.keep_snapshots:
                snapshots.append(state)
            if k == n_out:
                break
            k += 1
            elapsed = 0.0

    if far_drift > 1e-3:
        warnings.append(
            f"far-field drift |U(t, L_y) - {far_value:g}| reached {far_drift:.3e}; "
            "consider a longer domain"
        )
    peclet = h * abs(state.g_prime) / d
    if peclet > MAX_PECLET:
        warnings.append(
            f"cell Peclet number h*|g'|/d = {peclet:.3g} exceeds {MAX_PECLET:g}: the "
            "boundary layer of width d/|g'| is under-resolved and the front speed is off "
            "by about 2.5*Pe^2 or more; consider a larger N"
        )
    if not snapshots or snapshots[-1] is not state:
        snapshots.append(state)

    cfg = {
        "d": d,
        "delta": delta,
        "reaction": f.label,
        "g0": initial.g0,
        "L_y": grid.L_y,
        "N": grid.N,
        "dt": dt_cap,
        "steps": steps,
        "dt_min": dt_min,
        "dt_max": dt_max,
        "T_end": config.T_end,
        "output_every": config.output_every,
        "C1": c1,
    }
    return RunRecord(
        rows=rows,
        config=cfg,
        termination_reason=termination,
        warnings=warnings,
        snapshots=snapshots,
        diagnostic=diagnostic,
    )


def exp_approach_u0(delta: float, xi: float = 1.0) -> Callable:
    """Initial density xi + (delta - xi) * exp(-y), approaching the far value."""
    return lambda y: xi + (delta - xi) * np.exp(-np.asarray(y, dtype=float))


def constant_u0(delta: float) -> Callable:
    """Initial density identically delta."""
    return lambda y: np.full_like(np.asarray(y, dtype=float), float(delta))


def profile_u0(profile: SemiWaveProfile) -> Callable:
    """Initial density sampled from a semi-wave profile (traveling state)."""
    return profile.q_at


def table_u0(y_points, u_points) -> Callable:
    """Initial density linearly interpolated from a table."""
    yp = np.asarray(y_points, dtype=float)
    up = np.asarray(u_points, dtype=float)
    if yp.ndim != 1 or yp.shape != up.shape or yp.size < 2:
        raise InputError("table initial data needs matching 1-d y and u columns")
    if np.any(np.diff(yp) <= 0):
        raise InputError("table y column must be strictly increasing")
    return lambda y: np.interp(np.asarray(y, dtype=float), yp, up)
