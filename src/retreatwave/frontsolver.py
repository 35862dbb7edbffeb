"""Front-fixed finite-difference solver for the free-boundary problem.

In the frame y = x - g(t) attached to the front, the density U(t, y) obeys

    U_t - g'(t) U_y - d U_yy = f(U),   y > 0,
    U(t, 0) = delta,
    g'(t) = -(d/delta) U_y(t, 0),

on the half line.  The domain is truncated at y = L_y with a homogeneous
Neumann condition (the solution approaches the reaction's stable zero far
from the front).  Time stepping is IMEX: the front speed is frozen over the
step, diffusion is advanced with Crank-Nicolson weighting, and advection and
reaction are explicit.  Advection uses central differences: their error
h^2/6*U''' is half the one-sided upwind stencil's, with the same von Neumann
stability region, dt*g'^2 <= 2d.  The front speed is extracted from the
second-order one-sided boundary derivative, and g(t) accumulates by the
trapezoid rule.

The scheme's steady state does not depend on dt, so accuracy in the
transient, not h^2, sets the step.  ``run`` takes each step from the sizes
dt_cap*2^-m, m >= 0: the largest that keeps the advection guard
dt*|g'| <= h/2 at the current g', but none below the first size at or below
h^2/d; below that floor the guard fires.  The default cap dt_cap = 0.5/max|f'|,
with max|f'| sampled on [0, c1], bounds the explicit reaction step
dt*|f'| <= 1/2; a user's dt is both cap and floor, a fixed step.  Each size
is a power of 2 times the cap, so a run is bit-identical to its image under
power-of-2 scalings of u, x and t, and at most a few step sizes are
factored.  A step that would cross an output time or T_end is shortened to
land on it, so rows sit at exact multiples of the output interval whatever
the step sequence.

The first four steps are backward-Euler half-steps (Rannacher, Numer. Math.
43, 1984), which damp the high modes of kinked data that Crank-Nicolson
leaves ringing when r = dt*d/(2h^2) > 1/2.  A backward-Euler step of dt/2 has
the matrix of a Crank-Nicolson step of dt, so it shares that step's cached
factors.  With r <= 1/2 and h*|g'| <= d the weights (1 - 2r, r + a, r - a)
of the explicit half, a = dt*g'/(2h), are nonnegative and sum to 1, and the
implicit half is an M-matrix, so the linear part of a step keeps U within
[min(U, delta), max(U, delta)].  Larger steps give up that a priori discrete
maximum principle; the bound check 0 < U <= c1 = (3/2)*sup(u0), made on every
step, still guards them.  With the start-up, steep tables and step data keep
min(u0, xi) <= U <= sup(u0) on every step (measured to 2.3e-13 at r up to 160).

With g' frozen, the explicit half of a step is U + dt*f(U) plus one 2-tap
stencil on the differences of U, which adds exact zeros where U is flat.
The Crank-Nicolson matrix depends only on N and r = dt*d/(2h^2).  Halving
its ghost-reflection row (-2r, 1 + 2r), and that row's right-hand side,
makes it symmetric with every row exceeding its off-diagonal sum by at
least 1/2: strictly diagonally dominant, hence positive definite, for
every r.  It is factored once per step size as L D L^T (LAPACK ``dpttrf``)
and every step solves with the cached factors (``dpttrs``); the two routines
are imported on the first step, since ``scipy.linalg`` takes most of the
package's import time and only this module needs it.  No pivoting is
needed: the pivots stay above 1/2, and |L| D |L^T| = |A| for a positive
definite tridiagonal A, so the solve is backward stable whatever r is
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 9).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    BoundViolationError,
    InputError,
    InstabilityError,
)
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

    ``dt=None`` lets ``run`` choose each step from dt_cap*2^-m, m >= 0, with
    the cap dt_cap = 0.5/max|f'| (max|f'| over [0, c1] sampled at
    REACTION_SAMPLES points), which keeps the explicit reaction step
    dt*|f'| <= 1/2.  Each step takes the largest size with dt*|g'| <= h/2 at
    the current front speed, the advection guard of ``step``, but none below
    the first size at or below h^2/d.  Steps with r = dt*d/(2h^2) > 1/2 give
    up the a priori discrete maximum principle; the first STARTUP_STEPS steps
    are backward-Euler half-steps, and the bound check 0 < U <= c1 guards
    every step.  A given ``dt`` is both the cap and the floor: a fixed step.
    ``output_every`` is a time interval: rows are recorded at its multiples
    and at T_end, which steps are shortened to land on exactly.  The ceiling
    on U is c1 = (3/2)*sup(u0).
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

    ``config`` records the inputs, the step cap ``dt``, and what the run did:
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
def _lapack() -> tuple[Callable, Callable]:
    """LAPACK's (dpttrf, dpttrs), imported once, on first use."""
    from scipy.linalg.lapack import dpttrf, dpttrs

    return dpttrf, dpttrs


@functools.lru_cache(maxsize=8)
def _cn_factors(N: int, r: float) -> np.ndarray:
    """Read-only L D L^T factors, rows (D, L), of the symmetrised Crank-Nicolson matrix.

    Its off-diagonal is -r and its diagonal 1 + 2r, or 1/2 + r in the halved
    ghost row: strictly diagonally dominant, so positive definite for every r
    and factored stably without pivoting.  The last entry of the L row is padding.
    """
    diag = np.full(N, 1.0 + 2.0 * r)
    diag[-1] = 0.5 + r
    D, L, info = _lapack()[0](diag, np.full(N - 1, -r))
    if info != 0:
        raise np.linalg.LinAlgError(f"Crank-Nicolson matrix not positive definite (N={N}, r={r})")
    factors = np.zeros((2, N))
    factors[0], factors[1, :-1] = D, L
    factors.flags.writeable = False
    return factors


def solve_banded(l_and_u: tuple[int, int], factors: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetrised system factored by ``_cn_factors``; ``l_and_u`` is (1, 1).

    ``rhs`` must already carry the halved last entry.  The arguments keep the
    positions of ``scipy.linalg.solve_banded``, which the benchmark's tracer
    (``perfbench/spans.py``) reads.
    """
    x, _ = _lapack()[1](factors[0], factors[1, :-1], rhs)
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

    The one check on g' is the advection guard dt*|g'| <= h/2 before the
    step; a runaway g' trips it on the next step.  ``c1`` is the a priori
    ceiling on U (none by default).  ``backward_euler`` takes all of the
    diffusion implicitly; its matrix is that of a Crank-Nicolson step of
    2*dt, whose cached factors it shares.
    """
    if not dt > 0:
        raise InputError(f"dt must be positive, got {dt}")
    h = state.grid.h
    gp = state.g_prime
    if dt * abs(gp) > 0.5 * h:
        raise InstabilityError(
            f"dt={dt:g} violates the advection constraint dt*|g'| <= h/2 "
            f"with g'={gp:g} at t={state.t:g}"
        )
    U = state.U
    N = state.grid.N
    # the implicit weight r; the explicit half takes re = r (Crank-Nicolson)
    # or none; 1*dt here is 0.5*(2*dt) exactly, so the key of the factors is too
    r = (1.0 if backward_euler else 0.5) * dt * d / (h * h)
    re = 0.0 if backward_euler else r
    a = 0.5 * dt * gp / h
    # U + dt*f(U) plus diffusion and central advection as one 2-tap stencil
    # on dU, re*(dU[j+1] - dU[j]) + a*(dU[j+1] + dU[j]), for every sign of g':
    # a flat U adds exact zeros, so rounding cannot bias the steady state by
    # O(eps/dt)
    rhs = U[1:] + dt * np.asarray(f(U[1:]), dtype=float)
    dU = U[1:] - U[:-1]
    rhs[: N - 1] += np.correlate(dU, (a - re, re + a), "valid")
    # ghost reflection at the far end, where the central advection vanishes
    rhs[N - 1] -= 2.0 * re * dU[N - 1]
    rhs[0] += r * delta
    if source is not None:
        rhs += dt * np.asarray(source(state.t, state.grid.nodes[1:]), dtype=float)
    rhs[N - 1] *= 0.5  # the halved ghost row of the symmetrised matrix

    U_new = np.empty_like(U)
    U_new[0] = delta
    U_new[1:] = solve_banded((1, 1), _cn_factors(N, r), rhs)

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

    Each step size follows the current front speed (see ``SolverConfig``).
    Per-row profile errors are taken against ``reference`` when given.  A
    bound violation or instability terminates the run early with the
    diagnostic preserved; the record always carries the final state as its
    last snapshot.  A final cell Peclet number h*|g'|/d above MAX_PECLET adds
    a warning.
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
        sizes = [0.5 / f_slope]
        while sizes[-1] > h * h / d:
            sizes.append(0.5 * sizes[-1])
    else:
        sizes = [config.dt]

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
    span = config.T_end if n_out == 1 else config.output_every
    elapsed = 0.0
    while config.T_end > 0:
        # the largest size the advection guard admits, else the floor, where it fires
        dt = next((s for s in sizes if s * abs(state.g_prime) <= 0.5 * h), sizes[-1])
        startup = steps < STARTUP_STEPS
        if startup:
            dt *= 0.5
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
        except InstabilityError as exc:
            termination = "instability"
            diagnostic = str(exc)
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
            span = config.output_every if k < n_out else config.T_end - state.t
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
        "dt": sizes[0],
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
