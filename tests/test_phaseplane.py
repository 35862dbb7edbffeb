import contextlib
import math
import signal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from retreatwave import phaseplane
from retreatwave import (
    Grid1D,
    InputError,
    IntegrationError,
    IntegrationOptions,
    NumericalError,
    ReactionFunction,
    bracket_low,
    closed_form_zero_speed,
    find_wave_speed,
    integrate_trajectories,
    integrate_trajectory,
    make_logistic,
    make_perturbation_pair,
    parse_reaction,
    reconstruct_profile,
    saddle_slope,
)
from retreatwave.wavespeed import SUP_GRID


def exact_zero_speed(q: float, r: float, d: float) -> float:
    """Polynomial antiderivative oracle for the logistic closed form."""
    integral = r * (1.0 / 6.0 - q * q / 2.0 + q**3 / 3.0)
    return -math.sqrt((2.0 / d) * integral)


def test_saddle_slope_values(logistic1):
    assert saddle_slope(0.0, 1.0, logistic1) == pytest.approx(-1.0, abs=1e-14)
    assert saddle_slope(-1.0, 1.0, logistic1) == pytest.approx(
        (-1.0 - math.sqrt(5.0)) / 2.0, abs=1e-12
    )
    assert saddle_slope(0.0, 4.0, logistic1) == pytest.approx(-0.5, abs=1e-14)


def test_saddle_slope_requires_negative_derivative():
    bad = ReactionFunction(lambda u: u, lambda u: 1.0 + 0.0 * np.asarray(u), 1.0, "bad")
    with pytest.raises(InputError):
        saddle_slope(0.0, 1.0, bad)


def test_closed_form_values(logistic1):
    assert closed_form_zero_speed(1.0, 1.0, logistic1) == pytest.approx(0.0, abs=1e-12)
    assert closed_form_zero_speed(2.0, 1.0, logistic1) == pytest.approx(
        -math.sqrt(5.0 / 3.0), abs=1e-12
    )
    assert closed_form_zero_speed(1.5, 1.0, logistic1) == pytest.approx(
        -math.sqrt(1.0 / 3.0), abs=1e-12
    )


@pytest.mark.parametrize("r", [0.5, 2.0])
@pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("q", [1.2, 1.7, 2.4])
def test_closed_form_matches_polynomial_oracle(r, d, q):
    f = make_logistic(r)
    assert closed_form_zero_speed(q, d, f) == pytest.approx(
        exact_zero_speed(q, r, d), abs=1e-12
    )


def test_closed_form_rejects_positive_tail():
    # positive beyond its claimed zero: the radicand goes negative
    bad = ReactionFunction(lambda u: np.asarray(u) * 1.0, lambda u: 1.0 + 0.0 * np.asarray(u), 1.0, "bad")
    with pytest.raises(NumericalError):
        closed_form_zero_speed(2.0, 1.0, bad)


def test_trajectory_matches_closed_form(logistic1):
    traj = integrate_trajectory(0.0, 1.0, logistic1, 2.0)
    qs = np.linspace(1.0, 2.0, 1500)
    exact = np.array([closed_form_zero_speed(q, 1.0, logistic1) for q in qs])
    assert float(np.max(np.abs(traj.p_at(qs) - exact))) <= 1e-8
    assert traj.endpoint_slope == pytest.approx(-math.sqrt(5.0 / 3.0), abs=1e-9)
    assert traj.saddle_slope == pytest.approx(-1.0, abs=1e-14)


def test_trajectory_is_negative_and_ordered(logistic1):
    traj = integrate_trajectory(-0.7, 1.0, logistic1, 2.0)
    assert np.all(traj.p_at(np.linspace(traj.dense.x[0], 2.0, 2500)) < 0.0)
    assert traj.endpoint_slope == traj.p_at(2.0)


def _capture_solves(monkeypatch):
    """Wrap phaseplane.solve_ivp; the returned list collects each solve's arguments and result."""
    solves = []
    solve = phaseplane.solve_ivp

    def capturing(fun, t_span, y0, **kwargs):
        sol = solve(fun, t_span, y0, **kwargs)
        solves.append((fun, t_span, y0, kwargs, sol))
        return sol

    monkeypatch.setattr(phaseplane, "solve_ivp", capturing)
    return solves


@pytest.mark.parametrize("spec, d, delta", [("logistic:r=1", 1.0, 2.0),
                                            ("custom:3,-2,0.9,-0.6", 0.8, 2.4)])
@pytest.mark.parametrize("lanes", [1, 50])
def test_piecewise_polynomial_matches_ode_solution(monkeypatch, spec, d, delta, lanes):
    # phaseplane's RK45 against scipy's, on the same right-hand side: the same
    # steps and RHS calls, and each lane's quartics against scipy's
    # OdeSolution on 2500 points from xi (extrapolated) to delta.  The one-lane
    # stepper sums the stages on Python floats, where scipy's np.dot may fuse
    # multiply-adds, so the two differ in the last bits of every step and
    # the old bound of 1e-14 no longer applies; measured: 1.1e-11 of the
    # lane's max |P| (and 4.4e-16, with bit-equal steps, on 50 lanes)
    from scipy.integrate import solve_ivp

    f = parse_reaction(spec)
    solves = _capture_solves(monkeypatch)
    cs = np.linspace(bracket_low(d, f, delta), 0.0, lanes) if lanes > 1 else [-0.5]
    trajs = integrate_trajectories(cs, d, f, delta)
    fun, t_span, y0, kwargs, sol = solves[-1]
    one_lane = (lambda q, p: fun(q, p[0])) if lanes == 1 else fun
    ref = solve_ivp(one_lane, t_span, y0, method="RK45", dense_output=True, **kwargs)
    assert len(sol.t) == len(ref.t) and sol.nfev == ref.nfev
    q = np.linspace(f.stable_zero, delta, 2500)
    expected = ref.sol(q)
    assert len(trajs) == lanes
    for traj, lane in zip(trajs, expected):
        # each trajectory holds its own lane only
        assert traj.dense.c.shape == (5, len(sol.t) - 1)
        assert np.max(np.abs(traj.p_at(q) - lane)) <= 1e-10 * np.max(np.abs(lane))
        assert traj.p_at(delta) == traj.endpoint_slope


@pytest.mark.parametrize("lanes", [1, 3])
def test_sample_check_rejects_nan(monkeypatch, logistic1, lanes):
    # NaN coefficients on one step of the last lane: NaN >= 0 is False, so the
    # check must test P < 0 itself
    solve = phaseplane.solve_ivp

    def poisoning(*args, **kwargs):
        sol = solve(*args, **kwargs)
        step = int(np.searchsorted(sol.t, 0.5 * (sol.t[0] + sol.t[-1]))) - 1
        sol.dense.c[:, step, -1] = np.nan
        return sol

    monkeypatch.setattr(phaseplane, "solve_ivp", poisoning)
    cs = np.linspace(-0.9, -0.1, lanes)
    with pytest.raises(NumericalError, match=f"lower half plane at c={cs[-1]:g};"):
        integrate_trajectories(cs, 1.0, logistic1, 2.0)


def _bump_reaction() -> ReactionFunction:
    # f = -u*(u - 1)*(u - 1.05)*(u - 1.9) is positive on (1.05, 1.9): slow
    # trajectories are pushed up to P = 0 there, where the step size collapses
    poly = -np.polynomial.Polynomial.fromroots([0.0, 1.0, 1.05, 1.9])
    return ReactionFunction(poly, poly.deriv(), 1.0, "bump")


@pytest.mark.parametrize("lanes", [1, 50])
def test_nfev_counts_every_rhs_call(monkeypatch, lanes):
    # the benchmark's phaseplane.integrate_nfev sums this field; the stalled
    # integration fails after many rejected steps
    stalls = _bump_reaction()
    solve = phaseplane.solve_ivp
    counts = []

    def counting(fun, t_span, y0, **kwargs):
        calls = []

        def counted(q, p):
            calls.append(q)
            return fun(q, p)

        sol = solve(counted, t_span, y0, **kwargs)
        counts.append((sol.nfev, len(calls), sol.success))
        return sol

    monkeypatch.setattr(phaseplane, "solve_ivp", counting)
    f = parse_reaction("custom:3,-2,0.9,-0.6")
    integrate_trajectories(np.linspace(bracket_low(0.8, f, 2.4), 0.0, lanes), 0.8, f, 2.4)
    with pytest.raises(IntegrationError):
        integrate_trajectories(np.linspace(-0.5, -3.0, lanes), 1.0, stalls, 2.0)
    assert [success for *_, success in counts] == [True, False]
    assert all(nfev == calls > 2 for nfev, calls, _ in counts)


@pytest.mark.parametrize("lanes, nfev, points, t_end", [
    (1, 1592, 199, 1.3782602044310335),
    (3, 1586, 184, 1.3782602045001877),
])
def test_stalled_integration_keeps_its_step_sequence(monkeypatch, lanes, nfev, points, t_end):
    # the step control compares where scipy calls min and max; this run
    # rejects step after step until the step falls below 10 ulp of t, so its
    # counts follow every rule.  The counts are this stepper's own: scipy's
    # RK45 sums the one-lane stages by np.dot and makes 1598 calls and 198
    # points
    solves = _capture_solves(monkeypatch)
    with pytest.raises(IntegrationError, match="c=-0.5:"):
        integrate_trajectories(np.linspace(-0.5, -3.0, lanes), 1.0, _bump_reaction(), 2.0)
    sol = solves[-1][-1]
    assert (sol.success, sol.message) == (False, phaseplane.TOO_SMALL_STEP)
    assert (sol.nfev, len(sol.t), float(sol.t[-1])) == (nfev, points, t_end)


@pytest.mark.parametrize("y0, nfev, points, t_end", [
    ([1.0], 488, 50, 0.6931471805744837),
    ([1.0, 1.2, 1.5], 560, 55, 0.6931471805744401),
])
def test_nan_error_shrinks_the_step_by_min_factor(y0, nfev, points, t_end):
    # y' = -y, but NaN once y < 1/2: every step into the wall has a NaN error
    # norm, is rejected and shrinks by MIN_FACTOR, as scipy's
    # max(MIN_FACTOR, NaN) does, until the step falls below 10 ulp of t
    # where the computed y reaches 1/2, next to t = ln 2
    if len(y0) == 1:
        def fun(t, y):
            return -y if y >= 0.5 else math.nan
    else:
        def fun(t, y):
            return np.where(y >= 0.5, -y, np.nan)
    sol = phaseplane.solve_ivp(fun, (0.0, 2.0), y0, rtol=1e-10, atol=1e-12)
    assert (sol.success, sol.message, sol.dense) == (False, phaseplane.TOO_SMALL_STEP, None)
    assert (sol.nfev, len(sol.t), float(sol.t[-1])) == (nfev, points, t_end)
    assert float(sol.t[-1]) == pytest.approx(math.log(2.0), abs=1e-10)


@contextlib.contextmanager
def _watchdog(seconds: float):
    """Raise TimeoutError inside the block once it has run for ``seconds``, so a
    hang fails the test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("lanes", [1, 2])
def test_nan_at_the_start_ends_the_solve_as_a_failure(lanes):
    # a right-hand side that is NaN at the start makes the initial step NaN,
    # which fails every comparison; it is raised to the step floor, tried once
    # and rejected, and the floor then ends the solve.  In integrate_trajectories
    # that is a reaction that is NaN at xi + eta
    if lanes == 1:
        def fun(t, y):
            return math.nan
    else:
        def fun(t, y):
            return np.full(lanes, math.nan)
    nan_reaction = ReactionFunction(lambda u: math.nan * np.asarray(u),
                                    lambda u: 1.0 - 2.0 * np.asarray(u), 1.0, "nan")
    with _watchdog(10.0):
        sol = phaseplane.solve_ivp(fun, (0.0, 1.0), [1.0] * lanes, rtol=1e-10, atol=1e-12)
        with pytest.raises(IntegrationError, match=phaseplane.TOO_SMALL_STEP):
            integrate_trajectories(np.linspace(-0.5, -0.1, lanes), 1.0, nan_reaction, 2.0)
    assert (sol.success, sol.message, sol.dense) == (False, phaseplane.TOO_SMALL_STEP, None)
    assert (sol.nfev, sol.t.tolist()) == (8, [0.0])


def _pole_squared(t, y):
    # y' = 1/(w - t)**2 with w = 1 + 8e-12: the steps shrink to the floor of
    # 10 ulp of t while t crosses 1, where that floor doubles
    gap = (1.0 + 8e-12) - t
    return 1.0 / (gap * gap) if gap > 0.0 else math.nan


def _root_pole(t, y):
    # y' = -1/(2 sqrt(4 - t)): the stall is in [2, 4), a binade above the
    # one where the steps began to shrink
    return -0.5 / math.sqrt(4.0 - t) if t < 4.0 else math.nan


@pytest.mark.parametrize("fun, t_span, nfev, points, t_end", [
    (_pole_squared, (0.5, 2.0), 39548, 5660, 1.0000000000005336),
    (_root_pole, (0.0, 8.0), 1658, 183, 3.9999999999999942),
], ids=["floor-doubles-at-1", "stall-in-[2,4)"])
def test_step_floor_follows_the_spacing_of_t(fun, t_span, nfev, points, t_end):
    # the floor 10*(nextafter(t) - t) is taken again wherever t may have
    # left its binade, and a step below it is raised to it before it is
    # tried; the counts are those of looking the floor up on every step
    sol = phaseplane.solve_ivp(fun, t_span, [1.0], rtol=1e-10, atol=1e-12)
    assert (sol.success, sol.message) == (False, phaseplane.TOO_SMALL_STEP)
    assert (sol.nfev, len(sol.t), float(sol.t[-1])) == (nfev, points, t_end)


def test_sorted_points_take_the_pieces_of_a_search(logistic1):
    # the lookup for ascending points, more of them than breakpoints, against
    # the point-by-point search: at every breakpoint, twice, between them,
    # below x[0] and beyond x[-1]
    dense = integrate_trajectory(-0.4, 1.0, logistic1, 2.0).dense
    x = dense.x
    t = np.sort(np.concatenate((x, x, np.linspace(x[0] - 1.0, x[-1] + 1.0, 3 * len(x)))))
    assert t[0] < x[0] and t[-1] > x[-1] and len(t) > len(x)
    searched = x[1:-1].searchsorted(t, "right")
    assert np.array_equal(dense.piece(t), searched)
    assert np.array_equal(dense.piece(t[::-1])[::-1], searched)  # not ascending: searched
    assert [int(dense.piece(point)) for point in t.tolist()] == searched.tolist()


@pytest.mark.parametrize("spec, d, delta", [("logistic:r=1", 1.0, 2.0),
                                            ("custom:3,-2,0.9,-0.6", 0.8, 2.4)])
def test_log_grid_reads_p_as_a_search_would(spec, d, delta):
    # P on the shared log grid, whose points are ascending, is bit-identical
    # to its evaluation point by point, reached here through reversed points
    f = parse_reaction(spec)
    traj = integrate_trajectory(0.5 * bracket_low(d, f, delta), d, f, delta)
    _, q, _, p = phaseplane._log_grid(traj)
    assert np.array_equal(p, traj.p_at(q[::-1])[::-1])
    assert np.array_equal(p, traj.p_at(q))


@pytest.mark.parametrize("gap, message", [
    (1e-3, "not strictly decreasing"),  # q[0] above xi, ties among the next samples
    (1e-6, "fell to the stable zero"),
    (1e-9, "fell to the stable zero"),
])
def test_log_points_reject_samples_that_round_together(gap, message):
    # against xi = 1e5, whose spacing is 1.5e-11, these gaps put the tail
    # cutoff below the spacing, or the samples after it within one
    xi = 1e5
    with pytest.raises(NumericalError, match=message):
        phaseplane._log_points(xi, xi + gap)
    _, q, _ = phaseplane._log_points(1.0, 2.0)
    assert q[0] > 1.0 and np.all(np.diff(q) > 0.0)


def test_trajectory_endpoint_vanishes_as_delta_shrinks(logistic1):
    traj = integrate_trajectory(0.0, 1.0, logistic1, 1.0 + 1e-4)
    assert abs(traj.endpoint_slope) < 1e-3


def test_trajectory_monotone_in_speed(logistic1):
    t1 = integrate_trajectory(-0.5, 1.0, logistic1, 2.0)
    t2 = integrate_trajectory(-0.1, 1.0, logistic1, 2.0)
    qs = np.linspace(1.01, 2.0, 300)
    assert np.all(t1.p_at(qs) < t2.p_at(qs))
    assert t1.endpoint_slope < t2.endpoint_slope


def test_trajectory_monotone_in_reaction(logistic1):
    # a pointwise larger reaction lifts the trajectory: the smaller one is a
    # strict subsolution of the larger one's equation past the larger zero,
    # and it starts below (P < 0 versus P = 0 at that zero)
    pair = make_perturbation_pair(logistic1, 0.1)
    lo = integrate_trajectory(-0.5, 1.0, pair.lower, 2.0)
    hi = integrate_trajectory(-0.5, 1.0, pair.upper, 2.0)
    qs = np.linspace(pair.upper.stable_zero + 1e-3, 2.0, 300)
    assert np.all(lo.p_at(qs) < hi.p_at(qs))
    assert lo.endpoint_slope < hi.endpoint_slope


def test_trajectory_continuous_in_speed(logistic1):
    base = integrate_trajectory(-0.5, 1.0, logistic1, 2.0).endpoint_slope
    diffs = []
    for h in (1e-2, 1e-3, 1e-4):
        up = integrate_trajectory(-0.5 + h, 1.0, logistic1, 2.0).endpoint_slope
        dn = integrate_trajectory(-0.5 - h, 1.0, logistic1, 2.0).endpoint_slope
        diffs.append(max(abs(up - base), abs(dn - base)))
    assert diffs[0] > diffs[1] > diffs[2]


def test_trajectory_ode_residual(logistic1):
    traj = integrate_trajectory(-0.5, 1.0, logistic1, 2.0)
    assert traj.ode_residual(logistic1) < 5e-6


@pytest.mark.parametrize("d", [0.5, 2.0])
def test_trajectory_ode_residual_tells_c_over_d_from_c_times_d(logistic1, d):
    # at d = 1 the drift c/d equals c*d; here the two differ by |c|*|d - 1/d| =
    # 0.75, so c*d in the integrated or the checked right-hand side fails.
    # Measured: 1.7e-8 (d = 0.5) and 5.4e-8 (d = 2)
    traj = integrate_trajectory(-0.5, d, logistic1, 2.0)
    assert traj.ode_residual(logistic1) < 5e-6


def test_series_start_is_converged(monkeypatch, logistic1):
    # halving the start offset must leave the endpoint essentially unchanged
    a = integrate_trajectory(-0.5, 1.0, logistic1, 2.0).endpoint_slope
    monkeypatch.setattr(phaseplane, "START_OFFSET", 0.5 * phaseplane.START_OFFSET)
    b = integrate_trajectory(-0.5, 1.0, logistic1, 2.0).endpoint_slope
    assert abs(a - b) <= 1e-10


def test_trajectory_rejects_bad_inputs(logistic1):
    with pytest.raises(InputError):
        integrate_trajectory(0.0, 1.0, logistic1, 0.9)
    with pytest.raises(InputError):
        integrate_trajectory(0.0, -1.0, logistic1, 2.0)


def test_profile_shape_and_slope(logistic1):
    traj = integrate_trajectory(0.0, 1.0, logistic1, 2.0)
    profile = reconstruct_profile(traj)
    assert profile.q_values[0] == 2.0
    assert np.all(np.diff(profile.q_values) < 0)
    assert np.all(profile.q_values > 1.0)


def test_profile_tail_decay_rate(logistic1):
    traj = integrate_trajectory(-0.8, 1.0, logistic1, 2.0)
    profile = reconstruct_profile(traj)
    x = profile.x_grid
    q = profile.q_values
    tail = q - 1.0 < 0.01
    xs, logs = x[tail], np.log(q[tail] - 1.0)
    slope = np.polyfit(xs, logs, 1)[0]
    assert slope == pytest.approx(profile.tail_rate, rel=0.05)
    assert profile.tail_rate == traj.saddle_slope


def test_profile_tail_extrapolation_is_continuous(logistic1):
    traj = integrate_trajectory(-0.5, 1.0, logistic1, 2.0)
    profile = reconstruct_profile(traj)
    x_end = profile.x_grid[-1]
    left = profile.q_at(x_end - 1e-9)
    right = profile.q_at(x_end + 1e-9)
    assert right == pytest.approx(left, abs=1e-8)
    assert profile.q_at(x_end + 50.0) == pytest.approx(1.0, abs=1e-6)


def reference_profile(c: float, d: float, xi: float, coeffs, delta: float):
    """q(x) from an independent DOP853 integration of (P, x) in w = ln(q - xi).

    With s = q - xi, dP/dw = s*(c/d - f/(d*P)) and dx/dw = s/P.  f is
    expanded about its zero xi, so f(xi + s) carries no cancellation and its
    derivatives at xi are exact; the start is the second-order saddle series
    at s = 1e-9*(delta - xi).  x(q) is inverted by a cubic Hermite
    interpolant on 40001 points and continued past the start by the
    linearised tail.
    """
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicHermiteSpline

    span = delta - xi
    about_xi = np.polynomial.Polynomial((0.0,) + tuple(coeffs))(np.polynomial.Polynomial((xi, 1.0)))
    fs = np.polynomial.Polynomial(np.concatenate(([0.0], about_xi.coef[1:])))  # f(xi) = 0
    lam = (c - math.sqrt(c * c - 4.0 * d * fs.deriv()(0.0))) / (2.0 * d)
    s2 = -fs.deriv(2)(0.0) / (3.0 * d * lam - c)
    s0 = 1e-9 * span

    def rhs(w, y):
        s = math.exp(w)
        return [s * (c / d - fs(s) / (d * y[0])), s / y[0]]

    sol = solve_ivp(rhs, (math.log(s0), math.log(span)), [lam * s0 + 0.5 * s2 * s0 * s0, 0.0],
                    method="DOP853", rtol=1e-13, atol=1e-20, dense_output=True)
    assert sol.success
    w = np.linspace(math.log(s0), math.log(span), 40001)
    p, x = sol.sol(w)
    x = x - x[-1]
    inside = CubicHermiteSpline(x[::-1], xi + np.exp(w[::-1]), p[::-1])

    def q_ref(xs):
        tail = xi + s0 * np.exp(lam * (xs - x[0]))
        return np.where(xs <= x[0], inside(xs), tail)

    return q_ref


# logistic f = u*(1 - u), and f = r*u*(xi - u)*(1 + a*u**2) as the polynomial
# spec (r*xi, -r, r*a*xi, -r*a) for (r, xi, a) = (2, 1.5, 0.3) and (0.7, 1.2, 0.5)
@pytest.mark.parametrize("spec, coeffs, d, delta", [
    ("logistic:r=1", (1.0, -1.0), 1.0, 2.0),
    ("logistic:r=1", (1.0, -1.0), 0.5, 1.5),
    ("logistic:r=1", (1.0, -1.0), 2.0, 3.0),
    ("custom:3,-2,0.9,-0.6", (3.0, -2.0, 0.9, -0.6), 0.8, 2.4),
    ("custom:0.84,-0.7,0.42,-0.35", (0.84, -0.7, 0.42, -0.35), 1.5, 3.0),
])
def test_profile_matches_independent_reference(spec, coeffs, d, delta):
    f = parse_reaction(spec)
    c_star = find_wave_speed(d, f, delta).c_star
    for c in (c_star, 0.0, c_star - 1.0):
        profile = reconstruct_profile(integrate_trajectory(c, d, f, delta))
        q_ref = reference_profile(c, d, f.stable_zero, coeffs, delta)
        gap = np.max(np.abs(profile.q_at(SUP_GRID) - q_ref(SUP_GRID)))
        assert gap <= 1e-9 * (delta - f.stable_zero), (c, gap)


def test_trajectory_csv_roundtrip(tmp_path, logistic1):
    traj = integrate_trajectory(0.0, 1.0, logistic1, 2.0)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "q,P"


# logistic at three (d, delta), a stable zero below 1, and the family member
# f = r*u*(xi - u)*(1 + a*u**2) with (r, xi, a) = (2, 1.5, 0.3)
LANE_PROBLEMS = [
    ("logistic:r=1", 1.0, 2.0),
    ("logistic:r=1", 0.5, 1.5),
    ("logistic:r=1", 2.0, 3.0),
    ("custom:0.7,-1", 1.0, 1.2),
    ("custom:3,-2,0.9,-0.6", 0.8, 2.4),
]


@pytest.mark.parametrize("spec, d, delta", LANE_PROBLEMS)
def test_lanes_match_one_lane_runs_and_tight_reference(spec, d, delta):
    # the residual audit's 50-point grid, integrated as one batch
    f = parse_reaction(spec)
    cs = np.linspace(bracket_low(d, f, delta), 0.0, 50)
    lanes = [t.endpoint_slope for t in integrate_trajectories(cs, d, f, delta)]
    ones = [integrate_trajectory(c, d, f, delta).endpoint_slope for c in cs]
    tight = IntegrationOptions(rtol=1e-13, atol=1e-15)
    refs = [integrate_trajectory(c, d, f, delta, tight).endpoint_slope for c in cs]
    assert np.max(np.abs(np.subtract(lanes, ones))) <= 1e-9
    # sharing its steps with the other lanes must not cost a lane accuracy
    worst_one = np.max(np.abs(np.subtract(ones, refs)))
    assert np.max(np.abs(np.subtract(lanes, refs))) <= worst_one


@pytest.mark.parametrize("spec, d, delta", LANE_PROBLEMS)
@pytest.mark.parametrize("lanes", [1, 3])
def test_endpoint_slope_is_the_value_a_read_gives_at_delta(spec, d, delta, lanes):
    # one lane sums P(delta) on Python floats, a batch on the lanes' arrays;
    # both must be bit-identical to evaluating the stored trajectory there
    f = parse_reaction(spec)
    cs = np.linspace(bracket_low(d, f, delta), 0.0, lanes + 2)[1:-1]
    for traj in integrate_trajectories(cs, d, f, delta):
        assert traj.p_at(delta) == traj.endpoint_slope, traj.c


def test_lane_profile_is_its_own():
    f = parse_reaction("custom:3,-2,0.9,-0.6")
    d, delta = 0.8, 2.4
    c_star = find_wave_speed(d, f, delta).c_star
    cs = [c_star - 1.0, c_star, 0.0]
    lanes = integrate_trajectories(cs, d, f, delta)
    for lane, c in zip(lanes, cs):
        batch = reconstruct_profile(lane).q_at(SUP_GRID)
        alone = reconstruct_profile(integrate_trajectory(c, d, f, delta)).q_at(SUP_GRID)
        assert np.max(np.abs(batch - alone)) <= 1e-9 * (delta - f.stable_zero), c


def test_bad_lane_raises_its_own_error(logistic1):
    # the saddle slope overflows at c = 1e308
    with pytest.raises(IntegrationError) as alone:
        integrate_trajectory(1e308, 1.0, logistic1, 2.0)
    with pytest.raises(IntegrationError) as batch:
        integrate_trajectories([-0.5, 1e308, 0.0], 1.0, logistic1, 2.0)
    assert str(batch.value) == str(alone.value) and "c=1e+308" in str(batch.value)
    with pytest.raises(InputError, match="speed c must be finite, got nan"):
        integrate_trajectories([-0.5, float("nan")], 1.0, logistic1, 2.0)
    with pytest.raises(InputError):
        integrate_trajectories([], 1.0, logistic1, 2.0)


def test_lane_whose_integration_stalls_is_named():
    f = _bump_reaction()
    with pytest.raises(IntegrationError) as alone:
        integrate_trajectory(-0.5, 1.0, f, 2.0)
    with pytest.raises(IntegrationError) as batch:
        integrate_trajectories([-3.0, -0.5, -2.0], 1.0, f, 2.0)
    assert str(batch.value) == str(alone.value) and "c=-0.5:" in str(batch.value)


# -- phaseplane's numerics against exact oracles --

U = 2.0**-53  # unit roundoff


def _gamma(n: int) -> float:
    """n*U/(1 - n*U): the relative error of n roundings (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 3.1)."""
    return n * U / (1.0 - n * U)


@pytest.mark.parametrize("lanes", [1, 50])
def test_piecewise_polynomial_meets_its_rounding_bound(monkeypatch, lanes):
    # the batch's (5, steps, lanes) coefficients and one lane's (5, steps), at
    # interior points, every breakpoint, both ends and beyond both ends
    # (extrapolated), against rational arithmetic on the same coefficients.
    # s = t - x[i] is one rounding, s**j then j - 1 more and j from s, each
    # term one, and the K - 1 additions: a term of degree j <= K - 1 takes at
    # most 3K - 3 roundings, a bound of gamma(3K) * sum_k |c_k| |s|**(K-1-k)
    f = parse_reaction("custom:3,-2,0.9,-0.6")
    solves = _capture_solves(monkeypatch)
    trajs = integrate_trajectories(np.linspace(bracket_low(0.8, f, 2.4), 0.0, lanes), 0.8, f, 2.4)
    dense = solves[-1][-1].dense
    x = dense.x
    q = np.concatenate((np.linspace(x[0] - 0.3, x[-1] + 0.3, 301), x))
    for ours in (dense, trajs[-1].dense):
        values = ours(q).reshape(len(q), -1)
        assert ours(q[:300].reshape(20, 15)).shape == (20, 15) + ours.c.shape[2:]
        coeffs = ours.c.reshape(5, len(x) - 1, -1)
        for t, value in zip(q.tolist(), values):
            i = max([0] + [j for j in range(1, len(x) - 1) if x[j] <= t])
            s = Fraction(t) - Fraction(x[i])
            powers = [s**j for j in range(4, -1, -1)]
            for lane in sorted({0, coeffs.shape[2] // 2, coeffs.shape[2] - 1}):
                c = [Fraction(ck) for ck in coeffs[:, i, lane].tolist()]
                exact = sum(ck * power for ck, power in zip(c, powers))
                scale = sum(abs(ck * power) for ck, power in zip(c, powers))
                assert abs(Fraction(value[lane]) - exact) <= _gamma(15) * scale, (t, lane)


def test_hermite_interpolant_reproduces_a_cubic(logistic1):
    # on a profile's own abscissae, the interpolant of a cubic's values and
    # slopes is that cubic.  The data are rounded once, and the coefficients
    # come from differences of them, so the bound on a piece of width h is
    # 32 roundings of max|y| + h*max|y'| over its ends, not of |p|
    profile = reconstruct_profile(integrate_trajectory(-0.6, 1.0, logistic1, 2.0))
    x = profile.x_grid
    a = [Fraction(2), Fraction(-7, 10), Fraction(1, 20), Fraction(-1, 500)]  # p = sum a_k t**k

    def p(t):
        return sum(ak * t**k for k, ak in enumerate(a))

    def dp(t):
        return sum(k * ak * t ** (k - 1) for k, ak in enumerate(a) if k)

    exact_x = [Fraction(xj) for xj in x.tolist()]
    y = np.array([float(p(t)) for t in exact_x])
    slopes = np.array([float(dp(t)) for t in exact_x])
    ours = phaseplane._cubic_hermite(x, y, slopes)
    points = np.concatenate((np.linspace(0.0, x[-1], 1501), x))
    pieces = np.minimum(np.searchsorted(x, points, "right") - 1, len(x) - 2)
    for t, i, value in zip(points.tolist(), pieces.tolist(), ours(points).tolist()):
        scale = max(abs(y[i]), abs(y[i + 1])) + (x[i + 1] - x[i]) * max(abs(slopes[i]),
                                                                         abs(slopes[i + 1]))
        assert abs(Fraction(value) - p(Fraction(t))) <= _gamma(32) * scale, t
    # the data themselves at the left end of each piece, NaN outside [0, x_end]
    assert np.array_equal(ours(x[:-1]), y[:-1])
    assert np.isnan(ours(-1e-300)) and np.isnan(ours(np.nextafter(x[-1], np.inf)))
    assert math.isnan(profile.q_at(-0.5)) and profile.q_at(0.0) == 2.0


def test_profile_builds_only_the_pieces_it_reads_bit_for_bit(logistic1):
    # q_at builds the Hermite pieces its points fall in; the values must be
    # those of the interpolant with every piece built, and the tail beyond x_end
    profile = reconstruct_profile(integrate_trajectory(-0.4, 1.0, logistic1, 2.0))
    x_end = profile.x_grid[-1]
    eager = phaseplane._cubic_hermite(profile.x_grid, profile.q_values, profile.slopes)

    def expected(x):
        tail = profile.xi + (profile.q_values[-1] - profile.xi) * np.exp(
            profile.tail_rate * (x - x_end))
        return np.where(x <= x_end, eager(x), tail)

    grids = [SUP_GRID, Grid1D(100.0, 2000).nodes, np.linspace(0.0, x_end, 2001), profile.x_grid,
             np.array([-1.0, 0.0, x_end, np.nextafter(x_end, np.inf), x_end + 1.0])]
    for x in grids:
        assert np.array_equal(profile.q_at(x), expected(x), equal_nan=True)
    assert math.isnan(profile.q_at(-1e-300)) and profile.q_at(0.0) == 2.0
    for x in (0.0, 0.37 * x_end, x_end, x_end + 3.0):
        value = profile.q_at(x)
        assert type(value) is float and value == expected(np.array(x)), x


def _samples(n: int, coefficients):
    """n points 1/16 apart from -3/4, exact in binary, with the polynomial's
    values there rounded once, and its antiderivative's exact values."""
    x = [Fraction(-3, 4) + Fraction(j, 16) for j in range(n)]
    y = np.array([float(sum(c * t**k for k, c in enumerate(coefficients))) for t in x])
    antiderivative = [sum(c * t ** (k + 1) / (k + 1) for k, c in enumerate(coefficients))
                      for t in x]
    return 1.0 / 16.0, y, antiderivative


def test_simpson_sums_are_exact_on_cubics():
    # h/3 * (y0 + 4*y1 + y2) per panel: the data's rounding, two additions,
    # h/3 and the product are gamma(5) of (h/3)*(|y0| + 4|y1| + |y2|)
    h, y, antiderivative = _samples(41, [Fraction(3, 2), Fraction(-7, 3), Fraction(5, 4),
                                         Fraction(-2, 5)])
    panels = h / 3.0 * phaseplane._simpson_sums(y)
    scales = h / 3.0 * phaseplane._simpson_sums(np.abs(y))
    assert len(panels) == 20
    for j, (panel, scale) in enumerate(zip(panels.tolist(), scales.tolist())):
        exact = antiderivative[2 * j + 2] - antiderivative[2 * j]
        assert abs(Fraction(panel) - exact) <= _gamma(5) * scale, j


@pytest.mark.parametrize("n", [3, 4, 40, 41])
def test_cumulative_rule_is_exact_on_quadratics(n):
    # at every point, odd and even counts alike: each piece
    # h/12 * (5*y0 + 8*y1 - y2) is the data's rounding, 5*y0, two additions,
    # h/12 and the product, gamma(6) of h/12*(5|y0| + 8|y1| + |y2|); the
    # running sum adds one rounding per piece
    h, y, antiderivative = _samples(n, [Fraction(3, 2), Fraction(-7, 3), Fraction(5, 4)])
    running = phaseplane._cumulative_simpson(y, h)
    a = np.abs(y)
    pieces = np.append(5 * a[:-2] + 8 * a[1:-1] + a[2:], 5 * a[-1] + 8 * a[-2] + a[-3])
    scales = np.concatenate(([0.0], np.cumsum(h / 12.0 * pieces)))
    assert running.shape == (n,) and running[0] == 0.0
    for j in range(1, n):
        exact = antiderivative[j] - antiderivative[0]
        assert abs(Fraction(running[j].item()) - exact) <= _gamma(6 + j) * scales[j], j


@pytest.mark.parametrize("spec, d, delta", LANE_PROBLEMS)
def test_simpson_rules_agree_with_scipys(spec, d, delta):
    # on the solver's own integrands.  Simpson's rule is scipy's to rounding.
    # The running rule takes each interval's parabola through the next point,
    # scipy's every other one through the point before; the two differ by
    # h/12 * (third difference of y) on such an interval, so their sums differ
    # by at most h/12 * sum |third differences|, plus rounding
    from scipy.integrate import cumulative_simpson, simpson

    f = parse_reaction(spec)
    traj = integrate_trajectory(0.5 * bracket_low(d, f, delta), d, f, delta)
    h, q, _, p = phaseplane._log_grid(traj)
    g = (q - traj.xi) / -p
    a = (q - traj.xi) * np.asarray(f(q)) / (d * p * p)
    for y in (g, a[::-1]):
        rounding = 2.0 * _gamma(len(y) + 6) * h * np.sum(np.abs(y))
        ours = h / 3.0 * np.sum(phaseplane._simpson_sums(y))
        assert abs(ours - simpson(y, dx=h)) <= rounding
        for part in (y, y[:-1]):
            gap = h / 12.0 * np.sum(np.abs(np.diff(part, 3)))
            theirs = cumulative_simpson(part, dx=h, initial=0.0)
            assert np.max(np.abs(phaseplane._cumulative_simpson(part, h) - theirs)) <= gap + rounding


def _family(n):
    """(spec, coefficients) of f = r*u*(xi - u)*(1 + a*u**2), the property tests' family."""
    rng = np.random.default_rng(7)
    for r, xi, a in rng.uniform((0.5, 0.5, 0.0), (3.0, 2.0, 0.5), (n, 3)).tolist():
        coeffs = (r * xi, -r, r * a * xi, -r * a)
        yield parse_reaction("custom:" + ",".join(repr(c) for c in coeffs)), coeffs


def _count_kronrod(monkeypatch):
    calls = []
    rule = phaseplane._kronrod21

    def counting(*args):
        calls.append(rule(*args))
        return calls[-1]

    monkeypatch.setattr(phaseplane, "_kronrod21", counting)
    return calls


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.5, 2.0), (2.0, 0.5)])
def test_kronrod_rule_is_exact_to_degree_31(a, b):
    # K21 integrates t**k exactly for k <= 31, and G10 for k <= 19, so their
    # gap is rounding there and the Gauss rule's error above.  pow, the
    # weight, the product, 20 additions and the scaling by h are gamma(24) of
    # the rule's sum of |h * w * t**k|; each node c + h*x is within 3
    # roundings of |c| + 2|h| of the exact node, which moves t**k by k*|t|**(k-1)
    # times that
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    nodes = np.abs(c + h * phaseplane._NODES)
    weights = abs(h) * phaseplane._KRONROD
    for k in range(32):
        value, error = phaseplane._kronrod21(lambda t: t**k, a, b)
        exact = (Fraction(b) ** (k + 1) - Fraction(a) ** (k + 1)) / (k + 1)
        bound = _gamma(24) * float(weights @ nodes**k)
        if k:
            bound += _gamma(3) * (abs(c) + 2.0 * abs(h)) * k * float(weights @ nodes ** (k - 1))
        assert abs(Fraction(value) - exact) <= bound, k
        assert k > 19 or error <= 2.0 * bound, k
    # and not beyond: on [-1, 1] the next even degrees miss by far more than rounding
    assert abs(phaseplane._kronrod21(lambda t: t**32, -1.0, 1.0)[0] - 2.0 / 33.0) > 1e-13
    assert phaseplane._kronrod21(lambda t: t**20, -1.0, 1.0)[1] > 1e-7


def _member_integrals(f, coeffs, eps, q, s=1.0):
    """int_q^xi f and int_q^xi of |each term| of f = sum c_k u**k + eps*u*exp(-u/s), in mpmath."""
    with mpmath.workdps(50):
        lo, hi = sorted((mpmath.mpf(q), mpmath.mpf(f.stable_zero)))
        powers = [(hi ** (k + 2) - lo ** (k + 2)) / (k + 2) for k in range(len(coeffs))]
        # int u*exp(-u/s) from its antiderivative -s*(u + s)*exp(-u/s)
        bump = s * ((lo + s) * mpmath.exp(-lo / s) - (hi + s) * mpmath.exp(-hi / s))
        sign = 1 if q <= f.stable_zero else -1
        exact = sign * (sum(c * power for c, power in zip(coeffs, powers)) + eps * bump)
        scale = sum(abs(c) * power for c, power in zip(coeffs, powers)) + abs(eps) * bump
        return float(exact), float(scale)


def test_quadrature_matches_exact_antiderivatives(monkeypatch):
    # the logistic and polynomial family members and their eps*u*exp(-u/s)
    # perturbations, s = max(1, xi) of the base, from q down to the stable
    # zero.  Near xi the value of f cancels, so the bound scales with M = int
    # of the terms' magnitudes, not with |int f|: Horner's gamma(8), the
    # nodes' rounding (3 each, times the degree 4), and the rule's 43, all
    # of M; a perturbed member also keeps the tolerance max(1e-14,
    # 1e-12*|int f|), met by the estimate |K21 - G10|, which exceeds the
    # Kronrod error on these analytic f.  A polynomial takes one panel
    calls = _count_kronrod(monkeypatch)
    cases = [(make_logistic(r), (r, -r), 0.0, 1.0) for r in (0.5, 1.0, 3.0)] + [
        (f, coeffs, 0.0, 1.0) for f, coeffs in _family(12)]
    for f, coeffs, _, _ in cases[:6]:
        pair = make_perturbation_pair(f, 0.05)
        s = max(1.0, f.stable_zero)
        cases += [(pair.lower, coeffs, -0.05, s), (pair.upper, coeffs, 0.05, s)]
    for f, coeffs, eps, s in cases:
        xi = f.stable_zero
        for q in (xi, xi * (1.0 + 1e-9), 1.05 * xi, 1.7 * xi, 2.0 * xi, 3.0 * xi, 0.5 * xi):
            calls.clear()
            ours = phaseplane._quad(f, q, xi, epsabs=1e-14, epsrel=1e-12)
            exact, scale = _member_integrals(f, coeffs, eps, q, s)
            tolerance = max(1e-14, 1e-12 * abs(exact)) if eps else 0.0
            assert abs(ours - exact) <= tolerance + _gamma(64) * scale, (f.label, q)
            assert eps or len(calls) == 1, (f.label, q)
    assert closed_form_zero_speed(2.0, 1.0, make_logistic(1.0)) == pytest.approx(
        -math.sqrt(5.0 / 3.0), rel=4 * U)


def test_quadrature_bisects_far_ranges_to_quads_accuracy(monkeypatch):
    # the exponential perturbation is not resolved by one panel on [xi, 150 xi]
    from scipy.integrate import quad

    calls = _count_kronrod(monkeypatch)
    pair = make_perturbation_pair(make_logistic(1.0), 0.05)
    panels = []
    for f in (pair.lower, pair.upper, make_logistic(1.0)):
        xi = f.stable_zero
        calls.clear()
        ours = phaseplane._quad(f, 150.0 * xi, xi, epsabs=1e-14, epsrel=1e-12)
        theirs, _ = quad(f, 150.0 * xi, xi, epsabs=1e-14, epsrel=1e-12, limit=200)
        assert abs(ours - theirs) <= 1e-12 * abs(theirs)
        panels.append(len(calls))
    assert panels[0] > 1 and panels[1] > 1 and panels[2] == 1


def test_quadrature_stops_on_its_error_estimate(monkeypatch):
    # one panel when its own |K21 - G10| meets max(epsabs, epsrel*|I|), halved
    # panels otherwise, and within that tolerance of the exact integral (the
    # rounding here is below 1e-15 of it); a scalar integrand counts for
    # every node
    calls = _count_kronrod(monkeypatch)
    lower = make_perturbation_pair(make_logistic(1.0), 0.05).lower
    far, _ = _member_integrals(lower, (1.0, -1.0), -0.05, 150.0 * lower.stable_zero)
    cases = [(make_logistic(1.0), 2.0, 1.0, 5.0 / 6.0, True), (lambda u: 3.0, 0.0, 2.0, 6.0, True),
             (lower, 150.0 * lower.stable_zero, lower.stable_zero, far, False),
             (lambda u: 1.0 + 1e-12 * (u > 0.37), 0.0, 1.0, 1.0 + 0.63e-12, True),
             (lambda u: 1.0 + 1e-10 * (u > 0.37), 0.0, 1.0, 1.0 + 0.63e-10, False)]
    for f, a, b, exact, one_panel in cases:
        calls.clear()
        ours = phaseplane._quad(f, a, b, epsabs=1e-14, epsrel=1e-12)
        value, error = calls[0]
        assert (len(calls) == 1) == (error <= max(1e-14, 1e-12 * abs(value))) == one_panel
        assert abs(ours - exact) <= max(1e-14, 1e-12 * abs(exact))


def test_quadrature_that_cannot_converge_is_a_numerical_error():
    # an oscillation of size 1e-8 and period 6e-6 needs far more than
    # QUAD_PANELS panels; scipy's quad only warns here
    noisy = ReactionFunction(lambda u: u * (1.0 - u) + 1e-8 * np.sin(1e6 * u),
                             lambda u: 1.0 - 2.0 * u, 1.0, "noisy")
    with pytest.raises(NumericalError, match=f"did not converge in {phaseplane.QUAD_PANELS} panels"):
        closed_form_zero_speed(2.0, 1.0, noisy)


# -- the P < 0 check on each step's quartic --

@pytest.mark.parametrize("spec, d, delta", LANE_PROBLEMS)
@pytest.mark.parametrize("lanes", [1, 50])
def test_clean_trajectories_need_no_samples(monkeypatch, spec, d, delta, lanes):
    f = parse_reaction(spec)
    solves = _capture_solves(monkeypatch)
    low = bracket_low(d, f, delta)
    integrate_trajectories(np.linspace(low, 0.0, lanes) if lanes > 1 else [0.5 * low], d, f, delta)
    assert np.all(phaseplane._step_bounds(solves[-1][-1].dense) < 0.0)


def _poison_step(monkeypatch, pick, coefficients):
    """Overwrite the last lane's quartic on the step ``pick(steps, sample spacing)``."""
    solve = phaseplane.solve_ivp

    def poisoning(*args, **kwargs):
        sol = solve(*args, **kwargs)
        spacing = (sol.t[-1] - sol.t[0]) / (phaseplane.TRAJECTORY_SAMPLES - 1)
        step = pick(sol.t, spacing)
        h = sol.t[step + 1] - sol.t[step]
        sol.dense.c[:, step, -1] = coefficients(h, sol.dense.c[-1, step, -1])
        return sol

    monkeypatch.setattr(phaseplane, "solve_ivp", poisoning)


def _bump(h, p0):
    # p0 + A*(s*(h - s))**2: P(0) = P(h) = p0 < 0, and 2|p0| above zero at s = h/2
    A = -48.0 * p0 / h**4
    return [A, -2.0 * h * A, h * h * A, 0.0, p0]


def _widest(t, spacing):
    return int(np.argmax(np.diff(t)))


def _sample_free(t, spacing):
    # a step narrower than the samples' spacing that holds none of them
    q = np.linspace(t[0], t[-1], phaseplane.TRAJECTORY_SAMPLES)
    holding = np.unique(np.searchsorted(t[1:-1], q, "right"))
    free = np.setdiff1d(np.arange(len(t) - 1), holding)
    assert free.size
    return int(free[-1])


@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("coefficients", [
    _bump,
    lambda h, p0: [np.nan, 0.0, 0.0, 0.0, p0],  # only the leading coefficient
])
def test_step_check_rejects_what_a_sample_reaches(monkeypatch, logistic1, lanes, coefficients):
    _poison_step(monkeypatch, _widest, coefficients)
    cs = np.linspace(-0.9, -0.1, lanes)
    with pytest.raises(NumericalError, match=f"lower half plane at c={cs[-1]:g};"):
        integrate_trajectories(cs, 1.0, logistic1, 2.0)


def test_step_check_passes_a_bump_no_sample_reaches(monkeypatch, logistic1):
    # the verdict is the scan's: a step between two samples is not sampled
    _poison_step(monkeypatch, _sample_free, _bump)
    integrate_trajectories([-0.9, -0.5], 1.0, logistic1, 2.0)
