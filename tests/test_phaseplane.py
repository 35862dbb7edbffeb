import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from retreatwave import phaseplane, wavespeed
from retreatwave import (
    Grid1D,
    InputError,
    IntegrationError,
    IntegrationOptions,
    NumericalError,
    ReactionFunction,
    bracket_low,
    bracketing_sequences,
    closed_form_zero_speed,
    find_wave_speed,
    integrate_trajectories,
    integrate_trajectory,
    make_logistic,
    make_perturbation_pair,
    parse_reaction,
    reconstruct_profile,
    residual_monotonicity_audit,
    saddle_slope,
)
from retreatwave.wavespeed import SUP_GRID


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
def test_closed_form_matches_polynomial_oracle(exact_zero_speed, r, d, q):
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
    assert np.all(traj.p_at(np.linspace(1.0, 2.0, 2500)[1:]) < 0.0)
    assert traj.endpoint_slope == traj.p_at(2.0)


def _series_start(c: float, d: float, f: ReactionFunction, delta: float):
    """(q0, P(q0)) of the second-order saddle series P = lam*s + s2*s**2/2 at
    s = q0 - xi = 1e-8*(delta - xi), with s2 = -f''(xi)/(3*d*lam - c) and f''
    by a central difference of f'."""
    xi = f.stable_zero
    lam = saddle_slope(c, d, f)
    h = 6e-6 * max(1.0, xi)
    s2 = -(float(f.deriv(xi + h)) - float(f.deriv(xi - h))) / (2.0 * h) / (3.0 * d * lam - c)
    eta = 1e-8 * (delta - xi)
    return xi + eta, lam * eta + 0.5 * s2 * eta * eta


def _phase_rhs(c: float, d: float, f: ReactionFunction):
    """P' = c/d - f(q)/(d*P) on Python floats, NaN at the pole P = 0."""
    def rhs(q, p):
        dp = d * p
        return c / d - float(f(q)) / dp if dp else math.nan
    return rhs


def reference_solve(c: float, d: float, f: ReactionFunction, delta: float, rtol: float):
    """scipy's DOP853 (Hairer, Norsett and Wanner, Solving ODEs I, 1993) on the
    phase-plane ODE from the saddle series start out to delta."""
    from scipy.integrate import solve_ivp

    rhs = _phase_rhs(c, d, f)
    q0, p0 = _series_start(c, d, f, delta)
    return solve_ivp(lambda q, p: rhs(q, p[0]), (q0, delta), [p0], method="DOP853",
                     rtol=rtol, atol=rtol * 1e-2)


@pytest.mark.parametrize("spec, d, delta", [("logistic:r=1", 1.0, 2.0),
                                            ("custom:3,-2,0.9,-0.6", 0.8, 2.4)])
@pytest.mark.parametrize("lanes", [1, 50])
def test_piecewise_polynomial_matches_ode_solution(spec, d, delta, lanes):
    # P of the first, a middle and the last lane, barycentric interpolation of
    # their collocation nodes, against scipy's DOP853 dense output on 2500
    # points of [xi + 1e-8*(delta - xi), delta], from the saddle series start;
    # measured: at most 7.8e-14 of the lane's max |P|, against the bound 1e-11
    from scipy.integrate import solve_ivp

    f = parse_reaction(spec)
    cs = np.linspace(bracket_low(d, f, delta), 0.0, lanes) if lanes > 1 else [-0.5]
    trajs = integrate_trajectories(cs, d, f, delta)
    assert len(trajs) == lanes
    for lane in sorted({0, lanes // 2, lanes - 1}):
        traj, c = trajs[lane], cs[lane]
        q0, p0 = _series_start(c, d, f, delta)
        ref = solve_ivp(lambda q, p: _phase_rhs(c, d, f)(q, p[0]), (q0, delta), [p0],
                        method="DOP853", rtol=1e-13, atol=1e-16, dense_output=True)
        q = np.linspace(q0, delta, 2500)
        lane = ref.sol(q)[0]
        assert np.max(np.abs(traj.p_at(q) - lane)) <= 1e-11 * np.max(np.abs(lane))
        assert traj.p_at(delta) == traj.endpoint_slope


@pytest.mark.parametrize("lanes", [1, 3])
def test_sample_check_rejects_nan(monkeypatch, logistic1, lanes):
    # a reaction that is NaN at one collocation point of the last lane's
    # problem: the lane's solve is not finite, and the error names its speed
    cs = np.linspace(-0.9, -0.1, lanes)
    grid = phaseplane._collocation_grid

    def poisoning(n, d, f, delta):
        ds, g, D = grid(n, d, f, delta)
        g = g.copy()
        g[n // 2] = np.nan
        return ds, g, D

    monkeypatch.setattr(phaseplane, "_collocation_grid", poisoning)
    with pytest.raises(IntegrationError, match=f"collocation at c={cs[0]:g} is not finite"):
        integrate_trajectories(cs, 1.0, logistic1, 2.0)


def _bump_reaction() -> ReactionFunction:
    # f = -u*(u - 1)*(u - 1.05)*(u - 1.9) is positive on (1.05, 1.9): slow
    # trajectories are pushed up to P = 0 there, where the step size collapses
    poly = -np.polynomial.Polynomial.fromroots([0.0, 1.0, 1.05, 1.9])
    return ReactionFunction(poly, poly.deriv(), 1.0, "bump")


@pytest.mark.parametrize("lanes", [1, 50])
def test_nfev_counts_every_rhs_call(lanes):
    # the benchmark's phaseplane.integrate_nfev sums this field of
    # phaseplane.solve_ivp: over ``lanes`` speeds, solved one at a time, clean
    # integrations, and over up to three, ones that stall and fail after many
    # rejected steps
    f, stalls = parse_reaction("custom:3,-2,0.9,-0.6"), _bump_reaction()
    problems = [(c, 0.8, f, 2.4, True) for c in np.linspace(bracket_low(0.8, f, 2.4), 0.0, lanes)]
    problems += [(c, 1.0, stalls, 2.0, False) for c in np.linspace(-0.5, -0.6, min(lanes, 3))]
    for c, d, g, delta, success in problems:
        calls = []
        rhs = _phase_rhs(c, d, g)
        q0, p0 = _series_start(c, d, g, delta)
        sol = phaseplane.solve_ivp(lambda q, p: calls.append(q) or rhs(q, p), (q0, delta), [p0],
                                   rtol=1e-10, atol=1e-12)
        assert sol.success == success and sol.nfev == len(calls) > 2, c


@pytest.mark.parametrize("lanes", [1, 2])
def test_nan_at_the_start_ends_the_solve_as_a_failure(lanes):
    # a reaction that is NaN everywhere but at xi makes the collocation of one
    # lane, or of the first of a batch, fail as not finite
    nan_reaction = ReactionFunction(lambda u: math.nan * np.asarray(u),
                                    lambda u: 1.0 - 2.0 * np.asarray(u), 1.0, "nan")
    with pytest.raises(IntegrationError, match="c=-0.5 is not finite"):
        integrate_trajectories(np.linspace(-0.5, -0.1, lanes), 1.0, nan_reaction, 2.0)


def test_sorted_points_take_the_pieces_of_a_search(logistic1):
    # the profile's Hermite pieces are looked up by a search of the grid's
    # breakpoints: ascending points, the same points reversed and one point
    # at a time read the same values, at every breakpoint, twice, between
    # them, below 0 (NaN) and beyond x_end (the tail); one at a time at every
    # seventh point and both ends
    profile = reconstruct_profile(integrate_trajectory(-0.4, 1.0, logistic1, 2.0))
    x = profile.x_grid
    t = np.sort(np.concatenate((x, x, np.linspace(x[0] - 1.0, x[-1] + 1.0, 3 * len(x)))))
    assert t[0] < x[0] and t[-1] > x[-1] and len(t) > len(x)
    ascending = profile.q_at(t)
    assert np.array_equal(profile.q_at(t[::-1])[::-1], ascending, equal_nan=True)
    few = np.r_[0:len(t):7, len(t) - 1]
    assert np.array_equal([profile.q_at(point) for point in t[few].tolist()], ascending[few],
                          equal_nan=True)


@pytest.mark.parametrize("spec, d, delta", [("logistic:r=1", 1.0, 2.0),
                                            ("custom:3,-2,0.9,-0.6", 0.8, 2.4)])
def test_log_grid_reads_p_as_a_search_would(spec, d, delta):
    # the profile reads w on the shared unit log grid through one
    # interpolation matrix per degree, times s = (delta - xi)*t; p_at reads
    # it point by point from q.  The two place a point within a few
    # roundings of each other, so they agree to rounding: measured 6.8e-16
    # of max |P|, and the value at delta is the node's own, bit for bit
    f = parse_reaction(spec)
    traj = integrate_trajectory(0.5 * bracket_low(d, f, delta), d, f, delta)
    profile = reconstruct_profile(traj)
    q = profile.q_values
    p = traj.p_at(q)
    assert np.max(np.abs(profile.slopes - p)) <= 1e-14 * np.max(np.abs(p))
    assert profile.slopes[0] == p[0] == traj.endpoint_slope


@pytest.mark.parametrize("gap, message", [
    (1e-3, "not strictly decreasing"),  # q[-1] above xi, ties among the samples before it
    (1e-6, "fell to the stable zero"),
    (1e-9, "fell to the stable zero"),
])
def test_log_points_reject_samples_that_round_together(gap, message):
    # against xi = 1e5, whose spacing is 1.5e-11, these gaps put the tail
    # cutoff below the spacing, or the samples before it within one
    xi = 1e5
    with pytest.raises(NumericalError, match=message):
        phaseplane._profile_samples(xi, xi + gap)
    with pytest.raises(NumericalError, match=message):
        reconstruct_profile(phaseplane.PhaseTrajectory(
            c=0.0, d=1.0, delta=xi + gap, xi=xi, endpoint_slope=-1.0, saddle_slope=-1.0,
            nodes=np.full(phaseplane.N_START + 1, -1.0)))
    q, s = phaseplane._profile_samples(1.0, 2.0)
    assert s[0] == 1.0 and q[0] == 2.0 and q[-1] > 1.0 and np.all(np.diff(q) < 0.0)


def test_problems_of_one_degree_miss_no_cache():
    # every cache of the module is keyed on the degree alone: once one
    # problem has filled them, a search, r'(c) and a profile at another
    # (xi, delta) that ends at the same degree find every operator there
    caches = [v for v in vars(phaseplane).values() if hasattr(v, "cache_info")]
    assert caches
    misses = []
    for spec, d, delta in (("logistic:r=1", 1.0, 2.0), ("custom:3,-2,0.9,-0.6", 0.8, 2.4)):
        f = parse_reaction(spec)
        traj = find_wave_speed(d, f, delta).trajectory
        phaseplane.residual_slope(traj, f)
        reconstruct_profile(traj)
        misses.append([cache.cache_info().misses for cache in caches])
        assert traj.nodes.size == phaseplane.N_START + 1
    assert misses[0] == misses[1]


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
    # 0.75, so c*d in the solved or the checked right-hand side fails.
    # Measured: 5.8e-10 (d = 0.5) and 3.4e-10 (d = 2), the central
    # difference's rounding
    traj = integrate_trajectory(-0.5, d, logistic1, 2.0)
    assert traj.ode_residual(logistic1) < 5e-6


def test_series_start_is_converged(monkeypatch, logistic1):
    # a solve from the Taylor series start at twice the first degree must
    # leave the endpoint unchanged to rounding: the degree is converged where
    # it stops
    a = integrate_trajectory(-0.5, 1.0, logistic1, 2.0)
    monkeypatch.setattr(phaseplane, "N_START", 2 * phaseplane.N_START)
    b = integrate_trajectory(-0.5, 1.0, logistic1, 2.0)
    assert b.nodes.size - 1 == 2 * (a.nodes.size - 1)
    assert abs(a.endpoint_slope - b.endpoint_slope) <= 1e-14


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
    # the residual audit's 50-point grid, solved as one batch: every lane's
    # nodes are those of its own solve, bit for bit, and its P(delta) is
    # within 1e-13 of max |P| of a solve at rtol 1e-13 (measured: 1.7e-16)
    f = parse_reaction(spec)
    cs = np.linspace(bracket_low(d, f, delta), 0.0, 50)
    lanes = integrate_trajectories(cs, d, f, delta)
    ones = [integrate_trajectory(c, d, f, delta) for c in cs]
    tight = IntegrationOptions(rtol=1e-13, atol=1e-15)
    refs = [integrate_trajectory(c, d, f, delta, tight).endpoint_slope for c in cs]
    for lane, one in zip(lanes, ones):
        assert np.array_equal(lane.nodes, one.nodes) and lane.endpoint_slope == one.endpoint_slope
    slopes = [lane.endpoint_slope for lane in lanes]
    assert np.max(np.abs(np.subtract(slopes, refs))) <= 1e-13 * np.max(np.abs(refs))


@pytest.mark.parametrize("spec, d, delta", LANE_PROBLEMS)
@pytest.mark.parametrize("lanes", [1, 3])
def test_endpoint_slope_is_the_value_a_read_gives_at_delta(spec, d, delta, lanes):
    # P(delta) is (delta - xi) times the last node, and a read at delta, which
    # is a node, gives that product bit for bit, in a batch or alone
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
        assert np.array_equal(batch, alone), c


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
    assert str(batch.value) == str(alone.value) and "c=-0.5 " in str(batch.value)


# -- phaseplane's numerics against exact oracles --

U = 2.0**-53  # unit roundoff


def _gamma(n: int) -> float:
    """n*U/(1 - n*U): the relative error of n roundings (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 3.1)."""
    return n * U / (1.0 - n * U)


@pytest.mark.parametrize("lanes", [1, 50])
def test_piecewise_polynomial_meets_its_rounding_bound(lanes):
    # barycentric interpolation of the nodes of the first and last lane of a
    # batch, at points across [0, 1], every node and both ends, against
    # rational arithmetic on the same nodes, weights and points.  Each term
    # a_j = weight_j/(t - t_j) takes two roundings, their sum n + 1 more, each
    # a_j/sum one, and the dot product with the nodes n + 2: to first order
    # the value is within gamma(2n + 8) of (sum |a_j w_j| + |value| sum |a_j|)
    # / |sum a_j|, and a node reads its own value exactly
    f = parse_reaction("custom:3,-2,0.9,-0.6")
    trajs = integrate_trajectories(np.linspace(bracket_low(0.8, f, 2.4), 0.0, lanes), 0.8, f, 2.4)
    n = trajs[0].nodes.size - 1
    nodes, weights = phaseplane._chebyshev(n)[:2]
    t = np.concatenate((np.linspace(0.0, 1.0, 101), nodes))
    exact_nodes = [Fraction(x) for x in nodes.tolist()]
    exact_weights = [Fraction(x) for x in weights.tolist()]
    for traj in {id(trajs[0]): trajs[0], id(trajs[-1]): trajs[-1]}.values():
        values = phaseplane._interpolation(n, t) @ traj.nodes
        w = [Fraction(x) for x in traj.nodes.tolist()]
        for point, value in zip(t.tolist(), values.tolist()):
            if point in nodes:
                assert value == traj.nodes[nodes.tolist().index(point)]
                continue
            a = [wj / (Fraction(point) - tj) for wj, tj in zip(exact_weights, exact_nodes)]
            total = sum(a)
            exact = sum(aj * wj for aj, wj in zip(a, w)) / total
            scale = (sum(abs(aj * wj) for aj, wj in zip(a, w))
                     + abs(exact) * sum(abs(aj) for aj in a)) / abs(total)
            assert abs(Fraction(value) - exact) <= _gamma(2 * n + 8) * scale, point


def _hermite(x, y, dydx, t):
    """The cubic Hermite interpolant of (x, y, dydx) at t, every piece built
    first, NaN outside [x[0], x[-1]]: the reference for ``q_at``."""
    pieces = np.array(phaseplane._hermite_pieces(x, y, dydx, np.arange(len(x) - 1)))
    t = np.asarray(t, dtype=float)
    i = x[1:-1].searchsorted(t, "right")
    out = phaseplane._power_sum(pieces[:, i], t - x[i])
    return np.where((t < x[0]) | (t > x[-1]), np.nan, out)


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
    def ours(t):
        return _hermite(x, y, slopes, t)

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
    def expected(x):
        tail = profile.xi + (profile.q_values[-1] - profile.xi) * np.exp(
            profile.tail_rate * (x - x_end))
        return np.where(x <= x_end, _hermite(profile.x_grid, profile.q_values, profile.slopes, x),
                        tail)

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


@pytest.mark.parametrize("spec, d, delta", LANE_PROBLEMS)
def test_simpson_rules_agree_with_scipys(spec, d, delta):
    # on the profile's own integrand -1/w on the unit log grid, Simpson's
    # rule is scipy's to rounding
    from scipy.integrate import simpson

    f = parse_reaction(spec)
    traj = integrate_trajectory(0.5 * bracket_low(d, f, delta), d, f, delta)
    h = phaseplane.LOG_STEP
    y = -1.0 / (phaseplane._profile_interpolation(traj.nodes.size - 1) @ traj.nodes)
    rounding = 2.0 * _gamma(len(y) + 6) * h * np.sum(np.abs(y))
    ours = h / 3.0 * np.sum(phaseplane._simpson_sums(y))
    assert abs(ours - simpson(y, dx=h)) <= rounding


def _family(n):
    """(spec, coefficients) of f = r*u*(xi - u)*(1 + a*u**2), the property tests' family."""
    rng = np.random.default_rng(7)
    for r, xi, a in rng.uniform((0.5, 0.5, 0.0), (3.0, 2.0, 0.5), (n, 3)).tolist():
        coeffs = (r * xi, -r, r * a * xi, -r * a)
        yield parse_reaction("custom:" + ",".join(repr(c) for c in coeffs)), coeffs


def _recording(f):
    """f, which also keeps the points of each call, and their list."""
    calls = []

    def recording(u):
        calls.append(u)
        return f(u)

    return recording, calls


def _power_misses(a, b):
    """The k <= N_START whose int_a^b t**k by ``_integral`` misses the rational value
    by more than its rounding bound.

    At the degree n of its last call, the rule's two sums of n + 1 terms, the power and the
    scaling by b - a are gamma(2n + 4) of |b - a| * sum_j W_j*|t_j|**k, W = |means|
    @ |coefficient matrix|; the weights means @ matrix themselves are within 3 U
    of exact in their summed error (measured against 40-digit weights up to
    degree 256), which adds 3 U * |b - a| * max|t_j|**k; and each node, from sin**2,
    a product and a sum, is within gamma(11) of |a| + |b - a| of the exact node,
    which moves t**k by k*|t|**(k-1) times that.
    """
    misses = []
    for k in range(phaseplane.N_START + 1):
        power, calls = _recording(lambda t: t**k)
        value = phaseplane._integral(power, a, b)
        t, span = np.abs(calls[-1]), abs(b - a)
        n = t.size - 1
        _, _, _, matrix, means = phaseplane._chebyshev(n)
        weights = np.abs(means) @ np.abs(matrix)
        bound = span * (_gamma(2 * n + 4) * float(weights @ t**k) + 3 * U * float(np.max(t**k)))
        if k:
            bound += _gamma(11) * (abs(a) + span) * k * span * float(weights @ t ** (k - 1))
        exact = (Fraction(b) ** (k + 1) - Fraction(a) ** (k + 1)) / (k + 1)
        if abs(Fraction(value) - exact) > bound:
            misses.append(k)
    return misses


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.5, 2.0), (2.0, 0.5)])
def test_quadrature_is_exact_for_powers_to_the_first_degree(a, b):
    # Clenshaw-Curtis at degree n integrates every polynomial of degree <= n
    # exactly; t**k for k > N_START - 3 has a tail, so it takes the next degree
    assert _power_misses(a, b) == []


def test_planted_wrong_moment_fails_the_power_check(monkeypatch):
    # the mean of T_2 off by 1e-12 of itself, at every degree: each power
    # from t**2 on has a T_2 coefficient, and t**2 misses by far more than
    # its rounding bound
    chebyshev = phaseplane._chebyshev

    def planted(n):
        *rest, means = chebyshev(n)
        means = means.copy()
        means[2] *= 1.0 + 1e-12
        return (*rest, means)

    monkeypatch.setattr(phaseplane, "_chebyshev", planted)
    misses = _power_misses(0.5, 2.0)
    assert 2 in misses and not {0, 1} & set(misses)


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


def test_quadrature_matches_exact_antiderivatives():
    # the logistic and polynomial family members and their eps*u*exp(-u/s)
    # perturbations, s = max(1, xi) of the base, from q down to the stable
    # zero.  Near xi the value of f cancels, so the bound scales with M = int
    # of the terms' magnitudes, not with |int f|: gamma(64) of M.  To first
    # order, Horner's gamma(8), the nodes' rounding (t within 3 U, measured,
    # then a product and a sum, times the degree 4) and the rule's
    # gamma(2n + 4) of its weighted magnitudes at n = N_START (at most 1.8 M
    # here) could add to twice that, but they do not add up: the measured
    # error is at most 0.8 U of M.  A perturbed member also keeps the
    # tolerance max(1e-14, 1e-12*|int f|), met by the tail test on these
    # analytic f, whose coefficients decay geometrically.  A polynomial takes
    # the first degree, and q = xi no call of f
    cases = [(make_logistic(r), (r, -r), 0.0, 1.0) for r in (0.5, 1.0, 3.0)] + [
        (f, coeffs, 0.0, 1.0) for f, coeffs in _family(12)]
    for f, coeffs, _, _ in cases[:6]:
        pair = make_perturbation_pair(f, 0.05)
        s = max(1.0, f.stable_zero)
        cases += [(pair.lower, coeffs, -0.05, s), (pair.upper, coeffs, 0.05, s)]
    for f, coeffs, eps, s in cases:
        xi = f.stable_zero
        for q in (xi, xi * (1.0 + 1e-9), 1.05 * xi, 1.7 * xi, 2.0 * xi, 3.0 * xi, 0.5 * xi):
            recording, calls = _recording(f)
            ours = phaseplane._integral(recording, q, xi)
            exact, scale = _member_integrals(f, coeffs, eps, q, s)
            tolerance = max(1e-14, 1e-12 * abs(exact)) if eps else 0.0
            assert abs(ours - exact) <= tolerance + _gamma(64) * scale, (f.label, q)
            degrees = [u.size - 1 for u in calls]
            assert eps or degrees == ([] if q == xi else [phaseplane.N_START]), (f.label, q)
    assert closed_form_zero_speed(2.0, 1.0, make_logistic(1.0)) == pytest.approx(
        -math.sqrt(5.0 / 3.0), rel=4 * U)


def test_quadrature_raises_its_degree_on_far_ranges_to_quads_accuracy():
    # the exponential perturbation is not resolved at the first degree on
    # [xi, 150 xi], the logistic is
    from scipy.integrate import quad

    pair = make_perturbation_pair(make_logistic(1.0), 0.05)
    taken = []
    for f in (pair.lower, pair.upper, make_logistic(1.0)):
        xi = f.stable_zero
        recording, calls = _recording(f)
        ours = phaseplane._integral(recording, 150.0 * xi, xi)
        theirs, _ = quad(f, 150.0 * xi, xi, epsabs=1e-14, epsrel=1e-12, limit=200)
        assert abs(ours - theirs) <= 1e-12 * abs(theirs)
        taken.append(calls[-1].size - 1)
    assert taken[0] > phaseplane.N_START and taken[1] > phaseplane.N_START
    assert taken[2] == phaseplane.N_START


def test_quadrature_that_cannot_converge_is_a_numerical_error():
    # an oscillation of size 1e-8 and period 6e-6 keeps f's coefficients
    # from decaying at every degree up to N_MAX; scipy's quad only warns here
    noisy = ReactionFunction(lambda u: u * (1.0 - u) + 1e-8 * np.sin(1e6 * u),
                             lambda u: 1.0 - 2.0 * u, 1.0, "noisy")
    with pytest.raises(NumericalError, match=f"not resolved at degree {phaseplane.N_MAX}"):
        closed_form_zero_speed(2.0, 1.0, noisy)


# -- the P < 0 check on the collocation nodes --

@pytest.mark.parametrize("spec, d, delta", LANE_PROBLEMS)
@pytest.mark.parametrize("lanes", [1, 50])
def test_clean_trajectories_need_no_samples(monkeypatch, spec, d, delta, lanes):
    # the check that P < 0 on (xi, delta] reads the nodes, which are all
    # negative on clean trajectories: no sample of P is taken
    def sampling(self, q):
        raise AssertionError("a sample of P was read")

    monkeypatch.setattr(phaseplane.PhaseTrajectory, "p_at", sampling)
    f = parse_reaction(spec)
    low = bracket_low(d, f, delta)
    trajs = integrate_trajectories(np.linspace(low, 0.0, lanes) if lanes > 1 else [0.5 * low],
                                   d, f, delta)
    assert all(np.all(traj.nodes < 0.0) for traj in trajs)


def test_speed_solve_goes_half_way_to_an_end_its_step_crosses(monkeypatch, logistic1):
    # from c = -1.29 the full first Newton step lands at -0.883 (measured),
    # past the end -0.89 above c* = -0.8935: c goes half way to that end,
    # and every later step stays strictly inside the ends
    c_star = find_wave_speed(1.0, logistic1, 2.0).c_star
    start = integrate_trajectory(-1.29, 1.0, logistic1, 2.0)
    bounds = (-1.3, -0.89)
    speeds = []  # the speed of each Newton step's equations
    equations = phaseplane._equations

    def recording(w, c, *args):
        speeds.append(float(c[0, 0]))
        return equations(w, c, *args)

    monkeypatch.setattr(phaseplane, "_equations", recording)
    traj, steps = phaseplane.solve_wave_speed(start, logistic1, bounds)
    assert speeds[1] == pytest.approx(0.5 * (-1.29 + bounds[1]), rel=1e-15)
    assert all(bounds[0] < c < bounds[1] for c in speeds)
    assert abs(traj.c - c_star) <= 1e-12 * abs(c_star) and steps == len(speeds)


def test_speed_solve_doubles_a_degree_too_low_for_c_star(monkeypatch, logistic1):
    # a start solved at degree 4 to rtol 1e-2 holds too few nodes for c* at
    # the default tolerances: the speed solve doubles the degree until the
    # coefficients are resolved, and ends where the search from c_s ends
    res = find_wave_speed(1.0, logistic1, 2.0)
    monkeypatch.setattr(phaseplane, "N_START", 4)
    start = integrate_trajectory(-1.0, 1.0, logistic1, 2.0, IntegrationOptions(rtol=1e-2))
    assert start.nodes.size == 5
    traj, _ = phaseplane.solve_wave_speed(start, logistic1, res.bracket)
    assert traj.nodes.size == res.trajectory.nodes.size
    assert abs(traj.c - res.c_star) <= 1e-12 * abs(res.c_star)


def _poison_node(monkeypatch, value):
    """Set one interior node of the last lane to ``value`` once the lanes are resolved."""
    resolved = phaseplane._resolved

    def poisoning(w, n, opts):
        done = resolved(w, n, opts)
        w[-1, n // 2] = value
        return done

    monkeypatch.setattr(phaseplane, "_resolved", poisoning)


def _bump(h, p0):
    # the leading coefficient A of p0 + A*(s*(h - s))**2, which is 2|p0| above
    # zero at s = h/2
    return -48.0 * p0 / h**4


@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("node", [_bump, lambda h, p0: np.nan])
def test_step_check_rejects_what_a_sample_reaches(monkeypatch, logistic1, lanes, node):
    # a node at or above zero, or NaN, where NaN >= 0 is False too: the
    # check must test w < 0 itself, and it names the lane's speed
    _poison_node(monkeypatch, node(1.0, -1.0))
    cs = np.linspace(-0.9, -0.1, lanes)
    with pytest.raises(NumericalError, match=f"lower half plane at c={cs[-1]:g};"):
        integrate_trajectories(cs, 1.0, logistic1, 2.0)


def test_step_check_passes_a_bump_no_sample_reaches(logistic1):
    # the verdict is the nodes': nodes all below zero whose interpolant rises
    # above zero between two of them pass the trajectory's check, and the
    # profile's check on the log grid, which reads P between the nodes,
    # rejects them
    traj = integrate_trajectory(-0.5, 1.0, logistic1, 2.0)
    n = traj.nodes.size - 1
    traj.nodes = np.full(n + 1, -1.0)
    traj.nodes[n // 2] = -1000.0
    t = np.linspace(0.0, 1.0, 2001)
    assert np.max(phaseplane._interpolation(n, t) @ traj.nodes) > 0.0
    with pytest.raises(NumericalError, match="not negative on the quadrature range"):
        reconstruct_profile(traj)


# -- the collocation against the reference integrator --

def _oracle_problems():
    """Members of the property tests' family f = r*u*(xi - u)*(1 + a*u**2), and
    the epsilon = 0.05 perturbation members of two drawn from speed_family's
    ranges (xi in [1, 2]), each with its d and delta = xi*(1 + s), from a
    fixed seed."""
    rng = np.random.default_rng(11)
    low, high = (0.5, 0.5, 0.0, 0.5, 0.05), (3.0, 2.0, 0.5, 2.0, 2.0)  # r, xi, a, d, s
    rows = [(row, False) for row in rng.uniform(low, high, (3, 5)).tolist()]
    rows += [(row, True) for row in rng.uniform((0.5, 1.0) + low[2:], high, (2, 5)).tolist()]
    problems = []
    for (r, xi, a, d, s), perturbed in rows:
        f = parse_reaction("custom:" + ",".join(repr(c) for c in (r * xi, -r, r * a * xi, -r * a)))
        pair = make_perturbation_pair(f, 0.05)
        members = (pair.lower, pair.upper) if perturbed else (f,)
        problems += [(g, d, xi * (1.0 + s)) for g in members]
    return problems


def _oracle_gaps(problems):
    """The largest relative gaps, over the problems and c in {c0, c*, c_up, 0},
    of P_c(delta) from the package and from ``reference_solve`` at rtol 1e-13;
    of c* from the root, |r_ref(c*)|*d/xi against |c*|; and of the node at xi
    from the saddle slope."""
    gaps = {"P": 0.0, "c*": 0.0, "w(xi)": 0.0}
    for f, d, delta in problems:
        res = find_wave_speed(d, f, delta)
        cs = [res.bracket[0], res.c_star, res.bracket[1], 0.0]
        for c, traj in zip(cs, integrate_trajectories(cs, d, f, delta)):
            p_ref = reference_solve(c, d, f, delta, 1e-13).y[0, -1]
            gaps["P"] = max(gaps["P"], abs(traj.endpoint_slope - p_ref) / abs(p_ref))
            w0 = saddle_slope(c, d, f)
            gaps["w(xi)"] = max(gaps["w(xi)"], abs(traj.nodes[0] - w0) / abs(w0))
        r_ref = reference_solve(res.c_star, d, f, delta, 1e-13).y[0, -1] - delta / d * res.c_star
        gaps["c*"] = max(gaps["c*"], abs(r_ref) * d / f.stable_zero / abs(res.c_star))
    return gaps


ORACLE_BOUNDS = {"P": 1e-12, "c*": 1e-12, "w(xi)": 4.0 * U}


def test_collocation_matches_the_reference_integrator(monkeypatch):
    # measured against DOP853: P 8.9e-14, c* 4.6e-15 and w(xi) 2.1e-16.  w(xi)
    # is the negative root of the saddle's quadratic, so the flat start led to
    # the stable branch.  A drift of c*d in place of c/d in the collocation
    # equations, planted below, fails the same comparison (measured: P 0.11
    # at d = 0.54)
    problems = _oracle_problems()
    gaps = _oracle_gaps(problems)
    assert all(gaps[key] <= bound for key, bound in ORACLE_BOUNDS.items()), gaps
    equations = phaseplane._equations
    monkeypatch.setattr(phaseplane, "_equations",
                        lambda w, c, d, *grid: equations(w, c * d * d, d, *grid))
    planted = _oracle_gaps(problems[:1])
    assert planted["P"] > 1e3 * ORACLE_BOUNDS["P"], planted


def test_collocation_at_twice_the_degree_agrees(monkeypatch):
    # P_c(delta) for c in {c0, c*, c_up, 0} and c* itself, solved from degree
    # N_START and from 2*N_START: measured gaps of at most 1.1e-15 of max |P|
    # and 6.4e-16 of |c*|
    problems = _oracle_problems()

    def solves():
        out = []
        for f, d, delta in problems:
            res = find_wave_speed(d, f, delta)
            cs = [res.bracket[0], res.c_star, res.bracket[1], 0.0]
            trajs = integrate_trajectories(cs, d, f, delta)
            out.append((res.c_star, [t.endpoint_slope for t in trajs], trajs[0].nodes.size))
        return out

    coarse = solves()
    monkeypatch.setattr(phaseplane, "N_START", 2 * phaseplane.N_START)
    for (c, p, size), (c2, p2, size2) in zip(coarse, solves()):
        assert size2 - 1 >= 2 * (size - 1)
        assert abs(c - c2) <= 1e-14 * abs(c2)
        assert np.max(np.abs(np.subtract(p, p2))) <= 1e-13 * np.max(np.abs(p2))


# -- the start of a collocation solve: the Taylor series of w at xi --

# polynomial reactions whose stable zero is exactly a float, with their
# power coefficients from u**1 up: there f/s is a polynomial in s, so its
# Taylor coefficients are exact rationals
EXACT_ZERO_POLYNOMIALS = [
    ("logistic:r=1", (1.0, -1.0), 1.0),
    ("custom:3,-2,0.75,-0.5", (3.0, -2.0, 0.75, -0.5), 1.5),  # 2u(1.5 - u)(1 + u**2/4)
    ("custom:0.5,0,-0.5", (0.5, 0.0, -0.5), 1.0),  # u(1 - u**2)/2
]


def _exact_taylor_rows(coeffs, xi: float, delta: float):
    """span**k * g_k, k = 1 .. TAYLOR_ORDER, in rational arithmetic: g_k =
    f^(k+1)(xi)/(k+1)! is the k-th Taylor coefficient of f/s at s = 0, for
    f = sum_j coeffs[j-1]*u**j, and span = delta - xi scales s to t."""
    xi, span = Fraction(xi), Fraction(delta) - Fraction(xi)
    out = []
    for k in range(1, phaseplane.TAYLOR_ORDER + 1):
        g = sum(Fraction(c) * math.comb(j, k + 1) * xi ** (j - k - 1)
                for j, c in enumerate(coeffs, start=1) if j > k)
        out.append(g * span ** k)
    return out


@pytest.mark.parametrize("spec, coeffs, xi", EXACT_ZERO_POLYNOMIALS,
                         ids=[p[0] for p in EXACT_ZERO_POLYNOMIALS])
def test_taylor_rows_give_the_taylor_coefficients_of_f_over_s(spec, coeffs, xi):
    # the rows applied to the grid's f/s against the exact coefficients.  A
    # node's value carries Horner's rounding of f(q), which cancels near xi,
    # so it is scaled by sum |c_j| q**j / s besides |f/s|; to first order 2m
    # roundings in f (degree m), two in q and s, one in the quotient and n + 1
    # in the row's dot product bound the error by gamma(2m + n + 4) times the
    # scales weighted by |row|.  Measured: at most 0.38 U times that weight
    f = parse_reaction(spec)
    assert f.stable_zero == xi and float(f(xi)) == 0.0
    for delta in (1.01 * xi, 2.0 * xi, 7.3 * xi, 1000.0 * xi):
        for n in (16, 32):
            _, g, _ = phaseplane._collocation_grid(n, 1.0, f, delta)
            rows = phaseplane._taylor_rows(n)
            q = xi + (delta - xi) * phaseplane._chebyshev(n)[0]
            horner = sum(abs(c) * q ** j for j, c in enumerate(coeffs, start=1))
            slope = sum(j * abs(c) * xi ** (j - 1) for j, c in enumerate(coeffs, start=1))
            scale = np.abs(g) + np.concatenate(([slope], horner[1:] / (q[1:] - xi)))
            bound = _gamma(2 * len(coeffs) + n + 4) * (np.abs(rows) @ scale)
            exact = _exact_taylor_rows(coeffs, xi, delta)
            for k, value in enumerate((rows @ g).tolist()):
                assert abs(Fraction(value) - exact[k]) <= bound[k], (delta, n, k + 1)


# problems with every speed of their audit grid: the logistic and the cubic
# keep all three terms there, the large deltas stop some lanes early
START_PROBLEMS = [
    ("logistic:r=1", 1.0, 2.0),
    ("custom:3,-2,0.9,-0.6", 0.8, 2.4),
    ("logistic:r=1", 1.0, 1000.0),
    ("logistic:r=50", 0.05, 40.0),
]


def _start_lanes(spec, d, delta):
    f = parse_reaction(spec)
    cs = np.linspace(bracket_low(d, f, delta), 0.0, 50).tolist()
    lams = [saddle_slope(c, d, f) for c in cs]
    return f, cs, lams, phaseplane._collocation_grid(phaseplane.N_START, d, f, delta)[1]


@pytest.mark.parametrize("spec, d, delta", START_PROBLEMS)
def test_taylor_coefficients_solve_the_equation_term_by_term(spec, d, delta):
    # each kept b_k makes the t**k term of d*w*(w + t*w_t) - c*w + f/s
    # vanish, for the row operator's coefficients of f/s: in rational
    # arithmetic on the float b, that term is within gamma(k + 4) of the
    # sum of its terms' sizes (the rounding of b_k's numerator, denominator
    # and quotient).  A (k + 1) in place of (k + 2) leaves d*lam*b_k there.
    # Every lane of the first two problems keeps all its terms
    f, cs, lams, g = _start_lanes(spec, d, delta)
    gk = (phaseplane._taylor_rows(g.size - 1) @ g).tolist()
    kept = []
    for c, lam in zip(cs, lams):
        b = phaseplane._taylor_coefficients(c, lam, d, gk)
        assert b[0] == lam and len(b) == phaseplane.TAYLOR_ORDER + 1
        order = next((k for k in range(1, len(b)) if b[k] == 0.0), len(b)) - 1
        assert not any(b[order + 1:]), b
        kept.append(order)
        B, D, C = [Fraction(x) for x in b], Fraction(d), Fraction(c)
        for k in range(1, order + 1):
            products = [(k - i + 1) * B[i] * B[k - i] for i in range(k + 1)]
            term = Fraction(gk[k - 1]) + D * sum(products) - C * B[k]
            size = (abs(Fraction(gk[k - 1])) + D * sum(abs(p) for p in products[1:-1])
                    + (abs(C) + D * (k + 2) * abs(B[0])) * abs(B[k]))
            assert abs(term) <= _gamma(k + 4) * size, (c, k)
    if delta < 10.0:
        assert kept == [phaseplane.TAYLOR_ORDER] * len(cs)


@pytest.mark.parametrize("spec, d, delta", START_PROBLEMS)
def test_taylor_start_is_its_series_at_the_nodes_in_any_batch(spec, d, delta):
    # node 0 is the saddle slope exactly; every node is Horner's sum of the
    # lane's coefficients within gamma(2K) of sum |b_k| t**k; and a lane's
    # values are those of its one-lane start, bit for bit
    f, cs, lams, g = _start_lanes(spec, d, delta)
    n = g.size - 1
    start = phaseplane._taylor_start(cs, lams, d, g)
    assert start.shape == (len(cs), n + 1)
    assert start[:, 0].tolist() == [float(lam) for lam in lams]
    gk = (phaseplane._taylor_rows(n) @ g).tolist()
    t = [Fraction(x) for x in phaseplane._chebyshev(n)[0].tolist()]
    for lane, (c, lam) in enumerate(zip(cs, lams)):
        assert np.array_equal(start[lane], phaseplane._taylor_start([c], [lam], d, g)[0]), c
        b = [Fraction(x) for x in phaseplane._taylor_coefficients(c, lam, d, gk)]
        for tj, value in zip(t, start[lane].tolist()):
            exact = sum(bk * tj ** k for k, bk in enumerate(b))
            size = sum(abs(bk) * tj ** k for k, bk in enumerate(b))
            assert abs(Fraction(value) - exact) <= _gamma(2 * phaseplane.TAYLOR_ORDER) * size


def test_taylor_start_is_flat_where_the_series_diverges(logistic1):
    # at delta = 1000, c = 0 the first term already outgrows the saddle slope
    # at delta (b_1 = -999/3 against lam = -1): the series stops there, and
    # the start is the tangent line w = lam + b_1*t, flat from order 2 on.
    # A tangent that is not finite, or over a denominator that rounds to 0,
    # leaves the start flat, w = lam
    d, delta = 1.0, 1000.0
    g = phaseplane._collocation_grid(phaseplane.N_START, d, logistic1, delta)[1]
    lam = saddle_slope(0.0, d, logistic1)
    gk = (phaseplane._taylor_rows(g.size - 1) @ g).tolist()
    b = phaseplane._taylor_coefficients(0.0, lam, d, gk)
    assert b[0] == lam and b[1] == gk[0] / (-3.0 * d * lam) < 100.0 * lam
    assert b[2:] == [0.0, 0.0]
    start = phaseplane._taylor_start([0.0], [lam], d, g)
    assert np.array_equal(start[0], lam + b[1] * phaseplane._chebyshev(g.size - 1)[0])
    for lam0, gk0 in ((lam, math.inf), (lam, math.nan), (-0.0, 1.0)):
        flat = phaseplane._taylor_coefficients(0.0, lam0, d, [gk0, 0.0, 0.0])
        assert flat == [lam0, 0.0, 0.0, 0.0], (lam0, gk0)


def _count_equations(monkeypatch):
    """The lane count of each call of ``_equations``, recorded from now on."""
    lanes = []
    equations = phaseplane._equations

    def counting(w, c, *grid):
        lanes.append(len(w))
        return equations(w, c, *grid)

    monkeypatch.setattr(phaseplane, "_equations", counting)
    return lanes


def _flat_start(cs, lams, d, g):
    return np.repeat(np.array(lams, dtype=float)[:, None], g.size, axis=1)


@pytest.mark.parametrize("spec, d, delta", [
    ("logistic:r=1", 1.0, 1000.0),
    ("logistic:r=1", 1.0, 1e4),
    ("custom:0.7,-1", 1.0, 1000.0),
    ("custom:3,-2,0.9,-0.6", 0.8, 151.5),
    ("logistic:r=50", 0.05, 40.0),
])
def test_large_delta_audits_take_no_more_newton_steps_than_the_flat_start(
        monkeypatch, spec, d, delta):
    # measured with the series: 19, 24 (up to the failure at degree N_MAX at
    # delta = 1e4), 19, 11 and 10 calls; with the flat start 20, 25, 20, 17
    # and 11
    f = parse_reaction(spec)
    lanes = _count_equations(monkeypatch)
    counts = []
    for start in (phaseplane._taylor_start, _flat_start):
        monkeypatch.setattr(phaseplane, "_taylor_start", start)
        lanes.clear()
        try:
            residual_monotonicity_audit(d, f, delta, 50)
        except IntegrationError:
            assert delta == 1e4
        counts.append(len(lanes))
    assert counts[0] <= counts[1], counts


@pytest.mark.parametrize("spec, d, delta, calls", [
    ("logistic:r=1", 1.0, 1000.0, 19),
    ("logistic:r=1", 1.0, 1e4, 24),
    ("custom:0.7,-1", 1.0, 1000.0, 19),
    ("custom:3,-2,0.9,-0.6", 0.8, 151.5, 11),
    ("logistic:r=50", 0.05, 40.0, 10),
])
def test_large_delta_audits_start_their_diverging_lanes_on_the_tangent(
        monkeypatch, spec, d, delta, calls):
    # the lanes whose series stops at order 1, c = 0 among them, keep b_1:
    # with b_1 dropped as well the audits took 20, 25, 20, 17 and 11 calls
    f = parse_reaction(spec)
    lanes = _count_equations(monkeypatch)
    try:
        residual_monotonicity_audit(d, f, delta, 50)
    except IntegrationError:
        assert delta == 1e4
    assert len(lanes) == calls


def test_criterion_6_newton_steps_per_sequence_solve(monkeypatch, logistic1, speed_ref):
    # each of the 401 two-lane solves takes two steps with both lanes; only
    # the upper lane of the first three (c = 0, -0.545, -0.696, whose starts
    # are 5.3e-3, 2.1e-3 and 1.5e-3 off the solution) takes a third alone.
    # From the flat start every solve took four two-lane steps
    lanes = _count_equations(monkeypatch)
    per_solve = []
    solve = phaseplane.integrate_trajectories

    def recording(cs, *args):
        lanes.clear()
        out = solve(cs, *args)
        per_solve.append(list(lanes))
        return out

    monkeypatch.setattr(wavespeed, "integrate_trajectories", recording)
    bracketing_sequences(1.0, logistic1, 2.0, c_upper_0=0.0, c_lower_0=speed_ref.c_star - 1.0,
                         M=10, n_max=400, reference=speed_ref)
    assert per_solve[:3] == [[2, 2, 1]] * 3
    assert per_solve[3:] == [[2, 2]] * 398


# -- the module's raises that no other test reaches --

def test_collocation_points_that_round_to_the_stable_zero_raise(logistic1):
    # delta one ulp above xi = 1: span * t_1 is far below one ulp of 1
    with pytest.raises(NumericalError, match="collocation points fell to the stable zero"):
        integrate_trajectory(-0.5, 1.0, logistic1, math.nextafter(1.0, 2.0))


def test_singular_jacobian_names_its_lane(monkeypatch, logistic1):
    # a stand-in zeroes the Jacobian of the lane at c = -0.7 alone
    equations = phaseplane._equations

    def singular(w, c, *grid):
        F, J = equations(w, c, *grid)
        J[c[:, 0] == -0.7] = 0.0
        return F, J

    monkeypatch.setattr(phaseplane, "_equations", singular)
    with pytest.raises(IntegrationError, match=r"singular at c=-0\.7$"):
        integrate_trajectories([-0.5, -0.7, -0.9], 1.0, logistic1, 2.0)


def test_lane_unresolved_at_the_largest_degree_raises(logistic1):
    # the audit grid at delta = 1e4: the lane at c = 0 still has coefficients
    # above the tolerances at degree N_MAX
    cs = np.linspace(bracket_low(1.0, logistic1, 1e4), 0.0, 50)
    message = f"c=0 is not resolved at degree {phaseplane.N_MAX}"
    with pytest.raises(IntegrationError, match=message):
        integrate_trajectories(cs, 1.0, logistic1, 1e4)


def test_speed_solve_that_is_not_finite_raises(monkeypatch, logistic1, speed_ref):
    # a stand-in makes the equations' values NaN once the start is solved
    start = integrate_trajectory(-1.0, 1.0, logistic1, 2.0)
    equations = phaseplane._equations
    monkeypatch.setattr(phaseplane, "_equations",
                        lambda w, c, *grid: (np.nan * w, equations(w, c, *grid)[1]))
    with pytest.raises(IntegrationError, match=r"speed solve from c=-1\.0 is not finite"):
        phaseplane.solve_wave_speed(start, logistic1, speed_ref.bracket)


def test_speed_solve_unresolved_at_the_largest_degree_raises(logistic1, speed_ref):
    # tolerances of 0 hold no coefficients but zeros: the degree doubles up
    # to N_MAX, and the solve raises there
    start = integrate_trajectory(-1.0, 1.0, logistic1, 2.0)
    with pytest.raises(IntegrationError, match=f"not resolved at degree {phaseplane.N_MAX}"):
        phaseplane.solve_wave_speed(start, logistic1, speed_ref.bracket,
                                    IntegrationOptions(rtol=0.0, atol=0.0))


def test_profile_whose_abscissae_stall_raises(monkeypatch, logistic1):
    # a stand-in zeroes one Simpson panel, so two abscissae coincide
    sums = phaseplane._simpson_sums

    def stalled(y):
        out = sums(y)
        out[7] = 0.0
        return out

    monkeypatch.setattr(phaseplane, "_simpson_sums", stalled)
    with pytest.raises(NumericalError, match="abscissae are not strictly increasing"):
        reconstruct_profile(integrate_trajectory(-0.5, 1.0, logistic1, 2.0))
