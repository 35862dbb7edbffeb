import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from retreatwave import (
    InputError,
    IntegrationOptions,
    NumericalError,
    ReactionFunction,
    closed_form_zero_speed,
    find_wave_speed,
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
    assert np.all(traj.p_at(np.linspace(traj.dense.t_min, 2.0, 2500)) < 0.0)
    assert traj.endpoint_slope == traj.p_at(2.0)


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


def test_series_start_is_converged(logistic1):
    # halving the start offset must leave the endpoint essentially unchanged
    a = integrate_trajectory(
        -0.5, 1.0, logistic1, 2.0, IntegrationOptions(start_offset=1e-8)
    ).endpoint_slope
    b = integrate_trajectory(
        -0.5, 1.0, logistic1, 2.0, IntegrationOptions(start_offset=5e-9)
    ).endpoint_slope
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
