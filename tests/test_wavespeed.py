import math

import numpy as np
import pytest

from retreatwave import phaseplane, wavespeed
from retreatwave import (
    BracketError,
    InputError,
    IntegrationOptions,
    NumericalError,
    ReactionFunction,
    bracket_low,
    bracketing_sequences,
    closed_form_zero_speed,
    density_sweep,
    find_wave_speed,
    integrate_trajectory,
    make_polynomial,
    perturbed_wave_speeds,
    reconstruct_profile,
    residual_monotonicity_audit,
    residual_slope,
    slope_residual,
)

# Reference values from an independent fixed-step RK4 + bisection shooting
# run (25k-100k steps agree to ~4e-12).
C_STAR_REF = -0.8935219495
C_STAR_REF_DELTA6 = -3.9043268315
C_STAR_REF_XI12 = -0.9425315416  # f(u) = 0.8*u*(1.2 - u), delta = 2.5


def test_residual_at_zero_speed_is_closed_form(logistic1):
    r = slope_residual(0.0, 1.0, logistic1, 2.0)
    assert r == pytest.approx(-math.sqrt(5.0 / 3.0), abs=1e-9)
    assert r < 0.0


def test_residual_positive_at_bracket_low(logistic1):
    c0 = 1.0 * closed_form_zero_speed(2.0, 1.0, logistic1)
    assert slope_residual(c0, 1.0, logistic1, 2.0) > 0.0


@pytest.mark.parametrize("xi", [0.01, 0.3, 0.7, 1.0, 2.0, 100.0])
def test_bracket_low_residual_is_positive_for_any_stable_zero(xi):
    # r(c) > -c*xi/d - |P0(delta)| for every monostable f, and that is 0 at c0
    f = make_polynomial((xi, -1.0))
    delta = 1.2 * xi
    c0 = bracket_low(1.0, f, delta)
    assert c0 == closed_form_zero_speed(delta, 1.0, f) / xi
    assert slope_residual(c0, 1.0, f, delta) > 0.0 > slope_residual(0.0, 1.0, f, delta)


@pytest.mark.parametrize("d, delta", [(1.0, 2.0), (0.5, 1.2), (2.0, 3.0)])
def test_logistic_bracket_low_is_bit_equal_to_d_p0(logistic1, d, delta):
    assert bracket_low(d, logistic1, delta) == d * closed_form_zero_speed(delta, d, logistic1)


def test_bracket_low_rejects_non_finite_input(logistic1):
    for d, delta in ((1.0, math.nan), (1.0, math.inf), (math.inf, 2.0)):
        with pytest.raises(InputError):
            bracket_low(d, logistic1, delta)
    with pytest.raises(InputError):
        residual_monotonicity_audit(1.0, logistic1, math.nan, 20)


def test_failed_bracket_sign_check_raises(logistic1, monkeypatch):
    # the sign of r(bracket_low) is proven, so only a broken bound can fail it
    monkeypatch.setattr(wavespeed, "closed_form_zero_speed", lambda *args: -1e-3)
    with pytest.raises(BracketError, match="bracket sign check failed"):
        find_wave_speed(1.0, logistic1, 2.0)


def test_residual_is_reproducible(logistic1):
    a = slope_residual(-0.5, 1.0, logistic1, 2.0)
    b = slope_residual(-0.5, 1.0, logistic1, 2.0)
    assert a == b


@pytest.mark.parametrize("d", [0.5, 2.0])
@pytest.mark.parametrize("delta", [1.2, 3.0])
def test_bracket_signs_across_parameters(logistic1, d, delta):
    c0 = d * closed_form_zero_speed(delta, d, logistic1)
    assert slope_residual(c0, d, logistic1, delta) > 0.0
    assert slope_residual(0.0, d, logistic1, delta) < 0.0


def test_residual_strictly_decreasing_on_grid(logistic1):
    c0 = closed_form_zero_speed(2.0, 1.0, logistic1)
    cs = np.linspace(c0, 0.0, 50)
    vals = [slope_residual(c, 1.0, logistic1, 2.0) for c in cs]
    assert np.all(np.diff(vals) < 0.0)
    lanes = slope_residual(cs, 1.0, logistic1, 2.0)
    assert isinstance(vals[0], float) and lanes.shape == (50,)
    assert np.max(np.abs(lanes - vals)) <= 1e-9


def test_residual_ordering_examples(logistic1):
    r1 = slope_residual(-0.5, 1.0, logistic1, 2.0)
    r2 = slope_residual(-0.4, 1.0, logistic1, 2.0)
    assert r1 > r2


def test_find_wave_speed_canonical(speed_ref):
    assert speed_ref.c_star == pytest.approx(C_STAR_REF, abs=1e-8)
    assert speed_ref.residual <= 1e-10
    assert speed_ref.bracket[0] < speed_ref.c_star < speed_ref.bracket[1] == 0.0
    assert speed_ref.bracket[0] == pytest.approx(-math.sqrt(5.0 / 3.0), abs=1e-12)
    assert speed_ref.retreat_speed == -speed_ref.c_star


SEARCH_PROBLEMS = [
    (1.0, (1.0, -1.0), 2.0, 1e-10),
    (1.0, (0.7, -1.0), 1.2, 1e-10),
    (0.05, (1.0, -1.0), 20.0, 1e-12),
    (1.0, (100.0, -1.0), 150.0, 1e-10),
]


@pytest.mark.parametrize(
    "d, coeffs, delta, tol, calls",
    [
        # the bracket, three Newton steps to |r| <= tol and the one step beyond
        (*SEARCH_PROBLEMS[0], 6),
        (*SEARCH_PROBLEMS[1], 6),
        (*SEARCH_PROBLEMS[2], 9),  # r' grows twelvefold from bracket_low to 0: more steps
        # at the noise floor: Newton steps wander inside the noise band before
        # one lands below tol; the count follows the last bits of P(delta)
        (*SEARCH_PROBLEMS[3], 17),
    ],
)
def test_find_wave_speed_integrates_each_speed_once(monkeypatch, d, coeffs, delta, tol, calls):
    speeds = []

    def counting(c, *args, **kwargs):
        speeds.append(float(c))
        return integrate_trajectory(c, *args, **kwargs)

    profiles = []
    monkeypatch.setattr(wavespeed, "integrate_trajectory", counting)
    monkeypatch.setattr(wavespeed, "reconstruct_profile", profiles.append)
    res = find_wave_speed(d, make_polynomial(coeffs), delta, tol)
    assert len(speeds) == res.function_calls == calls
    assert profiles == []  # the profile is built only when read
    assert len(set(speeds)) == len(speeds)
    assert res.residual <= tol
    assert res.iterations == calls - 2


def test_speed_result_builds_its_profile_once(monkeypatch, logistic1):
    res = find_wave_speed(1.0, logistic1, 2.0)
    built = []

    def building(traj):
        built.append(traj)
        return reconstruct_profile(traj)

    monkeypatch.setattr(wavespeed, "reconstruct_profile", building)
    assert res.profile is res.profile
    assert built == [res.trajectory]


@pytest.mark.parametrize("d, coeffs, delta, tol", SEARCH_PROBLEMS)
def test_residual_slope_matches_central_difference(d, coeffs, delta, tol):
    f = make_polynomial(coeffs)
    tight = IntegrationOptions(rtol=1e-12, atol=1e-14)
    for c in (bracket_low(d, f, delta), find_wave_speed(d, f, delta, tol).c_star, 0.0):
        h = 1e-5 * max(1.0, abs(c))
        r_plus = integrate_trajectory(c + h, d, f, delta, tight).residual
        r_minus = integrate_trajectory(c - h, d, f, delta, tight).residual
        slope = residual_slope(integrate_trajectory(c, d, f, delta), f)
        assert slope == pytest.approx((r_plus - r_minus) / (2.0 * h), rel=1e-5)
        assert -delta / d < slope < -f.stable_zero / d


def test_find_wave_speed_stops_at_the_noise_floor(monkeypatch):
    # tol lies below the integration noise of r at this scale: the search
    # must end with an error, each speed integrated once, that names the
    # smallest |r| of all its integrations (measured: the 14th of 19, not
    # one of the last two)
    trajs = []

    def recording(c, *args, **kwargs):
        trajs.append(integrate_trajectory(c, *args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(wavespeed, "integrate_trajectory", recording)
    with pytest.raises(NumericalError, match="did not reach tol") as failure:
        find_wave_speed(1.0, make_polynomial((100.0, -1.0)), 150.0, tol=1e-12)
    speeds = [traj.c for traj in trajs]
    assert len(set(speeds)) == len(speeds) <= 2 + wavespeed.MAX_SEARCH_STEPS
    best = min(trajs, key=lambda traj: abs(traj.residual))
    assert f"residual {abs(best.residual):.3e} at c={best.c!r} " in str(failure.value)


def test_speed_search_and_sequences_never_call_the_ode_solution(monkeypatch, logistic1):
    # every integration is phaseplane's own RK45 and every read of P goes
    # through the trajectory's piecewise polynomial: scipy's solve_ivp, which
    # starts one of its OdeSolver classes, and OdeSolution are never reached
    from scipy.integrate import OdeSolution, OdeSolver

    calls = []
    solver_init = OdeSolver.__init__
    ode_solution_call = OdeSolution.__call__

    def starting(self, *args, **kwargs):
        calls.append(type(self).__name__)
        solver_init(self, *args, **kwargs)

    def evaluating(self, t):
        calls.append(t)
        return ode_solution_call(self, t)

    monkeypatch.setattr(OdeSolver, "__init__", starting)
    monkeypatch.setattr(OdeSolution, "__call__", evaluating)
    res = find_wave_speed(1.0, logistic1, 2.0)
    bracketing_sequences(1.0, logistic1, 2.0, n_max=1, reference=res)
    assert calls == []


def test_speed_law_consistency(speed_ref):
    assert abs(speed_ref.trajectory.endpoint_slope - speed_ref.c_star * 2.0) <= 1e-9


def test_find_wave_speed_monotone_in_delta(logistic1):
    r1 = find_wave_speed(1.0, logistic1, 1.5)
    r2 = find_wave_speed(1.0, logistic1, 2.5)
    assert r1.c_star > r2.c_star
    assert r1.retreat_speed < r2.retreat_speed


def test_find_wave_speed_scales_with_diffusivity(logistic1):
    # rescaling x by sqrt(d) maps the problem to d=1, so c* scales as sqrt(d)
    r1 = find_wave_speed(1.0, logistic1, 2.0)
    r4 = find_wave_speed(4.0, logistic1, 2.0)
    assert r4.c_star == pytest.approx(2.0 * r1.c_star, rel=1e-7)


def test_find_wave_speed_large_delta(logistic1):
    res = find_wave_speed(1.0, logistic1, 6.0)
    assert res.c_star == pytest.approx(C_STAR_REF_DELTA6, abs=1e-8)
    assert res.residual <= 1e-10


def test_find_wave_speed_shifted_stable_zero():
    from retreatwave import make_polynomial

    f = make_polynomial((0.96, -0.8))  # 0.8*u*(1.2 - u)
    assert f.stable_zero == pytest.approx(1.2, abs=1e-9)
    res = find_wave_speed(1.0, f, 2.5)
    assert res.c_star == pytest.approx(C_STAR_REF_XI12, abs=1e-8)
    assert abs(res.trajectory.endpoint_slope - res.c_star * 2.5) <= 1e-9
    assert res.profile.q_at(80.0) == pytest.approx(1.2, abs=1e-9)


def test_find_wave_speed_rejects_degenerate_delta(logistic1):
    with pytest.raises(InputError):
        find_wave_speed(1.0, logistic1, 1.0 + 1e-8)
    with pytest.raises(InputError):
        find_wave_speed(1.0, logistic1, 2.0, tol=1e-13)
    with pytest.raises(InputError):
        find_wave_speed(1.0, logistic1, 2.0, tol=math.nan)


def test_invalid_reaction_fails_loudly():
    # negative on (1, 1.2), positive on (1.2, 3): violates monostability
    # beyond the zero while keeping a genuine saddle at 1
    def fn(u):
        u = np.asarray(u, dtype=float)
        return u * (1.0 - u) * (u - 1.2) * (u - 3.0)

    def dfn(u):
        h = 1e-7
        return (fn(np.asarray(u) + h) - fn(np.asarray(u) - h)) / (2 * h)

    bad = ReactionFunction(fn, dfn, 1.0, "invalid")
    with pytest.raises((NumericalError, BracketError)):
        find_wave_speed(1.0, bad, 2.5)


def test_sweep_matches_single_and_emits_rows(tmp_path, logistic1):
    table = density_sweep(1.0, logistic1, [2.0])
    table.to_csv(tmp_path / "sweep.csv")
    single = find_wave_speed(1.0, logistic1, 2.0)
    assert table.results[0].c_star == pytest.approx(single.c_star, abs=1e-12)
    text = (tmp_path / "sweep.csv").read_text().splitlines()
    assert text[0] == "delta,c_star,retreat_speed,residual,bracket_low,iterations"
    assert len(text) == 2


def test_sweep_requires_increasing_deltas(logistic1):
    with pytest.raises(InputError):
        density_sweep(1.0, logistic1, [2.0, 1.5])


def test_sweep_continues_past_failures(logistic1):
    table = density_sweep(1.0, logistic1, [1.0000001, 1.5, 2.0])
    assert table.results[0] is None
    assert 1.0000001 in table.errors
    assert table.results[1] is not None and table.results[2] is not None
    table.assert_monotone()


def test_perturbed_speeds_straddle_and_shrink(logistic1, speed_ref):
    # with no c_star_base given, the base speed is searched for
    for base in (speed_ref.c_star, None):
        gaps_lo, gaps_hi = [], []
        for eps in (0.1, 0.05, 0.025):
            ps = perturbed_wave_speeds(1.0, logistic1, 2.0, eps, c_star_base=base)
            assert ps.base_c_star == speed_ref.c_star
            assert ps.lower.c_star < speed_ref.c_star < ps.upper.c_star
            assert ps.lower.residual <= 1e-10 and ps.upper.residual <= 1e-10
            gaps_lo.append(speed_ref.c_star - ps.lower.c_star)
            gaps_hi.append(ps.upper.c_star - speed_ref.c_star)
        assert gaps_lo[0] > gaps_lo[1] > gaps_lo[2] > 0
        assert gaps_hi[0] > gaps_hi[1] > gaps_hi[2] > 0


def test_perturbed_speeds_monotone_in_epsilon(logistic1, speed_ref):
    p1 = perturbed_wave_speeds(1.0, logistic1, 2.0, 0.05, c_star_base=speed_ref.c_star)
    p2 = perturbed_wave_speeds(1.0, logistic1, 2.0, 0.1, c_star_base=speed_ref.c_star)
    assert p2.lower.c_star < p1.lower.c_star
    assert p2.upper.c_star > p1.upper.c_star


def test_perturbed_speeds_rejects_zero_epsilon(logistic1):
    with pytest.raises(InputError):
        perturbed_wave_speeds(1.0, logistic1, 2.0, 0.0)


def test_perturbed_speeds_name_the_member_without_a_semi_wave():
    # the upper member's stable zero, 0.557, lies above delta = 0.525 > xi = 0.5
    with pytest.raises(InputError, match="zero 0.557277 of the upper member at epsilon=0.05"):
        perturbed_wave_speeds(0.5, make_polynomial((0.25, -0.5)), 0.525, 0.05)


def test_sequences_obey_update_law_and_ordering(logistic1, speed_ref):
    upper, lower = bracketing_sequences(
        1.0, logistic1, 2.0, M=10, n_max=40, reference=speed_ref
    )
    c_star = speed_ref.c_star
    for run, sign in ((upper, +1.0), (lower, -1.0)):
        cl = np.asarray(run.c_list)
        assert np.all(np.diff(cl) < 0) if sign > 0 else np.all(np.diff(cl) > 0)
        assert np.all(cl > c_star) if sign > 0 else np.all(cl < c_star)
        for n in range(len(run.c_list) - 1):
            expected = 0.5 * run.slope_list[n] + sign / (run.M + n)
            assert run.c_list[n + 1] == expected  # float-exact update law
    assert upper.c_list[0] == 0.0
    assert upper.c_list[1] == 0.5 * upper.slope_list[0] + 1.0 / upper.M


def test_sequences_profile_gaps_decreasing(logistic1, speed_ref):
    upper, lower = bracketing_sequences(
        1.0, logistic1, 2.0, M=10, n_max=30, reference=speed_ref
    )
    for run in (upper, lower):
        gaps = np.asarray(run.sup_gaps)
        assert np.all(np.diff(gaps) <= 1e-12)
        assert len(gaps) == len(run.c_list) > 3


def test_sequence_iterate_is_one_integration_and_one_profile(monkeypatch, logistic1):
    # a fresh reference: a shared one may have built and kept its profile already
    reference = find_wave_speed(1.0, logistic1, 2.0)
    speeds, built = [], []

    def counting_integrate(c, *args, **kwargs):
        speeds.append(c)
        return integrate_trajectory(c, *args, **kwargs)

    def counting_reconstruct(traj):
        built.append(reconstruct_profile(traj))
        return built[-1]

    monkeypatch.setattr(wavespeed, "integrate_trajectory", counting_integrate)
    monkeypatch.setattr(wavespeed, "reconstruct_profile", counting_reconstruct)
    upper, lower = bracketing_sequences(1.0, logistic1, 2.0, M=10, n_max=30, reference=reference)
    iterates = len(upper.c_list) + len(lower.c_list)
    assert speeds == upper.c_list + lower.c_list
    # the reference's profile, read once for the sup gaps, is the one extra build
    assert len(built) == iterates + 1
    # a profile rebuilt from its speed is the one the sequence built
    for c, prof in zip(speeds, built[1:]):
        rebuilt = reconstruct_profile(integrate_trajectory(c, 1.0, logistic1, 2.0))
        assert np.array_equal(rebuilt.q_at(wavespeed.SUP_GRID), prof.q_at(wavespeed.SUP_GRID))


def test_sequences_reach_the_names_the_benchmark_wraps(monkeypatch, logistic1):
    # perfbench counts integration work through phaseplane.solve_ivp (nfev)
    # and times iterates by wavespeed.reconstruct_profile; a fast path that
    # went round either name would leave those figures empty
    reference = find_wave_speed(1.0, logistic1, 2.0)
    reference.profile  # built here, so the sequences build only their own
    solves, built = [], []
    solve_ivp = phaseplane.solve_ivp

    def counting_solve(fun, t_span, y0, **kwargs):
        calls = []

        def counted(q, p):
            calls.append(q)
            return fun(q, p)

        sol = solve_ivp(counted, t_span, y0, **kwargs)
        solves.append((sol.nfev, len(calls)))
        return sol

    def counting_reconstruct(traj):
        built.append(traj.c)
        return reconstruct_profile(traj)

    monkeypatch.setattr(phaseplane, "solve_ivp", counting_solve)
    monkeypatch.setattr(wavespeed, "reconstruct_profile", counting_reconstruct)
    n_max = 3
    bracketing_sequences(1.0, logistic1, 2.0, M=10, n_max=n_max, reference=reference)
    assert len(solves) == len(built) == 2 * (n_max + 1)
    assert all(nfev == calls > 2 for nfev, calls in solves)


def test_sequences_escalate_m_near_the_root(logistic1, speed_ref):
    upper, _ = bracketing_sequences(
        1.0,
        logistic1,
        2.0,
        c_upper_0=speed_ref.c_star + 1e-4,
        M=10,
        n_max=3,
        reference=speed_ref,
    )
    assert upper.M > 10
    cl = np.asarray(upper.c_list)
    assert np.all(np.diff(cl) < 0) and np.all(cl > speed_ref.c_star)


@pytest.mark.parametrize("start", [{"M": 1}, {"c_upper_0": -0.7471, "M": 10}])
def test_sequences_run_n_max_steps_even_after_a_short_first_step(logistic1, speed_ref, start):
    # first steps shorter than 1/M**2: 0.15 and 0.14 at M = 1, escalated to 2,
    # and 3.3e-4 from c_upper_0 = -0.7471; neither is convergence
    upper, lower = bracketing_sequences(
        1.0, logistic1, 2.0, n_max=20, reference=speed_ref, **start
    )
    assert len(upper.c_list) == len(lower.c_list) == 21
    assert upper.M == lower.M == max(start["M"], 2)
    cu, cl = np.asarray(upper.c_list), np.asarray(lower.c_list)
    assert np.all(np.diff(cu) < 0.0) and np.all(np.diff(cl) > 0.0)
    assert cl[-1] < speed_ref.c_star < cu[-1]


def test_sequences_reject_bad_starts(logistic1, speed_ref):
    with pytest.raises(InputError):
        bracketing_sequences(
            1.0, logistic1, 2.0, c_upper_0=0.5, reference=speed_ref
        )
    with pytest.raises(InputError):
        bracketing_sequences(
            1.0, logistic1, 2.0, c_upper_0=speed_ref.c_star - 0.1, reference=speed_ref
        )
    with pytest.raises(InputError):
        bracketing_sequences(
            1.0, logistic1, 2.0, c_lower_0=speed_ref.c_star + 0.1, reference=speed_ref
        )


def test_speed_result_json_fields(speed_ref):
    payload = speed_ref.to_json_dict()
    for key in (
        "delta",
        "c_star",
        "retreat_speed",
        "bracket_low",
        "residual",
        "iterations",
        "tail_rate",
    ):
        assert key in payload
