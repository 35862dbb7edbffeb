import dataclasses
import math

import numpy as np
import pytest

from retreatwave import phaseplane, wavespeed
from retreatwave import (
    BracketError,
    InputError,
    IntegrationError,
    IntegrationOptions,
    NumericalError,
    ReactionFunction,
    SequenceOrderingError,
    bracket_low,
    bracketing_sequences,
    closed_form_zero_speed,
    density_sweep,
    find_wave_speed,
    integrate_trajectories,
    integrate_trajectory,
    make_perturbation_pair,
    make_polynomial,
    parse_reaction,
    perturbed_wave_speeds,
    reconstruct_profile,
    residual_monotonicity_audit,
    residual_slope,
    slope_residual,
)
from retreatwave.phaseplane import solve_wave_speed
from retreatwave.wavespeed import DEFAULT_TOL

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
        for call in (bracket_low, find_wave_speed):
            with pytest.raises(InputError):
                call(d, logistic1, delta)
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
    c_low, c_up = speed_ref.bracket
    assert c_low < speed_ref.c_star < c_up == c_low / 2.0  # c_up = c0*xi/delta
    assert c_low == pytest.approx(-math.sqrt(5.0 / 3.0), abs=1e-12)
    assert speed_ref.retreat_speed == -speed_ref.c_star


SEARCH_PROBLEMS = [
    (1.0, (1.0, -1.0), 2.0, 1e-10),
    (1.0, (0.7, -1.0), 1.2, 1e-10),
    (0.05, (1.0, -1.0), 20.0, 1e-12),
    (1.0, (100.0, -1.0), 150.0, 1e-10),
]


@pytest.mark.parametrize(
    "d, coeffs, delta, tol, steps",
    [
        # one start solve at c_s and one speed solve, of these Newton steps
        (*SEARCH_PROBLEMS[0], 3),
        (*SEARCH_PROBLEMS[1], 3),
        # tol 1e-12 lies below the residual's rounding floor here (1.1e-12):
        # the search ends after its two solves with an error naming the floor
        (*SEARCH_PROBLEMS[2], None),
        # the floor (6.2e-13 here) lies far below tol
        (*SEARCH_PROBLEMS[3], 3),
    ],
    ids=["logistic", "xi-0.7", "d-0.05", "noise-floor"],  # a re-pinned count keeps its id
)
def test_find_wave_speed_integrates_each_speed_once(monkeypatch, d, coeffs, delta, tol, steps):
    speeds, solves, profiles = [], [], []

    def counting(c, *args, **kwargs):
        speeds.append(float(c))
        return integrate_trajectory(c, *args, **kwargs)

    def solving(start, *args, **kwargs):
        solves.append(solve_wave_speed(start, *args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(wavespeed, "integrate_trajectory", counting)
    monkeypatch.setattr(wavespeed, "solve_wave_speed", solving)
    monkeypatch.setattr(wavespeed, "reconstruct_profile", profiles.append)
    f = make_polynomial(coeffs)
    xi = f.stable_zero
    c_low = bracket_low(d, f, delta)
    if steps is None:
        with pytest.raises(NumericalError, match="lies below the reachable floor"):
            find_wave_speed(d, f, delta, tol)
    else:
        res = find_wave_speed(d, f, delta, tol)
        assert (res.function_calls, res.iterations) == (2, steps)
        assert res.residual <= tol and res.bracket == (c_low, c_low * xi / delta)
        assert res.trajectory is solves[0][0]
    assert profiles == []  # the profile is built only when read
    # the start c_s = 2*d*P0(delta)/(xi + delta), never a proven end or 0
    assert speeds == [2.0 * c_low * xi / (xi + delta)] and len(solves) == 1


def test_speed_result_builds_its_profile_once(monkeypatch, logistic1):
    res = find_wave_speed(1.0, logistic1, 2.0)
    built = []

    def building(traj):
        built.append(traj)
        return reconstruct_profile(traj)

    monkeypatch.setattr(wavespeed, "reconstruct_profile", building)
    assert res.profile is res.profile
    assert built == [res.trajectory]


@pytest.mark.parametrize("d, coeffs, delta, _tol", SEARCH_PROBLEMS)
def test_residual_slope_matches_central_difference(d, coeffs, delta, _tol):
    # r'(c) at the proven lower end, at c* (searched at the default tol, which
    # every problem here can reach) and at 0
    f = make_polynomial(coeffs)
    tight = IntegrationOptions(rtol=1e-12, atol=1e-14)
    for c in (bracket_low(d, f, delta), find_wave_speed(d, f, delta).c_star, 0.0):
        h = 1e-5 * max(1.0, abs(c))
        r_plus = integrate_trajectory(c + h, d, f, delta, tight).residual
        r_minus = integrate_trajectory(c - h, d, f, delta, tight).residual
        slope = residual_slope(integrate_trajectory(c, d, f, delta), f)
        assert slope == pytest.approx((r_plus - r_minus) / (2.0 * h), rel=1e-5)
        assert -delta / d < slope < -f.stable_zero / d


def test_find_wave_speed_stops_at_the_noise_floor(monkeypatch):
    # at tol 1e-12 the residual's rounding floor, 4*eps*|delta*c/d| = 6.2e-13
    # here, lies below tol: the search reaches it.  c* agrees with the solve
    # at twice the degree and lies inside the proven ends, above item 12's
    # c_G = -sqrt(d*G(delta)/xi), G = (delta**2 - xi**2)/2 for f = u*(xi - u)
    f, d, delta, xi = make_polynomial((100.0, -1.0)), 1.0, 150.0, 100.0
    res = find_wave_speed(d, f, delta, tol=1e-12)
    monkeypatch.setattr(phaseplane, "N_START", 2 * phaseplane.N_START)
    fine = find_wave_speed(d, f, delta, tol=1e-12)
    assert res.residual <= 1e-12 and fine.residual <= 1e-12
    assert fine.trajectory.nodes.size - 1 == 2 * (res.trajectory.nodes.size - 1)
    assert abs(res.c_star - fine.c_star) <= 1e-13 * abs(fine.c_star)
    c_g = -math.sqrt(d * (delta**2 - xi**2) / 2.0 / xi)
    assert max(c_g, res.bracket[0]) < res.c_star < res.bracket[1]


def test_speed_search_and_sequences_never_call_the_ode_solution(monkeypatch, logistic1):
    # every solve is phaseplane's own collocation and every read of P
    # interpolates the trajectory's nodes: scipy's solve_ivp, which starts
    # one of its OdeSolver classes, and OdeSolution are never reached
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
    assert text[0] == "delta,c_star,retreat_speed,residual,bracket_low,iterations,dc_ddelta"
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


SWEEP_REACTIONS = [
    ("logistic:r=1", 1.0),
    ("custom:0.7,-1", 2.0),
    ("custom:3,-2,0.9,-0.6", 0.8),
]
TIGHT = IntegrationOptions(rtol=1e-12, atol=1e-14)


def _counting(monkeypatch):
    """Record the speed of every fixed-speed solve wavespeed starts."""
    speeds = []

    def counting(c, *args, **kwargs):
        speeds.append(float(c))
        return integrate_trajectory(c, *args, **kwargs)

    monkeypatch.setattr(wavespeed, "integrate_trajectory", counting)
    return speeds


def _start(d, f, delta):
    """The speed c_s = 2*d*P0(delta)/(xi + delta) every search starts from."""
    xi = f.stable_zero
    return 2.0 * bracket_low(d, f, delta) * xi / (xi + delta)


@pytest.mark.parametrize("spec, d", SWEEP_REACTIONS)
def test_sweep_dc_ddelta_certifies_an_increasing_retreat_speed(spec, d):
    # dr/ddelta = -f(delta)/(d P) < 0 and r'(c) < 0, so dc*/ddelta < 0 at
    # every row: the retreat speed increases strictly in delta
    f = parse_reaction(spec)
    xi = f.stable_zero
    table = density_sweep(d, f, [xi * s for s in (1.0001, 1.01, 1.1, 1.5, 2.0, 3.0, 5.0)])
    assert not table.errors
    assert all(slope < 0.0 for slope in table.dc_ddelta)
    table.assert_monotone()


@pytest.mark.parametrize("spec, d", SWEEP_REACTIONS)
def test_sweep_dc_ddelta_matches_central_difference(spec, d):
    # against (c*(delta + h) - c*(delta - h)) / 2h from two rtol 1e-12 solves
    # at h = 1e-4*(delta - xi): the largest relative gap measured over these
    # rows is 7.1e-9, so the bound 1e-7 leaves a margin of 14
    f = parse_reaction(spec)
    xi = f.stable_zero
    deltas = [xi * s for s in (1.01, 1.5, 3.0, 5.0)]
    table = density_sweep(d, f, deltas)
    for delta, slope in zip(deltas, table.dc_ddelta):
        h = 1e-4 * (delta - xi)
        c_plus = find_wave_speed(d, f, delta + h, 1e-12, TIGHT).c_star
        c_minus = find_wave_speed(d, f, delta - h, 1e-12, TIGHT).c_star
        assert slope == pytest.approx((c_plus - c_minus) / (2.0 * h), rel=1e-7)


def _assert_agrees_with_cold(res, d, f):
    # |r'| > xi/d, so each speed lies within |r(c)|*d/xi of c*.  |r| is read
    # from an rtol 1e-12 solve of each speed, and each read carries the
    # rounding of P(delta) - delta*c/d, at most its floor
    # FLOOR_ULPS*eps*max(|P(delta)|, |delta*c/d|), which is where the
    # residuals of collocation searches sit
    cold = find_wave_speed(d, f, res.delta)
    r_warm, r_cold = (
        abs(traj.residual) + wavespeed.FLOOR_ULPS * np.finfo(float).eps
        * max(abs(traj.endpoint_slope), abs(traj.delta / d * traj.c))
        for traj in (integrate_trajectory(c, d, f, res.delta, TIGHT)
                     for c in (res.c_star, cold.c_star))
    )
    assert abs(res.c_star - cold.c_star) <= (r_warm + r_cold) * d / f.stable_zero


@pytest.mark.parametrize("spec, d", SWEEP_REACTIONS)
def test_warm_rows_and_members_agree_with_cold_searches(spec, d):
    # a sweep row or a perturbed member reached through density_sweep or
    # perturbed_wave_speeds lies within its residual bound of the standalone
    # ("cold") search of its own problem
    f = parse_reaction(spec)
    xi = f.stable_zero
    table = density_sweep(d, f, [xi * s for s in (1.01, 1.1, 1.5, 2.0, 3.0, 5.0)])
    for res in table.results:
        assert res.residual <= 1e-10
        _assert_agrees_with_cold(res, d, f)
    base = table.results[3]
    pair = make_perturbation_pair(f, 0.05)
    ps = perturbed_wave_speeds(d, f, base.delta, 0.05, c_star_base=base.c_star)
    for member, fm in ((ps.lower, pair.lower), (ps.upper, pair.upper)):
        assert member.residual <= 1e-10
        _assert_agrees_with_cold(member, d, fm)


def test_sweep_and_perturbed_pair_integration_counts(monkeypatch, logistic1):
    # every search solves its start c_s once and then c* once, with these
    # Newton steps, and each member starts at its own c_s
    speeds = _counting(monkeypatch)
    deltas = [1.1, 1.5, 2.0, 2.5, 3.0, 4.0]
    table = density_sweep(1.0, logistic1, deltas)
    assert [res.function_calls for res in table.results] == [2, 2, 2, 2, 2, 2]
    assert [res.iterations for res in table.results] == [2, 3, 3, 3, 4, 4]
    assert speeds == [_start(1.0, logistic1, delta) for delta in deltas]
    speeds.clear()
    ps = perturbed_wave_speeds(1.0, logistic1, 2.0, 0.05, c_star_base=C_STAR_REF)
    pair = make_perturbation_pair(logistic1, 0.05)
    assert (ps.lower.function_calls, ps.upper.function_calls) == (2, 2)
    assert speeds == [_start(1.0, pair.lower, 2.0), _start(1.0, pair.upper, 2.0)]


@pytest.mark.parametrize("spec, d", SWEEP_REACTIONS)
def test_sweep_and_pair_never_integrate_bracket_low(monkeypatch, spec, d):
    # each search solves its start and then c*, and solves neither proven
    # end nor 0
    f = parse_reaction(spec)
    xi = f.stable_zero
    speeds = _counting(monkeypatch)
    table = density_sweep(d, f, [xi * s for s in (1.01, 1.1, 1.5, 2.0, 3.0, 5.0)])
    ps = perturbed_wave_speeds(d, f, table.results[3].delta, 0.05,
                               c_star_base=table.results[3].c_star)
    for res in table.results + [ps.lower, ps.upper]:
        made, speeds = speeds[:1], speeds[1:]
        assert res.function_calls == 2
        assert not {*res.bracket, 0.0} & set(made)
    assert speeds == []


@pytest.mark.parametrize("residual", [-1.0, 1.0])
def test_speed_whose_residual_puts_c_star_past_a_proven_end_raises(monkeypatch, logistic1,
                                                                   residual):
    # since -delta/d < r' < -xi/d, c* lies beyond c + r(c)*d/delta; a stand-in
    # residual of -1 puts it below c0 and one of +1 above c_up.  The search
    # raises at its start c_s, with no speed solve
    speeds = []

    def standing_in(c, *args, **kwargs):
        speeds.append(c)
        traj = integrate_trajectory(c, *args, **kwargs)
        traj.endpoint_slope += residual - traj.residual
        return traj

    monkeypatch.setattr(wavespeed, "integrate_trajectory", standing_in)
    monkeypatch.setattr(wavespeed, "solve_wave_speed", None)
    with pytest.raises(BracketError, match="bracket sign check failed"):
        find_wave_speed(1.0, logistic1, 2.0)
    assert speeds == [_start(1.0, logistic1, 2.0)]


def test_broken_bracket_low_raises_after_one_integration(logistic1, monkeypatch):
    # as in test_failed_bracket_sign_check_raises: r(c_s) < 0 at the start
    # already puts c* below the broken c0 = -1e-3
    monkeypatch.setattr(wavespeed, "closed_form_zero_speed", lambda *args: -1e-3)
    speeds = _counting(monkeypatch)
    with pytest.raises(BracketError, match="bracket sign check failed"):
        find_wave_speed(1.0, logistic1, 2.0)
    assert speeds == [2.0 * -1e-3 / 3.0]


def test_overflowing_saddle_slope_raises_before_any_quadrature():
    # the saddle slope at c = 0 overflows: IntegrationError, and no numpy
    # overflow warning from bracket_low's quadrature
    f = parse_reaction("logistic:r=1e308")
    with pytest.raises(IntegrationError, match="saddle slope -inf is not finite at c=0"):
        find_wave_speed(1.0, f, 2.0)


def test_failed_search_integrates_no_proven_end(monkeypatch, logistic1):
    # with no step allowed the speed solve fails: only the start c_s is
    # solved, and neither c0, c_up nor 0
    monkeypatch.setattr(phaseplane, "SEARCH_STEPS", 0)
    speeds = _counting(monkeypatch)
    with pytest.raises(NumericalError, match="did not converge in 0 Newton steps"):
        find_wave_speed(1.0, logistic1, 2.0)
    assert speeds == [_start(1.0, logistic1, 2.0)]


@pytest.mark.parametrize("spec, d", SWEEP_REACTIONS)
def test_guesses_near_the_proven_ends_pass_the_proof_check(spec, d):
    # at delta = 5*xi the slope bounds differ fivefold: a proof check that
    # read the bound -xi/d in place of -delta/d would reject trajectories at
    # these speeds.  Each narrows the proven ends to a part that holds c*
    f = parse_reaction(spec)
    delta = 5.0 * f.stable_zero
    c_low = bracket_low(d, f, delta)
    ends = (c_low, c_low * f.stable_zero / delta)
    c_star = find_wave_speed(d, f, delta).c_star
    for c in (c_low * (1.0 - 1e-6), ends[1] * (1.0 - 1e-6), -1e-6):
        start = integrate_trajectory(c, d, f, delta)
        lo, hi = wavespeed._proven_bounds(start, f, ends)
        assert (lo, hi) == ((c, ends[1]) if c < c_star else (c_low, c))
        assert lo < c_star < hi


def test_sweep_row_after_a_good_one_records_a_failed_bracket(monkeypatch, logistic1):
    # the first bracket_low is the true one and every later one is broken, as
    # in test_failed_bracket_sign_check_raises: those rows fail the sign check
    calls = []

    def breaking(*args):
        calls.append(args)
        return closed_form_zero_speed(*args) if len(calls) == 1 else -1e-3

    monkeypatch.setattr(wavespeed, "closed_form_zero_speed", breaking)
    table = density_sweep(1.0, logistic1, [1.5, 2.0, 2.5])
    assert table.results[0] is not None and table.dc_ddelta[0] < 0.0
    assert table.results[1:] == [None, None]
    assert all("bracket sign check failed" in table.errors[delta] for delta in (2.0, 2.5))
    assert all(math.isnan(slope) for slope in table.dc_ddelta[1:])


@pytest.mark.parametrize("spec, d", SWEEP_REACTIONS)
@pytest.mark.parametrize("g", [1e-2, 1e-3, 1e-4, 1e-5])
def test_speed_near_the_stable_zero_follows_the_linear_law(spec, d, g):
    # linearising at the saddle gives c* ~ c_lin = -sqrt(-d f'(xi))*(delta - xi)/xi;
    # the measured relative deviations are -0.167*g, -0.167*g and +0.102*g, and
    # c* itself is known to within residual*d/xi
    f = parse_reaction(spec)
    xi = f.stable_zero
    delta = xi * (1.0 + g)
    res = find_wave_speed(d, f, delta)
    c_lin = -math.sqrt(-d * float(f.deriv(xi))) * (delta - xi) / xi
    assert abs(res.c_star / c_lin - 1.0) <= 0.25 * g + res.residual * d / (xi * abs(c_lin))


def test_sweep_and_pair_reach_find_wave_speed_through_the_module(monkeypatch, logistic1):
    # the benchmark's clock and tracer wrap wavespeed.find_wave_speed: every
    # speed of a sweep or a pair must go through that name
    calls = []
    search = wavespeed.find_wave_speed

    def recording(d, f, delta, *args, **kwargs):
        calls.append((f, delta))
        return search(d, f, delta, *args, **kwargs)

    monkeypatch.setattr(wavespeed, "find_wave_speed", recording)
    table = density_sweep(1.0, logistic1, [1.5, 2.0, 2.5])
    assert calls == [(logistic1, 1.5), (logistic1, 2.0), (logistic1, 2.5)]
    calls.clear()
    perturbed_wave_speeds(1.0, logistic1, 2.0, 0.05, c_star_base=table.results[1].c_star)
    assert [delta for _, delta in calls] == [2.0, 2.0] and calls[0][0] is not calls[1][0]
    calls.clear()
    perturbed_wave_speeds(1.0, logistic1, 2.0, 0.05)
    assert len(calls) == 3 and calls[0] == (logistic1, 2.0)


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


def test_perturbed_speeds_that_miss_the_base_raise(logistic1, speed_ref):
    # a stand-in base speed that both members lie below: no straddle
    with pytest.raises(NumericalError, match="perturbed speeds do not straddle the base speed"):
        perturbed_wave_speeds(1.0, logistic1, 2.0, 0.05, c_star_base=speed_ref.c_star / 2.0)


def test_perturbed_speeds_monotone_in_epsilon(logistic1, speed_ref):
    p1 = perturbed_wave_speeds(1.0, logistic1, 2.0, 0.05, c_star_base=speed_ref.c_star)
    p2 = perturbed_wave_speeds(1.0, logistic1, 2.0, 0.1, c_star_base=speed_ref.c_star)
    assert p2.lower.c_star < p1.lower.c_star
    assert p2.upper.c_star > p1.upper.c_star


def test_perturbed_speeds_straddle_above_a_large_stable_zero():
    # custom:20,-1 had no sandwiching pair while the bump decayed like exp(-u)
    f = parse_reaction("custom:20,-1")
    ps = perturbed_wave_speeds(1.0, f, 1.5 * f.stable_zero, 0.05)
    assert ps.lower.c_star < ps.base_c_star < ps.upper.c_star
    assert ps.lower.residual <= 1e-10 and ps.upper.residual <= 1e-10


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


def _counting_lanes(monkeypatch):
    """Record the speeds of every batch wavespeed solves; a one-lane solve fails."""
    batches = []

    def counting(cs, *args, **kwargs):
        batches.append([float(c) for c in cs])
        return integrate_trajectories(cs, *args, **kwargs)

    def one_lane(*args, **kwargs):
        raise AssertionError("a sequence iterate was solved alone")

    monkeypatch.setattr(wavespeed, "integrate_trajectories", counting)
    monkeypatch.setattr(wavespeed, "integrate_trajectory", one_lane)
    return batches


def test_sequence_iterate_is_one_integration_and_one_profile(monkeypatch, logistic1):
    # a fresh reference: a shared one may have built and kept its profile already
    reference = find_wave_speed(1.0, logistic1, 2.0)
    built = []

    def counting_reconstruct(traj):
        built.append(reconstruct_profile(traj))
        return built[-1]

    batches = _counting_lanes(monkeypatch)
    monkeypatch.setattr(wavespeed, "reconstruct_profile", counting_reconstruct)
    upper, lower = bracketing_sequences(1.0, logistic1, 2.0, M=10, n_max=30, reference=reference)
    iterates = len(upper.c_list) + len(lower.c_list)
    # the starts are one batch and each step n one more: lanes (upper c_n, lower c_n)
    pairs = [list(pair) for pair in zip(upper.c_list, lower.c_list)]
    assert batches == pairs and len(batches) == 31
    # the reference's profile, read once for the sup gaps, is the one extra build
    assert len(built) == iterates + 1
    # a profile rebuilt from its speed is the one the sequence built, the
    # starts' too: a lane's solve does not depend on its batch.  The profiles
    # were built in lane order, upper then lower at each n
    for c, prof in zip([c for pair in pairs for c in pair], built[1:]):
        rebuilt = reconstruct_profile(integrate_trajectory(c, 1.0, logistic1, 2.0))
        assert np.array_equal(rebuilt.q_at(wavespeed.SUP_GRID), prof.q_at(wavespeed.SUP_GRID))


def test_sequences_reach_the_names_the_benchmark_wraps(monkeypatch, logistic1):
    # perfbench times iterates by wavespeed.reconstruct_profile, and the
    # sequences solve through wavespeed.integrate_trajectories; a fast path
    # that went round either name would leave those figures empty.  Its nfev
    # counter wraps phaseplane.solve_ivp, which the package, solving by
    # collocation, never calls
    reference = find_wave_speed(1.0, logistic1, 2.0)
    reference.profile  # built here, so the sequences build only their own
    built = []

    def never(*args, **kwargs):
        raise AssertionError("the package called the reference integrator")

    def counting_reconstruct(traj):
        built.append(traj.c)
        return reconstruct_profile(traj)

    monkeypatch.setattr(phaseplane, "solve_ivp", never)
    batches = _counting_lanes(monkeypatch)
    monkeypatch.setattr(wavespeed, "reconstruct_profile", counting_reconstruct)
    n_max = 3
    bracketing_sequences(1.0, logistic1, 2.0, M=10, n_max=n_max, reference=reference)
    assert len(built) == 2 * (n_max + 1)
    assert [len(lanes) for lanes in batches] == [2] * (n_max + 1)


def _sequence_alone(sign, name, c0, M, n_max, f, reference):
    """One direction's (M, c_list, slope_list, sup_gaps) on its own, one
    one-lane solve and the update law per iterate, as ``SequenceRun`` states it."""
    q_ref = reference.profile.q_at(wavespeed.SUP_GRID)
    traj = integrate_trajectory(c0, 1.0, f, 2.0)
    M = wavespeed._escalate_m(M, sign * (traj.c - 0.5 * traj.endpoint_slope), name)
    c, cs, slopes, gaps = traj.c, [], [], []
    for n in range(n_max + 1):
        if n:
            traj = integrate_trajectory(c, 1.0, f, 2.0)
        cs.append(c)
        slopes.append(float(traj.endpoint_slope))
        q = reconstruct_profile(traj).q_at(wavespeed.SUP_GRID)
        gaps.append(float(np.max(np.abs(q - q_ref))))
        c = float(0.5 * slopes[n] + sign / (M + n))
    return M, cs, slopes, gaps


@pytest.mark.parametrize("starts", [
    {},  # criterion 6: c_upper_0 = 0, c_lower_0 = c* - 1
    {"upper_above_c_star": 1e-4},  # M escalated for the upper direction
    {"M": 1},  # escalated to 2 for both
    {"upper_share": 0.5, "lower_gap": 1.3},  # a start the sequences workload draws
])
def test_lockstep_sequences_equal_each_direction_alone(logistic1, speed_ref, starts):
    # the two directions share one two-lane solve per step, and each lane is
    # bit for bit its speed's solve alone, so every list is that of the
    # direction run on its own
    c_star = speed_ref.c_star
    c_upper_0 = starts.get("upper_share", 0.0) * c_star
    if "upper_above_c_star" in starts:
        c_upper_0 = c_star + starts["upper_above_c_star"]
    c_lower_0 = c_star - starts.get("lower_gap", 1.0)
    M, n_max = starts.get("M", 10), 100
    upper, lower = bracketing_sequences(1.0, logistic1, 2.0, c_upper_0, c_lower_0, M, n_max,
                                        speed_ref)
    for run, sign, c0 in ((upper, +1.0, c_upper_0), (lower, -1.0, c_lower_0)):
        alone = _sequence_alone(sign, run.direction, c0, M, n_max, logistic1, speed_ref)
        assert (run.M, run.c_list, run.slope_list, run.sup_gaps) == alone
    if "upper_above_c_star" in starts:
        assert upper.M > lower.M == 10


def _breaking(monkeypatch, broken: dict[str, int]):
    """Solve every batch, but give lane ``name`` the slope 0 at step ``broken[name]``.

    Slope 0 breaks either direction: the upper one's next iterate is
    1/(M + n) > 0, and the lower one's -1/(M + n) lies above c*.
    """
    steps = []

    def solving(cs, *args, **kwargs):
        n = len(steps)
        steps.append(n)
        lanes = integrate_trajectories(cs, *args, **kwargs)
        return [dataclasses.replace(traj, endpoint_slope=0.0) if broken.get(name) == n else traj
                for name, traj in zip(("upper", "lower"), lanes)]

    monkeypatch.setattr(wavespeed, "integrate_trajectories", solving)
    return steps


@pytest.mark.parametrize("broken, reported", [
    ({"lower": 3}, ("lower", 3)),
    ({"upper": 5}, ("upper", 5)),
    ({"upper": 6, "lower": 2}, ("lower", 2)),  # the earlier step, whichever direction
    ({"upper": 4, "lower": 4}, ("upper", 4)),  # the upper direction at the same step
])
def test_lockstep_failure_names_its_direction_and_step(monkeypatch, logistic1, speed_ref,
                                                       broken, reported):
    steps = _breaking(monkeypatch, broken)
    name, n = reported
    with pytest.raises(SequenceOrderingError, match=f"^{name} sequence broke ordering at n={n}:"):
        bracketing_sequences(1.0, logistic1, 2.0, M=10, n_max=20, reference=speed_ref)
    assert steps[-1] == n  # no step past the failing one is solved


def test_lockstep_failure_exits_2(monkeypatch, tmp_path):
    from click.testing import CliRunner

    from retreatwave.cli import main

    _breaking(monkeypatch, {"lower": 3})
    res = CliRunner().invoke(main, ["sequences", "--delta", "2", "--n-max", "20",
                                    "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "lower sequence broke ordering at n=3:" in res.output
    assert not list(tmp_path.glob("sequences*"))


def test_hopeless_lower_start_fails_before_either_sequence_runs(monkeypatch, tmp_path):
    # the lower start c* - 1e-8 would need M of about 1.4e8, past 1e5: the
    # CLI exits 2 after at most two solves, the search's start and the two
    # sequence starts, which are one batch, with no iterate of either sequence
    from click.testing import CliRunner

    from retreatwave.cli import main

    c_star = find_wave_speed(1.0, parse_reaction("logistic"), 2.0).c_star
    speeds = _counting(monkeypatch)
    res = CliRunner().invoke(main, ["sequences", "--delta", "2", "--c-lower0", repr(c_star - 1e-8),
                                    "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "auto-escalation exceeded M=1e5 for the lower sequence" in res.output
    assert len(speeds) <= 2


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


@pytest.mark.parametrize("delta", [2.0, 20.0])
def test_batch_lanes_equal_single_solves(logistic1, delta):
    # 50 speeds as one batch and each alone give the same residual, bit for
    # bit: every lane does its own arithmetic and stops on its own
    cs = np.linspace(bracket_low(1.0, logistic1, delta), 0.0, 50)
    lanes = slope_residual(cs, 1.0, logistic1, delta)
    assert lanes.tolist() == [slope_residual(c, 1.0, logistic1, delta) for c in cs]


# item 5's cases at large scale, each f = u*(xi - u), so G = (delta**2 - xi**2)/2
@pytest.mark.parametrize("spec, delta, floor", [
    ("logistic", 10000.0, True),  # floor 6.3e-8
    ("custom:0.7,-1", 1000.0, True),  # floor 7.5e-10
    ("custom:9000,-1", 9450.0, False),  # floor 3.9e-11
])
def test_large_scale_search_resolves_or_names_its_floor(monkeypatch, spec, delta, floor):
    # at the default tol 1e-10 a search either reaches it, with c* agreeing
    # with the solve at twice the degree and above item 12's c_G =
    # -sqrt(d*G(delta)/xi), or raises at once with the reachable floor
    # 4*eps*max(|P(delta)|, |delta*c/d|) in its message; it never stalls:
    # measured at most 10 Newton steps of the speed solve
    f = parse_reaction(spec)
    xi = f.stable_zero
    steps = []

    def solving(*args):
        traj, n = solve_wave_speed(*args)
        steps.append(n)
        return traj, n

    monkeypatch.setattr(wavespeed, "solve_wave_speed", solving)
    if floor:
        with pytest.raises(NumericalError, match="lies below the reachable floor") as failure:
            find_wave_speed(1.0, f, delta)
        assert float(str(failure.value).split("floor ")[1].split(" ")[0]) > DEFAULT_TOL
    else:
        res = find_wave_speed(1.0, f, delta)
        monkeypatch.setattr(phaseplane, "N_START", 2 * phaseplane.N_START)
        fine = find_wave_speed(1.0, f, delta)
        assert abs(res.c_star - fine.c_star) <= 1e-13 * abs(fine.c_star)
        assert -math.sqrt((delta**2 - xi**2) / 2.0 / xi) < res.c_star < res.bracket[1]
    assert steps and max(steps) <= 12
