import math

import numpy as np
import pytest

from retreatwave import wavespeed
from retreatwave import (
    BracketError,
    InputError,
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
    residual_monotonicity_audit,
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


def test_bracket_low_doubles_until_residual_is_positive(logistic1):
    # unchanged where the closed-form endpoint already has a positive residual
    trajs = bracket_low(1.0, logistic1, 2.0)
    assert len(trajs) == 1 and trajs[0].residual > 0.0
    assert trajs[0].c == closed_form_zero_speed(2.0, 1.0, logistic1)
    # stable zero 0.7 < 1: the closed-form endpoint has a negative residual
    f = make_polynomial((0.7, -1.0))
    c0 = closed_form_zero_speed(1.2, 1.0, f)
    assert slope_residual(c0, 1.0, f, 1.2) < 0.0
    trajs = bracket_low(1.0, f, 1.2)
    low = trajs[-1]
    assert [t.c for t in trajs] == [c0, 2.0 * c0] and trajs[0].residual < 0.0 < low.residual
    res = find_wave_speed(1.0, f, 1.2)
    assert res.bracket[0] == low.c < res.c_star < 0.0
    assert res.residual <= 1e-10
    audit = residual_monotonicity_audit(1.0, f, 1.2, 20)
    assert audit.c_values[0] == low.c and audit.residuals[0] == low.residual
    assert audit.strictly_decreasing and len(audit.sign_change_cells) == 1


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


@pytest.mark.parametrize(
    "d, coeffs, delta, tol, calls",
    [
        (1.0, (1.0, -1.0), 2.0, 1e-10, 7),
        (1.0, (0.7, -1.0), 1.2, 1e-10, 8),  # one doubling of the lower bracket end
        (0.05, (1.0, -1.0), 20.0, 1e-12, 12),  # three polish bisections after brentq
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
    gaps_lo, gaps_hi = [], []
    for eps in (0.1, 0.05, 0.025):
        ps = perturbed_wave_speeds(
            1.0, logistic1, 2.0, eps, c_star_base=speed_ref.c_star
        )
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
        assert len(run.profiles) > 3


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
