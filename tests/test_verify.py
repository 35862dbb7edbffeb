import math

import numpy as np
import pytest

from retreatwave import phaseplane
from retreatwave import (
    FrontFixedState,
    Grid1D,
    InputError,
    RunRecord,
    bracketing_sequences,
    integrate_trajectory,
    make_perturbation_pair,
    profile_error,
    reconstruct_profile,
    residual_monotonicity_audit,
    sandwich_check,
    speed_trend,
    truncation_correction,
)


def state_from_profile(profile, grid, gp=0.0):
    return FrontFixedState(grid, 0.0, np.asarray(profile.q_at(grid.nodes), float), 0.0, gp)


def sequence_profiles(run, f):
    """The profiles of a d=1, delta=2 sequence, rebuilt from its speeds."""
    return [reconstruct_profile(integrate_trajectory(c, 1.0, f, 2.0)) for c in run.c_list]


def synthetic_record(times, g_primes, profile_errors=None):
    if profile_errors is None:
        profile_errors = [float("nan")] * len(times)
    rows = [
        (t, 0.0, gp, pe, 1.0, 2.0)
        for t, gp, pe in zip(times, g_primes, profile_errors)
    ]
    return RunRecord(rows=rows, config={}, termination_reason="completed")


def test_profile_error_exact_and_bumped(speed_ref):
    grid = Grid1D(50.0, 500)
    st = state_from_profile(speed_ref.profile, grid)
    assert profile_error(st, speed_ref.profile) == pytest.approx(0.0, abs=1e-12)
    bumped = st.U.copy()
    bumped[100] += 0.01
    st2 = FrontFixedState(grid, 0.0, bumped, 0.0, 0.0)
    assert profile_error(st2, speed_ref.profile) == pytest.approx(0.01, abs=1e-12)


def test_profile_error_stable_under_refinement(speed_ref):
    # adding nodes where U equals the reference does not change the sup
    for N in (400, 800):
        grid = Grid1D(50.0, N)
        st = state_from_profile(speed_ref.profile, grid)
        st.U[N // 2] += 0.02
        assert profile_error(st, speed_ref.profile) == pytest.approx(0.02, abs=1e-12)


def test_profile_error_uses_tail_beyond_sampled_range(speed_ref):
    # the grid extends past the profile's sampled range; the analytic tail
    # must be used there instead of clamping or failing
    grid = Grid1D(90.0, 900)
    assert grid.L_y > speed_ref.profile.x_grid[-1]
    st = state_from_profile(speed_ref.profile, grid)
    assert profile_error(st, speed_ref.profile) < 1e-9


def test_truncation_correction_small_for_long_domain(speed_ref):
    grid = Grid1D(90.0, 900)
    st = state_from_profile(speed_ref.profile, grid)
    assert truncation_correction(st, speed_ref.profile) < 1e-8


def test_sandwich_passes_at_reference_profile(logistic1, speed_ref):
    pair = make_perturbation_pair(logistic1, 0.1)
    upper_run, _ = bracketing_sequences(1.0, pair.upper, 2.0, M=10, n_max=4)
    _, lower_run = bracketing_sequences(1.0, pair.lower, 2.0, M=10, n_max=4)
    grid = Grid1D(60.0, 600)
    st = state_from_profile(speed_ref.profile, grid)
    report = sandwich_check(st, sequence_profiles(lower_run, pair.lower),
                            sequence_profiles(upper_run, pair.upper))
    assert report.all_passed
    assert report.tolerance == pytest.approx(2.0 * grid.h)


def test_sandwich_fails_for_constant_delta_state(logistic1, speed_ref):
    pair = make_perturbation_pair(logistic1, 0.1)
    upper_run, _ = bracketing_sequences(1.0, pair.upper, 2.0, M=10, n_max=4)
    _, lower_run = bracketing_sequences(1.0, pair.lower, 2.0, M=10, n_max=4)
    grid = Grid1D(60.0, 600)
    st = FrontFixedState(grid, 0.0, np.full(601, 2.0), 0.0, 0.0)
    report = sandwich_check(st, sequence_profiles(lower_run, pair.lower),
                            sequence_profiles(upper_run, pair.upper))
    assert not report.all_passed
    assert report.first_failing is not None


def test_speed_trend_zero_error_series():
    rec = synthetic_record([0.0, 1.0, 2.0, 3.0, 4.0], [0.5] * 5)
    report = speed_trend(rec, 0.5)
    assert np.all(report.speed_error_series == 0.0)
    assert report.final_speed_error == 0.0
    assert report.monotone_tail


def test_speed_trend_detects_growing_tail():
    times = np.linspace(0.0, 8.0, 9)
    gps = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.52, 0.56, 0.6]
    report = speed_trend(synthetic_record(times, gps), 0.5)
    assert not report.monotone_tail


def first_double_beyond(x, gap):
    """The least double y > x with y - x > gap, stepping ulp by ulp."""
    y = x
    while y - x <= gap:
        y = np.nextafter(y, np.inf)
    return y


@pytest.mark.parametrize("series", ["speed", "profile"])
def test_speed_trend_flags_growth_just_over_the_rounding_floor(series):
    # quartiles of two rows each (t = 0..7), so both means and their gap are
    # exact; the floor is 4*eps*scale, with scale |c| = 0.5 for the speed and
    # the largest max_U, 2, for the profile
    eps = np.finfo(float).eps
    times = np.linspace(0.0, 7.0, 8)
    c = 0.5
    settled = 0.51 if series == "speed" else 1e-3
    grown = first_double_beyond(settled, 4.0 * eps * (c if series == "speed" else 2.0))
    verdicts = []
    for last in (np.nextafter(grown, 0.0), grown):  # at the floor, then one ulp beyond it
        tail = [0.6] * 4 + [settled] * 2 + [last] * 2
        if series == "speed":
            record = synthetic_record(times, tail)
        else:
            record = synthetic_record(times, [c] * 8, tail)
        verdicts.append(speed_trend(record, c).monotone_tail)
    assert verdicts == [True, False]


def test_speed_trend_csv(tmp_path):
    rec = synthetic_record([0.0, 1.0, 2.0, 3.0], [0.5] * 4, [0.1, 0.05, 0.02, 0.01])
    report = speed_trend(rec, 0.5)
    report.to_csv(tmp_path / "series.csv")
    header = (tmp_path / "series.csv").read_text().splitlines()[0]
    assert header == "t,speed_error,profile_error"
    assert report.final_profile_error == pytest.approx(0.01)


def test_audit_monotone_with_unique_sign_change(logistic1):
    audit = residual_monotonicity_audit(1.0, logistic1, 2.0, 50)
    assert audit.strictly_decreasing
    assert len(audit.sign_change_cells) == 1
    assert audit.residuals[0] > 0.0 > audit.residuals[-1]


def test_audit_coarse_agrees_with_fine(logistic1, speed_ref):
    coarse = residual_monotonicity_audit(1.0, logistic1, 2.0, 10)
    fine = residual_monotonicity_audit(1.0, logistic1, 2.0, 50)
    assert coarse.strictly_decreasing == fine.strictly_decreasing == True  # noqa: E712
    for audit in (coarse, fine):
        j = audit.sign_change_cells[0]
        assert audit.c_values[j] <= speed_ref.c_star <= audit.c_values[j + 1]


def test_audit_is_one_integration(logistic1, monkeypatch):
    lanes = []
    solve_ivp = phaseplane.solve_ivp

    def counted(fun, t_span, y0, **kwargs):
        lanes.append(len(y0))
        return solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(phaseplane, "solve_ivp", counted)
    audit = residual_monotonicity_audit(1, logistic1, 2, 50)
    # bracket_low is closed form, so all 50 speeds are one batch
    assert lanes == [50]
    assert audit.residuals.shape == (50,)


def test_audit_requires_minimum_grid(logistic1):
    with pytest.raises(InputError):
        residual_monotonicity_audit(1.0, logistic1, 2.0, 5)


@pytest.mark.parametrize("delta", [1.0 + 1e-9, math.nextafter(1.0, 2.0)])
def test_audit_requires_the_speed_searchs_delta_gap(logistic1, delta):
    # below the gap the bracket degenerates: unchecked, the audit at 1 + 1e-9
    # reports a decreasing residual with no sign change, and at the next
    # double after 1 bracket_low is -0.0
    with pytest.raises(InputError, match="by at least 1e-06"):
        residual_monotonicity_audit(1.0, logistic1, delta, 50)
