import re

import numpy as np
import pytest
import scipy.linalg

from retreatwave import (
    BoundViolationError,
    FrontFixedState,
    Grid1D,
    InitialData,
    InputError,
    InstabilityError,
    ReactionFunction,
    RunRecord,
    SolverConfig,
    constant_u0,
    exp_approach_u0,
    front_speed_from_state,
    make_polynomial,
    profile_u0,
    run,
    step,
    table_u0,
)
from retreatwave import frontsolver
from retreatwave.frontsolver import DEFAULT_SPEED_CAP


def zero_reaction():
    return ReactionFunction(
        lambda u: 0.0 * np.asarray(u, dtype=float),
        lambda u: 0.0 * np.asarray(u, dtype=float),
        1.0,
        "zero",
    )


def make_state(grid, values, g=0.0, gp=None, d=1.0, delta=2.0):
    st = FrontFixedState(grid, 0.0, np.asarray(values, dtype=float), g, 0.0)
    if gp is None:
        gp = front_speed_from_state(st, d, delta)
    return FrontFixedState(grid, 0.0, st.U, g, gp)


def test_grid_validation():
    with pytest.raises(InputError):
        Grid1D(10.0, 100)
    with pytest.raises(InputError):
        Grid1D(-1.0, 400)
    g = Grid1D(20.0, 400)
    assert g.h == pytest.approx(0.05)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 20.0


def test_front_speed_constant_state_is_zero():
    grid = Grid1D(20.0, 400)
    st = make_state(grid, np.full(401, 2.0))
    assert front_speed_from_state(st, 1.0, 2.0) == pytest.approx(0.0, abs=1e-13)


def test_front_speed_exponential_profile():
    grid = Grid1D(20.0, 2000)  # h = 0.01
    st = make_state(grid, 2.0 * np.exp(-grid.nodes))
    # U_y(0) = -delta, so g' = -(d/delta)*(-delta) = d
    assert front_speed_from_state(st, 1.0, 2.0) == pytest.approx(1.0, abs=1e-4)


def test_front_speed_second_order_in_h(speed_ref):
    profile = speed_ref.profile
    errs = []
    for N in (500, 1000):
        grid = Grid1D(50.0, N)
        st = make_state(grid, profile.q_at(grid.nodes))
        errs.append(abs(front_speed_from_state(st, 1.0, 2.0) - speed_ref.retreat_speed))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_constant_state_is_steady_without_reaction():
    grid = Grid1D(20.0, 400)
    st = make_state(grid, np.full(401, 2.0), gp=0.0)
    st2 = step(st, 1.0, 2.0, zero_reaction(), 1e-3)
    assert float(np.max(np.abs(st2.U - 2.0))) < 1e-13
    assert st2.g_prime == pytest.approx(0.0, abs=1e-13)
    assert st2.t == pytest.approx(1e-3)


def test_step_pins_boundary_value(logistic1):
    grid = Grid1D(20.0, 400)
    st = make_state(grid, exp_approach_u0(2.0)(grid.nodes))
    st2 = step(st, 1.0, 2.0, logistic1, 1e-4)
    assert st2.U[0] == 2.0


def test_step_rejects_unstable_dt(logistic1):
    grid = Grid1D(20.0, 400)
    st = make_state(grid, exp_approach_u0(2.0)(grid.nodes), gp=5.0)
    with pytest.raises(InstabilityError):
        step(st, 1.0, 2.0, logistic1, dt=0.01)  # 0.5*h/5 = 0.005


def test_step_reports_bound_violation(logistic1):
    grid = Grid1D(20.0, 400)
    st = make_state(grid, exp_approach_u0(2.0)(grid.nodes))
    with pytest.raises(BoundViolationError) as err:
        step(st, 1.0, 2.0, logistic1, 1e-4, c1=1.5)
    assert "max_U" in err.value.diagnostic


def test_step_caps_front_speed(logistic1):
    # a unit jump next to the boundary drives g' to about 66 in one step;
    # U stays in (0, 2] and no ceiling c1 is set, so only the cap can fire
    grid = Grid1D(2.0, 200)
    U = np.ones(grid.N + 1)
    U[0] = 2.0
    with pytest.raises(BoundViolationError) as err:
        step(make_state(grid, U), 1.0, 2.0, logistic1, 1e-5)
    gp = float(re.search(r"g'=(\S+)", err.value.diagnostic).group(1))
    assert abs(gp) > DEFAULT_SPEED_CAP


def test_initial_data_validation(logistic1):
    grid = Grid1D(20.0, 400)
    with pytest.raises(InputError):
        InitialData.from_callable(grid, 2.0, lambda y: 1.0 + 0.0 * y)  # u0(0) != delta
    with pytest.raises(InputError):
        InitialData.from_callable(grid, 2.0, lambda y: 2.0 - np.asarray(y))  # goes negative
    good = InitialData.from_callable(grid, 2.0, exp_approach_u0(2.0))
    assert good.samples[0] == 2.0
    assert good.inf_value > 1.0 - 1e-12
    assert good.sup_norm == pytest.approx(2.0)


def test_table_initial_data():
    with pytest.raises(InputError):
        table_u0([0.0, 1.0], [2.0])
    with pytest.raises(InputError):
        table_u0([0.0, 0.0], [2.0, 1.0])
    u0 = table_u0([0.0, 10.0, 20.0], [2.0, 1.5, 1.0])
    assert u0(5.0) == pytest.approx(1.75)


def test_run_zero_horizon_single_row(logistic1):
    grid = Grid1D(20.0, 400)
    init = InitialData.from_callable(grid, 2.0, exp_approach_u0(2.0))
    rec = run(init, 1.0, 2.0, logistic1, SolverConfig(T_end=0.0))
    assert len(rec.rows) == 1
    assert rec.rows[0][0] == 0.0
    assert rec.rows[0][1] == init.g0
    assert rec.termination_reason == "completed"


def test_run_constant_data_burns_in_to_retreat(logistic1):
    grid = Grid1D(30.0, 600)
    init = InitialData.from_callable(grid, 2.0, constant_u0(2.0))
    rec = run(init, 1.0, 2.0, logistic1, SolverConfig(T_end=3.0, output_every=0.1))
    gp = rec.column("g_prime")
    assert gp[0] == pytest.approx(0.0, abs=1e-12)
    assert gp[-1] > 0.0
    assert rec.column("max_U")[-1] < 2.0  # interior density falls below delta


def test_run_comparison_principle(logistic1):
    grid = Grid1D(20.0, 400)
    lo = InitialData.from_callable(grid, 2.0, lambda y: 1.0 + np.exp(-2.0 * np.asarray(y)))
    hi = InitialData.from_callable(grid, 2.0, lambda y: 1.0 + np.exp(-np.asarray(y)))
    cfg = SolverConfig(T_end=2.0, output_every=0.2, keep_snapshots=True)
    rec_lo = run(lo, 1.0, 2.0, logistic1, cfg)
    rec_hi = run(hi, 1.0, 2.0, logistic1, cfg)
    for s_lo, s_hi in zip(rec_lo.snapshots, rec_hi.snapshots):
        assert s_lo.t == pytest.approx(s_hi.t)
        assert np.all(s_lo.U <= s_hi.U + 1e-12)


def test_run_a_priori_bounds_hold(logistic1):
    grid = Grid1D(30.0, 600)
    init = InitialData.from_callable(grid, 2.0, exp_approach_u0(2.0))
    rec = run(init, 1.0, 2.0, logistic1, SolverConfig(T_end=5.0, output_every=0.25))
    assert np.all(rec.column("min_U") > 0.0)
    assert np.all(rec.column("max_U") <= init.sup_norm + 1.0)
    assert np.all(np.abs(rec.column("g_prime")) <= DEFAULT_SPEED_CAP)
    assert rec.termination_reason == "completed"


def test_run_traveling_state_sanity(logistic1, speed_ref):
    # coarse short version of the traveling-state check; the acceptance
    # suite runs the pinned fine-grid variant
    grid = Grid1D(40.0, 400)
    init = InitialData.from_callable(grid, 2.0, profile_u0(speed_ref.profile))
    rec = run(init, 1.0, 2.0, logistic1, SolverConfig(T_end=1.0, output_every=0.25),
              reference=speed_ref.profile)
    gp = rec.column("g_prime")
    rel = np.abs(gp - speed_ref.retreat_speed) / speed_ref.retreat_speed
    assert float(rel.max()) < 0.05


def test_run_with_shifted_stable_zero():
    from retreatwave import find_wave_speed, make_polynomial, speed_trend

    f = make_polynomial((0.96, -0.8))  # stable zero at 1.2
    res = find_wave_speed(1.0, f, 2.5)
    grid = Grid1D(60.0, 600)
    init = InitialData.from_callable(grid, 2.5, exp_approach_u0(2.5, xi=f.stable_zero))
    rec = run(init, 1.0, 2.5, f, SolverConfig(T_end=8.0, output_every=1.0),
              reference=res.profile)
    assert rec.termination_reason == "completed"
    report = speed_trend(rec, res.retreat_speed)
    assert report.final_speed_error <= 0.05 * res.retreat_speed  # h = 0.1 grid
    final = rec.final_state
    far = final.U[grid.nodes >= 30.0]
    assert np.all(np.abs(far - 1.2) < 0.05)


def test_grid_refinement_improves_speed(logistic1, speed_ref):
    from retreatwave import speed_trend

    errs = []
    for N in (500, 1000):  # halving h also quarters the default dt
        grid = Grid1D(50.0, N)
        init = InitialData.from_callable(grid, 2.0, profile_u0(speed_ref.profile))
        rec = run(init, 1.0, 2.0, logistic1, SolverConfig(T_end=3.0, output_every=1.0),
                  reference=speed_ref.profile)
        errs.append(speed_trend(rec, speed_ref.retreat_speed).final_speed_error)
    assert errs[1] < errs[0]
    assert 2.5 < errs[0] / errs[1] < 6.0  # second order in h dominates


def test_run_far_field_warning_on_short_domain(logistic1):
    grid = Grid1D(5.0, 200)
    init = InitialData.from_callable(grid, 2.0, exp_approach_u0(2.0))
    rec = run(init, 1.0, 2.0, logistic1, SolverConfig(T_end=0.1, output_every=0.05))
    assert any("far-field" in w for w in rec.warnings)


def test_step_rejects_nan_node(logistic1):
    # one NaN node fails the bound check instead of spreading through the solve
    grid = Grid1D(20.0, 200)
    U = exp_approach_u0(2.0)(grid.nodes)
    U[100] = np.nan
    with pytest.raises(BoundViolationError):
        step(make_state(grid, U), 1.0, 2.0, logistic1, 1e-3)


def test_run_aborts_on_bound_violation():
    # stable zero 10 above delta = 2: U grows past the ceiling sup(u0) + 1 = 3
    f = make_polynomial((10.0, -1.0))
    grid = Grid1D(20.0, 400)
    init = InitialData.from_callable(grid, 2.0, exp_approach_u0(2.0))
    rec = run(init, 1.0, 2.0, f, SolverConfig(T_end=1.0, output_every=0.1))
    assert rec.termination_reason == "bound_violation"
    max_u = float(re.search(r"max_U=(\S+)", rec.diagnostic).group(1))
    assert max_u > rec.config["C1"] == 3.0
    assert rec.final_state.t < 0.1  # measured: aborts at t = 0.085


def test_record_csv_roundtrip(tmp_path, logistic1):
    grid = Grid1D(20.0, 400)
    init = InitialData.from_callable(grid, 2.0, exp_approach_u0(2.0))
    rec = run(init, 1.0, 2.0, logistic1, SolverConfig(T_end=0.2, output_every=0.05))
    path = tmp_path / "run.csv"
    rec.to_csv(path)
    loaded = RunRecord.rows_from_csv(path)
    np.testing.assert_allclose(loaded.column("g_prime"), rec.column("g_prime"), rtol=0, atol=0)
    np.testing.assert_allclose(loaded.column("t"), rec.column("t"), rtol=0, atol=0)


def test_run_config_snapshot_keys(logistic1):
    grid = Grid1D(20.0, 400)
    init = InitialData.from_callable(grid, 2.0, exp_approach_u0(2.0))
    rec = run(init, 1.0, 2.0, logistic1, SolverConfig(T_end=0.1))
    for key in ("d", "delta", "reaction", "g0", "L_y", "N", "dt", "T_end",
                "output_every"):
        assert key in rec.config


@pytest.mark.parametrize("N", [200, 2000, 8000])
@pytest.mark.parametrize("r", [1e-12, 0.125, 4.0, 128.0, 1e4])
def test_cached_factor_solve_matches_scipy_bit_for_bit(N, r):
    lu, ipiv = frontsolver._cn_factors(N, r)
    assert not lu.flags.writeable and not ipiv.flags.writeable
    if r == 128.0:
        # the ghost-reflection row pivots; a factorisation without pivoting differs
        assert not np.array_equal(ipiv, np.arange(1, N + 1))
    rhs = np.random.default_rng(N).uniform(0.5, 3.0, N)
    expected = scipy.linalg.solve_banded((1, 1), frontsolver._banded_matrix(N, r), rhs)
    got = frontsolver.solve_banded((1, 1), lu, rhs, ipiv)
    assert np.array_equal(got, expected)


def _short_run(f, dt):
    grid = Grid1D(25.0, 400)
    init = InitialData.from_callable(grid, 2.0, exp_approach_u0(2.0))
    return run(init, 1.0, 2.0, f, SolverConfig(T_end=1.0, dt=dt, output_every=0.25))


def test_run_with_cached_factors_matches_scipy_solves(monkeypatch, logistic1):
    # dt = 0.03 gives r = 3.84 (pivoting) and a shortened last step of 0.01
    cached = _short_run(logistic1, 0.03)
    monkeypatch.setattr(frontsolver, "_cn_factors",
                        lambda N, r: (frontsolver._banded_matrix(N, r), None))
    monkeypatch.setattr(frontsolver, "solve_banded",
                        lambda l_and_u, ab, rhs, ipiv: scipy.linalg.solve_banded(
                            l_and_u, ab, rhs, check_finite=False))
    plain = _short_run(logistic1, 0.03)
    assert len(cached.rows) == len(plain.rows) == 6
    assert np.array_equal(np.array(cached.rows), np.array(plain.rows), equal_nan=True)
    assert np.array_equal(cached.final_state.U, plain.final_state.U)


def test_run_factors_once_per_step_size(monkeypatch, logistic1):
    calls = []
    factor = frontsolver.dgttrf

    def counting(*args, **kwargs):
        calls.append(args[1].size)
        return factor(*args, **kwargs)

    monkeypatch.setattr(frontsolver, "dgttrf", counting)
    frontsolver._cn_factors.cache_clear()
    # dt = 2**-5 divides T = 1 exactly: one step size
    _short_run(logistic1, 2.0**-5)
    assert len(calls) == 1
    # the same run again finds its factors in the cache
    _short_run(logistic1, 2.0**-5)
    assert len(calls) == 1
    # dt = 0.03 ends with a shortened step of 0.01: two step sizes
    frontsolver._cn_factors.cache_clear()
    _short_run(logistic1, 0.03)
    assert calls == [400] * 3
