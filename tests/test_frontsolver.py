import re

import numpy as np
import pytest

from retreatwave import (
    BoundViolationError,
    FrontFixedState,
    Grid1D,
    InitialData,
    InputError,
    NumericalError,
    ReactionFunction,
    RunRecord,
    SolverConfig,
    constant_u0,
    exp_approach_u0,
    front_speed_from_state,
    parse_reaction,
    profile_u0,
    run,
    step,
    table_u0,
)
from retreatwave import bracket_low, find_wave_speed, frontsolver


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
    # dt*|f'| = 3.1 breaks the explicit reaction's bound: the constant
    # state 2 steps to 2 + dt*f(2) = -1.125
    grid = Grid1D(500.0, 200)
    st = make_state(grid, constant_u0(2.0)(grid.nodes))
    with pytest.raises(BoundViolationError, match="min_U=-1.125"):
        step(st, 1.0, 2.0, logistic1, dt=1.5625)


def test_step_reports_bound_violation(logistic1):
    grid = Grid1D(20.0, 400)
    st = make_state(grid, exp_approach_u0(2.0)(grid.nodes))
    with pytest.raises(BoundViolationError) as err:
        step(st, 1.0, 2.0, logistic1, 1e-4, c1=1.5)
    assert "max_U" in err.value.diagnostic


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


@pytest.mark.parametrize("d", [0.0, -1.0, np.inf, np.nan])
def test_run_rejects_diffusivity_outside_positive_reals(logistic1, d):
    init = InitialData.from_callable(Grid1D(20.0, 400), 2.0, exp_approach_u0(2.0))
    with pytest.raises(InputError, match="diffusivity must be positive and finite"):
        run(init, d, 2.0, logistic1, SolverConfig(T_end=1.0))


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


def test_run_a_priori_bounds_hold(monkeypatch, logistic1):
    grid = Grid1D(30.0, 600)
    init = InitialData.from_callable(grid, 2.0, exp_approach_u0(2.0))
    taken = []  # (min U, max U) over y > 0 after every step
    original = frontsolver.step

    def recording(state, *args, **kwargs):
        new = original(state, *args, **kwargs)
        taken.append((new.U[1:].min(), new.U[1:].max()))
        return new

    monkeypatch.setattr(frontsolver, "step", recording)
    rec = run(init, 1.0, 2.0, logistic1, SolverConfig(T_end=5.0, output_every=0.25))
    assert np.all(rec.column("min_U") > 0.0)
    assert np.all(rec.column("max_U") <= init.sup_norm)  # the maximum principle
    # on every step, not only at the output times
    assert len(taken) == rec.config["steps"]
    lows, highs = np.array(taken).T
    assert lows.min() > 0.0 and highs.max() <= init.sup_norm
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
    from retreatwave import make_polynomial, speed_trend

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
    for N in (500, 1000):  # halving h also halves the default dt
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


@pytest.mark.parametrize("delta, N, L_y, warns", [
    (20.0, 200, 100.0, True),  # Pe = 1.1; settles 84 % off c(delta)
    (12.0, 4000, 20.0, False),  # settles at Pe = 0.041, 0.44 % off
    (2.0, 2000, 100.0, False),  # the headline grid; settles at Pe = 0.045
])
def test_run_warns_on_an_under_resolved_boundary_layer(logistic1, delta, N, L_y, warns):
    grid = Grid1D(L_y, N)
    init = InitialData.from_callable(grid, delta, exp_approach_u0(delta))
    rec = run(init, 1.0, delta, logistic1, SolverConfig(T_end=0.5, output_every=0.5))
    assert rec.termination_reason == "completed"
    peclet = grid.h * abs(rec.final_state.g_prime)
    assert (peclet > frontsolver.MAX_PECLET) == warns
    assert any("Peclet" in w for w in rec.warnings) == warns


def test_step_rejects_nan_node(logistic1):
    # one NaN node fails the bound check instead of spreading through the solve
    grid = Grid1D(20.0, 200)
    U = exp_approach_u0(2.0)(grid.nodes)
    U[100] = np.nan
    with pytest.raises(BoundViolationError):
        step(make_state(grid, U), 1.0, 2.0, logistic1, 1e-3)


def test_run_aborts_on_bound_violation():
    # f = 10(u - 1)(u - 1.8) has its stable zero at 1 and a negative integral
    # over [1, 2], so bracket_low holds, but f > 0 above 1.8 drives U from
    # constant data past the ceiling c1 = (3/2)*sup(u0) = 3
    f = ReactionFunction(lambda u: 10.0 * (u - 1.0) * (u - 1.8),
                         lambda u: 10.0 * (2.0 * u - 2.8), 1.0, "positive-above-1.8")
    grid = Grid1D(20.0, 400)
    init = InitialData.from_callable(grid, 2.0, constant_u0(2.0))
    rec = run(init, 1.0, 2.0, f, SolverConfig(T_end=1.0, output_every=0.1))
    assert rec.termination_reason == "bound_violation"
    max_u = float(re.search(r"max_U=(\S+)", rec.diagnostic).group(1))
    assert max_u > rec.config["C1"] == 3.0
    assert rec.final_state.t < 0.2  # measured: aborts at t = 0.1425


@pytest.mark.parametrize("delta", [1.0, 0.5, np.inf, np.nan])
def test_run_rejects_delta_outside_retreating_regime(logistic1, delta):
    # bracket_low, the speed scale of the default dt, needs delta > xi
    init = InitialData.from_callable(Grid1D(20.0, 400), 2.0, exp_approach_u0(2.0))
    with pytest.raises(InputError, match="delta must exceed 1 and be finite"):
        run(init, 1.0, delta, logistic1, SolverConfig(T_end=1.0, dt=0.01))


@pytest.mark.parametrize("L_y", [500.0, 1000.0, 4000.0, 8000.0])
def test_front_at_rest_on_coarse_grid_completes(logistic1, L_y):
    # a front at rest (g'(0) = 0) on a coarse grid: the default dt must keep the
    # explicit reaction from driving U negative; dt = 0.25*h^2/d (1.5625 and
    # 6.25 at L_y = 500 and 1000) gives min_U = -1.125 and -10.5 after the
    # first step, and the advection bound alone (dt = 1 and 2 at L_y = 4000
    # and 8000) gives min_U = 0 and -2 after the first step
    grid = Grid1D(L_y, 200)
    init = InitialData.from_callable(grid, 2.0, constant_u0(2.0))
    rec = run(init, 1.0, 2.0, logistic1, SolverConfig(T_end=20.0, output_every=1.0))
    assert rec.termination_reason == "completed", rec.diagnostic
    # dt*max|f'| <= 1/2 binds: |f'| = |1 - 2u| peaks at 5 on [0, c1] = [0, 3]
    speed_scale = abs(bracket_low(1.0, logistic1, 2.0))  # g'(0) = 0
    assert 0.5 / 5.0 == rec.config["dt"] < 0.5 * grid.h / (2.0 * speed_scale)
    assert rec.final_state.t == pytest.approx(20.0)
    assert np.all(rec.column("min_U") > 0.0)


def test_settled_state_does_not_depend_on_dt(logistic1):
    # the IMEX scheme's steady state is a fixed point of the step for every dt
    grid = Grid1D(40.0, 400)
    init = InitialData.from_callable(grid, 2.0, exp_approach_u0(2.0))
    coarse = run(init, 1.0, 2.0, logistic1, SolverConfig(T_end=40.0, output_every=10.0))
    dt = coarse.config["dt"]
    fine = run(init, 1.0, 2.0, logistic1,
               SolverConfig(T_end=40.0, dt=dt / 4, output_every=10.0))
    a, b = coarse.final_state, fine.final_state
    assert coarse.termination_reason == fine.termination_reason == "completed"
    assert abs(a.g_prime - b.g_prime) / abs(b.g_prime) <= 1e-10  # measured: 9.1e-14
    assert float(np.max(np.abs(a.U - b.U))) <= 1e-10  # measured: 9.9e-14


@pytest.mark.parametrize("dt", [0.01, None])
@pytest.mark.parametrize(
    "alpha, beta, gamma, spec",
    [(2.0, 2.0, 4.0, "custom:0.25,-0.125"), (4.0, 0.5, 2.0, "custom:0.5,-0.125"),
     (0.5, 1.0, 1.0, "custom:1,-2")],
)
def test_run_is_covariant_under_scaling(logistic1, alpha, beta, gamma, spec, dt):
    # u = alpha*v, x = beta*y, t = gamma*s maps (d, f, delta, g) to
    # (d*beta^2/gamma, (alpha/gamma)*f(./alpha), alpha*delta, beta*g); with
    # power-of-2 factors every product is exact, so a run whose bounds all
    # carry the problem's units maps bit for bit onto its image
    def solve(d, f, delta, L_y, u0, scale):
        grid = Grid1D(L_y, 400)
        init = InitialData.from_callable(grid, delta, u0)
        config = SolverConfig(T_end=5.0 * scale, dt=None if dt is None else dt * scale,
                              output_every=scale)
        rec = run(init, d, delta, f, config)
        assert rec.termination_reason == "completed", rec.diagnostic
        return rec

    base_rec = solve(1.0, logistic1, 2.0, 40.0, exp_approach_u0(2.0), 1.0)
    image_rec = solve(beta**2 / gamma, parse_reaction(spec), alpha * 2.0, 40.0 * beta,
                      lambda y: alpha * exp_approach_u0(2.0)(np.asarray(y) / beta), gamma)
    base, image = base_rec.final_state, image_rec.final_state
    assert np.array_equal(image.U, alpha * base.U)
    assert image.g == beta * base.g
    assert image.g_prime == beta / gamma * base.g_prime
    # the cell Peclet number h*|g'|/d is a number of the problem, not of its units
    peclet = [[w for w in rec.warnings if "Peclet" in w] for rec in (base_rec, image_rec)]
    assert peclet[0] == peclet[1]


# u = 2 on [0, 0.05], then 1 at 0.1, 1.2 at 10 and 1 at 20: g'(0) = 0, then a
# transient that outruns the speed scale S = |bracket_low| = 1.29 of a step
# fixed in advance
STEEP_TABLE = ([0.0, 0.05, 0.1, 10.0, 20.0], [2.0, 2.0, 1.0, 1.2, 1.0])
KINKED_DATA = {
    "steep": table_u0(*STEEP_TABLE),
    "step": lambda y: np.where(np.asarray(y) < 1.0, 2.0, 1.0),
}


@pytest.mark.parametrize("N", [4000, 8000])
@pytest.mark.parametrize("data", sorted(KINKED_DATA))
def test_kinked_data_keep_the_bounds_of_the_continuous_problem(monkeypatch, logistic1, data, N):
    # steps with r up to 160 give up the discrete maximum principle; the
    # backward-Euler start-up damps the kinks' ringing, so every step keeps
    # min(u0, xi) <= U <= sup(u0).  Measured: overshoot 0, undershoot at most
    # 2.3e-13; without the start-up the steep table overshoots by 0.35 and
    # the step data undershoot by 0.047 (N = 4000) and 0.072 (N = 8000)
    grid = Grid1D(100.0, N)
    init = InitialData.from_callable(grid, 2.0, KINKED_DATA[data])
    extremes = []
    original = frontsolver.step

    def recording(state, *args, **kwargs):
        new = original(state, *args, **kwargs)
        extremes.append((new.U[1:].min(), new.U[1:].max()))
        return new

    monkeypatch.setattr(frontsolver, "step", recording)
    rec = run(init, 1.0, 2.0, logistic1, SolverConfig(T_end=2.0))
    assert rec.termination_reason == "completed", rec.diagnostic
    lows, highs = np.array(extremes).T
    assert highs.max() <= init.sup_norm
    assert lows.min() >= min(init.inf_value, logistic1.stable_zero) - 1e-12


@pytest.mark.parametrize("N", [4000, 8000])
def test_steep_table_outruns_a_step_fixed_from_the_speed_scale(monkeypatch, logistic1, N):
    # the transient's |g'| passes 2*S, the speed a step fixed at
    # 0.5*h/(2*S) was sized for under explicit advection; with advection in
    # the implicit solve, that step and the default one both run through it
    grid = Grid1D(100.0, N)
    init = InitialData.from_callable(grid, 2.0, KINKED_DATA["steep"])
    speeds = []
    original = frontsolver.step

    def recording(state, *args, **kwargs):
        new = original(state, *args, **kwargs)
        speeds.append(abs(new.g_prime))
        return new

    monkeypatch.setattr(frontsolver, "step", recording)
    rec = run(init, 1.0, 2.0, logistic1, SolverConfig(T_end=2.0))
    assert rec.termination_reason == "completed", rec.diagnostic
    speed_scale = abs(bracket_low(1.0, logistic1, 2.0))
    speeds.clear()
    fixed = run(init, 1.0, 2.0, logistic1,
                SolverConfig(T_end=2.0, dt=0.5 * grid.h / (2.0 * speed_scale)))
    assert fixed.termination_reason == "completed", fixed.diagnostic
    assert max(speeds) > 2.0 * speed_scale  # measured: 3.29 at N = 4000, 3.62 at 8000


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


def step_band(N, r, a):
    """The implicit matrix of a step in ``scipy.linalg.solve_banded``'s (1, 1)
    layout: rows (a - r, 1 + 2r, -r - a) and the ghost-reflection row (-2r, 1 + 2r)."""
    ab = np.zeros((3, N))
    ab[0, 1:] = -r - a
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, : N - 1] = a - r
    ab[2, N - 2] = -2.0 * r
    return ab


def banded_matvec(ab, x):
    y = ab[1] * x
    y[:-1] += ab[0, 1:] * x[1:]
    y[1:] += ab[2, :-1] * x[:-1]
    return y


@pytest.mark.parametrize("peclet", [0.0, 0.08, -0.08, 1.0, -1.0])
@pytest.mark.parametrize("r", [2.0**-6, 0.5, 5.0, 20.0, 320.0])
def test_solve_matches_scipy_bit_for_bit(r, peclet):
    import scipy.linalg

    N = 2000
    ab = step_band(N, r, 0.5 * peclet * r)  # a/r = h*g'/(2d), half the cell Peclet number
    b = np.random.default_rng(N).uniform(0.5, 3.0, N)
    x = frontsolver.solve_banded((1, 1), ab, b)
    assert np.array_equal(x, scipy.linalg.solve_banded((1, 1), ab, b))
    # normwise backward error; with |a| <= r every row's magnitudes sum to at
    # most 1 + 4r, and k = 8 covers the bound of Gaussian elimination with
    # partial pivoting, whose growth factor on a tridiagonal matrix is at
    # most 2, and the rounding of the residual itself (measured: at most 0.78)
    eps = np.finfo(float).eps
    residual = np.max(np.abs(banded_matvec(ab, x) - b))
    assert residual <= 8.0 * eps * ((1.0 + 4.0 * r) * np.max(np.abs(x)) + np.max(np.abs(b)))


def test_singular_solve_raises_numerical_error():
    ab = np.zeros((3, 200))
    ab[1] = 1.0
    ab[1, 5] = 0.0  # column 5 is zero: no pivot
    with pytest.raises(NumericalError, match="info=6"):
        frontsolver.solve_banded((1, 1), ab, np.ones(200))


def _short_run(f, dt):
    grid = Grid1D(25.0, 400)
    init = InitialData.from_callable(grid, 2.0, exp_approach_u0(2.0))
    return run(init, 1.0, 2.0, f, SolverConfig(T_end=1.0, dt=dt, output_every=0.25))


def test_run_through_scipy_solve_gives_identical_rows(monkeypatch, logistic1):
    import scipy.linalg

    # dt = 0.03 gives r = 3.84 and a shortened last step in every output interval
    ours = _short_run(logistic1, 0.03)
    monkeypatch.setattr(frontsolver, "solve_banded", scipy.linalg.solve_banded)
    plain = _short_run(logistic1, 0.03)
    assert len(ours.rows) == len(plain.rows) == 5  # t = 0 and the 4 output times
    assert np.array_equal(np.array(ours.rows), np.array(plain.rows), equal_nan=True)
    assert np.array_equal(ours.final_state.U, plain.final_state.U)


def test_run_takes_one_step_size(monkeypatch, logistic1):
    taken = []
    original = frontsolver.step

    def recording(state, d, delta, f, dt, **kwargs):
        taken.append(dt)
        return original(state, d, delta, f, dt, **kwargs)

    monkeypatch.setattr(frontsolver, "step", recording)
    rec = _short_run(logistic1, None)
    # the cap 0.5/max|f'| = 0.1 at g' = 0.9, where dt*|g'| is 1.4*h: four
    # backward-Euler half-steps, then steps of 0.1 but for one shortened step
    # that lands on each of the 4 output times
    assert taken[:4] == [0.05] * 4
    shortened = [dt for dt in taken[4:] if dt != 0.1]
    assert len(shortened) == 4 and max(shortened) < 0.1
    assert (rec.config["dt"], rec.config["dt_max"]) == (0.1, 0.1)


def reference_rhs(U, h, d, delta, gp, dt, f_values, source_values):
    """The explicit half as assembled from separate Laplacian and advection arrays,
    plus the implicit half's boundary term."""
    N = U.size - 1
    lap = np.empty(N)
    lap[: N - 1] = (U[0:-2] - 2.0 * U[1:-1] + U[2:]) / (h * h)
    lap[N - 1] = 2.0 * (U[N - 1] - U[N]) / (h * h)
    adv = np.zeros(N)  # zero at the reflected far node
    adv[: N - 1] = gp * (U[2:] - U[:-2]) / (2.0 * h)
    rhs = U[1:] + dt * f_values + 0.5 * dt * (adv + d * lap)
    if source_values is not None:
        rhs += dt * source_values
    r, a = 0.5 * dt * d / (h * h), 0.25 * dt * gp / h
    rhs[0] += (r - a) * delta
    return rhs


def record_rhs(monkeypatch):
    """The right-hand sides ``step`` hands to the solve, in call order."""
    seen = []
    solve = frontsolver.solve_banded

    def recording(l_and_u, ab, rhs):
        seen.append(rhs.copy())
        return solve(l_and_u, ab, rhs)

    monkeypatch.setattr(frontsolver, "solve_banded", recording)
    return seen


@pytest.mark.parametrize("gp", [0.9, 0.0, -0.9])
@pytest.mark.parametrize("with_source", [False, True])
def test_fused_rhs_matches_reference_assembly(monkeypatch, logistic1, gp, with_source):
    grid = Grid1D(20.0, 200)  # h = 0.1; dt = 0.03 gives r = 1.5, a = 0.0675*sign(g')
    d, delta, dt = 1.0, 2.0, 0.03
    y = grid.nodes
    U = 1.0 + np.exp(-0.5 * y) * (1.0 + 0.4 * np.sin(3.0 * y))  # U(0) = delta
    source = (lambda t, yy: 0.3 * np.cos(yy) + 0.1) if with_source else None
    seen = record_rhs(monkeypatch)
    step(FrontFixedState(grid, 0.0, U, 0.0, gp), d, delta, logistic1, dt, source=source)
    f_values = logistic1(U[1:])
    source_values = source(0.0, y[1:]) if with_source else None
    expected = reference_rhs(U, grid.h, d, delta, gp, dt, f_values, source_values)
    (got,) = seen
    # row scale: the sum of the magnitudes of a row's terms, bounded through
    # the largest |U| on the nodes j-1..j+1 that the central stencil reads
    r, a = 0.5 * dt * d / grid.h**2, 0.25 * dt * abs(gp) / grid.h
    window = np.lib.stride_tricks.sliding_window_view(np.pad(np.abs(U), 1, mode="edge"), 3)
    scale = (1.0 + 4.0 * r + 4.0 * a) * window[1:].max(axis=1) + dt * np.abs(f_values)
    if with_source:
        scale += dt * np.abs(source_values)
    scale[0] += (r + a) * delta
    # every row, including row 0, next to the front, and row N-1, where the
    # ghost reflection lives; measured: at most 0.15 ulp of scale
    err = np.abs(got - expected)
    assert err.shape == scale.shape == (grid.N,)
    assert np.all(err <= 4.0 * np.finfo(float).eps * scale), np.flatnonzero(err > 0)


@pytest.mark.parametrize(
    "gp, dt", [(0.8866875316076284, 0.0025), (-0.5, 0.0025), (0.38692414169094524, 0.01)],
    ids=["0.8866875316076284", "-0.5", "0.38692414169094524-0.01"],
)
def test_flat_state_adds_exact_zeros(monkeypatch, logistic1, gp, dt):
    # U = 1 = xi beyond the front: every row the front does not reach must
    # come out as U + dt*f(U) = 1 exactly.
    # Stencil weights summed in floating point, (r - a) + (1 - 2r) + (r + a),
    # miss 1 by an ulp for about half of all g' in [-1, 1] at dt = 0.01, r = 2
    # (third case), which biases the far field of a settled run by about eps/dt
    grid = Grid1D(100.0, 2000)
    U = np.ones(grid.N + 1)
    U[0] = 2.0
    seen = record_rhs(monkeypatch)
    step(FrontFixedState(grid, 0.0, U, 0.0, gp), 1.0, 2.0, logistic1, dt)
    assert np.array_equal(seen[0][1:], np.ones(grid.N - 1))


def _dmp_cases():
    h = 0.05
    for gp in (0.9, -0.9, 19.9, -19.9):
        for dt in (h * h, 0.4 * h * h):
            if dt * abs(gp) <= 0.5 * h:  # the advection guard
                for data in ("random", "step"):
                    yield gp, dt, data


@pytest.mark.parametrize("gp, dt, data", list(_dmp_cases()))
def test_step_keeps_discrete_maximum_principle(gp, dt, data):
    # with f = 0, r <= 1/2 and h*|g'| <= d, the explicit weights
    # (1 - 2r, r + a, r - a) are a convex combination and the implicit half
    # is an M-matrix, so one step stays within [min(U, delta), max(U, delta)]
    grid = Grid1D(10.0, 200)  # h = 0.05, so h*|g'| <= 0.995
    delta = 2.0
    if data == "random":
        U = np.random.default_rng(7).uniform(0.1, 4.0, grid.N + 1)
    else:
        U = np.where(grid.nodes < 1.0, delta, 0.5)
    U[0] = delta
    lo, hi = min(U.min(), delta), max(U.max(), delta)
    new = step(FrontFixedState(grid, 0.0, U, 0.0, gp), 1.0, delta, zero_reaction(), dt).U
    tol = 4.0 * np.finfo(float).eps * hi
    assert lo - tol <= new.min() and new.max() <= hi + tol, (new.min() - lo, new.max() - hi)


def test_spatial_floor_at_n_1000(logistic1, speed_ref):
    # the settled errors of the central stencil on a coarse headline grid;
    # measured: 2.00e-2 relative speed and 2.64e-3 profile
    from retreatwave import speed_trend

    grid = Grid1D(100.0, 1000)
    init = InitialData.from_callable(grid, 2.0, exp_approach_u0(2.0))
    rec = run(init, 1.0, 2.0, logistic1, SolverConfig(T_end=25.0, output_every=5.0),
              reference=speed_ref.profile)
    assert rec.termination_reason == "completed"
    # every step but the start-up takes the cap 0.5/max|f'| = 0.1
    assert (rec.config["dt"], rec.config["dt_max"]) == (0.1, 0.1)
    report = speed_trend(rec, speed_ref.retreat_speed)
    assert report.final_speed_error <= 0.022 * abs(speed_ref.retreat_speed)
    assert report.final_profile_error <= 0.003


def test_front_position_error_falls_at_first_order_in_dt(logistic1):
    # g, which no check reads, carries the transient's error in time; on the
    # headline grid at T = 25 the differences of g between dt = 0.1 (the
    # cap), 0.05 and 0.025 shrink at least 2-fold as dt halves (measured:
    # 2.68), and g grows toward its limit
    grid = Grid1D(100.0, 2000)
    init = InitialData.from_callable(grid, 2.0, exp_approach_u0(2.0))
    g = [run(init, 1.0, 2.0, logistic1, SolverConfig(T_end=25.0, dt=dt, output_every=5.0))
         .final_state.g for dt in (0.1, 0.05, 0.025)]
    coarse, fine = g[1] - g[0], g[2] - g[1]
    assert coarse > fine > 0.0
    assert coarse / fine >= 2.0


def test_fast_front_steps_at_the_reaction_cap(logistic1):
    # delta = 12 retreats at 8.2; the reaction cap 0.5/max|f'| = 1/70 sets
    # every step, so T = 10 takes 702 steps (44 102 when the step had to keep
    # dt*|g'| <= h/2), and g' settles within criterion 8's 2 % of the wave
    # speed (measured: 0.44 %)
    speed = find_wave_speed(1.0, logistic1, 12.0).retreat_speed
    grid = Grid1D(20.0, 4000)
    init = InitialData.from_callable(grid, 12.0, exp_approach_u0(12.0))
    rec = run(init, 1.0, 12.0, logistic1, SolverConfig(T_end=10.0, output_every=10.0))
    assert rec.termination_reason == "completed", rec.diagnostic
    assert rec.config["steps"] <= 1000
    assert abs(rec.final_state.g_prime - speed) <= 0.02 * speed
