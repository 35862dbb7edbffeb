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
    assert "U in (0, inf]" in err.value.diagnostic


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
    assert rec.final_state.t < 0.1  # measured: aborts at t = 0.0825


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
    # dt*max|f'| <= 1/2 binds: |f'| = |1 - 2u| peaks at 5 on [0, sup(u0) + 1] = [0, 3]
    assert 0.5 / 5.0 == rec.config["dt"] < 0.5 * grid.h / DEFAULT_SPEED_CAP
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


def cn_matrix(N, r):
    """The Crank-Nicolson matrix in ``scipy.linalg.solve_banded``'s (1, 1) layout,
    with the ghost-reflection row (-2r, 1 + 2r) as assembled, not halved."""
    ab = np.zeros((3, N))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, : N - 1] = -r
    ab[2, N - 2] = -2.0 * r
    return ab


def banded_matvec(ab, x):
    y = ab[1] * x
    y[:-1] += ab[0, 1:] * x[1:]
    y[1:] += ab[2, :-1] * x[:-1]
    return y


@pytest.mark.parametrize("N", [200, 2000, 8000])
@pytest.mark.parametrize("r", [1e-12, 0.125, 4.0, 128.0, 1e4])
def test_cached_factor_solve_matches_scipy_bit_for_bit(N, r):
    factors = frontsolver._cn_factors(N, r)
    assert not factors.flags.writeable
    with pytest.raises(ValueError):
        factors[0, 0] = 1.0
    b = np.random.default_rng(N).uniform(0.5, 3.0, N)
    b_sym = b.copy()
    b_sym[-1] *= 0.5  # the solver takes the halved ghost row
    x = frontsolver.solve_banded((1, 1), factors, b_sym)
    # the uncached solve of the symmetrised matrix, scipy's ``solveh_banded``
    # (LAPACK ?ptsv), is the same factorisation, so caching changes no bit
    symmetric = np.zeros((2, N))
    symmetric[0, 1:] = -r
    symmetric[1] = 1.0 + 2.0 * r
    symmetric[1, -1] = 0.5 + r
    assert np.array_equal(x, scipy.linalg.solveh_banded(symmetric, b_sym))
    # normwise backward error against the unsymmetrised matrix, whose
    # infinity norm is its ghost row's 1 + 4r; k = 8 covers the LDL^T bound
    # and the rounding of the residual itself (measured: at most 0.82)
    ab = cn_matrix(N, r)
    eps = np.finfo(float).eps
    norm_a = 1.0 + 4.0 * r
    residual = np.max(np.abs(banded_matvec(ab, x) - b))
    assert residual <= 8.0 * eps * (norm_a * np.max(np.abs(x)) + np.max(np.abs(b)))
    # A is an M-matrix (a diagonally dominant Z-matrix), so A^-1 >= 0 and
    # ||A^-1||_inf = ||A^-1 1||_inf: cond_inf(A) costs one solve; both solvers
    # are backward stable, so their solutions differ by O(eps * cond)
    # (measured: at most 0.48 * eps * cond)
    expected = scipy.linalg.solve_banded((1, 1), ab, b)
    cond = norm_a * np.max(scipy.linalg.solve_banded((1, 1), ab, np.ones(N)))
    assert np.max(np.abs(x - expected)) <= 8.0 * eps * cond * np.max(np.abs(expected))


def _short_run(f, dt):
    grid = Grid1D(25.0, 400)
    init = InitialData.from_callable(grid, 2.0, exp_approach_u0(2.0))
    return run(init, 1.0, 2.0, f, SolverConfig(T_end=1.0, dt=dt, output_every=0.25))


def test_run_with_cached_factors_matches_scipy_solves(monkeypatch, logistic1):
    # dt = 0.03 gives r = 3.84 and a shortened last step of 0.01
    cached = _short_run(logistic1, 0.03)

    def scipy_solve(l_and_u, ab, rhs):
        full = rhs.copy()
        full[-1] *= 2.0  # undo the halving of the ghost row
        return scipy.linalg.solve_banded(l_and_u, ab, full, check_finite=False)

    monkeypatch.setattr(frontsolver, "_cn_factors", cn_matrix)
    monkeypatch.setattr(frontsolver, "solve_banded", scipy_solve)
    plain = _short_run(logistic1, 0.03)
    assert len(cached.rows) == len(plain.rows) == 6
    # the two solves round differently; measured: rows differ by at most
    # 2.7e-15 (1/2 + r -> 1 + r in the ghost row moves them by 0.69, and a
    # right-hand side left unhalved aborts the run on its bound check)
    np.testing.assert_allclose(np.array(cached.rows), np.array(plain.rows), rtol=0, atol=1e-12)
    np.testing.assert_allclose(cached.final_state.U, plain.final_state.U, rtol=0, atol=1e-12)


def test_run_factors_once_per_step_size(monkeypatch, logistic1):
    calls = []
    factor = frontsolver.dpttrf

    def counting(*args, **kwargs):
        calls.append(args[0].size)
        return factor(*args, **kwargs)

    monkeypatch.setattr(frontsolver, "dpttrf", counting)
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


def reference_rhs(U, h, d, delta, gp, dt, f_values, source_values):
    """The explicit half as assembled from separate Laplacian and advection arrays."""
    N = U.size - 1
    lap = np.empty(N)
    lap[: N - 1] = (U[0:-2] - 2.0 * U[1:-1] + U[2:]) / (h * h)
    lap[N - 1] = 2.0 * (U[N - 1] - U[N]) / (h * h)
    adv = np.zeros(N)
    if gp >= 0.0:
        adv[: N - 2] = gp * (-3.0 * U[1:-2] + 4.0 * U[2:-1] - U[3:]) / (2.0 * h)
        adv[N - 2] = gp * (U[N] - U[N - 1]) / h
    else:
        adv[1 : N - 1] = gp * (3.0 * U[2:-1] - 4.0 * U[1:-2] + U[0:-3]) / (2.0 * h)
        adv[0] = gp * (U[1] - U[0]) / h
    rhs = U[1:] + dt * (adv + f_values) + 0.5 * dt * d * lap
    if source_values is not None:
        rhs += dt * source_values
    r = 0.5 * dt * d / (h * h)
    rhs[0] += r * delta
    return rhs


def record_rhs(monkeypatch):
    """The right-hand sides ``step`` hands to the solve, in call order."""
    seen = []
    solve = frontsolver.solve_banded

    def recording(l_and_u, factors, rhs):
        seen.append(rhs.copy())
        return solve(l_and_u, factors, rhs)

    monkeypatch.setattr(frontsolver, "solve_banded", recording)
    return seen


@pytest.mark.parametrize("gp", [0.9, 0.0, -0.9])
@pytest.mark.parametrize("with_source", [False, True])
def test_fused_rhs_matches_reference_assembly(monkeypatch, logistic1, gp, with_source):
    grid = Grid1D(20.0, 200)  # h = 0.1; dt = 0.03 gives r = 1.5, a = 0.135*sign(g')
    d, delta, dt = 1.0, 2.0, 0.03
    y = grid.nodes
    U = 1.0 + np.exp(-0.5 * y) * (1.0 + 0.4 * np.sin(3.0 * y))  # U(0) = delta
    source = (lambda t, yy: 0.3 * np.cos(yy) + 0.1) if with_source else None
    seen = record_rhs(monkeypatch)
    step(FrontFixedState(grid, 0.0, U, 0.0, gp), d, delta, logistic1, dt, source=source)
    f_values = logistic1(U[1:])
    source_values = source(0.0, y[1:]) if with_source else None
    expected = reference_rhs(U, grid.h, d, delta, gp, dt, f_values, source_values)
    expected[-1] *= 0.5  # exact: the solver takes the halved ghost row
    (got,) = seen
    # row scale: the sum of the magnitudes of a row's terms, bounded through
    # the largest |U| on the nodes j-2..j+2 that either upwind stencil reads
    r, a = 0.5 * dt * d / grid.h**2, 0.5 * dt * abs(gp) / grid.h
    window = np.lib.stride_tricks.sliding_window_view(np.pad(np.abs(U), 2, mode="edge"), 5)
    scale = (1.0 + 4.0 * r + 8.0 * a) * window[1:].max(axis=1) + dt * np.abs(f_values)
    if with_source:
        scale += dt * np.abs(source_values)
    scale[0] += r * delta
    # every row, including row 0 and rows N-2 and N-1, where the first-order
    # fallback and the ghost reflection live; measured: at most 0.2 ulp of scale
    err = np.abs(got - expected)
    assert err.shape == scale.shape == (grid.N,)
    assert np.all(err <= 4.0 * np.finfo(float).eps * scale), np.flatnonzero(err > 0)


@pytest.mark.parametrize("gp", [0.8866875316076284, -0.5])
def test_flat_state_adds_exact_zeros(monkeypatch, logistic1, gp):
    # U = 1 = xi beyond the front: every row the front does not reach must
    # come out as U + dt*f(U) = 1 exactly (the ghost row halved to 0.5).
    # Stencil weights summed in floating point, r + (1 - 2r - 3a) + (r + 4a) - a,
    # miss 1 by an ulp at the headline's settled g' (first case), which biases
    # the far field of a settled run by about eps/dt (4.4e-14 at dt = 0.0025)
    grid = Grid1D(100.0, 2000)
    U = np.ones(grid.N + 1)
    U[0] = 2.0
    seen = record_rhs(monkeypatch)
    step(FrontFixedState(grid, 0.0, U, 0.0, gp), 1.0, 2.0, logistic1, 0.0025)
    expected = np.ones(grid.N)
    expected[-1] = 0.5
    assert np.array_equal(seen[0][2:], expected[2:])
