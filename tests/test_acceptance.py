"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The desk-scale PDE run shared by criteria 8-10 uses the pinned
parameters d=1, delta=2, logistic rate 1, N=2000, L_y=100, T=100.
"""
import math
import time

import numpy as np
import pytest
import sympy as sp
from click.testing import CliRunner

from retreatwave import (
    FrontFixedState,
    Grid1D,
    InitialData,
    IntegrationOptions,
    SolverConfig,
    bracketing_sequences,
    closed_form_zero_speed,
    density_sweep,
    exp_approach_u0,
    find_wave_speed,
    front_speed_from_state,
    integrate_trajectory,
    make_perturbation_pair,
    perturbed_wave_speeds,
    profile_u0,
    reconstruct_profile,
    residual_monotonicity_audit,
    run,
    sandwich_check,
    speed_trend,
    step,
)
from retreatwave.cli import main as cli_main

D, DELTA = 1.0, 2.0
PINNED_GRID = dict(L_y=100.0, N=2000)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def headline_run(logistic1, speed_ref):
    """Criterion-8 run: u0 = 1 + (delta-1)exp(-y), T = 100, pinned grid."""
    grid = Grid1D(**PINNED_GRID)
    init = InitialData.from_callable(grid, DELTA, exp_approach_u0(DELTA))
    cfg = SolverConfig(T_end=100.0, output_every=0.25, keep_snapshots=True)
    t0 = time.perf_counter()
    record = run(init, D, DELTA, logistic1, cfg, reference=speed_ref.profile)
    elapsed = time.perf_counter() - t0
    assert record.termination_reason == "completed"
    assert record.warnings == []  # cell Peclet number h*|g'|/d = 0.045
    return record, elapsed


def test_criterion_1_closed_form_oracle(logistic1, exact_zero_speed):
    # the collocation at c = 0 against closed_form_zero_speed, whose
    # quadrature runs on the collocation's own Chebyshev points, and against
    # the exact logistic formula, which shares nothing with either
    worst = 0.0
    slowest = 0.0
    for d in (0.5, 1.0, 2.0):
        for delta in (1.5, 2.0, 3.0):
            t0 = time.perf_counter()
            traj = integrate_trajectory(0.0, d, logistic1, delta)
            qs = np.linspace(1.0, delta, 2000)
            closed = np.array([closed_form_zero_speed(q, d, logistic1) for q in qs])
            p = traj.p_at(qs)
            slowest = max(slowest, time.perf_counter() - t0)
            for oracle in (closed, exact_zero_speed(qs, 1.0, d)):
                worst = max(worst, float(np.max(np.abs(p - oracle))))
    anchor = integrate_trajectory(0.0, 1.0, logistic1, 2.0).endpoint_slope
    anchor_err = abs(anchor - (-math.sqrt(5.0 / 3.0)))
    _report(
        1,
        worst <= 1e-8 and anchor_err <= 1e-8 and slowest < 1.0,
        f"sup err {worst:.2e} <= 1e-8 against both oracles, P0(2)|d=1 err {anchor_err:.2e}, "
        f"slowest case {slowest:.2f}s < 1s",
    )


def test_criterion_2_residual_monotone_and_bracket(logistic1, speed_ref):
    t0 = time.perf_counter()
    audit = residual_monotonicity_audit(D, logistic1, DELTA, 50)
    elapsed = time.perf_counter() - t0
    ok = (
        audit.strictly_decreasing
        and audit.residuals[0] > 0.0 > audit.residuals[-1]
        and speed_ref.residual <= 1e-10
        and speed_ref.bracket[0] < speed_ref.c_star < 0.0
        and elapsed < 5.0
    )
    _report(
        2,
        ok,
        f"50-point audit strictly decreasing, residual(c0)={audit.residuals[0]:.3f} > 0 "
        f"> residual(0)={audit.residuals[-1]:.3f}, |residual(c*)|={speed_ref.residual:.1e} "
        f"<= 1e-10, c*={speed_ref.c_star:.10f} in bracket, {elapsed:.1f}s < 5s",
    )


def test_criterion_3_speed_law_consistency(logistic1, speed_ref):
    # q*'(0) = P(delta) from a fresh, tighter solve at c*, not the
    # trajectory whose residual the root search itself drove below tol
    tight = IntegrationOptions(rtol=1e-12, atol=1e-14)
    cases = [(D, DELTA, speed_ref.c_star)] + [
        (d, delta, find_wave_speed(d, logistic1, delta).c_star)
        for d, delta in ((0.5, 1.5), (2.0, 3.0))
    ]
    err = max(
        abs(integrate_trajectory(c, d, logistic1, delta, tight).endpoint_slope - c * delta / d)
        for d, delta, c in cases
    )
    _report(3, err <= 1e-9, f"max over (d, delta) of |q*'(0) - c*delta/d| = {err:.2e} <= 1e-9")


def test_criterion_4_delta_monotonicity_and_limit(logistic1):
    deltas = [1.0001, 1.001, 1.01, 1.1, 1.5, 2.0, 2.5, 3.0]
    t0 = time.perf_counter()
    table = density_sweep(D, logistic1, deltas, 1e-10)
    elapsed = time.perf_counter() - t0
    speeds = table.retreat_speeds()
    ok = (
        not table.errors
        and len(speeds) == len(deltas)
        and all(b > a for a, b in zip(speeds, speeds[1:]))
        and speeds[0] < speeds[4] / 10.0
        and elapsed < 30.0
    )
    _report(
        4,
        ok,
        f"retreat speed strictly increasing over {len(deltas)} deltas, "
        f"c(1.0001)={speeds[0]:.3e} < c(1.5)/10={speeds[4] / 10.0:.3e}, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_5_perturbed_speeds(logistic1, speed_ref):
    gaps_lo, gaps_hi = [], []
    for eps in (0.1, 0.05, 0.025):
        ps = perturbed_wave_speeds(D, logistic1, DELTA, eps, c_star_base=speed_ref.c_star)
        assert ps.lower.c_star < speed_ref.c_star < ps.upper.c_star
        gaps_lo.append(speed_ref.c_star - ps.lower.c_star)
        gaps_hi.append(ps.upper.c_star - speed_ref.c_star)
    ok = all(a > b for a, b in zip(gaps_lo, gaps_lo[1:])) and all(
        a > b for a, b in zip(gaps_hi, gaps_hi[1:])
    )
    _report(
        5,
        ok,
        "c1*(eps) < c* < c2*(eps) for eps in {0.1, 0.05, 0.025}; gaps "
        f"lower={[f'{g:.4f}' for g in gaps_lo]}, upper={[f'{g:.4f}' for g in gaps_hi]} "
        "strictly decreasing",
    )


def test_criterion_6_sequence_convergence(logistic1, speed_ref):
    upper, lower = bracketing_sequences(
        D,
        logistic1,
        DELTA,
        c_upper_0=0.0,
        c_lower_0=speed_ref.c_star - 1.0,
        M=10,
        n_max=400,
        reference=speed_ref,
    )
    c_star = speed_ref.c_star
    details = []
    ok = True
    for seq, sign in ((upper, +1.0), (lower, -1.0)):
        cl = np.asarray(seq.c_list)
        monotone = bool(np.all(np.diff(cl) < 0)) if sign > 0 else bool(np.all(np.diff(cl) > 0))
        sandwich = bool(np.all(cl > c_star)) if sign > 0 else bool(np.all(cl < c_star))
        gaps = np.abs(cl - c_star)
        hit = np.nonzero(gaps <= 1e-2)[0]
        reached = hit.size > 0 and hit[0] <= 2000
        sup_decreasing = bool(np.all(np.diff(np.asarray(seq.sup_gaps)) <= 1e-12))
        ok = ok and monotone and sandwich and reached and sup_decreasing
        details.append(f"{seq.direction}: gap<=1e-2 at n={int(hit[0]) if hit.size else -1}")
    _report(6, ok, "; ".join(details) + " (<= 2000); both monotone, sandwiching, sup gaps decreasing")


def test_criterion_7_traveling_state_preservation(logistic1, speed_ref):
    grid = Grid1D(**PINNED_GRID)
    init = InitialData.from_callable(grid, DELTA, profile_u0(speed_ref.profile))
    t0 = time.perf_counter()
    record = run(
        init,
        D,
        DELTA,
        logistic1,
        SolverConfig(T_end=10.0, output_every=0.25),
        reference=speed_ref.profile,
    )
    elapsed = time.perf_counter() - t0
    c_target = speed_ref.retreat_speed
    rel = np.abs(record.column("g_prime") - c_target) / c_target
    worst = float(rel.max())
    _report(
        7,
        record.termination_reason == "completed" and worst <= 0.01 and elapsed < 60.0,
        f"max |g'(t) - c(delta)|/c(delta) = {worst:.4f} <= 0.01 over t in [0, 10], "
        f"{elapsed:.0f}s < 60s",
    )


def test_criterion_8_desk_scale_convergence(headline_run, speed_ref):
    record, elapsed = headline_run
    c_target = speed_ref.retreat_speed
    report = speed_trend(record, c_target)
    speed_ok = report.final_speed_error <= 0.02 * c_target
    profile_ok = report.final_profile_error <= 0.05
    _report(
        8,
        speed_ok and profile_ok and report.monotone_tail and elapsed < 600.0,
        f"final speed err {report.final_speed_error:.4f} <= {0.02 * c_target:.4f}, "
        f"final profile err {report.final_profile_error:.4f} <= 0.05, "
        f"monotone tail {report.monotone_tail}, {elapsed:.0f}s < 600s",
    )


def test_criterion_9_a_priori_bounds_and_signs(headline_run):
    record, _ = headline_run
    c1 = record.config["C1"]
    min_u = record.column("min_U")
    max_u = record.column("max_U")
    gp = record.column("g_prime")
    ts = record.column("t")
    bounds_ok = bool(np.all(min_u > 0.0) and np.all(max_u <= c1))
    burn_in = 5.0
    late = ts >= burn_in
    signs_ok = bool(np.all(gp[late] > 0.0) and np.all(max_u[late] < DELTA))
    t0_band, x0_band = 20.0, 30.0
    band_ok = True
    for snap in record.snapshots:
        if snap.t < t0_band:
            continue
        far = snap.U[snap.grid.nodes >= x0_band]
        band_ok = band_ok and bool(np.all((far >= 0.95) & (far <= 1.05)))
    _report(
        9,
        bounds_ok and signs_ok and band_ok,
        f"0 < U <= c1 = 1.5*sup(u0) = {c1:g} on all rows; g' > 0 and interior max U < delta "
        f"for t >= {burn_in:g}; far-field band [0.95, 1.05] beyond X0={x0_band:g} "
        f"for t >= {t0_band:g}",
    )


def test_headline_run_takes_at_most_an_eighth_of_the_h2_steps(headline_run):
    # the front speed, not h^2, sets the step: at most 1/8 of the T*d/h^2 =
    # 40 000 steps at dt = h^2/d (measured: 4002)
    record, _ = headline_run
    h = PINNED_GRID["L_y"] / PINNED_GRID["N"]
    assert record.config["steps"] <= record.config["T_end"] * D / h**2 / 8


def test_criterion_10_sandwich_at_late_times(headline_run, logistic1):
    record, _ = headline_run
    pair = make_perturbation_pair(logistic1, 0.1)
    upper_run, _ = bracketing_sequences(
        D, pair.upper, DELTA, c_upper_0=0.0, M=10, n_max=4
    )
    _, lower_run = bracketing_sequences(D, pair.lower, DELTA, M=10, n_max=4)
    lower_profiles = [reconstruct_profile(integrate_trajectory(c, D, pair.lower, DELTA))
                      for c in lower_run.c_list[1:4]]
    upper_profiles = [reconstruct_profile(integrate_trajectory(c, D, pair.upper, DELTA))
                      for c in upper_run.c_list[1:4]]
    t_cut = 0.8 * record.config["T_end"]
    checked = 0
    ok = True
    for snap in record.snapshots:
        if snap.t < t_cut:
            continue
        rep = sandwich_check(snap, lower_profiles, upper_profiles)
        ok = ok and rep.all_passed
        checked += 1
    _report(
        10,
        ok and checked > 0,
        f"lower_j <= U <= upper_j nodewise (tol 2h) for j in {{1,2,3}} at "
        f"{checked} recorded states with t >= {t_cut:g}",
    )


def test_criterion_11_manufactured_solution_orders(logistic1):
    y, t = sp.symbols("y t")
    phi = y * sp.sin(y) * sp.exp(-y)
    u_exact = DELTA + sp.exp(-t) * phi
    source_expr = sp.diff(u_exact, t) - D * sp.diff(u_exact, y, 2) - u_exact * (1 - u_exact)
    source = sp.lambdify((t, y), sp.simplify(source_expr), "numpy")
    u_fn = sp.lambdify((t, y), u_exact, "numpy")

    def mms_error(N, dt, T=0.5, L=25.0):
        grid = Grid1D(L, N)
        u0 = np.asarray(u_fn(0.0, grid.nodes), dtype=float)
        st = FrontFixedState(grid, 0.0, u0, 0.0, 0.0)
        st = FrontFixedState(grid, 0.0, u0, 0.0, front_speed_from_state(st, D, DELTA))
        for _ in range(round(T / dt)):
            st = step(st, D, DELTA, logistic1, dt, source=source)
        return float(np.max(np.abs(st.U - u_fn(st.t, grid.nodes))))

    errs_h = [mms_error(N, dt=0.1 * (25.0 / N) ** 2) for N in (200, 400, 800)]
    orders_h = [math.log2(errs_h[i] / errs_h[i + 1]) for i in range(2)]
    errs_t = [mms_error(2000, dt) for dt in (0.04, 0.02, 0.01)]
    orders_t = [math.log2(errs_t[i] / errs_t[i + 1]) for i in range(2)]
    ok = all(o >= 2.0 for o in orders_h) and all(o >= 1.0 for o in orders_t)
    _report(
        11,
        ok,
        f"observed orders: h {[f'{o:.2f}' for o in orders_h]} >= 2, "
        f"dt {[f'{o:.2f}' for o in orders_t]} >= 1",
    )


def test_criterion_12_determinism(tmp_path):
    runner = CliRunner()
    # criterion-2 artifacts: speed result and residual audit
    for sub in ("s1", "s2"):
        res = runner.invoke(
            cli_main,
            ["speed", "--delta", "2", "--audit-grid", "50", "--out", str(tmp_path / sub)],
            catch_exceptions=False,
        )
        assert res.exit_code == 0, res.output
    audit_same = (tmp_path / "s1/audit.csv").read_bytes() == (tmp_path / "s2/audit.csv").read_bytes()
    speed_same = (tmp_path / "s1/speed.json").read_bytes() == (tmp_path / "s2/speed.json").read_bytes()

    # criterion-8 artifacts: run record and verification series
    sim_args = [
        "simulate", "--u0", "exp_approach", "--T", "100", "--N", "2000", "--L", "100",
        "--output-every", "0.25", "--verify",
    ]
    for sub in ("r1", "r2"):
        res = runner.invoke(
            cli_main, sim_args + ["--out", str(tmp_path / sub)], catch_exceptions=False
        )
        assert res.exit_code == 0, res.output
    run_same = (tmp_path / "r1/run.csv").read_bytes() == (tmp_path / "r2/run.csv").read_bytes()
    series_same = (
        (tmp_path / "r1/verify_series.csv").read_bytes()
        == (tmp_path / "r2/verify_series.csv").read_bytes()
    )
    _report(
        12,
        audit_same and speed_same and run_same and series_same,
        "byte-identical outputs on repetition: audit.csv, speed.json, run.csv, "
        "verify_series.csv",
    )
