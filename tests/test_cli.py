import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from retreatwave import ReactionFunction, cli, parse_reaction, phaseplane, wavespeed
from retreatwave.cli import main
from retreatwave.phaseplane import integrate_trajectory
from retreatwave.serialize import read_csv


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_semiwave_zero_speed(tmp_path, runner):
    out = tmp_path / "sw"
    res = invoke(runner, ["semiwave", "--f", "logistic:r=1", "--d", "1", "--delta", "2",
                          "--c", "0", "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads((out / "semiwave.json").read_text())
    assert payload["endpoint_slope"] == pytest.approx(-math.sqrt(5.0 / 3.0), abs=1e-8)
    assert (out / "trajectory.csv").read_text().splitlines()[0] == "q,P"
    assert (out / "profile.csv").read_text().splitlines()[0] == "x,q"


def test_semiwave_auto_speed_obeys_boundary_law(tmp_path, runner):
    out = tmp_path / "sw"
    res = invoke(runner, ["semiwave", "--delta", "2", "--c", "auto", "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads((out / "semiwave.json").read_text())
    assert payload["endpoint_slope"] == pytest.approx(2.0 * payload["c"], abs=1e-8)


def test_semiwave_rejects_small_delta(tmp_path, runner):
    res = runner.invoke(main, ["semiwave", "--delta", "0.9", "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert "delta must exceed 1" in res.output


def test_semiwave_rejects_malformed_speed(tmp_path, runner):
    res = runner.invoke(main, ["semiwave", "--c", "fast", "--out", str(tmp_path)])
    assert res.exit_code == 1


def test_semiwave_auto_integrates_each_speed_once(tmp_path, runner, monkeypatch):
    speeds = []

    def counting(c, *args, **kwargs):
        speeds.append(c)
        return integrate_trajectory(c, *args, **kwargs)

    monkeypatch.setattr(wavespeed, "integrate_trajectory", counting)
    monkeypatch.setattr(cli, "integrate_trajectory", counting)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        speeds.clear()
        res = invoke(runner, ["semiwave", "--delta", "2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        # the search's start: c* comes from its speed solve and is not solved again
        assert len(speeds) == 1
    for name in ("trajectory.csv", "profile.csv", "semiwave.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_semiwave_trajectory_csv(tmp_path, runner):
    res = invoke(runner, ["semiwave", "--delta", "2", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    header, rows = read_csv(tmp_path / "trajectory.csv")
    q, p = np.array(rows).T
    assert header == ["q", "P"]
    assert len(rows) == 2501
    assert (q[0], p[0]) == (1.0, 0.0)  # the equilibrium (xi, 0)
    assert np.all(np.diff(q) > 0.0)
    assert np.all(p[1:] < 0.0)
    assert p[-1] == json.loads((tmp_path / "semiwave.json").read_text())["endpoint_slope"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["semiwave", "--c", "nan"], "speed c must be finite, got nan"),
        (["semiwave", "--c", "inf"], "speed c must be finite, got inf"),
        (["semiwave", "--c", "-inf"], "speed c must be finite, got -inf"),
        (["sequences", "--c-lower0", "-inf", "--n-max", "1"], "speed c must be finite, got -inf"),
        (["speed", "--d", "inf"], "d must be positive and finite, got inf"),
        (["speed", "--delta", "inf"], "delta must exceed 1 and be finite, got inf"),
        (["simulate", "--T", "nan"], "T_end must be nonnegative and finite, got nan"),
        (["simulate", "--T", "inf"], "T_end must be nonnegative and finite, got inf"),
        (["simulate", "--T", "0.01", "--g0", "nan"], "g0 must be finite, got nan"),
        (["simulate", "--T", "0.01", "--g0", "inf"], "g0 must be finite, got inf"),
        (["simulate", "--T", "0.01", "--L", "inf"], "L_y must be positive and finite, got inf"),
        (["simulate", "--T", "0.01", "--d", "inf"], "d must be positive and finite, got inf"),
        (["sweep", "--deltas", "1.1:inf:0.1"], "needs finite start <= stop and finite step > 0"),
        (["sweep", "--deltas", "nan:3:0.1"], "needs finite start <= stop and finite step > 0"),
        (["sweep", "--deltas", "3:1:0.1"], "needs finite start <= stop and finite step > 0"),
        (["sweep", "--deltas", "1.1:3:nan"], "needs finite start <= stop and finite step > 0"),
        (["sweep", "--deltas", "a:b:c"], "bad deltas 'a:b:c'"),
        (["simulate", "--T", "0.01", "--output-every", "inf"],
         "output_every must be positive and finite, got inf"),
        (["simulate", "--T", "0.01", "--dt", "inf"], "dt must be positive and finite, got inf"),
        (["simulate", "--T", "0.01", "--snapshot-times", "nan"],
         "snapshot times must be finite, got 'nan'"),
        # every comparison with NaN is False, so the order check alone lets a NaN through
        (["sweep", "--deltas", "2,nan,1.5"], "deltas must be finite and strictly increasing"),
        (["sweep", "--deltas", "1.5,inf"], "deltas must be finite and strictly increasing"),
    ],
)
def test_non_finite_numbers_exit_1(tmp_path, runner, args, message):
    res = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert message in res.output


@pytest.mark.parametrize(
    "args, table, message",
    [
        (["simulate", "--T", "0.01", "--snapshot-times", "0.1,soon"], None,
         "bad --snapshot-times list '0.1,soon'"),
        (["simulate", "--T", "0.01", "--u0", "custom_table"], None,
         "custom_table preset needs --table"),
        (["simulate", "--T", "0.01", "--u0", "custom_table"], "x,u\n0,2\n20,1\n",
         "table header must be y,u, got ['x', 'u']"),
        (["sequences", "--m", "0"], None, "M and n_max must be positive"),
    ],
)
def test_validation_errors_exit_1(tmp_path, runner, args, table, message):
    if table is not None:
        (tmp_path / "u0.csv").write_text(table)
        args = args + ["--table", str(tmp_path / "u0.csv")]
    res = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert message in res.output


def test_speed_json_and_determinism(tmp_path, runner):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        res = invoke(runner, ["speed", "--delta", "2", "--audit-grid", "12",
                              "--out", str(out)])
        assert res.exit_code == 0, res.output
    assert (out1 / "speed.json").read_bytes() == (out2 / "speed.json").read_bytes()
    assert (out1 / "audit.csv").read_bytes() == (out2 / "audit.csv").read_bytes()
    payload = json.loads((out1 / "speed.json").read_text())
    assert payload["retreat_speed"] > 0
    assert payload["residual"] <= 1e-10


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["speed", "--tol", "0"], 1, "tol must be positive"),
        (["sequences", "--c-upper0", "{above}", "--n-max", "5"], 2,
         "auto-escalation exceeded M=1e5 for the upper sequence"),
        (["sequences", "--c-lower0", "{below}", "--n-max", "5"], 2,
         "auto-escalation exceeded M=1e5 for the lower sequence"),
        (["verify", "--record", "{record}", "--speed", "{speed}"], 1,
         "unexpected run record header"),
        (["simulate", "--T", "0.01", "--u0", "custom_table", "--table", "{table}"], 1,
         "initial data contains non-finite values"),
    ],
    ids=["zero-tol", "upper-start-at-c*", "lower-start-at-c*", "record-header", "nan-table"],
)
def test_error_exits_keep_their_codes(tmp_path, runner, speed_ref, args, code, message):
    # a start 1e-8 from c* needs a forcing term 1/M below M = 1e5 allows
    (tmp_path / "run.csv").write_text("t,g\n0,0\n")
    (tmp_path / "speed.json").write_text("{}")
    (tmp_path / "u0.csv").write_text("y,u\n0,2\n50,nan\n100,1\n")
    names = {"above": repr(speed_ref.c_star + 1e-8), "below": repr(speed_ref.c_star - 1e-8),
             "record": str(tmp_path / "run.csv"), "speed": str(tmp_path / "speed.json"),
             "table": str(tmp_path / "u0.csv")}
    res = runner.invoke(main, [a.format(**names) for a in args] + ["--out", str(tmp_path / "out")])
    assert res.exit_code == code, res.output
    assert message in res.output


def test_sweep_monotone_column(tmp_path, runner):
    out = tmp_path / "sweep"
    res = invoke(runner, ["sweep", "--deltas", "1.1,1.5,2", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "sweep.csv").read_text().splitlines()
    speeds = [float(line.split(",")[2]) for line in lines[1:]]
    assert speeds == sorted(speeds)
    assert len(speeds) == 3


def test_sweep_failed_row_is_nan_and_names_its_delta(tmp_path, runner):
    res = runner.invoke(main, ["sweep", "--deltas", "1.0000001,2", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "delta=1.0000001: delta must exceed the stable zero 1 by at least 1e-06" in res.output
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert rows[0][0] == 1.0000001 and rows[0][5] == 0
    assert all(math.isnan(v) for v in rows[0][1:5])
    assert rows[1][0] == 2.0 and not any(math.isnan(v) for v in rows[1])


def test_sweep_range_spec(tmp_path, runner):
    out = tmp_path / "sweeprange"
    res = invoke(runner, ["sweep", "--deltas", "1.5:2.5:0.5", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4  # header + 1.5, 2.0, 2.5


def test_sweep_rejects_bad_spec(tmp_path, runner):
    res = runner.invoke(main, ["sweep", "--deltas", "2:1:-1", "--out", str(tmp_path)])
    assert res.exit_code == 1
    # a step below the spacing of the floats near 1.1 never advances the range
    res = runner.invoke(main, ["sweep", "--deltas", "1.1:3:1e-300", "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert "has more than 100000 values" in res.output


def test_sweep_reads_no_delta(tmp_path, runner):
    # the shared --delta default 2 lies below xi = 5, and sweep reads only --deltas
    args = ["sweep", "--f", "custom:5,-1", "--deltas", "6,7", "--out", str(tmp_path)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert [row[0] for row in rows] == [6.0, 7.0]
    res = runner.invoke(main, args + ["--delta", "6"])
    assert res.exit_code == 1 and "No such option '--delta'" in res.output


def test_delta_range_parser_counts():
    from retreatwave.cli import _parse_deltas

    values = _parse_deltas("1.1:3:0.1")
    assert len(values) == 20
    assert values[0] == pytest.approx(1.1) and values[-1] == pytest.approx(3.0)
    assert _parse_deltas("1.5,2,2.5") == [1.5, 2.0, 2.5]


def test_simulate_zero_horizon(tmp_path, runner):
    out = tmp_path / "sim"
    res = invoke(runner, ["simulate", "--u0", "constant_delta", "--T", "0",
                          "--N", "200", "--L", "20", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "run.csv").read_text().splitlines()
    assert lines[0] == "t,g,g_prime,sup_profile_error,min_U,max_U"
    assert len(lines) == 2
    assert (out / "final_state.csv").exists()


def test_simulate_custom_table(tmp_path, runner):
    table = tmp_path / "u0.csv"
    table.write_text("y,u\n0,2\n10,1.2\n20,1\n")
    out = tmp_path / "sim"
    res = invoke(runner, ["simulate", "--u0", "custom_table", "--table", str(table),
                          "--T", "0.1", "--N", "200", "--L", "20",
                          "--output-every", "0.05", "--out", str(out)])
    assert res.exit_code == 0, res.output


def test_simulate_front_at_rest_with_zero_speed_scale(tmp_path, runner):
    # at delta = 1 + h = nextafter(1, 2) the only floats of [1, delta] are its
    # ends, so each quadrature node rounds to the nearer end: f reads f(delta)
    # = -h*(1 + h) on the nodes nearer delta, 0 on those nearer 1, and either
    # at the middle one, of weight w at degree N_START.  The weights are
    # symmetric and sum to 1, so int_delta^1 f = h**2*(1 + h)*S with S within
    # w/2 of 1/2, against the exact h**2*(1/2 + h/3); c0 = -sqrt(2*int f) is
    # then within 1 - sqrt(1 - w) of its exact value -h*sqrt(1 + 2h/3), and
    # rounding adds 1e-13 of it.  This table gives g'(0) = 0 exactly: no
    # speed sets the step, which starts at the cap
    delta = "1.0000000000000002"
    table = tmp_path / "u0.csv"
    table.write_text(f"y,u\n0,{delta}\n0.05,{delta}\n0.1,1\n100,1\n")
    h = float(delta) - 1.0
    exact = -h * math.sqrt(1.0 + 2.0 * h / 3.0)
    _, _, _, matrix, means = phaseplane._chebyshev(phaseplane.N_START)
    w = float(means @ matrix[:, phaseplane.N_START // 2])
    c0 = wavespeed.bracket_low(1.0, parse_reaction("logistic"), float(delta))
    assert abs(c0 - exact) <= (1.0 - math.sqrt(1.0 - w) + 1e-13) * -exact
    out = tmp_path / "sim"
    res = invoke(runner, ["simulate", "--delta", delta, "--u0", "custom_table",
                          "--table", str(table), "--T", "0.1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    # the cap 0.5/max|f'|, with |f'| = |1 - 2u| just above 2 at c1 = 1.5*delta
    assert json.loads((out / "run_config.json").read_text())["dt"] == 0.2499999999999999
    _, rows = read_csv(out / "run.csv")
    assert rows[0][2] == 0.0  # g'(0)


def test_simulate_unknown_preset(tmp_path, runner):
    res = runner.invoke(main, ["simulate", "--u0", "mystery", "--out", str(tmp_path)])
    assert res.exit_code == 1


def test_simulate_snapshot_times(tmp_path, runner):
    out = tmp_path / "sim"
    res = invoke(runner, ["simulate", "--u0", "constant_delta", "--T", "0.2",
                          "--N", "200", "--L", "20", "--output-every", "0.05",
                          "--snapshot-times", "0.1,0.2", "--out", str(out)])
    assert res.exit_code == 0, res.output
    for name in ("snapshot_t0.1.csv", "snapshot_t0.2.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "y,U"
        assert len(lines) == 202


def test_simulate_unstable_dt_exits_numerical(tmp_path, runner):
    # dt*|f'| = 6.25 breaks the explicit reaction's bound: the first
    # start-up half-step takes the constant state 2 to 2 + (dt/2)*f(2) = -1.125
    res = runner.invoke(main, ["simulate", "--u0", "constant_delta", "--T", "20",
                               "--N", "200", "--L", "500", "--dt", "3.125",
                               "--output-every", "5", "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "min_U=-1.125" in res.output


def test_simulate_runs_a_front_faster_than_ten(tmp_path, runner):
    # c(20) = -13.876: no absolute cap on |g'| may stop the run
    res = runner.invoke(main, ["simulate", "--delta", "20", "--N", "4000", "--L", "20",
                               "--dt", "1.5e-4", "--T", "0.5", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "warning" not in res.output  # cell Peclet number 0.06 on this grid


def test_speed_failed_bracket_check_exits_numerical(tmp_path, runner, monkeypatch):
    monkeypatch.setattr(wavespeed, "closed_form_zero_speed", lambda *args: -1e-3)
    res = runner.invoke(main, ["speed", "--delta", "2", "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "bracket sign check failed" in res.output


@pytest.mark.parametrize("broken", [{"strictly_decreasing": False},
                                    {"sign_change_cells": [3, 7]}])
def test_speed_failed_audit_exits_numerical(tmp_path, runner, monkeypatch, broken):
    # a stand-in audit that is not strictly decreasing, or changes sign twice
    audit = cli.residual_monotonicity_audit
    monkeypatch.setattr(cli, "residual_monotonicity_audit",
                        lambda *args: dataclasses.replace(audit(*args), **broken))
    res = runner.invoke(main, ["speed", "--delta", "2", "--audit-grid", "20",
                               "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "residual audit failed monotonicity or uniqueness" in res.output


def test_speed_that_misses_tol_exits_numerical(tmp_path, runner, monkeypatch):
    # a stand-in speed solve that returns its start c_s, where |r| is 0.045
    monkeypatch.setattr(wavespeed, "solve_wave_speed", lambda start, *args: (start, 0))
    res = runner.invoke(main, ["speed", "--delta", "2", "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "did not reach tol 1.0e-10" in res.output
    assert not (tmp_path / "speed.json").exists()


def test_sweep_that_is_not_monotone_exits_numerical(tmp_path, runner, monkeypatch):
    # a stand-in search that solves delta = 2 for every row: the retreat
    # speeds are equal, not strictly increasing
    search = wavespeed.find_wave_speed
    monkeypatch.setattr(wavespeed, "find_wave_speed",
                        lambda d, f, delta, tol: search(d, f, 2.0, tol))
    res = runner.invoke(main, ["sweep", "--deltas", "1.5,2.5", "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "retreat speed is not strictly increasing across the sweep" in res.output


def test_sequences_start_of_the_wrong_sign_exits_numerical(tmp_path, runner, monkeypatch):
    # a stand-in gives the upper start c = 0 the slope 1, so r(0) = 1 > 0
    # and the start lies below c*, not above it
    solve = wavespeed.integrate_trajectories

    def flipping(cs, *args):
        upper, *lanes = solve(cs, *args)
        return [dataclasses.replace(upper, endpoint_slope=1.0), *lanes]

    monkeypatch.setattr(wavespeed, "integrate_trajectories", flipping)
    res = runner.invoke(main, ["sequences", "--delta", "2", "--n-max", "5",
                               "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "upper start point has a residual of the wrong sign" in res.output
    assert not list(tmp_path.glob("sequences*"))


def test_simulate_verify_roundtrip(tmp_path, runner):
    sim_out = tmp_path / "sim"
    res = invoke(runner, ["simulate", "--u0", "semiwave", "--T", "1", "--N", "400",
                          "--L", "40", "--output-every", "0.25", "--verify",
                          "--speed-rtol", "0.05", "--out", str(sim_out)])
    assert res.exit_code == 0, res.output
    assert (sim_out / "verify.json").exists()

    speed_out = tmp_path / "speed"
    invoke(runner, ["speed", "--delta", "2", "--out", str(speed_out)])
    verify_out = tmp_path / "check"
    res = invoke(runner, ["verify", "--record", str(sim_out / "run.csv"),
                          "--speed", str(speed_out / "speed.json"),
                          "--speed-rtol", "0.05", "--out", str(verify_out)])
    assert res.exit_code == 0, res.output
    payload = json.loads((verify_out / "verify.json").read_text())
    assert payload["final_speed_error"] < 0.05 * payload["c_target"]


def test_verify_exit_code_on_failure(tmp_path, runner):
    sim_out = tmp_path / "sim"
    invoke(runner, ["simulate", "--u0", "semiwave", "--T", "0.5", "--N", "400",
                    "--L", "40", "--output-every", "0.25", "--verify",
                    "--speed-rtol", "0.05", "--out", str(sim_out)])
    speed_out = tmp_path / "speed"
    invoke(runner, ["speed", "--delta", "2", "--out", str(speed_out)])
    res = runner.invoke(main, ["verify", "--record", str(sim_out / "run.csv"),
                               "--speed", str(speed_out / "speed.json"),
                               "--speed-rtol", "1e-6", "--out", str(tmp_path / "v")])
    assert res.exit_code == 3


@pytest.mark.parametrize(
    "g_prime, profile_err, code",
    [
        ("nan", "nan", 3),  # a NaN speed error fails
        ("0.89", "nan", 0),  # no reference profile: only the speed is checked
        ("0.89", "inf", 3),  # a non-NaN profile error is always bounded
    ],
)
def test_verify_verdict_on_nonfinite_errors(tmp_path, runner, g_prime, profile_err, code):
    record = tmp_path / "run.csv"
    record.write_text("t,g,g_prime,sup_profile_error,min_U,max_U\n"
                      f"0,0,0.9,nan,1,2\n1,0.9,{g_prime},{profile_err},1,2\n")
    meta = {"d": 1.0, "delta": 2.0, "reaction": "logistic:r=1"}
    (tmp_path / "run_config.json").write_text(json.dumps(meta))
    speed = tmp_path / "speed.json"
    speed.write_text(json.dumps(meta | {"retreat_speed": 0.8935219495378632}))
    res = runner.invoke(main, ["verify", "--record", str(record), "--speed", str(speed),
                               "--out", str(tmp_path / "v")])
    assert res.exit_code == code, res.output


def test_verify_rejects_speed_of_another_run(tmp_path, runner):
    sim_out = tmp_path / "sim"
    invoke(runner, ["simulate", "--u0", "exp_approach", "--T", "0.5", "--N", "400",
                    "--L", "40", "--out", str(sim_out)])
    config = json.loads((sim_out / "run_config.json").read_text())
    assert (config["d"], config["delta"], config["reaction"]) == (1.0, 2.0, "logistic:r=1")
    speed_out = tmp_path / "speed"
    invoke(runner, ["speed", "--f", "logistic:r=1.02", "--delta", "2", "--out", str(speed_out)])
    # a loose speed bound: the verdict alone would pass, only the metadata can fail
    args = ["verify", "--record", str(sim_out / "run.csv"),
            "--speed", str(speed_out / "speed.json"), "--speed-rtol", "1",
            "--out", str(tmp_path / "v")]
    res = runner.invoke(main, args)
    assert res.exit_code == 1, res.output
    assert "does not belong to the run: reaction" in res.output
    (sim_out / "run_config.json").unlink()
    res = runner.invoke(main, args)
    assert res.exit_code == 1, res.output
    assert "run_config.json not found" in res.output


def test_verify_tells_apart_reactions_that_round_alike(tmp_path, runner):
    # the two rates agree to 6 digits; each label keeps its rate exactly
    invoke(runner, ["simulate", "--f", "logistic:r=1.0000001", "--u0", "exp_approach",
                    "--T", "1", "--N", "400", "--L", "40", "--out", str(tmp_path / "sim")])
    invoke(runner, ["speed", "--f", "logistic:r=1.0000004", "--delta", "2",
                    "--out", str(tmp_path / "speed")])
    res = runner.invoke(main, ["verify", "--record", str(tmp_path / "sim" / "run.csv"),
                               "--speed", str(tmp_path / "speed" / "speed.json"),
                               "--out", str(tmp_path / "v")])
    assert res.exit_code == 1, res.output
    assert "does not belong to the run" in res.output


@pytest.mark.parametrize(
    "spec, delta, code, c_star",
    [
        ("custom:25,-1", "30", 0, -0.97012),  # stable zero beyond the default scan to 20
        ("custom:1,-1,-1e-4", "2", 0, None),  # small leading coefficient, zero near 0.9999
        ("custom:0.7,-1", "1.2", 0, None),  # stable zero below 1
        ("custom:3,-4,1", "2", 1, None),  # positive beyond its zero at 3
        ("custom:3.1,-4.1,1", "2", 1, None),  # positive beyond 3.1, no zero on the scan grid
        ("custom:6,-11,6,-1", "4", 1, None),  # -u(u-1)(u-2)(u-3): positive on (2, 3)
        ("custom:0", "2", 1, None),  # no stable zero
        ("logistic:r=inf", "2", 1, None),  # non-finite rate
        ("logistic:r=1e308", "2", 2, None),  # the saddle slope overflows: no finite flat start
        ("custom:1,-1,1e-100,-1e-310", "2", 1, None),  # the Cauchy root bound overflows
        # the residual's floor 4*eps*|delta*c/d| is 3.9e-11 here, below tol
        ("custom:9000,-1", "9450", 0, -4.705005146),
        # tol 1e-10 lies below the floor: 6.3e-8 and 7.5e-10
        ("logistic", "10000", 2, None),
        ("custom:0.7,-1", "1000", 2, None),
    ],
)
def test_speed_exit_codes_for_polynomial_specs(tmp_path, runner, spec, delta, code, c_star):
    res = runner.invoke(main, ["speed", "--f", spec, "--delta", delta, "--audit-grid", "12",
                               "--out", str(tmp_path)])
    assert res.exit_code == code, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    if delta in ("10000", "1000"):
        assert "lies below the reachable floor" in res.output
    if c_star is not None:
        payload = json.loads((tmp_path / "speed.json").read_text())
        assert payload["c_star"] == pytest.approx(c_star, abs=1e-5)


def test_sequences_subcommand(tmp_path, runner):
    out = tmp_path / "seq"
    res = invoke(runner, ["sequences", "--delta", "2", "--n-max", "5", "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads((out / "sequences.json").read_text())
    assert payload["lower_final_c"] < payload["c_star"] < payload["upper_final_c"]
    assert payload["upper_iterations"] == payload["lower_iterations"] == 5
    assert sorted(payload) == [
        "c_star", "lower_M", "lower_final_c", "lower_iterations",
        "upper_M", "upper_final_c", "upper_iterations",
    ]
    lines = (out / "sequences_upper.csv").read_text().splitlines()
    assert lines[0] == "n,c,slope_at_zero,sup_gap"
    assert len(lines) == 7  # header + c_0..c_5


@pytest.mark.parametrize("args", [["sequences", "--n-max", "5"], ["semiwave", "--c", "auto"]])
def test_warm_quadrature_grid_keeps_every_byte(tmp_path, runner, args):
    # the first run builds every degree-keyed operator, the second finds
    # them all in the caches: the artifacts must not differ
    caches = (phaseplane._chebyshev, phaseplane._taylor_rows, phaseplane._profile_interpolation)
    for cache in caches:
        cache.cache_clear()
    outs = [tmp_path / "cold", tmp_path / "warm"]
    for out in outs:
        misses = [cache.cache_info().misses for cache in caches]
        res = invoke(runner, args + ["--delta", "2.25", "--out", str(out)])
        assert res.exit_code == 0, res.output
    assert [cache.cache_info().misses for cache in caches] == misses and all(misses)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir()) and names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# (config key, value in the file, flag, value of the flag)
SIMULATE_KEYS = [
    ("d", 1.2, "--d", 1.1),
    ("delta", 2.5, "--delta", 2.4),
    ("reaction", "logistic:r=1.5", "--f", "logistic:r=1.2"),
    ("g0", 0.5, "--g0", 0.25),
    ("u0", "constant_delta", "--u0", "exp_approach"),
    ("L_y", 10.0, "--L", 12.0),
    ("N", 200, "--N", 240),
    ("dt", 0.001, "--dt", 0.002),
    ("T_end", 0.02, "--T", 0.04),
    ("output_every", 0.01, "--output-every", 0.02),
]


def test_config_file_precedence(tmp_path, runner):
    conf = tmp_path / "run.conf"
    conf.write_text("delta = 2.5\nd = 1.0\nreaction = logistic:r=1\n")
    out1 = tmp_path / "fromfile"
    res = invoke(runner, ["speed", "--config", str(conf), "--out", str(out1)])
    assert res.exit_code == 0, res.output
    assert json.loads((out1 / "speed.json").read_text())["delta"] == 2.5
    out2 = tmp_path / "flagwins"
    res = invoke(runner, ["speed", "--config", str(conf), "--delta", "3",
                          "--out", str(out2)])
    assert res.exit_code == 0, res.output
    assert json.loads((out2 / "speed.json").read_text())["delta"] == 3.0

    # a file setting all ten keys drives simulate, and a flag overrides each of them
    assert [key for key, *_ in SIMULATE_KEYS] == list(cli.CONFIG_KEYS)
    conf.write_text("".join(f"{key} = {value}\n" for key, value, *_ in SIMULATE_KEYS))
    flags = [str(tok) for _, _, flag, value in SIMULATE_KEYS for tok in (flag, value)]
    for column, args in ((1, []), (3, flags)):
        out = tmp_path / f"simulate{column}"
        res = invoke(runner, ["simulate", "--config", str(conf), "--out", str(out)] + args)
        assert res.exit_code == 0, res.output
        expected = {row[0]: row[column] for row in SIMULATE_KEYS}
        recorded = json.loads((out / "run_config.json").read_text())
        for key in expected.keys() - {"u0"}:
            assert recorded[key] == expected[key], key
        # constant_delta starts flat at delta; exp_approach starts below it
        min_u0 = float((out / "run.csv").read_text().splitlines()[1].split(",")[4])
        assert (min_u0 == expected["delta"]) == (expected["u0"] == "constant_delta")


def test_config_keys_name_simulate_params():
    # the config file is click's default_map: a key reads the param of the same name
    assert set(cli.CONFIG_KEYS) <= {param.name for param in cli.simulate.params}


@pytest.mark.parametrize(
    "line, message",
    [
        ("bogus = 1", "unknown config key 'bogus'"),
        ("N = 2.5", "bad value for 'N': '2.5'"),
        ("delta 2", "expected 'key = value', got 'delta 2'"),
        ("delta = 2\xff", "bad value for 'delta': '2\ufffd'"),
    ],
    ids=["unknown-key", "bad-value", "no-equals", "bad-byte"],
)
def test_config_rejects_bad_line(tmp_path, runner, line, message):
    conf = tmp_path / "bad.conf"
    conf.write_bytes(f"# header comment\n{line}\n".encode("latin-1"))  # \xff is not UTF-8
    res = runner.invoke(main, ["speed", "--config", str(conf), "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert f"Invalid value for '--config': {conf}:2: {message}" in res.output


RUN_META = {"d": 1.0, "delta": 2.0, "reaction": "logistic:r=1"}


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("speed.json", "{bad", "not valid JSON"),
        ("speed.json", "[]", "expected a JSON object"),
        ("speed.json", json.dumps(RUN_META), "'retreat_speed' must be a finite number, got None"),
        ("speed.json", json.dumps(RUN_META | {"retreat_speed": "x"}),
         "'retreat_speed' must be a finite number, got 'x'"),
        ("run_config.json", "{bad", "not valid JSON"),
        ("run.csv", "t,g,g_prime,sup_profile_error,min_U,max_U\n0,0,x,nan,1,2\n",
         ":2: non-numeric cell"),
        ("run.csv", "t,g,g_prime,sup_profile_error,min_U,max_U\n0,0,0.9,nan,1\n",
         ":2: 5 cells under 6 columns"),
        ("table.csv", "y,u\n0,2\n10,x\n", ":3: non-numeric cell"),
        ("table.csv", "y,u\n0,2\n10,\xff\n", ":3: non-numeric cell"),
    ],
    ids=["speed-bad-json", "speed-not-object", "speed-no-retreat-speed",
         "speed-text-retreat-speed", "run-config-bad-json", "run-csv-text-cell",
         "run-csv-short-row", "table-text-cell", "table-bad-byte"],
)
def test_malformed_input_file_exits_1(tmp_path, runner, name, text, message):
    (tmp_path / "run.csv").write_text("t,g,g_prime,sup_profile_error,min_U,max_U\n"
                                      "0,0,0.9,nan,1,2\n1,0.9,0.89,nan,1,2\n")
    (tmp_path / "run_config.json").write_text(json.dumps(RUN_META))
    speed = RUN_META | {"retreat_speed": 0.8935219495378632}
    (tmp_path / "speed.json").write_text(json.dumps(speed))
    (tmp_path / name).write_bytes(text.encode("latin-1"))  # \xff is not UTF-8
    if name == "table.csv":
        args = ["simulate", "--u0", "custom_table", "--table", str(tmp_path / name),
                "--T", "0.01"]
    else:
        args = ["verify", "--record", str(tmp_path / "run.csv"),
                "--speed", str(tmp_path / "speed.json")]
    res = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
    assert res.exit_code == 1, res.output
    assert f"error: {tmp_path / name}" in res.output
    assert message in res.output


def _modules_loaded_by(code):
    # a fresh interpreter, so modules other tests imported do not count
    import retreatwave

    src = str(Path(retreatwave.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code += "; import sys; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return set(done.stdout.split())


def test_import_loads_no_heavy_scipy_subpackage():
    loaded = _modules_loaded_by("import retreatwave, retreatwave.cli")
    heavy = {"scipy.integrate", "scipy.interpolate", "scipy.linalg", "scipy.optimize",
             "scipy.sparse", "scipy.special"}
    assert not heavy & loaded


def _module_level(nodes):
    """The statements and expressions that run when a module is imported."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            yield from _module_level(ast.iter_child_nodes(node))


def test_test_files_import_scipy_only_inside_tests():
    # pyproject allows scipy >= 1.10, and names the tests compare with may be
    # newer (cumulative_simpson is 1.12): imported at module level, one such
    # name would stop its whole file from collecting
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in _module_level(ast.parse(path.read_text()).body):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_speed_through_the_cli_loads_no_scipy_linalg(tmp_path):
    # only the front solver's first step imports its LAPACK routines, and
    # phaseplane.solve_ivp imports scipy.integrate only when it is called
    loaded = _modules_loaded_by(
        "from retreatwave.cli import main; "
        f"main(['speed', '--delta', '2', '--out', {str(tmp_path)!r}], standalone_mode=False)"
    )
    assert (tmp_path / "speed.json").is_file()
    assert "retreatwave.frontsolver" in loaded and "scipy.linalg" not in loaded
    assert "scipy.integrate" not in loaded


def test_quadrature_that_cannot_converge_exits_numerical(tmp_path, runner, monkeypatch):
    # the speed search's bracket needs int f, and an oscillation of size 1e-8
    # and period 6e-6 keeps its quadrature from resolving; the solves do not notice
    noisy = ReactionFunction(lambda u: u * (1.0 - u) + 1e-8 * np.sin(1e6 * u),
                             lambda u: 1.0 - 2.0 * u, 1.0, "noisy")
    monkeypatch.setattr(cli, "parse_reaction", lambda text: noisy)
    res = runner.invoke(main, ["speed", "--delta", "2", "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert f"not resolved at degree {phaseplane.N_MAX}" in res.output
