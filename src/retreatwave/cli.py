"""Command-line interface.

Subcommands: semiwave, speed, sweep, simulate, sequences, verify.  Shared
flags are --f (reaction spec), --d, --delta, --tol, --out and --config.
Values resolve with the precedence CLI flag > config file > default; the
config file holds one ``key = value`` pair per line with ``#`` comments and
accepts exactly the keys d, delta, reaction, g0, u0, L_y, N, dt, T_end,
output_every.

Reaction spec grammar: ``logistic`` (rate 1), ``logistic:r=<R>``, or
``custom:<c1>,<c2>,...`` for the polynomial c1*u + c2*u**2 + ...

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 verification failure.
"""
from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

import click

from .errors import InputError, NumericalError, VerificationFailure
from .frontsolver import (
    Grid1D,
    InitialData,
    RunRecord,
    SolverConfig,
    constant_u0,
    exp_approach_u0,
    profile_u0,
    run,
    table_u0,
)
from .phaseplane import integrate_trajectory, reconstruct_profile
from .reaction import parse_reaction
from .serialize import read_csv, write_csv, write_json
from .verify import (
    residual_monotonicity_audit,
    speed_trend,
    truncation_correction,
)
from .wavespeed import bracketing_sequences, density_sweep, find_wave_speed

# click uses exit code 2 for usage errors; fold those into validation errors.
click.UsageError.exit_code = 1

CONFIG_KEYS = {
    "d": float,
    "delta": float,
    "reaction": str,
    "g0": float,
    "u0": str,
    "L_y": float,
    "N": int,
    "dt": float,
    "T_end": float,
    "output_every": float,
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            cfg[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return cfg


def _resolve(flag, cfg: dict, key: str, default):
    if flag is not None:
        return flag
    return cfg.get(key, default)


def _shared_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                      help="Key-value config file; flags override it.")(fn)
    fn = click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".",
                      help="Output directory.")(fn)
    fn = click.option("--tol", type=float, default=None, help="Root tolerance [1e-10].")(fn)
    fn = click.option("--delta", type=float, default=None, help="Boundary density [2.0].")(fn)
    fn = click.option("--d", "d", type=float, default=None, help="Diffusivity [1.0].")(fn)
    fn = click.option("--f", "reaction_spec", type=str, default=None,
                      help="Reaction spec, e.g. logistic:r=1 [logistic].")(fn)
    return fn


def _common(reaction_spec, d, delta, tol, out_dir, config_path):
    cfg = _load_config(config_path)
    spec = _resolve(reaction_spec, cfg, "reaction", "logistic")
    d = float(_resolve(d, cfg, "d", 1.0))
    delta = float(_resolve(delta, cfg, "delta", 2.0))
    tol = float(tol) if tol is not None else 1e-10
    if not d > 0:
        raise InputError(f"d must be positive, got {d}")
    if not tol > 0:
        raise InputError(f"tol must be positive, got {tol}")
    f = parse_reaction(spec)
    if delta <= f.stable_zero:
        raise InputError(f"delta must exceed {f.stable_zero:g}, got {delta}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return f, d, delta, tol, out, cfg


def _convergence_verdict(record, c_target, out, speed_rtol, profile_tol, **extra):
    """Write verify_series.csv and verify.json, then apply the error bounds.

    A NaN error fails, but a NaN profile error (no reference) skips its bound.
    """
    report = speed_trend(record, c_target)
    report.to_csv(out / "verify_series.csv")
    write_json(out / "verify.json", {
        "c_target": c_target,
        "final_speed_error": report.final_speed_error,
        "final_profile_error": report.final_profile_error,
        "monotone_tail": report.monotone_tail,
        "speed_rtol": speed_rtol,
        "profile_tol": profile_tol,
    } | extra)
    if not report.final_speed_error <= speed_rtol * c_target:
        raise VerificationFailure(
            f"final speed error {report.final_speed_error!r} exceeds {speed_rtol:g} * c(delta)"
        )
    profile_err = report.final_profile_error
    if not (math.isnan(profile_err) or profile_err <= profile_tol):
        raise VerificationFailure(
            f"final profile error {profile_err!r} exceeds {profile_tol:g}"
        )
    click.echo(
        f"verify: speed_err={report.final_speed_error!r} "
        f"profile_err={profile_err!r} monotone_tail={report.monotone_tail}"
    )


def _guarded(command):
    """Map the package's errors raised by ``command`` onto the documented exit codes."""

    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except InputError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(2)
        except VerificationFailure as exc:
            click.echo(f"verification failed: {exc}", err=True)
            sys.exit(3)

    return wrapper


@click.group()
def main():
    """Retreating semi-waves and front-fixed free-boundary simulation."""


@main.command()
@_shared_options
@click.option("--c", "c_value", type=str, default="auto",
              help="Wave speed, a float or 'auto' for the selected speed c*.")
@click.option("--x-max", type=float, default=100.0, help="Profile truncation length.")
@_guarded
def semiwave(c_value, x_max, reaction_spec, d, delta, tol, out_dir, config_path):
    """Compute one phase trajectory and its spatial profile."""
    f, dd, delta_, tol_, out, _ = _common(reaction_spec, d, delta, tol, out_dir, config_path)
    if c_value == "auto":
        result = find_wave_speed(dd, f, delta_, tol_, profile_x_max=x_max)
        c = result.c_star
        traj = integrate_trajectory(c, dd, f, delta_)
        profile = result.profile
    else:
        try:
            c = float(c_value)
        except ValueError as exc:
            raise InputError(f"--c must be a float or 'auto', got {c_value!r}") from exc
        traj = integrate_trajectory(c, dd, f, delta_)
        profile = reconstruct_profile(traj, x_max=x_max)
    traj.to_csv(out / "trajectory.csv")
    profile.to_csv(out / "profile.csv")
    write_json(out / "semiwave.json", {
        "c": c,
        "d": dd,
        "delta": delta_,
        "reaction": f.label,
        "endpoint_slope": traj.endpoint_slope,
        "saddle_slope": traj.saddle_slope,
        "tail_rate": profile.tail_rate,
    })
    click.echo(f"semiwave: c={c!r} slope_at_zero={profile.slope_at_zero!r}")


@main.command()
@_shared_options
@click.option("--audit-grid", type=int, default=0,
              help="Also audit residual monotonicity on this many grid points.")
@_guarded
def speed(audit_grid, reaction_spec, d, delta, tol, out_dir, config_path):
    """Find the retreat speed for one boundary density."""
    f, dd, delta_, tol_, out, _ = _common(reaction_spec, d, delta, tol, out_dir, config_path)
    result = find_wave_speed(dd, f, delta_, tol_)
    write_json(out / "speed.json", result.to_json_dict() | {"d": dd, "reaction": f.label})
    if audit_grid:
        audit = residual_monotonicity_audit(dd, f, delta_, audit_grid)
        audit.to_csv(out / "audit.csv")
        if not audit.strictly_decreasing or len(audit.sign_change_cells) != 1:
            raise NumericalError("residual audit failed monotonicity or uniqueness")
    click.echo(f"speed: c*={result.c_star!r} retreat_speed={result.retreat_speed!r}")


def _parse_deltas(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError(f"range spec must be start:stop:step, got {text!r}")
        start, stop, step_ = (float(p) for p in parts)
        if step_ <= 0:
            raise InputError("range step must be positive")
        vals = []
        v = start
        while v <= stop + 1e-12:
            vals.append(round(v, 12))
            v += step_
        return vals
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad deltas list {text!r}") from exc


@main.command()
@_shared_options
@click.option("--deltas", type=str, required=True,
              help="Comma list (1.1,1.5,2) or range start:stop:step (1.1:3:0.1).")
@_guarded
def sweep(deltas, reaction_spec, d, delta, tol, out_dir, config_path):
    """Sweep the retreat speed over a range of boundary densities."""
    f, dd, _, tol_, out, _ = _common(reaction_spec, d, delta, tol, out_dir, config_path)
    values = _parse_deltas(deltas)
    table = density_sweep(dd, f, values, tol_)
    table.to_csv(out / "sweep.csv")
    for dv, msg in table.errors.items():
        click.echo(f"delta={dv:g}: {msg}", err=True)
    table.assert_monotone()
    click.echo(f"sweep: {len(values)} rows -> {out / 'sweep.csv'}")


@main.command()
@_shared_options
@click.option("--u0", "u0_preset", type=str, default=None,
              help="Initial data preset: semiwave, exp_approach, constant_delta, custom_table.")
@click.option("--table", "table_path", type=click.Path(exists=True), default=None,
              help="CSV (y,u) for the custom_table preset.")
@click.option("--T", "t_end", type=float, default=None, help="Final time [10].")
@click.option("--N", "n_cells", type=int, default=None, help="Grid cells [2000].")
@click.option("--L", "l_y", type=float, default=None,
              help="Domain length [100*max(1, sqrt(d))].")
@click.option("--dt", type=float, default=None, help="Time step [auto].")
@click.option("--g0", type=float, default=None, help="Initial front position [0].")
@click.option("--output-every", type=float, default=None, help="Row cadence [0.5].")
@click.option("--snapshot-times", type=str, default=None,
              help="Comma list of times; dumps the nearest recorded fields as (y,U) CSVs.")
@click.option("--verify", "do_verify", is_flag=True, default=False,
              help="Check speed and profile convergence after the run.")
@click.option("--speed-rtol", type=float, default=0.02,
              help="Relative speed error allowed at T_end with --verify.")
@click.option("--profile-tol", type=float, default=0.05,
              help="Sup profile error allowed at T_end with --verify.")
@_guarded
def simulate(u0_preset, table_path, t_end, n_cells, l_y, dt, g0, output_every,
             snapshot_times, do_verify, speed_rtol, profile_tol,
             reaction_spec, d, delta, tol, out_dir, config_path):
    """Run the front-fixed PDE and record the front speed history."""
    f, dd, delta_, tol_, out, cfg = _common(reaction_spec, d, delta, tol, out_dir, config_path)
    preset = _resolve(u0_preset, cfg, "u0", "exp_approach")
    l_default = 100.0 * max(1.0, math.sqrt(dd))
    grid = Grid1D(float(_resolve(l_y, cfg, "L_y", l_default)), int(_resolve(n_cells, cfg, "N", 2000)))
    g0_ = float(_resolve(g0, cfg, "g0", 0.0))
    try:
        snap_times = (
            [float(s) for s in snapshot_times.split(",")] if snapshot_times else []
        )
    except ValueError as exc:
        raise InputError(f"bad --snapshot-times list {snapshot_times!r}") from exc
    solver_cfg = SolverConfig(
        T_end=float(_resolve(t_end, cfg, "T_end", 10.0)),
        dt=_resolve(dt, cfg, "dt", None),
        output_every=float(_resolve(output_every, cfg, "output_every", 0.5)),
        keep_snapshots=bool(snap_times),
    )

    reference = None
    speed_result = None
    if do_verify or preset == "semiwave":
        speed_result = find_wave_speed(dd, f, delta_, tol_, profile_x_max=grid.L_y + 10.0)
        reference = speed_result.profile

    if preset == "semiwave":
        u0 = profile_u0(reference)
    elif preset == "exp_approach":
        u0 = exp_approach_u0(delta_, xi=f.stable_zero)
    elif preset == "constant_delta":
        u0 = constant_u0(delta_)
    elif preset == "custom_table":
        if table_path is None:
            raise InputError("custom_table preset needs --table pointing at a (y,u) CSV")
        header, rows = read_csv(table_path)
        if header[:2] != ["y", "u"]:
            raise InputError(f"table header must be y,u, got {header!r}")
        u0 = table_u0([r[0] for r in rows], [r[1] for r in rows])
    else:
        raise InputError(f"unknown u0 preset {preset!r}")

    initial = InitialData.from_callable(grid, delta_, u0, g0=g0_)
    record = run(initial, dd, delta_, f, solver_cfg, reference=reference)
    record.to_csv(out / "run.csv")
    write_json(out / "run_config.json", record.config)
    final = record.final_state
    write_csv(out / "final_state.csv", ("y", "U"), zip(grid.nodes, final.U))
    for target in snap_times:
        snap = min(record.snapshots, key=lambda s: abs(s.t - target))
        write_csv(out / f"snapshot_t{target:g}.csv", ("y", "U"), zip(grid.nodes, snap.U))
    for w in record.warnings:
        click.echo(f"warning: {w}", err=True)
    if record.termination_reason != "completed":
        click.echo(f"run aborted ({record.termination_reason}): {record.diagnostic}", err=True)
        raise NumericalError(record.diagnostic or record.termination_reason)
    click.echo(
        f"simulate: T={solver_cfg.T_end:g} g'={final.g_prime!r} rows={len(record.rows)}"
    )

    if do_verify:
        _convergence_verdict(record, speed_result.retreat_speed, out, speed_rtol, profile_tol,
                             truncation_correction=truncation_correction(final, reference))


@main.command()
@_shared_options
@click.option("--c-upper0", type=float, default=0.0, help="Upper start, in (c*, 0].")
@click.option("--c-lower0", type=float, default=None, help="Lower start, below c* [c*-1].")
@click.option("--m", "m_start", type=int, default=10, help="Forcing offset M [10].")
@click.option("--n-max", type=int, default=2000, help="Iteration cap [2000].")
@_guarded
def sequences(c_upper0, c_lower0, m_start, n_max, reaction_spec, d, delta, tol,
              out_dir, config_path):
    """Iterate the monotone speed sequences bracketing c*."""
    f, dd, delta_, tol_, out, _ = _common(reaction_spec, d, delta, tol, out_dir, config_path)
    reference = find_wave_speed(dd, f, delta_, tol_)
    upper, lower = bracketing_sequences(
        dd, f, delta_, c_upper_0=c_upper0, c_lower_0=c_lower0,
        M=m_start, n_max=n_max, reference=reference,
    )
    upper.to_csv(out / "sequences_upper.csv")
    lower.to_csv(out / "sequences_lower.csv")
    write_json(out / "sequences.json", {
        "c_star": reference.c_star,
        "upper_M": upper.M,
        "lower_M": lower.M,
        "upper_final_c": upper.c_list[-1],
        "lower_final_c": lower.c_list[-1],
        "upper_iterations": len(upper.c_list) - 1,
        "lower_iterations": len(lower.c_list) - 1,
        "upper_converged_at": upper.converged_at,
        "lower_converged_at": lower.converged_at,
    })
    click.echo(
        f"sequences: c* in [{lower.c_list[-1]!r}, {upper.c_list[-1]!r}]"
    )


@main.command()
@click.option("--record", "record_path", type=click.Path(exists=True), required=True,
              help="run.csv produced by simulate, with its run_config.json beside it.")
@click.option("--speed", "speed_path", type=click.Path(exists=True), required=True,
              help="speed.json produced by the speed subcommand.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".")
@click.option("--speed-rtol", type=float, default=0.02)
@click.option("--profile-tol", type=float, default=0.05,
              help="Sup profile error allowed; skipped for a run recorded without a reference.")
@_guarded
def verify(record_path, speed_path, out_dir, speed_rtol, profile_tol):
    """Re-check a recorded run against a stored speed result."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = RunRecord.rows_from_csv(record_path)
    payload = json.loads(Path(speed_path).read_text(encoding="utf-8"))
    config_path = Path(record_path).parent / "run_config.json"
    if not config_path.exists():
        raise InputError(f"{config_path} not found; verify needs the run's configuration")
    run_cfg = json.loads(config_path.read_text(encoding="utf-8"))
    for key in ("d", "delta", "reaction"):
        if key not in run_cfg or run_cfg[key] != payload.get(key):
            raise InputError(
                f"{speed_path} does not belong to the run: {key} is "
                f"{payload.get(key)!r} there and {run_cfg.get(key)!r} in {config_path}"
            )
    _convergence_verdict(record, float(payload["retreat_speed"]), out, speed_rtol,
                         profile_tol)


if __name__ == "__main__":
    main()
