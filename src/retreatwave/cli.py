"""Command-line interface.

Subcommands: semiwave, speed, sweep, simulate, sequences, verify.  Shared
flags are --f (reaction spec), --d, --delta (not on sweep), --tol, --out
and --config.
Values resolve with the precedence CLI flag > config file > default: the
config file becomes click's ``default_map``, so each of its keys is the
name of an option and each default is written once, in its option.  The
file holds one ``key = value`` pair per line with ``#`` comments and
accepts exactly the keys d, delta, reaction, g0, u0, L_y, N, dt, T_end,
output_every; ``--help`` prints every default.

Reaction spec grammar: ``logistic`` (rate 1), ``logistic:r=<R>``, or
``custom:<c1>,<c2>,...`` for the polynomial c1*u + c2*u**2 + ...

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 verification failure.
"""
from __future__ import annotations

import json
import math
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
from .wavespeed import DEFAULT_TOL, bracketing_sequences, density_sweep, find_wave_speed

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


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make the values of the ``--config`` file the defaults of the command's options."""
    if path is None:
        return
    cfg: dict = {}
    # an undecodable byte becomes U+FFFD, which no key, number or preset accepts
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise click.BadParameter(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in CONFIG_KEYS:
            raise click.BadParameter(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            cfg[key] = CONFIG_KEYS[key](value)
        except ValueError:
            raise click.BadParameter(
                f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    ctx.default_map = cfg


def _shared_options(fn):
    fn = click.option("--config", type=click.Path(exists=True, dir_okay=False),
                      is_eager=True, expose_value=False, callback=_load_config,
                      help="Key-value config file; flags override it.")(fn)
    fn = click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".",
                      help="Output directory.")(fn)
    fn = click.option("--tol", type=float, default=DEFAULT_TOL, help="Root tolerance.")(fn)
    fn = click.option("--d", "d", type=float, default=1.0, help="Diffusivity.")(fn)
    fn = click.option("--f", "reaction", type=str, default="logistic",
                      help="Reaction spec, e.g. logistic:r=1.")(fn)
    return fn


# every subcommand with the shared options but sweep, which reads --deltas
_delta_option = click.option("--delta", type=float, default=2.0, help="Boundary density.")


def _common(reaction, d, tol, out_dir, delta=None):
    """Check the shared values, and delta unless it is None; parse f and make the output dir."""
    if not 0 < d < math.inf:
        raise InputError(f"d must be positive and finite, got {d}")
    if not tol > 0:
        raise InputError(f"tol must be positive, got {tol}")
    f = parse_reaction(reaction)
    if delta is not None and not f.stable_zero < delta < math.inf:
        raise InputError(f"delta must exceed {f.stable_zero:g} and be finite, got {delta}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return f, out


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


_speed_rtol_option = click.option("--speed-rtol", type=float, default=0.02,
                                  help="Relative speed error allowed at T_end.")
_profile_tol_option = click.option("--profile-tol", type=float, default=0.05,
                                   help="Sup profile error allowed at T_end, if one was recorded.")


class _ExitCodeGroup(click.Group):
    """Map the package's errors raised by any subcommand onto the documented exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InputError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(1)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            ctx.exit(2)
        except VerificationFailure as exc:
            click.echo(f"verification failed: {exc}", err=True)
            ctx.exit(3)


@click.group(cls=_ExitCodeGroup, context_settings={"show_default": True})
def main():
    """Retreating semi-waves and front-fixed free-boundary simulation."""


@main.command()
@_shared_options
@_delta_option
@click.option("--c", "c_value", type=str, default="auto",
              help="Wave speed, a float or 'auto' for the selected speed c*.")
def semiwave(c_value, reaction, d, delta, tol, out_dir):
    """Compute one phase trajectory and its spatial profile."""
    f, out = _common(reaction, d, tol, out_dir, delta)
    if c_value == "auto":
        traj = find_wave_speed(d, f, delta, tol).trajectory
    else:
        try:
            c = float(c_value)
        except ValueError as exc:
            raise InputError(f"--c must be a float or 'auto', got {c_value!r}") from exc
        traj = integrate_trajectory(c, d, f, delta)
    profile = reconstruct_profile(traj)
    traj.to_csv(out / "trajectory.csv")
    profile.to_csv(out / "profile.csv")
    write_json(out / "semiwave.json", {
        "c": traj.c,
        "d": d,
        "delta": delta,
        "reaction": f.label,
        "endpoint_slope": traj.endpoint_slope,
        "saddle_slope": traj.saddle_slope,
        "tail_rate": profile.tail_rate,
    })
    click.echo(f"semiwave: c={traj.c!r} slope_at_zero={traj.endpoint_slope!r}")


@main.command()
@_shared_options
@_delta_option
@click.option("--audit-grid", type=int, default=0,
              help="Also audit residual monotonicity on this many grid points.")
def speed(audit_grid, reaction, d, delta, tol, out_dir):
    """Find the retreat speed for one boundary density."""
    f, out = _common(reaction, d, tol, out_dir, delta)
    result = find_wave_speed(d, f, delta, tol)
    write_json(out / "speed.json", result.to_json_dict() | {"d": d, "reaction": f.label})
    if audit_grid:
        audit = residual_monotonicity_audit(d, f, delta, audit_grid)
        audit.to_csv(out / "audit.csv")
        if not audit.strictly_decreasing or len(audit.sign_change_cells) != 1:
            raise NumericalError("residual audit failed monotonicity or uniqueness")
    click.echo(f"speed: c*={result.c_star!r} retreat_speed={result.retreat_speed!r}")


def _parse_deltas(text: str) -> list[float]:
    try:
        if ":" not in text:
            return [float(p) for p in text.split(",")]
        start, stop, step_ = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise InputError(
            f"bad deltas {text!r}: expected a comma list or start:stop:step") from exc
    if not (-math.inf < start <= stop < math.inf and 0 < step_ < math.inf):
        raise InputError(f"range {text!r} needs finite start <= stop and finite step > 0")
    vals = []
    v = start
    while v <= stop + 1e-12:
        if len(vals) == 100_000:  # also stops a step too small to advance v
            raise InputError(f"range {text!r} has more than 100000 values")
        vals.append(round(v, 12))
        v += step_
    return vals


@main.command()
@_shared_options
@click.option("--deltas", type=str, required=True,
              help="Comma list (1.1,1.5,2) or range start:stop:step (1.1:3:0.1).")
def sweep(deltas, reaction, d, tol, out_dir):
    """Sweep the retreat speed over a range of boundary densities."""
    f, out = _common(reaction, d, tol, out_dir)
    values = _parse_deltas(deltas)
    table = density_sweep(d, f, values, tol)
    table.to_csv(out / "sweep.csv")
    for dv, msg in table.errors.items():
        click.echo(f"delta={dv!r}: {msg}", err=True)
    table.assert_monotone()
    click.echo(f"sweep: {len(values)} rows -> {out / 'sweep.csv'}")


@main.command()
@_shared_options
@_delta_option
@click.option("--u0", type=click.Choice(["semiwave", "exp_approach", "constant_delta",
                                         "custom_table"]),
              default="exp_approach", help="Initial data preset.")
@click.option("--table", "table_path", type=click.Path(exists=True), default=None,
              help="CSV (y,u) for the custom_table preset.")
@click.option("--T", "T_end", type=float, default=10.0, help="Final time.")
@click.option("--N", "N", type=int, default=2000, help="Grid cells.")
@click.option("--L", "L_y", type=float, default=None,
              help="Domain length [100*max(1, sqrt(d))].")
@click.option("--dt", type=float, default=None,
              help="Time step [0.5/max|f'|, max|f'| on [0, 1.5*sup u0]].")
@click.option("--g0", type=float, default=0.0, help="Initial front position.")
@click.option("--output-every", type=float, default=0.5, help="Row cadence.")
@click.option("--snapshot-times", type=str, default=None,
              help="Comma list of times; dumps the nearest recorded fields as (y,U) CSVs.")
@click.option("--verify", "do_verify", is_flag=True, default=False,
              help="Check speed and profile convergence after the run.")
@_speed_rtol_option
@_profile_tol_option
def simulate(u0, table_path, T_end, N, L_y, dt, g0, output_every, snapshot_times,
             do_verify, speed_rtol, profile_tol, reaction, d, delta, tol, out_dir):
    """Run the front-fixed PDE and record the front speed history."""
    f, out = _common(reaction, d, tol, out_dir, delta)
    grid = Grid1D(L_y if L_y is not None else 100.0 * max(1.0, math.sqrt(d)), N)
    try:
        snap_times = [float(s) for s in snapshot_times.split(",")] if snapshot_times else []
    except ValueError as exc:
        raise InputError(f"bad --snapshot-times list {snapshot_times!r}") from exc
    if not all(map(math.isfinite, snap_times)):
        raise InputError(f"snapshot times must be finite, got {snapshot_times!r}")
    solver_cfg = SolverConfig(T_end=T_end, dt=dt, output_every=output_every,
                              keep_snapshots=bool(snap_times))

    reference = None
    speed_result = None
    if do_verify or u0 == "semiwave":
        speed_result = find_wave_speed(d, f, delta, tol)
        reference = speed_result.profile

    if u0 == "semiwave":
        u0_fn = profile_u0(reference)
    elif u0 == "exp_approach":
        u0_fn = exp_approach_u0(delta, xi=f.stable_zero)
    elif u0 == "constant_delta":
        u0_fn = constant_u0(delta)
    else:  # custom_table
        if table_path is None:
            raise InputError("custom_table preset needs --table pointing at a (y,u) CSV")
        header, rows = read_csv(table_path)
        if header[:2] != ["y", "u"]:
            raise InputError(f"table header must be y,u, got {header!r}")
        u0_fn = table_u0([r[0] for r in rows], [r[1] for r in rows])

    initial = InitialData.from_callable(grid, delta, u0_fn, g0=g0)
    record = run(initial, d, delta, f, solver_cfg, reference=reference)
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
    click.echo(f"simulate: T={T_end:g} g'={final.g_prime!r} rows={len(record.rows)}")

    if do_verify:
        _convergence_verdict(record, speed_result.retreat_speed, out, speed_rtol, profile_tol,
                             truncation_correction=truncation_correction(final, reference))


@main.command()
@_shared_options
@_delta_option
@click.option("--c-upper0", type=float, default=0.0, help="Upper start, in (c*, 0].")
@click.option("--c-lower0", type=float, default=None, help="Lower start, below c* [c*-1].")
@click.option("--m", "m_start", type=int, default=10, help="Forcing offset M.")
@click.option("--n-max", type=int, default=2000, help="Iteration cap.")
def sequences(c_upper0, c_lower0, m_start, n_max, reaction, d, delta, tol, out_dir):
    """Iterate the monotone speed sequences bracketing c*."""
    f, out = _common(reaction, d, tol, out_dir, delta)
    reference = find_wave_speed(d, f, delta, tol)
    upper, lower = bracketing_sequences(
        d, f, delta, c_upper_0=c_upper0, c_lower_0=c_lower0,
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
    })
    click.echo(f"sequences: c* in [{lower.c_list[-1]!r}, {upper.c_list[-1]!r}]")


def _read_json_object(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise InputError(f"{path}: expected a JSON object")
    return payload


@main.command()
@click.option("--record", "record_path", type=click.Path(exists=True), required=True,
              help="run.csv produced by simulate, with its run_config.json beside it.")
@click.option("--speed", "speed_path", type=click.Path(exists=True), required=True,
              help="speed.json produced by the speed subcommand.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".")
@_speed_rtol_option
@_profile_tol_option
def verify(record_path, speed_path, out_dir, speed_rtol, profile_tol):
    """Re-check a recorded run against a stored speed result."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = RunRecord.rows_from_csv(record_path)
    payload = _read_json_object(speed_path)
    config_path = Path(record_path).parent / "run_config.json"
    if not config_path.exists():
        raise InputError(f"{config_path} not found; verify needs the run's configuration")
    run_cfg = _read_json_object(config_path)
    for key in ("d", "delta", "reaction"):
        if key not in run_cfg or run_cfg[key] != payload.get(key):
            raise InputError(
                f"{speed_path} does not belong to the run: {key} is "
                f"{payload.get(key)!r} there and {run_cfg.get(key)!r} in {config_path}"
            )
    try:
        c_target = float(payload["retreat_speed"])
    except (KeyError, TypeError, ValueError):
        c_target = math.nan
    if not math.isfinite(c_target):
        raise InputError(f"{speed_path}: 'retreat_speed' must be a finite number, "
                         f"got {payload.get('retreat_speed')!r}")
    _convergence_verdict(record, c_target, out, speed_rtol, profile_tol)


if __name__ == "__main__":
    main()
