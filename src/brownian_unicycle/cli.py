"""Command-line front end.

Subcommands: ``moment``, ``d2``, ``d4``, ``simulate``, ``reproduce``,
``traj``. One JSON config document (see :mod:`config`) supplies the
profile, noise and simulation sections for every command.

Exit codes: 0 success, 1 usage, 2 config, 3 envelope/cost refusal,
4 internal numerical-consistency failure (also a ``<D^2>`` or a ``moment``
whose error estimate exceeds its magnitude) or a non-finite integrand.

Output conventions: JSON records print floats at full round-trip
precision; CSV uses 17 significant digits, a documented header row,
UTF-8 and LF line endings. Files written via ``--out`` never contain
timing fields, so re-running a command with the same config and seed
reproduces them byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
import warnings

import click
import numpy as np

from . import constant_ratio, fourth_moment, general_moments, low_moments
from .config import load_config
from .exceptions import (ConfigError, EnvelopeRefusal, EnvelopeWarning,
                         IntegrandEvaluationError, NumericalConsistencyError)
from .montecarlo import (SimConfig, collect_samples, finite_mean_heading,
                         simulate_trial, statistics_from_samples)
from .trajectory import SpeedRatioProfile, NoiseParams

_REPRODUCE_NOISE_GRID = (0.01, 1.0)
_CSV_EOL = "\n"


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _emit_json(record: dict, out_path: str | None, drop_for_file=()) -> None:
    click.echo(json.dumps(record))
    if out_path:
        persisted = {k: v for k, v in record.items() if k not in drop_for_file}
        with open(out_path, "w", encoding="utf-8", newline=_CSV_EOL) as fh:
            json.dump(persisted, fh, indent=2)
            fh.write("\n")


def _csv_text(header: list[str], rows: list[list]) -> str:
    """Header and rows, strings verbatim and numbers through :func:`_fmt`."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell)
                              for cell in row))
    return _CSV_EOL.join(lines) + _CSV_EOL


def _emit_csv(header: list[str], rows: list[list], out_path: str | None) -> None:
    text = _csv_text(header, rows)
    click.echo(text, nl=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform keeps one (``os.cpu_count()`` counts the host's CPUs under an
    affinity limit), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Path to the JSON experiment configuration.")
@click.option("--seed", type=click.IntRange(0, 2 ** 64 - 1), default=None,
              help="Override the master seed from the config.")
@click.option("--threads", type=click.IntRange(1),
              default=_usable_cpus,
              help="Worker threads for Monte Carlo trials (default: one per "
                   "CPU this process may run on). Results do not depend on "
                   "it.")
@click.option("--closed-form", is_flag=True,
              help="Use the constant-ratio closed forms (d2/d4 only).")
@click.option("--force", is_flag=True,
              help="Run moment requests beyond the cost envelope.")
@click.pass_context
def cli(ctx, config_path, seed, threads, closed_form, force):
    """Moments and Monte Carlo experiments for the Brownian unicycle."""
    ctx.obj = {
        "config_path": config_path,
        "seed": seed,
        "threads": threads,
        "closed_form": closed_form,
        "force": force,
    }


def _require_config(ctx):
    path = ctx.obj["config_path"]
    if path is None:
        raise ConfigError("no --config given")
    cfg = load_config(path)
    if ctx.obj["seed"] is not None:
        cfg = dataclasses.replace(
            cfg, sim=dataclasses.replace(cfg.sim, master_seed=ctx.obj["seed"]))
    return cfg


@cli.command()
@click.argument("p", type=click.IntRange(0))
@click.argument("q", type=click.IntRange(0))
@click.argument("r", type=click.IntRange(0))
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.pass_context
def moment(ctx, p, q, r, out_path):
    """Compute the displacement-heading moment of orders P, Q, R."""
    cfg = _require_config(ctx)
    spec = general_moments.MomentSpec(p, q, r)
    if not spec.within_envelope and not ctx.obj["force"]:
        raise EnvelopeRefusal(
            f"moment ({p}, {q}, {r}) exceeds the cost envelope; use --force")
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EnvelopeWarning)
        res = general_moments.displacement_heading_moment(
            p, q, r, cfg.profile, cfg.noise, cfg.sim.s_final)
    if res.err_estimate > abs(res.value):
        raise NumericalConsistencyError(
            f"<u^{p} w^{q} theta~^{r}> = {res.value:.6g} has no correct digit: "
            f"its error estimate {res.err_estimate:.3g} exceeds its magnitude")
    record = {
        "p": p, "q": q, "r": r,
        "value_re": res.value.real,
        "value_im": res.value.imag,
        "err_estimate": res.err_estimate,
        "terms": res.terms_evaluated,
        "wall_time": time.perf_counter() - start,
    }
    _emit_json(record, out_path, drop_for_file=("wall_time",))


def _closed_form_mu0(cfg) -> float:
    if cfg.profile.kind != "constant":
        raise click.UsageError(
            "--closed-form is only valid for constant profiles")
    return cfg.profile.mu0


@cli.command()
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.pass_context
def d2(ctx, out_path):
    """Mean squared distance at the final curve length."""
    cfg = _require_config(ctx)
    s = cfg.sim.s_final
    if ctx.obj["closed_form"]:
        value = constant_ratio.d2_closed(_closed_form_mu0(cfg), cfg.noise, s)
        err, method = 0.0, "closed-form"
    else:
        value, err = low_moments.checked_mean_squared_distance(
            cfg.profile, cfg.noise, s)
        method = "quadrature"
    record = {"quantity": "d2", "s": s, "value": value,
              "err_estimate": err, "method": method}
    _emit_json(record, out_path)


@cli.command()
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.pass_context
def d4(ctx, out_path):
    """Mean fourth power of the distance, plus the variance of D^2."""
    cfg = _require_config(ctx)
    s = cfg.sim.s_final
    if ctx.obj["closed_form"]:
        mu0 = _closed_form_mu0(cfg)
        value = constant_ratio.d4_closed(mu0, cfg.noise, s)
        d2_value = constant_ratio.d2_closed(mu0, cfg.noise, s)
        method = "closed-form"
    else:
        d2_value, _ = low_moments.checked_mean_squared_distance(
            cfg.profile, cfg.noise, s)
        value = fourth_moment.d4_moment(cfg.profile, cfg.noise, s)
        method = "quadrature"
    variance = fourth_moment.variance_from_moments(value, d2_value)
    record = {"quantity": "d4", "s": s, "value": value,
              "variance_d2": variance, "method": method}
    _emit_json(record, out_path)


@cli.command()
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--per-trial", "per_trial_path", type=click.Path(), default=None,
              help="Also write one CSV row per trial.")
@click.pass_context
def simulate(ctx, out_path, per_trial_path):
    """Run the Monte Carlo experiment described by the config."""
    cfg = _require_config(ctx)
    samples = collect_samples(cfg.sim, threads=ctx.obj["threads"])
    stats = statistics_from_samples(samples)
    record = {
        "trials": cfg.sim.trials,
        "steps": cfg.sim.steps,
        "s_final": cfg.sim.s_final,
        "master_seed": cfg.sim.master_seed,
        "statistics": stats.to_dict(),
    }
    _emit_json(record, out_path)
    if per_trial_path:
        header = ["trial_index", "x", "y", "theta", "d2"]
        rows = [[str(i), samples["x"][i], samples["y"][i],
                 samples["theta"][i], samples["d2"][i]]
                for i in range(cfg.sim.trials)]
        with open(per_trial_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv_text(header, rows))


def _reproduce_profile(table: str) -> SpeedRatioProfile:
    if table == "table1":
        return SpeedRatioProfile.constant(5.0, theta0=0.0, s_max=1.0)
    return SpeedRatioProfile.polynomial((0.0, 10.0), theta0=0.0, s_max=1.0)


def _reproduce_analytic(table: str, params: NoiseParams):
    if table == "table1":
        mean = constant_ratio.d2_closed(5.0, params, 1.0)
        var = constant_ratio.variance_d2_closed(5.0, params, 1.0)
        return mean, var
    profile = _reproduce_profile(table)
    mean = low_moments.mean_squared_distance(profile, params, 1.0)
    var = fourth_moment.variance_from_moments(
        fourth_moment.d4_moment(profile, params, 1.0), mean)
    return mean, var


@cli.command()
@click.argument("table", type=click.Choice(["table1", "table2"]))
@click.option("--trials", "trials_spec", default="1000,10000,100000",
              help="Comma-separated trial counts.")
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.pass_context
def reproduce(ctx, table, trials_spec, out_path):
    """Reproduce a published experiment table.

    TABLE selects the motion: table1 is the constant ratio 5, table2 the
    linearly growing ratio 10*s, both over unit curve length with noise
    levels 0.01 and 1. The config contributes steps and seed only.
    """
    cfg = _require_config(ctx)
    try:
        trial_counts = sorted({int(t) for t in trials_spec.split(",") if t.strip()})
    except ValueError as exc:
        raise click.UsageError(f"bad --trials list: {exc}") from exc
    if not trial_counts or trial_counts[0] < 1:
        raise click.UsageError("--trials must list positive integers")
    profile = _reproduce_profile(table)
    header = ["K", "trials", "mc_mean_d2", "mc_var_d2",
              "analytic_mean_d2", "analytic_var_d2", "n_sigma_deviation"]
    rows = []
    for level in _REPRODUCE_NOISE_GRID:
        params = NoiseParams(level, level)
        analytic_mean, analytic_var = _reproduce_analytic(table, params)
        sim = SimConfig(profile=profile, params=params, s_final=1.0,
                        steps=cfg.sim.steps, trials=max(trial_counts),
                        master_seed=cfg.sim.master_seed)
        samples = collect_samples(sim, threads=ctx.obj["threads"])
        for count in trial_counts:
            stats = statistics_from_samples(samples, count).quantities["d2"]
            n_sigma = (abs(stats.mean - analytic_mean) / stats.se
                       if stats.se else float("nan"))
            rows.append([level, str(count), stats.mean,
                         stats.variance if stats.variance is not None else float("nan"),
                         analytic_mean, analytic_var, n_sigma])
    _emit_csv(header, rows, out_path)


@cli.command()
@click.argument("count", type=int)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.pass_context
def traj(ctx, count, out_path):
    """Emit COUNT noisy sample paths plus the noise-free path as CSV."""
    if count < 0:
        raise click.UsageError("count must be non-negative")
    cfg = _require_config(ctx)
    sim = cfg.sim
    if count > 0 and count > sim.trials:
        sim = dataclasses.replace(sim, trials=count)
    n = sim.steps
    ds = sim.s_final / n
    grid = ds * np.arange(n + 1)
    headings = finite_mean_heading(cfg.profile, grid)
    # Noise-free path via cumulative trapezoid of the heading direction;
    # second-order accurate in ds, exact checks belong to deterministic_pose.
    cosg, sing = np.cos(headings), np.sin(headings)
    x_det = np.concatenate(([0.0], np.cumsum(0.5 * (cosg[:-1] + cosg[1:]) * ds)))
    y_det = np.concatenate(([0.0], np.cumsum(0.5 * (sing[:-1] + sing[1:]) * ds)))
    header = ["path_id", "s", "x", "y", "theta"]
    rows = []
    for j in range(n + 1):
        rows.append(["0", grid[j], x_det[j], y_det[j], headings[j]])
    for trial in range(count):
        path = simulate_trial(sim, trial, return_path=True)
        for j in range(n + 1):
            rows.append([str(trial + 1), path[j, 0], path[j, 1],
                         path[j, 2], path[j, 3]])
    _emit_csv(header, rows, out_path)


def main(argv=None) -> int:
    """Run the CLI and map failures onto the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False, obj={})
        return 0
    except click.exceptions.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 2
    except EnvelopeRefusal as exc:
        click.echo(f"refused: {exc}", err=True)
        return 3
    except NumericalConsistencyError as exc:
        click.echo(f"numerical consistency failure: {exc}", err=True)
        return 4
    except IntegrandEvaluationError as exc:
        click.echo(f"non-finite integrand: {exc}", err=True)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
