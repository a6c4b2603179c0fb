"""The three benchmark workloads: ``moments``, ``low_order``, ``mc_oracle``.

Each workload draws its inputs from the seed, then runs passes over a
fixed list of operations until the time budget is spent (at least one
pass). One operation ("op") is one moment evaluation, one low-order
point or CLI command, or one Monte Carlo collection. Every op is checked
after its pass, outside the timed region; an op that raises or fails a
check counts as failed and is reported on stderr.

Timings are the best of a run's repeats: each op's latency is its
fastest untraced pass, and ``wall_s`` adds up those latencies over one
pass's ops. Load from other tenants of a small shared host slows single
passes by up to 2x for seconds at a time; the best repeat tracks the
program's own cost, and medians over runs and seeds are what
comparisons use.

With tracing on, passes alternate between untraced and traced, so the
same run yields the end-to-end figures (untraced passes only), the
per-layer figures (traced passes only) and the tracing overhead.

Library calls go through module attributes (``low_moments.mean_x``, not
a name imported into this file) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from brownian_unicycle import (ExpPolySum, NoiseParams, SpeedRatioProfile,
                               SimConfig, cli, count_phase_step_vectors,
                               d2_closed, d4_closed, d4_moment,
                               general_moments, low_moments, mean_pose_closed,
                               mean_squared_distance, montecarlo, term_keys,
                               theta_power_compositions)

import reference
from spans import Tracer, grid_cache_info

MU0 = 5.0
CONSTANT = SpeedRatioProfile.constant(MU0, s_max=1.0)
RAMP = SpeedRatioProfile.polynomial((0.0, 10.0), s_max=1.0)
# A turn whose rate swings between 2 and 8: mu(s) = 5 + 3 sin(2 pi s) on 21 knots.
TABLE = SpeedRatioProfile.table(
    [(i / 20, 5.0 + 3.0 * math.sin(2.0 * math.pi * i / 20)) for i in range(21)])

MOMENT_ORDERS = ((1, 1, 0), (2, 0, 0), (2, 2, 0), (3, 1, 1), (2, 2, 2),
                 (5, 0, 0), (6, 0, 0))
# (label, profile, noise range): the paper's two noise levels on the
# constant ratio and the high level on the ramp.
MOMENT_CASES = (("constant_K0.01", CONSTANT, (0.008, 0.0125)),
                ("constant_K1", CONSTANT, (0.8, 1.25)),
                ("ramp_K1", RAMP, (0.8, 1.25)))
MOMENT_S_RANGE = (0.9, 1.0)

LOW_ORDER_POINTS = 120
LOW_ORDER_K_RANGE = (0.01, 1.0)
LOW_ORDER_S_RANGE = (0.2, 1.0)
# Paper's table-2 point, where the converged variance of D^2 is known.
RAMP_K1_VARIANCE_D2 = 1.4653368
CLI_COMMANDS = (("ramp", ("d2",)), ("ramp", ("d4",)),
                ("constant", ("d2",)), ("constant", ("d4",)),
                ("constant", ("--closed-form", "d2")),
                ("constant", ("--closed-form", "d4")))

# (phase, steps, trials, threads is nproc): the paper's 10k-step paths
# serially and threaded, and the demos' 2k-step paths with more trials.
MC_PHASES = (("long_1t", 10_000, 768, False),
             ("long_nt", 10_000, 768, True),
             ("short_nt", 2_000, 3_840, True))
# Traced passes also time the short phase serially, for its scaling.
MC_TRACE_PHASES = MC_PHASES + (("short_1t", 2_000, 3_840, False),)
MC_K_RANGE = (0.8, 1.25)
MC_S_RANGE = (0.9, 1.0)
MC_SE_LIMIT = 4.0

# Moment errors below this share of the summed term magnitudes are roundoff.
ROUNDOFF_FLOOR = 1e-12
MACHINE_EPS = float(np.finfo(float).eps)
MAX_BETA = 6


def log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass
class Outcome:
    """What one workload run measured and found."""

    ops: int = 0
    failed: int = 0
    pass_s: list = field(default_factory=list)
    traced_pass_s: list = field(default_factory=list)
    pass_op_ms: list = field(default_factory=list)
    # Leading ops of a pass whose latencies the percentiles cover (0: all).
    latency_ops: int = 0
    report: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    # Program attributes the traced run looked for and did not find: their
    # per-layer metrics read 0 without having been measured.
    missing: set = field(default_factory=set)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"op failed: {what}", file=sys.stderr)

    def best_op_ms(self) -> list:
        """Each op's fastest latency over the untraced passes."""
        return [min(times) for times in zip(*self.pass_op_ms)]

    def latencies(self) -> list:
        return self.best_op_ms()[:self.latency_ops or None]

    def end_to_end(self) -> dict:
        """The gated timings: one pass of best op latencies, and their p90."""
        return {"wall_s": (1e-3 * sum(self.best_op_ms()), "s"),
                "op_p90_ms": (percentile(self.latencies(), 90), "ms")}

    def op_p50_ms(self) -> float:
        return statistics.median(self.latencies())


def run_passes(outcome: Outcome, run_pass, seconds: float, trace: bool) -> None:
    """Run passes until ``seconds`` have passed, at least one of each kind.

    With ``trace``, passes alternate between untraced and traced, and the
    traced ones fill ``outcome.layers``.
    """
    tracer = Tracer() if trace else None
    cache = [0, 0]
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        traced = trace and index % 2 == 1
        cache_before = grid_cache_info()
        start = time.perf_counter()
        if traced:
            with tracer:
                op_ms = run_pass(tracer)
        else:
            op_ms = run_pass(None)
        elapsed = time.perf_counter() - start
        if traced:
            outcome.traced_pass_s.append(elapsed)
            if cache_before is not None:
                cache_after = grid_cache_info()
                cache[0] += cache_after[0] - cache_before[0]
                cache[1] += cache_after[1] - cache_before[1]
        else:
            outcome.pass_s.append(elapsed)
            outcome.pass_op_ms.append(op_ms)
        index += 1
        if time.perf_counter() >= deadline and index >= (2 if trace else 1):
            break
    if trace:
        outcome.missing |= tracer.missing
        if grid_cache_info() is None:
            outcome.missing.add("quadrature._simplex_grid.cache_info")
        layer_metrics(outcome, tracer, cache)


# -- per-layer figures -------------------------------------------------------

LAYER_METRICS = (
    ("general_moments.enum_s", "general_moments.chains", "general_moments.terms")
    + tuple(f"quadrature.{kind}.b{beta}" for kind in ("calls", "s", "integrand_s", "points")
            for beta in range(1, MAX_BETA + 1))
    + ("quadrature.grid_cache_hit_ratio", "trajectory.mean_heading_calls",
       "trajectory.mean_heading_points", "trajectory.mean_heading_s",
       "low_moments.s", "fourth_moment.s", "constant_ratio.s", "config.load_s",
       "cli.self_s", "montecarlo.collect_s.long_1t", "montecarlo.collect_s.long_nt",
       "montecarlo.collect_s.short_nt", "montecarlo.stats_s",
       "montecarlo.scaling_eff.long", "montecarlo.scaling_eff.short",
       "montecarlo.rng_bound_frac", "montecarlo.trial_setup_frac.long",
       "montecarlo.trial_setup_frac.short", "montecarlo.chunk_bytes",
       "moments.max_rel_err", "trace.overhead_frac"))


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")) or "_s." in name or ".s." in name:
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "frac", "err")) or ".scaling_eff." in name or "_frac." in name:
        return "ratio"
    return "count"


def layer_metrics(outcome: Outcome, tracer: Tracer, cache_delta) -> None:
    """Per-pass layer figures from the traced passes."""
    n = len(outcome.traced_pass_s)
    lay = outcome.layers
    lay["general_moments.enum_s"] = tracer.total_s["general_moments.enum"] / n
    lay["general_moments.chains"] = tracer.counts["general_moments.chains"] / n
    lay["general_moments.terms"] = tracer.counts["general_moments.terms"] / n
    for beta in range(1, MAX_BETA + 1):
        tag = f"b{beta}"
        lay[f"quadrature.calls.{tag}"] = tracer.calls[f"quadrature.{tag}"] / n
        lay[f"quadrature.s.{tag}"] = tracer.total_s[f"quadrature.{tag}"] / n
        lay[f"quadrature.integrand_s.{tag}"] = (
            tracer.total_s[f"quadrature.integrand.{tag}"] / n)
        lay[f"quadrature.points.{tag}"] = tracer.counts[f"quadrature.points.{tag}"] / n
    hits, misses = cache_delta
    lay["quadrature.grid_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    lay["trajectory.mean_heading_calls"] = tracer.calls["trajectory.mean_heading"] / n
    lay["trajectory.mean_heading_points"] = (
        tracer.counts["trajectory.mean_heading_points"] / n)
    lay["trajectory.mean_heading_s"] = tracer.total_s["trajectory.mean_heading"] / n
    lay["low_moments.s"] = tracer.total_s["low_moments"] / n
    lay["fourth_moment.s"] = tracer.total_s["fourth_moment"] / n
    lay["constant_ratio.s"] = tracer.total_s["constant_ratio"] / n
    lay["config.load_s"] = tracer.total_s["config.load"] / n
    lay["cli.self_s"] = tracer.self_s["cli"] / n
    stats_calls = tracer.calls["montecarlo.stats"]
    lay["montecarlo.stats_s"] = (tracer.total_s["montecarlo.stats"] / stats_calls
                                 if stats_calls else 0.0)
    for name in LAYER_METRICS:
        lay.setdefault(name, 0.0)
    lay["trace.overhead_frac"] = (min(outcome.traced_pass_s)
                                  / min(outcome.pass_s) - 1.0)


# -- moments -----------------------------------------------------------------

@dataclass(frozen=True)
class MomentCase:
    label: str
    profile: SpeedRatioProfile
    params: NoiseParams
    s: float


def expected_quadrature_calls(n_cases: int, orders=MOMENT_ORDERS) -> dict[int, int]:
    """Nested integrals of one pass, one per phase-step vector and heading-power
    composition of the public term enumeration."""
    calls = {beta: 0 for beta in range(1, MAX_BETA + 1)}
    for _ in range(n_cases):
        for p, q, r in orders:
            for key in term_keys(p, q):
                beta = key.dimension
                if beta >= 1:
                    calls[beta] += (count_phase_step_vectors(key)
                                    * len(theta_power_compositions(r, beta)))
    return calls


def moments(rng, seconds: float, trace: bool, **_) -> Outcome:
    cases = []
    for label, profile, (k_lo, k_hi) in MOMENT_CASES:
        k = log_uniform(rng, k_lo, k_hi)
        cases.append(MomentCase(label, profile, NoiseParams(k, k),
                                rng.uniform(*MOMENT_S_RANGE)))
    outcome = Outcome()
    outcome.facts["moment_cases"] = [
        {"case": c.label, "K": c.params.k_r, "s": c.s} for c in cases]
    ops = [(c, order) for c in cases for order in MOMENT_ORDERS]
    results = {}

    def run_pass(tracer):
        op_ms = []
        for case, (p, q, r) in ops:
            start = time.perf_counter()
            try:
                res = general_moments.displacement_heading_moment(
                    p, q, r, case.profile, case.params, case.s)
            except Exception as exc:  # counted, reported, run continues
                res = exc
            op_ms.append(1e3 * (time.perf_counter() - start))
            results.setdefault((case.label, (p, q, r)), []).append(res)
        return op_ms

    run_passes(outcome, run_pass, seconds, trace)

    # Checks, outside every timed region.
    for case in cases:
        if case.profile.kind == "constant":
            outcome.problems += reference.self_check(MU0, case.params.k_r, case.s)
    ramp = next(c for c in cases if c.profile is RAMP)
    ramp_d4 = d4_moment(ramp.profile, ramp.params, ramp.s)
    worst_rel = 0.0
    for case in cases:
        for order in MOMENT_ORDERS:
            p, q, r = order
            ref = None
            if case.profile.kind == "constant" and r == 0:
                ref = reference.exact_moment(p, q, MU0, case.params.k_r, case.s)
            for res in results[(case.label, order)]:
                outcome.ops += 1
                what = f"{case.label} {order} K={case.params.k_r} s={case.s}"
                if isinstance(res, Exception):
                    outcome.fail(f"{what} raised {res!r}")
                    continue
                if not cmath.isfinite(res.value):
                    outcome.fail(f"{what} returned {res.value}")
                    continue
                if ref is not None:
                    value, magnitude = ref
                    err = abs(res.value - value)
                    worst_rel = max(worst_rel,
                                    max(err, MACHINE_EPS * magnitude) / abs(value))
                    if err > res.err_estimate + ROUNDOFF_FLOOR * magnitude:
                        outcome.fail(f"{what}: true error {err:.3e} exceeds its "
                                     f"err_estimate {res.err_estimate:.3e} "
                                     f"(value {res.value}, exact {value})")
                if case is ramp and order == (2, 2, 0):
                    gap = abs(res.value.real - ramp_d4)
                    if gap > 1e-10 * abs(ramp_d4) + res.err_estimate:
                        outcome.fail(f"{what}: {res.value} differs from "
                                     f"d4_moment {ramp_d4}")
    outcome.report["moments_wall_s"] = outcome.end_to_end()["wall_s"]
    outcome.report["moments_max_rel_err"] = (worst_rel, "ratio")
    if trace:
        outcome.layers["moments.max_rel_err"] = worst_rel
        # A note, not a check: an engine that integrates fewer or merged
        # chains is free to make other calls than one per enumerated term.
        expected = expected_quadrature_calls(len(cases))
        for beta, want in expected.items():
            got = outcome.layers[f"quadrature.calls.b{beta}"]
            if got != want:
                print(f"note: traced quadrature.calls.b{beta} = {got} per pass, "
                      f"one per enumerated term makes {want}", file=sys.stderr)
    return outcome


# -- low_order ---------------------------------------------------------------

def write_cli_configs(tmpdir: Path) -> dict[str, Path]:
    """Fixed configs at the paper's unit curve length and noise level 1."""
    docs = {
        "ramp": {"profile": {"kind": "polynomial", "coeffs": [0.0, 10.0],
                             "s_max": 1.0}},
        "constant": {"profile": {"kind": "constant", "mu0": MU0, "s_max": 1.0}},
    }
    paths = {}
    for name, doc in docs.items():
        doc["noise"] = {"k_r": 1.0, "k_theta": 1.0}
        doc["sim"] = {"s_final": 1.0}
        paths[name] = tmpdir / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    return paths


def _exact_cov(k: float, s: float) -> complex:
    """``int_0^s t exp((i mu0 - k/2) t) dt`` for the constant profile."""
    rate = complex(-0.5 * k, MU0)
    return ExpPolySum.from_terms([(rate, 1, 1.0)]).integral(s)(s)


def check_point(point, values) -> str | None:
    profile, params, s = point
    mx, my, (xx, yy, xy), cx, cy = values
    flat = (mx, my, xx, yy, xy, cx, cy)
    if not all(math.isfinite(v) for v in flat):
        return f"non-finite values {flat}"
    slack = 1e-12 * (1.0 + xx + yy)
    if xx - mx * mx < -slack or yy - my * my < -slack or xy * xy > xx * yy + slack:
        return f"second moments {xx, yy, xy} inconsistent with means {mx, my}"
    if profile.kind != "constant":
        return None
    k = params.k_theta
    tol = 1e-10 * s
    cov = k * _exact_cov(k, s)
    checks = (("mean pose", complex(mx, my), mean_pose_closed(MU0, params, 0.0, s)),
              ("<x^2>+<y^2>", xx + yy, d2_closed(MU0, params, s)),
              ("heading covariances", complex(cx, cy), complex(-cov.imag, cov.real)))
    for name, got, want in checks:
        if abs(got - want) > tol * max(1.0, abs(want)):
            return f"{name} {got} differs from exact {want}"
    return None


def check_cli(name: str, args, rc: int, out: str, err: str, cli_ref) -> str | None:
    if isinstance(rc, Exception):
        return f"raised {rc!r}"
    if rc != 0:
        return f"exit code {rc}: {err.strip()}"
    try:
        record = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return f"unparsable output {out!r}"
    value = record.get("value")
    if not (isinstance(value, float) and math.isfinite(value) and value > 0):
        return f"bad value {value!r}"
    if name == "ramp" and args == ("d4",):
        if abs(record["variance_d2"] - RAMP_K1_VARIANCE_D2) > 5e-8:
            return (f"variance_d2 {record['variance_d2']} is not the converged "
                    f"{RAMP_K1_VARIANCE_D2}")
    if name == "constant":
        want = cli_ref[args[-1]]
        if abs(value - want) > 1e-10 * want:
            return f"value {value} differs from closed form {want}"
    return None


def low_order(rng, seconds: float, trace: bool, tmpdir: Path, **_) -> Outcome:
    profiles = (CONSTANT, RAMP, TABLE)
    points = []
    for i in range(LOW_ORDER_POINTS):
        k = log_uniform(rng, *LOW_ORDER_K_RANGE)
        points.append((profiles[i % 3], NoiseParams(k, k),
                       rng.uniform(*LOW_ORDER_S_RANGE)))
    configs = write_cli_configs(tmpdir)
    unit = NoiseParams(1.0, 1.0)
    cli_ref = {"d2": d2_closed(MU0, unit, 1.0), "d4": d4_closed(MU0, unit, 1.0)}
    outcome = Outcome(latency_ops=LOW_ORDER_POINTS)
    point_results = []
    cli_results = []

    def run_pass(tracer):
        op_ms = []
        for profile, params, s in points:
            start = time.perf_counter()
            try:
                values = (low_moments.mean_x(profile, params, s),
                          low_moments.mean_y(profile, params, s),
                          low_moments.second_moments(profile, params, s),
                          low_moments.cov_xtheta(profile, params, s),
                          low_moments.cov_ytheta(profile, params, s))
            except Exception as exc:  # counted, reported, run continues
                values = exc
            op_ms.append(1e3 * (time.perf_counter() - start))
            point_results.append(values)
        for name, args in CLI_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                argv = ["--config", str(configs[name]), *args]
                try:
                    rc = (cli.main(argv) if tracer is None
                          else tracer.call("cli", cli.main, argv))
                except Exception as exc:  # counted, reported, run continues
                    rc = exc
            op_ms.append(1e3 * (time.perf_counter() - start))
            cli_results.append((name, args, rc, out.getvalue(), err.getvalue()))
        return op_ms

    run_passes(outcome, run_pass, seconds, trace)

    for i, values in enumerate(point_results):
        outcome.ops += 1
        point = points[i % len(points)]
        what = f"{point[0].kind} K={point[1].k_r} s={point[2]}"
        if isinstance(values, Exception):
            outcome.fail(f"low-order point {what} raised {values!r}")
            continue
        problem = check_point(point, values)
        if problem:
            outcome.fail(f"low-order point {what}: {problem}")
    for name, args, rc, out, err in cli_results:
        outcome.ops += 1
        problem = check_cli(name, args, rc, out, err, cli_ref)
        if problem:
            outcome.fail(f"cli {' '.join(args)} on {name} config: {problem}")
    outcome.report["low_order_point_p50_ms"] = (outcome.op_p50_ms(), "ms")
    outcome.report["low_order_point_p90_ms"] = outcome.end_to_end()["op_p90_ms"]
    outcome.report["low_order_point_samples"] = (LOW_ORDER_POINTS, "count")
    outcome.report["low_order_points_per_s"] = (
        1e3 * LOW_ORDER_POINTS / sum(outcome.latencies()), "1/s")
    return outcome


# -- mc_oracle ---------------------------------------------------------------

def philox_normals_per_s(reps: int = 5, size: int = 1 << 22) -> float:
    """Single-thread Philox standard-normal rate, median of ``reps``."""
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    buf = np.empty(size)
    rates = []
    for _ in range(reps):
        start = time.perf_counter()
        gen.standard_normal(out=buf)
        rates.append(size / (time.perf_counter() - start))
    return statistics.median(rates)


def trial_generator_s(make, master_seed: int, reps: int = 5, n: int = 1000) -> float:
    """Single-thread cost of making one trial's generator, median of ``reps``."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for trial in range(n):
            make(master_seed, trial)
        times.append((time.perf_counter() - start) / n)
    return statistics.median(times)


def mc_oracle(rng, seconds: float, trace: bool, seed: int, nproc: int, **_) -> Outcome:
    k = log_uniform(rng, *MC_K_RANGE)
    params = NoiseParams(k, k)
    s = rng.uniform(*MC_S_RANGE)
    configs = {(steps, trials): SimConfig(RAMP, params, s, steps, trials, seed)
               for _, steps, trials, _ in MC_TRACE_PHASES}
    outcome = Outcome()
    outcome.facts["mc_case"] = {"K": k, "s": s, "master_seed": seed, "threads": nproc}
    normals_per_s = philox_normals_per_s()
    outcome.facts["philox_normals_per_s"] = normals_per_s
    collect_s = {}       # (phase, traced) -> [seconds]
    samples = {}         # (steps, trials) -> first samples, reference for the rest
    stats = []           # (phase, d2 mean, d2 se)
    mismatches = []

    def run_pass(tracer):
        op_ms = []
        for phase, steps, trials, threaded in (MC_TRACE_PHASES if tracer else MC_PHASES):
            config = configs[(steps, trials)]
            start = time.perf_counter()
            try:
                got = montecarlo.collect_samples(config, threads=nproc if threaded else 1)
                mid = time.perf_counter()
                d2 = montecarlo.statistics_from_samples(got).quantities["d2"]
            except Exception as exc:  # counted, reported, run continues
                stats.append((phase, exc, None))
                op_ms.append(1e3 * (time.perf_counter() - start))
                continue
            op_ms.append(1e3 * (time.perf_counter() - start))
            collect_s.setdefault((phase, tracer is not None), []).append(mid - start)
            stats.append((phase, d2.mean, d2.se))
            first = samples.setdefault((steps, trials), got)
            if first is not got and not all(np.array_equal(first[key], got[key])
                                            for key in first):
                mismatches.append(phase)
        return op_ms

    run_passes(outcome, run_pass, seconds, trace)

    analytic = mean_squared_distance(RAMP, params, s)
    for phase, mean, se in stats:
        outcome.ops += 1
        if isinstance(mean, Exception):
            outcome.fail(f"mc {phase} raised {mean!r}")
        elif not abs(mean - analytic) <= MC_SE_LIMIT * se:
            outcome.fail(f"mc {phase}: mean d2 {mean} is {abs(mean - analytic) / se:.1f} "
                         f"standard errors from mean_squared_distance {analytic}")
    for phase in mismatches:
        outcome.fail(f"mc {phase}: samples differ from the same config at "
                     "another thread count or repeat")

    def rate(phase, traced=False):
        steps, trials = next((st, tr) for ph, st, tr, _ in MC_TRACE_PHASES if ph == phase)
        return steps * trials / min(collect_s[(phase, traced)])

    outcome.report["mc_long_trial_steps_per_s_1t"] = (rate("long_1t"), "1/s")
    outcome.report["mc_long_trial_steps_per_s"] = (rate("long_nt"), "1/s")
    outcome.report["mc_short_trial_steps_per_s"] = (rate("short_nt"), "1/s")
    if trace:
        lay = outcome.layers
        best = {phase: min(collect_s[(phase, True)]) for phase, *_ in MC_TRACE_PHASES}
        for phase in ("long_1t", "long_nt", "short_nt"):
            lay[f"montecarlo.collect_s.{phase}"] = best[phase]
        lay["montecarlo.scaling_eff.long"] = best["long_1t"] / (nproc * best["long_nt"])
        lay["montecarlo.scaling_eff.short"] = best["short_1t"] / (nproc * best["short_nt"])
        lay["montecarlo.rng_bound_frac"] = rate("long_1t", True) / (0.5 * normals_per_s)
        # Share of a 1-thread collection spent making the trials' generators,
        # from the cost of one generator measured on its own.
        make = getattr(montecarlo, "_trial_generator", None)
        if make is None:
            outcome.missing.add("brownian_unicycle.montecarlo._trial_generator")
        else:
            gen_s = trial_generator_s(make, seed)
            outcome.facts["trial_generator_s"] = gen_s
            for length in ("long", "short"):
                phase = f"{length}_1t"
                trials = next(tr for ph, _, tr, _ in MC_TRACE_PHASES if ph == phase)
                lay[f"montecarlo.trial_setup_frac.{length}"] = trials * gen_s / best[phase]
        chunk = getattr(montecarlo, "_CHUNK_TRIALS", None)
        if chunk is None:
            outcome.missing.add("brownian_unicycle.montecarlo._CHUNK_TRIALS")
            chunk = 0
        lay["montecarlo.chunk_bytes"] = chunk * MC_PHASES[0][1] * 2 * 8
        # Overhead over the phases both kinds of pass run.
        untraced = sum(min(collect_s[(p, False)]) for p, *_ in MC_PHASES)
        traced = sum(best[p] for p, *_ in MC_PHASES)
        lay["trace.overhead_frac"] = traced / untraced - 1.0
    return outcome


WORKLOADS = {"moments": moments, "low_order": low_order, "mc_oracle": mc_oracle}
