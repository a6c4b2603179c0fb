"""Discrete-step Monte Carlo simulator of the noisy unicycle.

The interval ``(0, s_final)`` is divided into ``steps`` equal segments of
length ``ds``. Per step the heading picks up a Gaussian increment of
variance ``k_theta * ds`` and the traveled length a Gaussian increment of
variance ``k_r * ds``; the heading at step j includes its own increment
before the position update uses it,

    theta_j = mean_heading(j ds) + sum_{m<=j} dtheta_m
    x += (ds + eps_j) cos(theta_j),   y += (ds + eps_j) sin(theta_j).

Randomness contract: each trial draws from its own counter-based Philox
stream keyed by ``(master_seed, trial_index)``, with exactly two Gaussian
draws per step, heading first. Results are therefore independent of
execution order and worker count, and a given configuration is
bit-reproducible.

Execution: each worker of :func:`collect_samples` owns one
:class:`_Workspace`, allocated once: a Philox generator that it re-keys to
``(master_seed, trial_index)`` at counter 0 before each trial, which
reproduces a fresh generator's stream (:func:`_trial_generator`) without
seeding one, and buffers for one chunk of trials at 40 bytes per
trial-step. A chunk holds as many trials as fit in ``_WORKSPACE_BYTES``
(2 MiB, about one core's L2 cache), at most ``_CHUNK_TRIALS``, and at
least one: a trial longer than the budget gets a one-trial workspace of
``40 * steps`` bytes. Every chunk runs through one kernel,
:func:`_chunk`, in place in those buffers; it sums the position
increments into final states or, for :func:`simulate_trial`'s paths,
takes their cumulative sums. No trial's arithmetic depends on which chunk
holds it, and per-trial results land in preallocated arrays, so the
reduction order is fixed and results depend on neither the budget nor
the chunk size.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptions import IntegrandEvaluationError
from .trajectory import NoiseParams, SpeedRatioProfile, mean_heading

_OBSERVABLES = ("x", "y", "theta", "d2", "d4")
# A worker's chunk buffers stay within _WORKSPACE_BYTES, about one core's
# L2 cache, so the kernel's successive passes over a chunk stay in cache
# and memory does not grow with threads x steps x _CHUNK_TRIALS.
_CHUNK_TRIALS = 32
_WORKSPACE_BYTES = 2 << 20


@dataclass(frozen=True)
class SimConfig:
    """Full description of one Monte Carlo experiment."""

    profile: SpeedRatioProfile
    params: NoiseParams
    s_final: float
    steps: int
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (0.0 < self.s_final <= self.profile.s_max):
            raise ValueError("s_final must lie in (0, profile.s_max]")
        if not (0 <= self.master_seed < 2 ** 64):
            raise ValueError("master_seed must fit in 64 bits")


@dataclass(frozen=True)
class QuantityStats:
    """Sample statistics of one observable; variance/se absent for 1 trial."""

    mean: float
    variance: float | None
    se: float | None


@dataclass
class TrialStatistics:
    """Aggregated sample statistics over all trials."""

    quantities: dict[str, QuantityStats]
    trials_used: int

    def to_dict(self) -> dict:
        return {
            "trials_used": self.trials_used,
            "quantities": {
                name: {"mean": q.mean, "variance": q.variance, "se": q.se}
                for name, q in self.quantities.items()
            },
        }


def _trial_generator(master_seed: int, trial_index: int) -> np.random.Generator:
    """Reference stream of one trial: a fresh Philox keyed by
    ``(master_seed, trial_index)``. :class:`_Workspace` re-keys one
    generator instead and reproduces this stream exactly."""
    key = np.array([master_seed, trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Workspace:
    """One worker's generator and chunk buffers, allocated once.

    ``capacity`` trials of ``steps`` steps take ``40 * capacity * steps``
    bytes: the draws ``(capacity, steps, 2)`` plus ``theta``, ``lengths``
    and one trig buffer of ``(capacity, steps)`` each.
    :func:`collect_samples` sizes ``capacity`` by :func:`_chunk_trials`,
    which keeps these buffers within ``_WORKSPACE_BYTES`` unless one trial
    alone is larger; the results do not depend on ``capacity``.
    """

    def __init__(self, steps: int, capacity: int) -> None:
        self._bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bits)
        # Philox is counter based: key (seed, trial) at counter 0 with an
        # empty output buffer is the state a fresh generator starts in.
        self._key = np.zeros(2, dtype=np.uint64)
        self._start = {"bit_generator": "Philox",
                       "state": {"counter": np.zeros(4, dtype=np.uint64),
                                 "key": self._key},
                       "buffer": np.zeros(4, dtype=np.uint64),
                       "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self.draws = np.empty((capacity, steps, 2))
        self.theta = np.empty((capacity, steps))
        self.lengths = np.empty((capacity, steps))
        self.trig = np.empty((capacity, steps))

    def generator(self, master_seed: int, trial_index: int) -> np.random.Generator:
        """The worker's generator, set to the start of one trial's stream."""
        self._key[0] = master_seed
        self._key[1] = trial_index
        self._bits.state = self._start
        return self._gen


def finite_mean_heading(profile: SpeedRatioProfile, s: np.ndarray) -> np.ndarray:
    """:func:`mean_heading` at the points ``s``.

    Raises :class:`IntegrandEvaluationError` at the first point where the
    heading is not finite (a polynomial that overflows), without numpy's
    floating-point warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        theta = mean_heading(profile, s)
    bad = ~np.isfinite(theta)
    if bad.any():
        at = float(s[bad][0])
        raise IntegrandEvaluationError(
            f"the mean heading is not finite at s = {at}", point=(at,))
    return theta


def _heading_grid(config: SimConfig) -> np.ndarray:
    ds = config.s_final / config.steps
    return finite_mean_heading(config.profile, ds * np.arange(1, config.steps + 1))


def _chunk(ws: _Workspace, config: SimConfig, grid: np.ndarray, lo: int, hi: int,
           x: np.ndarray, y: np.ndarray, paths: bool = False) -> np.ndarray:
    """Run trials ``[lo, hi)`` in ``ws``; returns their headings, a view of
    ``ws.theta`` valid until the workspace is reused.

    Writes the final positions into ``x`` and ``y``, shape ``(hi - lo,)``,
    or with ``paths`` the cumulative positions, shape ``(hi - lo, steps)``.
    """
    n = config.steps
    ds = config.s_final / n
    draws = ws.draws[:hi - lo]
    for c in range(hi - lo):
        ws.generator(config.master_seed, lo + c).standard_normal(out=draws[c])
    theta = ws.theta[:hi - lo]
    np.multiply(draws[:, :, 0], math.sqrt(config.params.k_theta * ds), out=theta)
    np.cumsum(theta, axis=1, out=theta)
    theta += grid
    lengths = ws.lengths[:hi - lo]
    np.multiply(draws[:, :, 1], math.sqrt(config.params.k_r * ds), out=lengths)
    lengths += ds
    trig = ws.trig[:hi - lo]
    reduce = np.cumsum if paths else np.sum
    for fn, out in ((np.cos, x), (np.sin, y)):
        fn(theta, out=trig)
        trig *= lengths
        reduce(trig, axis=1, out=out)
    return theta


def simulate_trial(config: SimConfig, trial_index: int, return_path: bool = False):
    """Run one trial; returns ``(x, y, theta)`` or, with ``return_path``,
    an ``(steps+1, 4)`` array with columns ``(s, x, y, theta)``."""
    if not (0 <= trial_index < config.trials):
        raise ValueError("trial_index out of range")
    n = config.steps
    ws = _Workspace(n, 1)
    args = (ws, config, _heading_grid(config), trial_index, trial_index + 1)
    if not return_path:
        x, y = np.empty(1), np.empty(1)
        theta = _chunk(*args, x, y)
        return float(x[0]), float(y[0]), float(theta[0, -1])
    ds = config.s_final / n
    path = np.zeros((n + 1, 4))
    path[1:, 0] = ds * np.arange(1, n + 1)
    path[1:, 3] = _chunk(*args, path[None, 1:, 1], path[None, 1:, 2], paths=True)[0]
    path[0, 3] = config.profile.theta0
    return path


def _chunk_trials(steps: int) -> int:
    """Trials per chunk: as many as fit in ``_WORKSPACE_BYTES``, at most
    ``_CHUNK_TRIALS`` and at least one."""
    return max(1, min(_CHUNK_TRIALS, _WORKSPACE_BYTES // (40 * steps)))


def collect_samples(config: SimConfig, threads: int = 1) -> dict[str, np.ndarray]:
    """Final-state observables for every trial, indexed by trial.

    Returns arrays of length ``trials`` for x, y, theta, d2 and d4.
    Worker count affects scheduling only, never values. Each worker takes
    at least one chunk's worth of trials and holds one :class:`_Workspace`
    of at most ``max(_WORKSPACE_BYTES, 40 * steps)`` bytes: a chunk is as
    many trials as fit in the 2 MiB budget (up to ``_CHUNK_TRIALS``), or
    one trial when a single trial exceeds it. Neither the budget nor the
    chunk size changes any value.
    """
    grid = _heading_grid(config)
    out = {name: np.empty(config.trials) for name in ("x", "y", "theta")}
    chunk = _chunk_trials(config.steps)

    def work(lo, hi):
        ws = _Workspace(config.steps, min(chunk, hi - lo))
        for start in range(lo, hi, chunk):
            stop = min(start + chunk, hi)
            theta = _chunk(ws, config, grid, start, stop,
                           out["x"][start:stop], out["y"][start:stop])
            out["theta"][start:stop] = theta[:, -1]

    workers = min(threads, config.trials // chunk)
    if workers <= 1:
        work(0, config.trials)
    else:
        edges = np.linspace(0, config.trials, workers + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, edges[:-1], edges[1:]))
    out["d2"] = out["x"] ** 2 + out["y"] ** 2
    out["d4"] = out["d2"] ** 2
    return out


def statistics_from_samples(samples: dict[str, np.ndarray],
                            trials: int | None = None) -> TrialStatistics:
    """Reduce (a prefix of) per-trial samples to means, variances and SEs.

    ``trials`` selects the first ``trials`` samples and must lie in
    ``[1, len(samples["d2"])]``; by default all are used.
    """
    available = len(samples["d2"])
    n = trials if trials is not None else available
    if not 1 <= n <= available:
        raise ValueError(f"trials must lie in [1, {available}], got {n}")
    quantities = {}
    for name in _OBSERVABLES:
        values = samples[name][:n]
        mean = float(values.mean())
        if n >= 2:
            var = float(values.var(ddof=1))
            se = math.sqrt(var / n)
        else:
            var = None
            se = None
        quantities[name] = QuantityStats(mean, var, se)
    return TrialStatistics(quantities, n)


def run_experiment(config: SimConfig, threads: int = 1) -> TrialStatistics:
    """Run all trials of ``config`` and aggregate their final states."""
    return statistics_from_samples(collect_samples(config, threads))
