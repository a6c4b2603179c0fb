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
execution order and worker count. Trials are evaluated in fixed-size
chunks through a single code path (a chunk of one for
:func:`simulate_trial`), and aggregation reduces preallocated per-trial
arrays in a fixed order, so a given configuration is bit-reproducible.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .trajectory import NoiseParams, SpeedRatioProfile, mean_heading

_OBSERVABLES = ("x", "y", "theta", "d2", "d4")
_CHUNK_TRIALS = 128


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
    key = np.array([master_seed, trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _heading_grid(config: SimConfig) -> np.ndarray:
    ds = config.s_final / config.steps
    return mean_heading(config.profile, ds * np.arange(1, config.steps + 1))


def _chunk_states(config: SimConfig, grid: np.ndarray, lo: int, hi: int):
    """Final states (x, y, theta) of trials [lo, hi) as arrays."""
    n = config.steps
    ds = config.s_final / n
    scale_theta = math.sqrt(config.params.k_theta * ds)
    scale_shift = math.sqrt(config.params.k_r * ds)
    draws = np.empty((hi - lo, n, 2))
    for c in range(hi - lo):
        _trial_generator(config.master_seed, lo + c).standard_normal(out=draws[c])
    # In place: one (trials, steps) array instead of three temporaries.
    theta = np.multiply(draws[:, :, 0], scale_theta)
    np.cumsum(theta, axis=1, out=theta)
    theta += grid
    lengths = ds + draws[:, :, 1] * scale_shift
    x = (lengths * np.cos(theta)).sum(axis=1)
    y = (lengths * np.sin(theta)).sum(axis=1)
    return x, y, theta[:, -1]


def simulate_trial(config: SimConfig, trial_index: int, return_path: bool = False):
    """Run one trial; returns ``(x, y, theta)`` or, with ``return_path``,
    an ``(steps+1, 4)`` array with columns ``(s, x, y, theta)``."""
    if not (0 <= trial_index < config.trials):
        raise ValueError("trial_index out of range")
    grid = _heading_grid(config)
    if not return_path:
        x, y, th = _chunk_states(config, grid, trial_index, trial_index + 1)
        return float(x[0]), float(y[0]), float(th[0])
    n = config.steps
    ds = config.s_final / n
    rng = _trial_generator(config.master_seed, trial_index)
    draws = rng.standard_normal((n, 2))
    theta = grid + np.cumsum(draws[:, 0] * math.sqrt(config.params.k_theta * ds))
    lengths = ds + draws[:, 1] * math.sqrt(config.params.k_r * ds)
    path = np.zeros((n + 1, 4))
    path[1:, 0] = ds * np.arange(1, n + 1)
    path[1:, 1] = np.cumsum(lengths * np.cos(theta))
    path[1:, 2] = np.cumsum(lengths * np.sin(theta))
    path[1:, 3] = theta
    path[0, 3] = config.profile.theta0
    return path


def collect_samples(config: SimConfig, threads: int = 1) -> dict[str, np.ndarray]:
    """Final-state observables for every trial, indexed by trial.

    Returns arrays of length ``trials`` for x, y, theta, d2 and d4.
    Worker count affects scheduling only, never values.
    """
    grid = _heading_grid(config)
    out = {name: np.empty(config.trials) for name in ("x", "y", "theta")}

    def work(bounds):
        lo, hi = bounds
        for start in range(lo, hi, _CHUNK_TRIALS):
            stop = min(start + _CHUNK_TRIALS, hi)
            x, y, th = _chunk_states(config, grid, start, stop)
            out["x"][start:stop] = x
            out["y"][start:stop] = y
            out["theta"][start:stop] = th

    if threads <= 1 or config.trials < 2 * _CHUNK_TRIALS:
        work((0, config.trials))
    else:
        edges = np.linspace(0, config.trials, threads + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, zip(edges[:-1], edges[1:])))
    out["d2"] = out["x"] ** 2 + out["y"] ** 2
    out["d4"] = out["d2"] ** 2
    return out


def statistics_from_samples(samples: dict[str, np.ndarray],
                            trials: int | None = None) -> TrialStatistics:
    """Reduce (a prefix of) per-trial samples to means, variances and SEs."""
    n = trials if trials is not None else len(samples["d2"])
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
