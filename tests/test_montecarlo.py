"""Simulator contracts: determinism, convergence, marginal laws."""

import math
import tracemalloc

import numpy as np
import pytest

from brownian_unicycle import (NoiseParams, SimConfig, SpeedRatioProfile,
                               collect_samples, d2_closed, deterministic_pose,
                               montecarlo, run_experiment, simulate_trial,
                               statistics_from_samples)

CONST = SpeedRatioProfile.constant(5.0, theta0=0.0, s_max=1.0)


def _config(profile=CONST, k=0.01, steps=1000, trials=100, seed=42, s=1.0):
    return SimConfig(profile=profile, params=NoiseParams(k, k), s_final=s,
                     steps=steps, trials=trials, master_seed=seed)


def test_trial_is_deterministic():
    cfg = _config()
    a = simulate_trial(cfg, 7)
    b = simulate_trial(cfg, 7)
    assert a == b


def _reference_samples(cfg):
    """Final states from fresh per-trial generators, out of place."""
    n = cfg.steps
    ds = cfg.s_final / n
    draws = np.stack([montecarlo._trial_generator(cfg.master_seed, t)
                      .standard_normal((n, 2)) for t in range(cfg.trials)])
    theta = montecarlo._heading_grid(cfg) + np.cumsum(
        draws[:, :, 0] * math.sqrt(cfg.params.k_theta * ds), axis=1)
    lengths = ds + draws[:, :, 1] * math.sqrt(cfg.params.k_r * ds)
    return {"x": (lengths * np.cos(theta)).sum(axis=1),
            "y": (lengths * np.sin(theta)).sum(axis=1),
            "theta": theta[:, -1]}


def _reference_path(cfg, trial_index):
    """``simulate_trial(..., return_path=True)`` as a separate formula."""
    n = cfg.steps
    ds = cfg.s_final / n
    rng = montecarlo._trial_generator(cfg.master_seed, trial_index)
    draws = rng.standard_normal((n, 2))
    theta = montecarlo._heading_grid(cfg) + np.cumsum(
        draws[:, 0] * math.sqrt(cfg.params.k_theta * ds))
    lengths = ds + draws[:, 1] * math.sqrt(cfg.params.k_r * ds)
    path = np.zeros((n + 1, 4))
    path[1:, 0] = ds * np.arange(1, n + 1)
    path[1:, 1] = np.cumsum(lengths * np.cos(theta))
    path[1:, 2] = np.cumsum(lengths * np.sin(theta))
    path[1:, 3] = theta
    path[0, 3] = cfg.profile.theta0
    return path


def test_batch_matches_out_of_place_heading_formula():
    # Reference: the heading as grid + cumsum of freshly scaled draws.
    cfg = _config(trials=5, steps=50)
    want = _reference_samples(cfg)
    samples = collect_samples(cfg)
    for name in want:
        assert np.array_equal(samples[name], want[name])


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_batch_matches_fresh_generators_at_extreme_seeds(seed):
    cfg = _config(trials=3 * montecarlo._CHUNK_TRIALS + 5, steps=31, seed=seed)
    want = _reference_samples(cfg)
    for threads in (1, 2):
        got = collect_samples(cfg, threads=threads)
        for name in want:
            assert np.array_equal(got[name], want[name])


def test_rekeyed_workspace_reproduces_trial_streams():
    chunk = montecarlo._CHUNK_TRIALS
    for seed in (0, 42, 2 ** 64 - 1):
        ws = montecarlo._Workspace(steps=7, capacity=4)
        # Odd step counts and 32-bit draws leave the generator mid-buffer.
        for trial, steps in ((0, 7), (1, 3), (chunk - 1, 5), (chunk, 1),
                             (2 * chunk + 1, 9), (5, 2)):
            gen = ws.generator(seed, trial)
            got = gen.standard_normal((steps, 2))
            ref = montecarlo._trial_generator(seed, trial)
            assert np.array_equal(got, ref.standard_normal((steps, 2)))
            gen.integers(0, 7, size=3, dtype=np.uint32)


@pytest.mark.parametrize("chunks", [0.5, 1.5, 3.25])
def test_thread_count_does_not_change_partial_chunks(chunks):
    cfg = _config(trials=int(chunks * montecarlo._CHUNK_TRIALS), steps=50)
    one = collect_samples(cfg, threads=1)
    for threads in (2, 3):
        many = collect_samples(cfg, threads=threads)
        for name in one:
            assert np.array_equal(one[name], many[name])


def test_path_matches_out_of_place_formula():
    for steps in (1, 7, 250):
        cfg = _config(trials=4, steps=steps)
        for trial in range(cfg.trials):
            assert np.array_equal(simulate_trial(cfg, trial, return_path=True),
                                  _reference_path(cfg, trial))


def test_collection_memory_is_bounded_by_worker_workspaces():
    # Two workers, each holding one chunk workspace of five
    # (chunk, steps) float arrays; the allowance covers the heading grid
    # and its temporaries. Fresh buffers per chunk, or out-of-place
    # temporaries in the kernel, exceed it at the same chunk size.
    cfg = _config(steps=10_000, trials=256)
    workspace = 5 * 8 * montecarlo._CHUNK_TRIALS * cfg.steps
    bound = 2 * workspace + 32 * 8 * cfg.steps
    tracemalloc.start()
    try:
        collect_samples(cfg, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_trials_are_independent_of_execution_order():
    cfg = _config(trials=16)
    backwards = [simulate_trial(cfg, i) for i in reversed(range(16))][::-1]
    forwards = [simulate_trial(cfg, i) for i in range(16)]
    assert backwards == forwards


def test_single_trial_matches_batch_exactly():
    cfg = _config(trials=300)
    samples = collect_samples(cfg)
    for idx in (0, 128, 299):
        x, y, th = simulate_trial(cfg, idx)
        assert (x, y, th) == (samples["x"][idx], samples["y"][idx],
                              samples["theta"][idx])


def test_thread_count_does_not_change_results():
    cfg = _config(trials=1200, steps=200)
    one = collect_samples(cfg, threads=1)
    three = collect_samples(cfg, threads=3)
    eight = collect_samples(cfg, threads=8)
    for name in one:
        assert np.array_equal(one[name], three[name])
        assert np.array_equal(one[name], eight[name])


def test_different_seeds_differ():
    a = simulate_trial(_config(seed=1), 0)
    b = simulate_trial(_config(seed=2), 0)
    assert a != b


def test_noise_free_trial_approaches_deterministic_pose():
    x_ref, y_ref, _ = deterministic_pose(CONST, 1.0)
    ref = x_ref ** 2 + y_ref ** 2
    errors = []
    for steps in (100, 1000, 10000):
        cfg = _config(k=0.0, steps=steps, trials=1)
        x, y, _ = simulate_trial(cfg, 0)
        errors.append(abs(x * x + y * y - ref))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-3


def test_heading_marginal_law():
    # The discrete heading is exactly Gaussian with variance k_theta * s for
    # any step count, so a coarse grid suffices.
    cfg = _config(k=0.04, steps=8, trials=20000, seed=7)
    stats = run_experiment(cfg).quantities["theta"]
    expected_var = 0.04 * 1.0
    se_var = expected_var * math.sqrt(2.0 / (cfg.trials - 1))
    assert abs(stats.variance - expected_var) < 4 * se_var
    assert abs(stats.mean - 5.0) < 4 * stats.se


def test_single_trial_statistics_have_no_variance():
    stats = run_experiment(_config(trials=1))
    assert stats.quantities["d2"].variance is None
    assert stats.quantities["d2"].se is None
    assert stats.trials_used == 1


def test_prefix_statistics_match_separate_runs():
    cfg_big = _config(trials=500)
    cfg_small = _config(trials=200)
    samples = collect_samples(cfg_big)
    prefix = statistics_from_samples(samples, 200)
    direct = run_experiment(cfg_small)
    assert prefix.quantities["d2"].mean == direct.quantities["d2"].mean
    assert prefix.quantities["d2"].variance == direct.quantities["d2"].variance


def test_prefix_length_is_validated():
    samples = collect_samples(_config(trials=10))
    assert statistics_from_samples(samples, 10).trials_used == 10
    for bad in (0, -1, 11):
        with pytest.raises(ValueError):
            statistics_from_samples(samples, bad)


def test_weak_convergence_envelope():
    # Deviations from the exact mean stay inside the shrinking standard
    # error envelope as the trial count grows (t^{-1/2} consistency).
    analytic = d2_closed(5.0, NoiseParams(0.01, 0.01), 1.0)
    cfg = _config(steps=2000, trials=10000, seed=2026)
    samples = collect_samples(cfg)
    for count in (1000, 10000):
        stats = statistics_from_samples(samples, count).quantities["d2"]
        assert abs(stats.mean - analytic) < 4 * stats.se


def test_rotation_invariance_at_matched_seeds():
    phi = 0.7
    rotated_profile = SpeedRatioProfile.constant(5.0, theta0=phi, s_max=1.0)
    base = collect_samples(_config(trials=64, steps=400, seed=11))
    rot = collect_samples(_config(profile=rotated_profile, trials=64,
                                  steps=400, seed=11))
    c, d = math.cos(phi), math.sin(phi)
    np.testing.assert_allclose(rot["x"], c * base["x"] - d * base["y"], atol=1e-10)
    np.testing.assert_allclose(rot["y"], d * base["x"] + c * base["y"], atol=1e-10)
    np.testing.assert_allclose(rot["d2"], base["d2"], rtol=1e-9)
    np.testing.assert_allclose(rot["theta"], base["theta"] + phi, atol=1e-10)


def test_path_output_consistent_with_final_state():
    cfg = _config(trials=3, steps=250)
    path = simulate_trial(cfg, 2, return_path=True)
    x, y, th = simulate_trial(cfg, 2)
    assert path.shape == (251, 4)
    assert path[0, :3] == pytest.approx((0.0, 0.0, 0.0))
    assert path[-1, 0] == pytest.approx(1.0, rel=1e-12)
    assert path[-1, 1] == pytest.approx(x, rel=1e-12)
    assert path[-1, 2] == pytest.approx(y, rel=1e-12)
    assert path[-1, 3] == th


def test_config_validation():
    with pytest.raises(ValueError):
        _config(steps=0)
    with pytest.raises(ValueError):
        _config(trials=0)
    with pytest.raises(ValueError):
        _config(s=2.0)  # beyond profile.s_max
    with pytest.raises(ValueError):
        _config(seed=2 ** 64)
    with pytest.raises(ValueError):
        simulate_trial(_config(trials=5), 5)
