"""Analytic moments against the Monte Carlo oracle.

One shared sample set per noise regime feeds every requested moment: the
complex displacement is x + i y, its conjugate partner is the mirror, and
the heading fluctuation is the final heading minus the deterministic one.
Agreement is asserted within four standard errors per real/imaginary
component.
"""

import os

import numpy as np
import pytest

from brownian_unicycle import (NoiseParams, SimConfig, SpeedRatioProfile,
                               collect_samples, displacement_heading_moment,
                               mean_heading)

PROFILE = SpeedRatioProfile.constant(5.0, theta0=0.0, s_max=1.0)
TRIALS = 120_000
STEPS = 10_000
SPECS = [(1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 2, 0), (1, 0, 1), (0, 0, 2)]

# The two 120k-trial sample sets take about a minute each.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module", params=[0.01, 1.0], ids=["K=0.01", "K=1"])
def regime(request):
    level = request.param
    params = NoiseParams(level, level)
    config = SimConfig(profile=PROFILE, params=params, s_final=1.0,
                       steps=STEPS, trials=TRIALS, master_seed=1234)
    samples = collect_samples(config, threads=os.cpu_count())
    u = samples["x"] + 1j * samples["y"]
    theta_fluct = samples["theta"] - mean_heading(PROFILE, 1.0)
    return params, u, theta_fluct


@pytest.mark.parametrize("p,q,r", SPECS)
def test_moment_within_four_standard_errors(regime, p, q, r):
    params, u, theta_fluct = regime
    per_trial = u ** p * np.conj(u) ** q * theta_fluct ** r
    analytic = displacement_heading_moment(p, q, r, PROFILE, params, 1.0).value
    # Components that vanish identically (diagonal moments are real) reduce
    # to a roundoff-level 0 vs 0 comparison; give those an absolute floor.
    floor = 1e-12 * float(np.abs(per_trial).mean())
    for label, values, target in (("re", per_trial.real, analytic.real),
                                  ("im", per_trial.imag, analytic.imag)):
        se = values.std(ddof=1) / np.sqrt(len(values))
        deviation = abs(values.mean() - target)
        assert deviation < 4.0 * se + floor, (
            f"({p},{q},{r}) {label}: mc={values.mean():.6g} "
            f"analytic={target:.6g} deviation={deviation:.3g} "
            f"(4 SE = {4 * se:.3g})")
