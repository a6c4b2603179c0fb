"""Literal six-term fourth-moment path against its independent twins."""

import itertools
import warnings

import pytest

from brownian_unicycle import (AccuracyWarning, NoiseParams,
                               NumericalConsistencyError, SpeedRatioProfile,
                               d4_closed, d4_moment, deterministic_pose,
                               displacement_moment, mean_squared_distance,
                               variance_d2, variance_d2_closed)
from brownian_unicycle import fourth_moment

CONST = SpeedRatioProfile.constant(5.0, theta0=0.0, s_max=1.0)
RAMP = SpeedRatioProfile.polynomial((0.0, 10.0), theta0=0.0, s_max=1.0)


def test_noise_free_limit_is_squared_distance():
    params = NoiseParams(0.0, 0.0)
    x, y, _ = deterministic_pose(CONST, 1.0)
    det_sq = (x * x + y * y) ** 2
    value = d4_moment(CONST, params, 1.0)
    assert value == pytest.approx(det_sq, rel=1e-10)
    assert value == pytest.approx(0.0573 ** 2, abs=2e-5)


def test_variance_reference_constant_small_noise():
    # Published variance of D(1)^2 at the small-noise constant-ratio setup.
    assert variance_d2(CONST, NoiseParams(0.01, 0.01), 1.0) == \
        pytest.approx(0.0012, abs=1e-4)


def test_variance_reference_ramp_small_noise():
    assert variance_d2(RAMP, NoiseParams(0.01, 0.01), 1.0) == \
        pytest.approx(0.0026, abs=2e-4)


@pytest.mark.parametrize("profile,level", [
    (CONST, 0.01), (CONST, 1.0), (RAMP, 0.01), (RAMP, 1.0),
])
def test_path_independence_against_enumeration(profile, level):
    params = NoiseParams(level, level)
    literal = d4_moment(profile, params, 1.0)
    enumerated = displacement_moment(2, 2, profile, params, 1.0).value.real
    assert literal == pytest.approx(enumerated, rel=1e-6)


def test_ramp_variance_consistent_across_paths():
    # Converged value of the varying-ratio variance at unit noise; both the
    # literal kernel path and the enumeration agree on it to 13 digits.
    params = NoiseParams(1.0, 1.0)
    var = variance_d2(RAMP, params, 1.0)
    d2 = mean_squared_distance(RAMP, params, 1.0)
    enumerated = displacement_moment(2, 2, RAMP, params, 1.0).value.real
    assert var == pytest.approx(enumerated - d2 * d2, rel=1e-10)
    assert var == pytest.approx(1.4653368, abs=1e-6)


def test_ramp_matches_walk_to_roundoff():
    # The table's chains and the walk read the same gap factors.
    params = NoiseParams(1.0, 1.0)
    literal = d4_moment(RAMP, params, 1.0)
    enumerated = displacement_moment(2, 2, RAMP, params, 1.0).value.real
    assert abs(literal - enumerated) <= 1e-13 * enumerated


@pytest.mark.parametrize("k,s", [(0.01, 1.0), (1.0, 1.0), (2.0, 10.0),
                                 (4.0, 10.0), (1.0, 40.0)])
def test_matches_closed_form_at_large_k_theta_s(k, s):
    # Per-point factors of the table grow like e^{2 k_theta t}, gap factors
    # stay at most 1 in modulus: large k_theta s must cost no digits.
    params = NoiseParams(k, k)
    profile = SpeedRatioProfile.constant(5.0, s_max=s)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        value = d4_moment(profile, params, s)
    exact = d4_closed(5.0, params, s)
    assert abs(value - exact) <= 1e-12 * exact


def test_variance_matches_closed_form_at_large_k_theta_s():
    params = NoiseParams(4.0, 4.0)
    profile = SpeedRatioProfile.constant(5.0, s_max=10.0)
    exact = variance_d2_closed(5.0, params, 10.0)
    assert variance_d2(profile, params, 10.0) == pytest.approx(exact, rel=1e-12)


def test_variance_positivity():
    for profile in (CONST, RAMP):
        for level in (0.0, 0.01, 1.0):
            assert variance_d2(profile, NoiseParams(level, level), 1.0) >= \
                -fourth_moment.VARIANCE_SLACK


def test_variance_zero_without_noise():
    assert variance_d2(CONST, NoiseParams(0.0, 0.0), 1.0) == \
        pytest.approx(0.0, abs=1e-10)


def test_variance_grows_with_shift_noise():
    values = [variance_d2(CONST, NoiseParams(kr, 0.01), 1.0)
              for kr in (0.01, 0.1, 1.0)]
    assert values[0] < values[1] < values[2]


def test_catastrophic_cancellation_raises(monkeypatch):
    monkeypatch.setattr(fourth_moment, "d4_moment",
                        lambda *a, **k: mean_squared_distance(CONST, NoiseParams(0.01, 0.01), 1.0) ** 2 - 1e-3)
    with pytest.raises(NumericalConsistencyError):
        fourth_moment.variance_d2(CONST, NoiseParams(0.01, 0.01), 1.0)


def _flattened_table_oracle(params, s):
    """The table read as the six-term loops did before they shared one
    reader: a running constant, and one weight and kernel per chain."""
    constant, weights, kernels = 0.0, [], []
    for kr_power, s_power, prefactor, table_kernels in \
            fourth_moment.DISTANCE4_KERNELS:
        weight = prefactor * params.k_r ** kr_power * s ** s_power
        if not table_kernels:
            constant += weight
            continue
        weights += [weight] * len(table_kernels)
        kernels += table_kernels
    return constant, list(zip(weights, kernels))


@pytest.mark.parametrize("params,s", [
    (NoiseParams(0.01, 0.01), 1.0), (NoiseParams(1.0, 1.0), 0.55),
    (NoiseParams(0.37, 0.0), 0.0), (NoiseParams(0.0, 2.0), 0.8)])
def test_table_reader_matches_flattened_table(params, s):
    constant, chains = fourth_moment._d4_chains(params, s)
    assert (constant, chains) == _flattened_table_oracle(params, s)
    # The constant class is the pure 2 k_r^2 s^2 term.
    assert constant == 2.0 * params.k_r ** 2 * s ** 2
    assert len(chains) == 8


def _suffix_sums(values):
    return list(itertools.accumulate(reversed(values)))[::-1]


def test_kernel_table_is_gap_form():
    # d4_moment reads only the phases: the gap from t_{b-1} to t_b carries
    # the weight G_b (the suffix sum of the phases from b on) and the decay
    # G_b**2 of a gap factor, and the first gap, from 0, has weight 0.
    kernels = [kernel for *_, table_kernels in fourth_moment.DISTANCE4_KERNELS
               for kernel in table_kernels]
    assert len(kernels) == 8
    for decay, phase in kernels:
        gaps = _suffix_sums(phase)
        assert _suffix_sums(decay) == [g * g for g in gaps]
        assert gaps[0] == 0
