"""Closed-form constant-ratio path: algebra, reference values, fast==slow."""

import cmath
import math

import numpy as np
import pytest

from brownian_unicycle import (ExpPolySum, NoiseParams, SpeedRatioProfile,
                               complex_rate, d2_closed, d4_closed, d4_moment,
                               mean_pose_closed, mean_squared_distance, mean_x,
                               mean_y, variance_d2_closed)
from brownian_unicycle.constant_ratio import _cexpm1, _kernel_chain
from brownian_unicycle.fourth_moment import DISTANCE4_KERNELS


# ---------------------------------------------------------------------------
# ExpPolySum algebra


def test_integral_of_exponential():
    lam = 0.7 - 1.3j
    f = ExpPolySum.unit().shifted_rate(lam)
    g = f.integral(scale=1.0)
    for t in (0.3, 1.0):
        assert g(t) == pytest.approx((cmath.exp(lam * t) - 1.0) / lam, rel=1e-14)


def test_integral_of_constant():
    g = ExpPolySum.unit().integral(scale=1.0)
    assert g(0.8) == pytest.approx(0.8, rel=1e-15)


def test_double_integral_reproduces_d2_kernel():
    z = complex_rate(5.0, 0.01)
    f = ExpPolySum.unit().shifted_rate(z).integral(scale=1.0)
    g = f.integral(scale=1.0)
    expected = (cmath.exp(z) - 1.0 - z) / (z * z)
    assert g(1.0) == pytest.approx(expected, rel=1e-13)


def test_series_and_byparts_regimes_agree():
    # Same integrand pushed through both regimes by rescaling the domain
    # hint; evaluation stays inside the smaller hinted domain.
    lam = 1.2 + 0.9j
    base = ExpPolySum.unit().shifted_rate(lam)
    via_series = base.integral(scale=1.0)(0.9)     # |rate|*scale = 1.5 < 2.9
    via_byparts = base.integral(scale=3.0)(0.9)    # |rate|*scale = 4.5 >= 2.9
    assert via_series == pytest.approx(via_byparts, rel=1e-12)


def test_polynomial_powers_integrate_exactly():
    f = ExpPolySum(((0j, 3, 2.0 + 0j),))  # 2 t^3
    g = f.integral(scale=1.0)
    assert g(0.5) == pytest.approx(2.0 * 0.5 ** 4 / 4.0, rel=1e-15)


def test_linearity_and_scaling():
    a = ExpPolySum.unit().shifted_rate(1.0 + 2.0j)
    b = ExpPolySum.unit().shifted_rate(-0.5j)
    combo = a.scaled(2.0) + b.scaled(-1.0)
    t = 0.7
    assert combo(t) == pytest.approx(2.0 * a(t) - b(t), rel=1e-14)


# ---------------------------------------------------------------------------
# squared distance


def test_d2_reference_values():
    assert d2_closed(5.0, NoiseParams(0.01, 0.01), 1.0) == pytest.approx(0.0680, abs=5e-4)
    assert d2_closed(5.0, NoiseParams(1.0, 1.0), 1.0) == pytest.approx(1.1130, abs=5e-4)


def test_d2_degenerate_straight_line():
    assert d2_closed(0.0, NoiseParams(0.0, 0.0), 1.0) == pytest.approx(1.0, rel=1e-12)
    assert d2_closed(0.0, NoiseParams(0.0, 0.0), 2.5) == pytest.approx(6.25, rel=1e-12)


def test_d2_series_switch_continuity():
    # Either branch must agree with an independent evaluation of the same
    # bracket near the |z s| = 1e-4 switch, to 1e-10 relative.
    for kt in (2.000001e-4, 1.999999e-4):  # just above / below the switch
        z = complex_rate(0.0, kt)
        s = 1.0
        w = z * s
        direct = (_cexpm1(w) - w) / (z * z)
        series = s * s * sum((w ** k / math.factorial(k + 2) for k in range(14)),
                             0j)
        got = d2_closed(0.0, NoiseParams(0.0, kt), s)
        assert got == pytest.approx(2.0 * direct.real, rel=1e-10)
        assert got == pytest.approx(2.0 * series.real, rel=1e-10)


def test_d2_large_s_slope():
    # Slope of <D^2> approaches k_r + 4/k_theta once the rotation decays.
    params = NoiseParams(0.3, 1.0)
    slope = (d2_closed(0.0, params, 41.0) - d2_closed(0.0, params, 39.0)) / 2.0
    assert slope == pytest.approx(0.3 + 4.0, abs=1e-7)


# ---------------------------------------------------------------------------
# mean pose


def test_mean_pose_zero_rate_limit():
    value = mean_pose_closed(0.0, NoiseParams(0.0, 0.0), 0.7, 1.3)
    assert value == pytest.approx(1.3 * cmath.exp(0.7j), rel=1e-14)


def test_mean_pose_pure_decay():
    value = mean_pose_closed(0.0, NoiseParams(0.0, 2.0), 0.0, 1.0)
    assert value.real == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)
    assert value.imag == pytest.approx(0.0, abs=1e-15)


def test_mean_pose_against_quadrature():
    prof = SpeedRatioProfile.constant(5.0, theta0=0.0, s_max=1.0)
    params = NoiseParams(0.0, 0.01)
    z = mean_pose_closed(5.0, params, 0.0, 1.0)
    assert z.real == pytest.approx(mean_x(prof, params, 1.0), rel=1e-10)
    assert z.imag == pytest.approx(mean_y(prof, params, 1.0), rel=1e-10)


# ---------------------------------------------------------------------------
# fourth moment


def _series_branches_oracle(mu0, params, theta0, s):
    """The small-``|z s|`` branches of ``d2_closed`` and ``mean_pose_closed``
    as each summed its own series before they shared one."""
    z = complex_rate(mu0, params.k_theta)
    w = z * s
    term = 0.5 + 0j
    acc = term
    for k in range(1, 12):
        term = term * w / (k + 2)
        acc += term
    d2 = params.k_r * s + 2.0 * (s * s * acc).real
    term = 1.0 + 0j
    acc = term
    for k in range(1, 12):
        term = term * w / (k + 1)
        acc += term
    return d2, cmath.exp(1j * theta0) * (s * acc)


def test_series_branches_equal_separate_sums():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(2000):
        mu0 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9, 1))
        params = NoiseParams(float(rng.uniform(0, 1)),
                             float(10.0 ** rng.uniform(-9, 0)))
        s = float(10.0 ** rng.uniform(-7, 0))
        if abs(complex_rate(mu0, params.k_theta) * s) >= 1e-4:
            continue
        theta0 = float(rng.uniform(-3, 3))
        assert (d2_closed(mu0, params, s),
                mean_pose_closed(mu0, params, theta0, s)) == \
            _series_branches_oracle(mu0, params, theta0, s)
        checked += 1
    assert checked > 500


def test_d4_reference_variances():
    assert variance_d2_closed(5.0, NoiseParams(0.01, 0.01), 1.0) == \
        pytest.approx(0.0012, abs=1e-4)
    assert variance_d2_closed(5.0, NoiseParams(1.0, 1.0), 1.0) == \
        pytest.approx(1.3052, abs=5e-4)


def test_d4_noise_free_circle():
    mu0 = 5.0
    det_d2 = 2.0 * (1.0 - math.cos(mu0)) / mu0 ** 2
    assert d4_closed(mu0, NoiseParams(0.0, 0.0), 1.0) == \
        pytest.approx(det_d2 ** 2, rel=1e-10)


@pytest.mark.parametrize("level", [0.01, 1.0])
def test_d4_matches_quadrature_reference_configs(level):
    params = NoiseParams(level, level)
    prof = SpeedRatioProfile.constant(5.0, theta0=0.0, s_max=1.0)
    assert d4_closed(5.0, params, 1.0) == \
        pytest.approx(d4_moment(prof, params, 1.0), rel=1e-8)


# ---------------------------------------------------------------------------
# fast path == slow path on the full grid


GRID_MU = (0.0, 0.5, 5.0)
GRID_K = (0.0, 0.01, 1.0)
GRID_S = (0.1, 1.0, 3.0)


@pytest.mark.parametrize("mu0", GRID_MU)
@pytest.mark.parametrize("level", GRID_K)
@pytest.mark.parametrize("s", GRID_S)
def test_fast_equals_slow(mu0, level, s):
    params = NoiseParams(level, level)
    prof = SpeedRatioProfile.constant(mu0, theta0=0.0, s_max=3.0)
    assert d2_closed(mu0, params, s) == \
        pytest.approx(mean_squared_distance(prof, params, s), rel=1e-8)
    assert d4_closed(mu0, params, s) == \
        pytest.approx(d4_moment(prof, params, s), rel=1e-8)
    pose = mean_pose_closed(mu0, params, 0.0, s)
    assert pose.real == pytest.approx(mean_x(prof, params, s), rel=1e-8, abs=1e-12)
    assert pose.imag == pytest.approx(mean_y(prof, params, s), rel=1e-8, abs=1e-12)


# ---------------------------------------------------------------------------
# rate bookkeeping


def closed_form_rate_family(mu0: float, k_theta: float) -> set[complex]:
    """The complex rates the fourth-moment construction may produce.

    Zero plus ``z``, ``-3 k_theta/2 + i mu0`` and ``-2 k_theta + 2 i mu0``
    with negations and conjugations. Any rate outside this family found
    during construction would indicate a new analytic ingredient.
    """
    base = (complex_rate(mu0, k_theta),
            complex(-1.5 * k_theta, mu0),
            complex(-2.0 * k_theta, 2.0 * mu0))
    family = {0j}
    for z in base:
        family |= {z, -z, z.conjugate(), -z.conjugate()}
    return family


def test_construction_stays_in_declared_rate_family():
    # Intermediate levels may visit transient rates (such as the pure
    # double rotation) that cancel before the last integration; the
    # declared three-rate family is a statement about the final result.
    mu0, kt = 5.0, 1.0
    family = closed_form_rate_family(mu0, kt)

    def in_family(rate):
        return any(abs(rate - z) <= 1e-9 * max(1.0, abs(z)) for z in family)

    for _, _, _, kernels in DISTANCE4_KERNELS:
        for decay, phase in kernels:
            rates = [complex(-0.5 * kt * d, mu0 * g) for d, g in zip(decay, phase)]
            chain = _kernel_chain(rates, s=1.0)
            for rate in chain.rates():
                assert in_family(rate), rate
