"""Closed-form constant-ratio path: algebra, reference values, fast==slow."""

import cmath
import math

import numpy as np
import pytest

from brownian_unicycle import (ExpPolySum, NoiseParams,
                               NumericalConsistencyError, SpeedRatioProfile,
                               complex_rate, constant_ratio, d2_closed,
                               d4_closed, d4_moment, deterministic_pose,
                               mean_pose_closed, mean_squared_distance,
                               mean_x, mean_y, variance_d2_closed)
from brownian_unicycle.constant_ratio import _kernel_chain
from brownian_unicycle.fourth_moment import DISTANCE4_KERNELS, VARIANCE_SLACK


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


def test_series_integral_at_zero_scale_stops_early():
    # At scale 0 every series contribution is 0; the stop test must still
    # end the series instead of running to its term cap.
    f = ExpPolySum(((complex(-0.25, 5.0), 0, 1.0 + 0j),))
    g = f.integral(scale=0.0)
    assert 1 <= len(g.terms) <= 6
    assert g(0.0) == 0.0


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
# accuracy against 50-digit values and input checks


def _draw_rate_and_length(rng):
    """``(mu0, k_theta, s)`` with ``|z s|`` log-uniform in [1e-8, 1e2] and
    the rate ``z`` uniform in angle over the left half-plane."""
    size = 10.0 ** rng.uniform(-8, 2)
    angle = rng.uniform(0.5 * math.pi, 1.5 * math.pi)
    s = float(10.0 ** rng.uniform(-2, 1))
    return (float(size / s * math.sin(angle)),
            float(-2.0 * size / s * math.cos(angle)), s)


def test_closed_forms_match_50_digit_values():
    import mpmath

    rng = np.random.default_rng(13)
    worst_d2 = worst_pose = 0.0
    with mpmath.workdps(50):
        for _ in range(400):
            mu0, kt, s = _draw_rate_and_length(rng)
            kr, theta0 = float(rng.uniform(0, 1)), float(rng.uniform(-3, 3))
            z = mpmath.mpc(-mpmath.mpf(kt) / 2, mu0)
            w = z * s
            d2 = kr * mpmath.mpf(s) + 2 * ((mpmath.expm1(w) - w) / z ** 2).real
            pose = mpmath.expj(theta0) * mpmath.expm1(w) / z
            params = NoiseParams(kr, kt)
            worst_d2 = max(worst_d2,
                           abs(d2_closed(mu0, params, s) - d2) / abs(d2))
            worst_pose = max(worst_pose, abs(
                mean_pose_closed(mu0, params, theta0, s) - pose) / abs(pose))
    assert worst_d2 <= 1e-14
    assert worst_pose <= 1e-14


def test_constant_pose_matches_50_digit_values():
    import mpmath

    rng = np.random.default_rng(17)
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(400):
            mu0 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10, 1))
            s, theta0 = float(rng.uniform(0, 1)), float(rng.uniform(-3, 3))
            profile = SpeedRatioProfile.constant(mu0, theta0=theta0, s_max=1.0)
            x, y, _ = deterministic_pose(profile, s)
            want = (mpmath.expj(theta0) * mpmath.expm1(1j * mpmath.mpf(mu0) * s)
                    / (1j * mpmath.mpf(mu0)))
            worst = max(worst, abs(complex(x, y) - want) / abs(want))
    assert worst <= 5e-14


_CLOSED_FORMS = {
    "d2_closed": lambda mu0, theta0, s: d2_closed(mu0, NoiseParams(0.3, 0.2), s),
    "d4_closed": lambda mu0, theta0, s: d4_closed(mu0, NoiseParams(0.3, 0.2), s),
    "mean_pose_closed": lambda mu0, theta0, s: mean_pose_closed(
        mu0, NoiseParams(0.3, 0.2), theta0, s),
    "variance_d2_closed": lambda mu0, theta0, s: variance_d2_closed(
        mu0, NoiseParams(0.3, 0.2), s),
}


@pytest.mark.parametrize("name", sorted(_CLOSED_FORMS))
@pytest.mark.parametrize("mu0, theta0, s", [
    (5.0, 0.0, -1.0), (5.0, 0.0, math.nan), (5.0, 0.0, math.inf),
    (math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0), (-math.inf, 0.0, 1.0),
])
def test_closed_forms_reject_out_of_range_input(name, mu0, theta0, s):
    with pytest.raises(ValueError):
        _CLOSED_FORMS[name](mu0, theta0, s)


@pytest.mark.parametrize("theta0", [math.nan, math.inf])
def test_mean_pose_rejects_non_finite_start_heading(theta0):
    with pytest.raises(ValueError, match="theta0"):
        mean_pose_closed(5.0, NoiseParams(0.3, 0.2), theta0, 1.0)


# ---------------------------------------------------------------------------
# fourth moment


def test_d4_reference_variances():
    assert variance_d2_closed(5.0, NoiseParams(0.01, 0.01), 1.0) == \
        pytest.approx(0.0012, abs=1e-4)
    assert variance_d2_closed(5.0, NoiseParams(1.0, 1.0), 1.0) == \
        pytest.approx(1.3052, abs=5e-4)


def _running_sum_d4_oracle(mu0, params, s):
    """``d4_closed`` as one running sum over the table, the constant class
    (its last entry) added last."""
    kt = params.k_theta
    total = 0.0
    for kr_power, s_power, prefactor, kernels in DISTANCE4_KERNELS:
        weight = prefactor * params.k_r ** kr_power * s ** s_power
        if not kernels:
            total += weight
            continue
        for decay, phase in kernels:
            rates = [complex(-0.5 * kt * d, mu0 * g) for d, g in zip(decay, phase)]
            total += weight * _kernel_chain(rates, s)(s).real
    return total


def test_d4_closed_equals_running_sum_over_table():
    rng = np.random.default_rng(41)
    cases = [(0.0, NoiseParams(0.3, 0.2), 0.0), (5.0, NoiseParams(0.3, 0.2), 0.0)]
    for _ in range(30):
        mu0 = float(rng.choice([0.0, rng.uniform(-8, 8)]))
        params = NoiseParams(float(rng.uniform(0, 1.5)), float(rng.uniform(0, 2)))
        cases.append((mu0, params, float(rng.choice([1.0, rng.uniform(0, 1)]))))
    for mu0, params, s in cases:
        got = d4_closed(mu0, params, s)
        want = _running_sum_d4_oracle(mu0, params, s)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("mu0", [0.0, 5.0, -3.7])
def test_d4_closed_at_zero_length(mu0):
    assert d4_closed(mu0, NoiseParams(0.3, 0.2), 0.0) == 0.0


def test_closed_variance_refuses_cancellation(monkeypatch):
    params = NoiseParams(0.01, 0.01)
    d2 = d2_closed(5.0, params, 1.0)
    monkeypatch.setattr(constant_ratio, "d4_closed",
                        lambda *a: d2 * d2 - 2.0 * VARIANCE_SLACK)
    with pytest.raises(NumericalConsistencyError):
        variance_d2_closed(5.0, params, 1.0)
    # Within the slack the difference passes through unclamped.
    monkeypatch.setattr(constant_ratio, "d4_closed",
                        lambda *a: d2 * d2 - 0.5 * VARIANCE_SLACK)
    assert variance_d2_closed(5.0, params, 1.0) == \
        (d2 * d2 - 0.5 * VARIANCE_SLACK) - d2 * d2


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
