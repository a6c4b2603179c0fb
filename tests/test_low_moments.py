"""First/second order statistics against closed forms and cross-paths."""

import dataclasses
import math

import numpy as np
import pytest

from brownian_unicycle import (NoiseParams, QuadratureSettings,
                               SpeedRatioProfile, cov_xtheta, cov_ytheta,
                               deterministic_pose,
                               displacement_heading_moment,
                               displacement_moment, integrate_ordered,
                               low_moments, mean_heading, mean_pose_closed,
                               mean_squared_distance, mean_x, mean_y,
                               orientation_distribution, second_moments)
from brownian_unicycle.quadrature import DEFAULT_SETTINGS

CONST = SpeedRatioProfile.constant(5.0, theta0=0.0, s_max=1.0)
RAMP = SpeedRatioProfile.polynomial((0.0, 10.0), theta0=0.0, s_max=1.0)
TABLE = SpeedRatioProfile.table(
    [(i / 20, 10.0 * i / 20 + 3.0 * math.sin(7.0 * i / 20)) for i in range(21)])


def test_orientation_distribution():
    assert orientation_distribution(CONST, NoiseParams(0.0, 1.0), 1.0) == (5.0, 1.0)
    assert orientation_distribution(RAMP, NoiseParams(0.3, 0.0), 0.7)[1] == 0.0
    ramp_shift = SpeedRatioProfile.polynomial((0.0, 10.0), theta0=0.2, s_max=1.0)
    mean, var = orientation_distribution(ramp_shift, NoiseParams(0.0, 0.01), 1.0)
    assert mean == pytest.approx(5.2, abs=1e-14)
    assert var == pytest.approx(0.01, abs=1e-18)


def test_mean_straight_line_no_noise():
    prof = SpeedRatioProfile.constant(0.0, s_max=1.0)
    params = NoiseParams(0.0, 0.0)
    assert mean_x(prof, params, 1.0) == pytest.approx(1.0, rel=1e-13)
    assert mean_y(prof, params, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_mean_pure_decay_closed_form():
    # k_theta = 2 turns the integrand into exp(-s'), so <x> = 1 - e^{-1}.
    prof = SpeedRatioProfile.constant(0.0, s_max=1.0)
    params = NoiseParams(0.0, 2.0)
    assert mean_x(prof, params, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


def test_mean_matches_constant_ratio_closed_form():
    params = NoiseParams(0.0, 0.01)
    z = mean_pose_closed(5.0, params, 0.0, 1.0)
    assert mean_x(CONST, params, 1.0) == pytest.approx(z.real, rel=1e-10)
    assert mean_y(CONST, params, 1.0) == pytest.approx(z.imag, rel=1e-10)


def test_second_moments_deterministic_line():
    prof = SpeedRatioProfile.constant(0.0, s_max=1.0)
    m_xx, m_yy, m_xy = second_moments(prof, NoiseParams(0.0, 0.0), 1.0)
    assert m_xx == pytest.approx(1.0, rel=1e-12)
    assert m_yy == pytest.approx(0.0, abs=1e-13)
    assert m_xy == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("profile,params", [
    (CONST, NoiseParams(0.01, 0.01)),
    (CONST, NoiseParams(1.0, 1.0)),
    (RAMP, NoiseParams(1.0, 1.0)),
    (SpeedRatioProfile.table([(0.0, 0.0), (0.5, 5.0), (1.0, 10.0)], theta0=0.3),
     NoiseParams(0.2, 0.5)),
])
def test_trace_identity(profile, params):
    m_xx, m_yy, _ = second_moments(profile, params, 1.0)
    msd = mean_squared_distance(profile, params, 1.0)
    assert m_xx + m_yy == pytest.approx(msd, rel=1e-10)


def test_second_moments_reference_value():
    m_xx, m_yy, _ = second_moments(CONST, NoiseParams(0.01, 0.01), 1.0)
    assert m_xx + m_yy == pytest.approx(0.0680, abs=5e-4)


def test_mean_squared_distance_reference_values():
    assert mean_squared_distance(CONST, NoiseParams(0.01, 0.01), 1.0) == \
        pytest.approx(0.0680, abs=5e-4)
    assert mean_squared_distance(RAMP, NoiseParams(1.0, 1.0), 1.0) == \
        pytest.approx(1.1443, abs=5e-4)
    prof = SpeedRatioProfile.constant(0.0, s_max=2.0)
    assert mean_squared_distance(prof, NoiseParams(0.0, 0.0), 2.0) == \
        pytest.approx(4.0, rel=1e-12)


def test_covariances_vanish_without_heading_noise():
    params = NoiseParams(0.5, 0.0)
    assert cov_xtheta(CONST, params, 1.0) == 0.0
    assert cov_ytheta(CONST, params, 1.0) == 0.0


def test_cov_xtheta_vanishes_on_straight_line():
    prof = SpeedRatioProfile.constant(0.0, s_max=1.0)
    params = NoiseParams(0.0, 0.8)
    assert cov_xtheta(prof, params, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_covariances_match_finite_difference():
    # Independent oracle: differentiate the mean position numerically with
    # respect to the heading diffusivity.
    kt, h = 0.01, 1e-6
    up, down = NoiseParams(0.0, kt + h), NoiseParams(0.0, kt - h)
    fd_x = 2.0 * kt * (mean_y(CONST, up, 1.0) - mean_y(CONST, down, 1.0)) / (2 * h)
    fd_y = -2.0 * kt * (mean_x(CONST, up, 1.0) - mean_x(CONST, down, 1.0)) / (2 * h)
    params = NoiseParams(0.0, kt)
    assert cov_xtheta(CONST, params, 1.0) == pytest.approx(fd_x, rel=1e-5)
    assert cov_ytheta(CONST, params, 1.0) == pytest.approx(fd_y, rel=1e-5)


def test_rotation_covariance():
    params = NoiseParams(0.3, 0.2)
    phi = 0.9
    base = SpeedRatioProfile.polynomial((0.0, 10.0), theta0=0.1, s_max=1.0)
    rot = SpeedRatioProfile.polynomial((0.0, 10.0), theta0=0.1 + phi, s_max=1.0)
    c, d = math.cos(phi), math.sin(phi)

    mx, my = mean_x(base, params, 1.0), mean_y(base, params, 1.0)
    assert mean_x(rot, params, 1.0) == pytest.approx(c * mx - d * my, rel=1e-10, abs=1e-13)
    assert mean_y(rot, params, 1.0) == pytest.approx(d * mx + c * my, rel=1e-10, abs=1e-13)

    m_xx, m_yy, m_xy = second_moments(base, params, 1.0)
    r_xx, r_yy, r_xy = second_moments(rot, params, 1.0)
    assert r_xx == pytest.approx(c * c * m_xx - 2 * c * d * m_xy + d * d * m_yy, rel=1e-10)
    assert r_yy == pytest.approx(d * d * m_xx + 2 * c * d * m_xy + c * c * m_yy, rel=1e-10)
    assert r_xy == pytest.approx((c * c - d * d) * m_xy + c * d * (m_xx - m_yy), rel=1e-9)

    assert mean_squared_distance(rot, params, 1.0) == \
        pytest.approx(mean_squared_distance(base, params, 1.0), rel=1e-10)


def test_consistency_with_general_moments():
    params = NoiseParams(0.02, 0.05)
    res10 = displacement_moment(1, 0, RAMP, params, 1.0)
    assert res10.value.real == pytest.approx(mean_x(RAMP, params, 1.0), rel=1e-8)
    assert res10.value.imag == pytest.approx(mean_y(RAMP, params, 1.0), rel=1e-8)

    res20 = displacement_moment(2, 0, RAMP, params, 1.0)
    m_xx, m_yy, m_xy = second_moments(RAMP, params, 1.0)
    assert res20.value.real == pytest.approx(m_xx - m_yy, rel=1e-8)
    assert res20.value.imag == pytest.approx(2.0 * m_xy, rel=1e-8)

    res11 = displacement_moment(1, 1, RAMP, params, 1.0)
    assert res11.value.real == pytest.approx(
        mean_squared_distance(RAMP, params, 1.0), rel=1e-8)

    res101 = displacement_heading_moment(1, 0, 1, RAMP, params, 1.0)
    assert res101.value.real == pytest.approx(cov_xtheta(RAMP, params, 1.0), rel=1e-8)
    assert res101.value.imag == pytest.approx(cov_ytheta(RAMP, params, 1.0), rel=1e-8)


def five_kernel_second_moments(profile, params, s, settings=DEFAULT_SETTINGS):
    """Oracle: each second moment and shift integral as its own real call."""
    kt = params.k_theta

    def damped_cos2(t):
        return np.cos(2.0 * mean_heading(profile, t)) * np.exp(-2.0 * kt * t)

    def damped_sin2(t):
        return np.sin(2.0 * mean_heading(profile, t)) * np.exp(-2.0 * kt * t)

    def kernel(ts, combine):
        t1, t2 = ts
        dth = mean_heading(profile, t2) - mean_heading(profile, t1)
        env = np.exp(-0.5 * kt * (t2 - t1))
        cc = damped_cos2(t1)
        cs = damped_sin2(t1)
        return combine(cc, cs, np.cos(dth), np.sin(dth)) * env

    xx, _ = integrate_ordered(
        lambda ts: kernel(ts, lambda cc, cs, c, d: (1.0 + cc) * c - cs * d),
        2, s, settings)
    yy, _ = integrate_ordered(
        lambda ts: kernel(ts, lambda cc, cs, c, d: (1.0 - cc) * c + cs * d),
        2, s, settings)
    xy, _ = integrate_ordered(
        lambda ts: kernel(ts, lambda cc, cs, c, d: cs * c + cc * d),
        2, s, settings)
    int_cc, _ = integrate_ordered(lambda ts: damped_cos2(ts[0]), 1, s, settings)
    int_cs, _ = integrate_ordered(lambda ts: damped_sin2(ts[0]), 1, s, settings)
    kr2 = 0.5 * params.k_r
    return (xx.real + kr2 * (s + int_cc.real),
            yy.real + kr2 * (s - int_cc.real),
            xy.real + kr2 * int_cs.real)


def _shifted(profile, theta0):
    heading = tuple(h - profile.theta0 + theta0 for h in profile.knot_heading)
    return dataclasses.replace(profile, theta0=theta0, knot_heading=heading)


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE], ids=lambda p: p.kind)
@pytest.mark.parametrize("theta0", [0.0, -1.3])
@pytest.mark.parametrize("params,s", [
    (NoiseParams(0.01, 0.01), 1.0),
    (NoiseParams(1.0, 1.0), 0.55),     # a table knot
    (NoiseParams(0.4, 0.7), 0.437),    # inside a panel, below s_max
    (NoiseParams(0.3, 0.0), 0.8),      # no heading noise
])
def test_second_moments_match_five_kernel_oracle(profile, theta0, params, s):
    profile = _shifted(profile, theta0)
    for settings_ in (DEFAULT_SETTINGS, QuadratureSettings(nodes_per_level=7)):
        got = second_moments(profile, params, s, settings_)
        want = five_kernel_second_moments(profile, params, s, settings_)
        for g, w in zip(got, want):
            assert type(g) is float
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE], ids=lambda p: p.kind)
def test_zero_length_returns_float_zeros(profile):
    params = NoiseParams(0.3, 0.2)
    values = (mean_x(profile, params, 0.0), mean_y(profile, params, 0.0),
              *second_moments(profile, params, 0.0),
              cov_xtheta(profile, params, 0.0), cov_ytheta(profile, params, 0.0),
              mean_squared_distance(profile, params, 0.0))
    assert values == (0.0,) * 8
    assert all(type(v) is float for v in values)
    # cov_xtheta is -k_theta times a zero integral; the rest are +0.0.
    assert [math.copysign(1.0, v) for v in values] == [1.0] * 5 + [-1.0] + [1.0] * 2


def test_second_moments_evaluate_heading_once_per_grid(monkeypatch):
    # One stacked 2-D call and one 1-D call, each a coarse and a fine grid
    # with the heading evaluated at t1 and t2 (2-D) or t (1-D). Both are
    # looked up as module attributes, where the benchmark's tracer
    # patches them.
    calls = {"integrate_ordered": 0, "mean_heading": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(low_moments, name,
                            counting(name, getattr(low_moments, name)))
    second_moments(TABLE, NoiseParams(0.2, 0.5), 0.8)
    assert calls["integrate_ordered"] == 2
    assert calls["mean_heading"] <= 6


# The three one-dimensional heading integrals as separate code paths, each
# copied from the version before they shared one integrand.

def _mean_xy_oracle(profile, params, s, settings):
    kt = params.k_theta

    def f(ts):
        t = ts[0]
        return np.exp(1j * mean_heading(profile, t) - 0.5 * kt * t)

    value, err = integrate_ordered(f, 1, s, settings)
    return value, err


def _shift_integral_oracle(profile, params, s, settings):
    kt = params.k_theta

    def single(ts):
        t = ts[0]
        return np.exp(2j * mean_heading(profile, t) - 2.0 * kt * t)

    return integrate_ordered(single, 1, s, settings)


def _pose_oracle(profile, s):
    z, _ = integrate_ordered(
        lambda ts: np.exp(1j * mean_heading(profile, ts[0])), 1, s,
        QuadratureSettings(nodes_per_level=64))
    return (z.real, z.imag, mean_heading(profile, s))


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE], ids=lambda p: p.kind)
@pytest.mark.parametrize("theta0", [0.0, 0.9])
@pytest.mark.parametrize("s", [0.0, 0.55, 1.0])   # origin, a table knot, s_max
def test_heading_integrals_equal_separate_paths(profile, theta0, s):
    profile = _shifted(profile, theta0)
    for params in (NoiseParams(0.3, 0.7), NoiseParams(0.0, 0.0)):
        for settings_ in (DEFAULT_SETTINGS, QuadratureSettings(nodes_per_level=7)):
            z, err = low_moments._heading_integral(
                profile, s, 1, 0.5 * params.k_theta, settings_)
            assert (z, err) == _mean_xy_oracle(profile, params, s, settings_)
            assert mean_x(profile, params, s, settings_) == z.real
            assert mean_y(profile, params, s, settings_) == z.imag
            assert low_moments._heading_integral(
                profile, s, 2, 2.0 * params.k_theta, settings_) == \
                _shift_integral_oracle(profile, params, s, settings_)
    if profile.kind != "constant":
        assert deterministic_pose(profile, s) == _pose_oracle(profile, s)


def test_pose_integrates_once_through_module_attribute(monkeypatch):
    calls = []
    original = low_moments.integrate_ordered

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(low_moments, "integrate_ordered", counting)
    for profile in (RAMP, TABLE):
        deterministic_pose(profile, 0.8)
    assert calls == [1, 1]
    deterministic_pose(CONST, 0.8)
    assert calls == [1, 1]
