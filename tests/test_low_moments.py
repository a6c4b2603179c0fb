"""First/second order statistics against closed forms and cross-paths."""

import dataclasses
import math

import numpy as np
import pytest

from brownian_unicycle import (IntegrandEvaluationError, NoiseParams,
                               NumericalConsistencyError,
                               QuadratureSettings, SpeedRatioProfile,
                               cov_xtheta, cov_ytheta, d2_closed,
                               deterministic_pose,
                               displacement_heading_moment,
                               displacement_moment, low_moments,
                               low_order_statistics, mean_heading,
                               mean_pose_closed, mean_squared_distance,
                               mean_x, mean_y,
                               orientation_distribution, quadrature,
                               second_moments)
from brownian_unicycle.quadrature import DEFAULT_SETTINGS
from tensor_oracle import two_call_rule

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


def test_mean_squared_distance_refuses_no_correct_digit():
    # After 100 rad of turning the tensor rule's <D^2> is 0.122 with an
    # estimate of 1.3, where <D^2> is 0.226: no digit is right.
    profile = SpeedRatioProfile.constant(5.0, s_max=20.0)
    params = NoiseParams(0.01, 0.01)
    value, err = low_moments.mean_squared_distance_with_error(profile, params,
                                                              20.0)
    assert abs(value - d2_closed(5.0, params, 20.0)) > 0.1
    assert err > abs(value)
    with pytest.raises(NumericalConsistencyError):
        mean_squared_distance(profile, params, 20.0)


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

    nodes = settings.nodes_per_level
    xx, _, _ = two_call_rule(
        lambda ts: kernel(ts, lambda cc, cs, c, d: (1.0 + cc) * c - cs * d),
        2, s, nodes)
    yy, _, _ = two_call_rule(
        lambda ts: kernel(ts, lambda cc, cs, c, d: (1.0 - cc) * c + cs * d),
        2, s, nodes)
    xy, _, _ = two_call_rule(
        lambda ts: kernel(ts, lambda cc, cs, c, d: cs * c + cc * d),
        2, s, nodes)
    int_cc, _, _ = two_call_rule(lambda ts: damped_cos2(ts[0]), 1, s, nodes)
    int_cs, _, _ = two_call_rule(lambda ts: damped_sin2(ts[0]), 1, s, nodes)
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
    # One pass over the dimension-2 grid: the heading at its t1 nodes and
    # at its t2 points, once each, and no 1-D heading integral for int D.
    # The heading is looked up as a module attribute, where the
    # benchmark's tracer patches it.
    settings_ = QuadratureSettings(nodes_per_level=7)
    s = 0.8
    calls = {"_heading_integral": [], "mean_heading": []}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(low_moments, name,
                            counting(name, getattr(low_moments, name)))
    ts, _, _ = quadrature._simplex_grid(2, 7)
    for call in (second_moments, low_moments.mean_squared_distance_with_error,
                 low_order_statistics):
        calls["mean_heading"].clear()
        call(TABLE, NoiseParams(0.2, 0.5), s, settings_)
        assert calls["_heading_integral"] == []
        assert len(calls["mean_heading"]) == 2
        for (profile, t), grid_t in zip(calls["mean_heading"], ts):
            assert profile is TABLE
            assert np.array_equal(t, s * grid_t)


# The three one-dimensional heading integrals as separate code paths, each
# copied from the version before they shared one integrand, on the two-call
# rule: at dimension 1 it is bit-identical to the package's tensor grid.

def _one_dim(f, s, nodes):
    """``(value, err_estimate)`` of ``int_0^s f`` on the two-call rule."""
    value, difference, floor = two_call_rule(f, 1, s, nodes)
    return value, difference + floor


def _mean_xy_oracle(profile, params, s, settings):
    kt = params.k_theta

    def f(ts):
        t = ts[0]
        return np.exp(1j * mean_heading(profile, t) - 0.5 * kt * t)

    return _one_dim(f, s, settings.nodes_per_level)


def _shift_integral_oracle(profile, params, s, settings):
    kt = params.k_theta

    def single(ts):
        t = ts[0]
        return np.exp(2j * mean_heading(profile, t) - 2.0 * kt * t)

    return _one_dim(single, s, settings.nodes_per_level)


def _pose_oracle(profile, s):
    z, _ = _one_dim(lambda ts: np.exp(1j * mean_heading(profile, ts[0])), s, 64)
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
    # The heading at the end point, and on non-constant profiles once on
    # the 64-node grid (both rules, 66 points each), looked up as a module
    # attribute.
    calls = []
    original = low_moments.mean_heading

    def counting(profile, t):
        calls.append(np.size(t))
        return original(profile, t)

    monkeypatch.setattr(low_moments, "mean_heading", counting)
    for profile in (RAMP, TABLE):
        deterministic_pose(profile, 0.8)
    assert calls == [1, 2 * 66] * 2
    deterministic_pose(CONST, 0.8)
    assert calls == [1, 2 * 66] * 2 + [1]


# The two real covariance integrands, copied from the version before the
# pair became the imaginary and real parts of one complex heading integral.

def _cov_oracle(profile, params, s, settings):
    kt = params.k_theta

    def fx(ts):
        t = ts[0]
        return t * np.sin(mean_heading(profile, t)) * np.exp(-0.5 * kt * t)

    def fy(ts):
        t = ts[0]
        return t * np.cos(mean_heading(profile, t)) * np.exp(-0.5 * kt * t)

    nodes = settings.nodes_per_level
    return (-kt * two_call_rule(fx, 1, s, nodes)[0].real,
            kt * two_call_rule(fy, 1, s, nodes)[0].real)


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE], ids=lambda p: p.kind)
@pytest.mark.parametrize("theta0", [0.0, 0.9, -2.4])
@pytest.mark.parametrize("s", [0.0, 0.55, 1.0])   # origin, a table knot, s_max
def test_covariances_match_real_integrand_oracle(profile, theta0, s):
    profile = _shifted(profile, theta0)
    for params in (NoiseParams(0.3, 0.7), NoiseParams(1.0, 1.0),
                   NoiseParams(0.0, 0.01)):
        for settings_ in (DEFAULT_SETTINGS, QuadratureSettings(nodes_per_level=7)):
            got = (cov_xtheta(profile, params, s, settings_),
                   cov_ytheta(profile, params, s, settings_))
            for g, w in zip(got, _cov_oracle(profile, params, s, settings_)):
                assert type(g) is float
                assert abs(g - w) <= 1e-14 * max(1.0, abs(w))


def test_covariances_share_the_weighted_heading_integral():
    params = NoiseParams(0.3, 0.7)
    for profile in (CONST, RAMP, TABLE):
        j, _ = low_moments._heading_integral(profile, 0.8, 1, 0.35,
                                             DEFAULT_SETTINGS, 1)
        assert cov_xtheta(profile, params, 0.8) == -0.7 * j.imag
        assert cov_ytheta(profile, params, 0.8) == 0.7 * j.real


def test_d2_estimate_bounds_closed_form_error_sweep():
    # The tensor rule's estimate carries a roundoff floor: without it the
    # coarse/fine difference falls below the true error at about half of
    # these points, by up to about 1e-13 relative.
    rng = np.random.default_rng(20)
    for _ in range(400):
        mu0, s = rng.uniform(0.0, 20.0), rng.uniform(0.0, 5.0)
        k = rng.uniform(0.01, 1.0)
        params = NoiseParams(k, k)
        value, err = low_moments.mean_squared_distance_with_error(
            SpeedRatioProfile.constant(mu0, s_max=s), params, s)
        assert abs(value - d2_closed(mu0, params, s)) <= err


# -- one pass over the dimension-2 grid against the two-call rule --------------

def _literal_kernels(profile, kt):
    """``E(t1, t2)`` and ``D(t)`` of :func:`second_moments`, written out."""
    def e(ts):
        t1, t2 = ts
        return np.exp(1j * (mean_heading(profile, t2) - mean_heading(profile, t1))
                      - 0.5 * kt * (t2 - t1))

    def d(t):
        return np.exp(2j * mean_heading(profile, t) - 2.0 * kt * t)

    return e, d


def _second_order_oracle(profile, params, s, nodes):
    """``{name: (value, estimate)}`` of the second moments and ``<D^2>``
    from the two-call rule: ``E`` and ``D E`` as one stack, ``int D`` as
    its own 1-D integral, and the real ``<D^2>`` kernel."""
    kt = params.k_theta
    e, d = _literal_kernels(profile, kt)
    (ie, ide), diffs, floors = two_call_rule(
        lambda ts: np.stack(np.broadcast_arrays(e(ts), d(ts[0]) * e(ts))),
        2, s, nodes)
    e_e, e_de = diffs + floors
    i_d, diff, floor = two_call_rule(lambda ts: d(ts[0]), 1, s, nodes)
    e_d = diff + floor
    kr2 = 0.5 * params.k_r

    def real_kernel(ts):
        t1, t2 = ts
        return np.exp(-0.5 * kt * (t2 - t1)) * np.cos(
            mean_heading(profile, t2) - mean_heading(profile, t1))

    msd, diff, floor = two_call_rule(real_kernel, 2, s, nodes)
    return {"m_xx": (ie.real + ide.real + kr2 * (s + i_d.real),
                     e_e + e_de + kr2 * e_d),
            "m_yy": (ie.real - ide.real + kr2 * (s - i_d.real),
                     e_e + e_de + kr2 * e_d),
            "m_xy": (ide.imag + kr2 * i_d.imag, e_de + kr2 * e_d),
            "msd": (params.k_r * s + 2.0 * msd.real, 2.0 * (diff + floor))}


def _close(got, want, rel=1e-14):
    return abs(got - want) <= rel * max(1.0, abs(want))


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE], ids=lambda p: p.kind)
@pytest.mark.parametrize("theta0", [0.0, -1.3])
@pytest.mark.parametrize("s", [0.0, 0.3, 0.55, 1.0])   # 0.55: a table knot
def test_one_pass_matches_two_call_rule(profile, theta0, s):
    profile = _shifted(profile, theta0)
    for params in (NoiseParams(0.4, 0.7), NoiseParams(1.0, 0.0)):
        for nodes in (24, 7):
            settings_ = QuadratureSettings(nodes_per_level=nodes)
            want = _second_order_oracle(profile, params, s, nodes)
            stats = low_order_statistics(profile, params, s, settings_)
            moments = second_moments(profile, params, s, settings_)
            for name, value in zip(("m_xx", "m_yy", "m_xy"), moments):
                assert value == stats[name][0]
                assert _close(value, want[name][0])
                assert _close(stats[name][1], want[name][1])
            value, err = low_moments.mean_squared_distance_with_error(
                profile, params, s, settings_)
            assert _close(value, want["msd"][0])
            assert _close(err, want["msd"][1])


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE], ids=lambda p: p.kind)
@pytest.mark.parametrize("s", [0.0, 0.55, 1.0])
def test_low_order_statistics_equal_separate_calls(profile, s):
    for params in (NoiseParams(0.3, 0.7), NoiseParams(0.0, 0.0)):
        for settings_ in (DEFAULT_SETTINGS, QuadratureSettings(nodes_per_level=7)):
            stats = low_order_statistics(profile, params, s, settings_)
            args = (profile, params, s, settings_)
            separate = {"mean_x": mean_x(*args), "mean_y": mean_y(*args),
                        **dict(zip(("m_xx", "m_yy", "m_xy"),
                                   second_moments(*args))),
                        "cov_xtheta": cov_xtheta(*args),
                        "cov_ytheta": cov_ytheta(*args)}
            assert stats.keys() == separate.keys()
            for name, want in separate.items():
                value, err = stats[name]
                assert type(value) is float and type(err) is float
                assert _close(value, want), name
                assert err >= 0.0
            # The means and covariances carry the 1-D rule's estimates.
            _, z_err = low_moments._heading_integral(
                profile, s, 1, 0.5 * params.k_theta, settings_)
            _, j_err = low_moments._heading_integral(
                profile, s, 1, 0.5 * params.k_theta, settings_, 1)
            assert _close(stats["mean_x"][1], z_err)
            assert _close(stats["cov_ytheta"][1], params.k_theta * j_err)


def test_heading_overflow_raises_at_the_two_call_point():
    # mu = 1e306 s^3: the heading passes the largest float near s = 5.2,
    # inside the grid on [0, 8].
    profile = SpeedRatioProfile.polynomial((0.0, 0.0, 0.0, 1e306), s_max=8.0)
    params = NoiseParams(0.2, 0.3)
    e, d = _literal_kernels(profile, params.k_theta)
    with pytest.raises(IntegrandEvaluationError) as want, \
            np.errstate(over="ignore", invalid="ignore"):
        two_call_rule(lambda ts: np.stack(np.broadcast_arrays(e(ts), d(ts[0]) * e(ts))),
                      2, 8.0, 24)
    for call in (second_moments, low_order_statistics,
                 low_moments.mean_squared_distance_with_error):
        with pytest.raises(IntegrandEvaluationError) as got:
            call(profile, params, 8.0)
        assert len(got.value.point) == 2
        assert np.allclose(got.value.point, want.value.point, rtol=1e-15, atol=0.0)


def test_one_pass_refuses_negative_length():
    for call in (second_moments, low_order_statistics,
                 low_moments.mean_squared_distance_with_error):
        with pytest.raises(ValueError):
            call(RAMP, NoiseParams(0.3, 0.3), -0.1)
