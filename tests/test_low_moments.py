"""First/second order statistics against closed forms and cross-paths.

The references here share no code with the panel rule of the package:
they cut ``[0, s]`` at the table knots into short pieces and integrate
each piece, and each ordered pair of pieces, with Gauss-Legendre rules
(the triangle of a piece on the tensor rule of ``tensor_oracle``).
"""

import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from brownian_unicycle import (EnvelopeRefusal, IntegrandEvaluationError,
                               NoiseParams,
                               NumericalConsistencyError, SpeedRatioProfile,
                               cov_xtheta, cov_ytheta, d2_closed,
                               deterministic_pose,
                               displacement_heading_moment,
                               displacement_moment, low_moments, quadrature,
                               low_order_statistics, mean_heading,
                               mean_pose_closed, mean_squared_distance,
                               mean_x, mean_y,
                               orientation_distribution, second_moments)
from tensor_oracle import one_rule, two_call_rule

CONST = SpeedRatioProfile.constant(5.0, theta0=0.0, s_max=1.0)
RAMP = SpeedRatioProfile.polynomial((0.0, 10.0), theta0=0.0, s_max=1.0)
TABLE = SpeedRatioProfile.table(
    [(i / 20, 10.0 * i / 20 + 3.0 * math.sin(7.0 * i / 20)) for i in range(21)])
NAMES = ("mean_x", "mean_y", "m_xx", "m_yy", "m_xy", "cov_xtheta",
         "cov_ytheta")


# -- knot-piece references ------------------------------------------------------

def _cuts(profile, s, length=0.05):
    """``[0, s]`` cut at the table knots inside and into equal pieces of at
    most ``length`` between them."""
    ends = [0.0, *(k for k in profile.knots_s if 0.0 < k < s), s]
    cuts = []
    for a, b in zip(ends, ends[1:]):
        pieces = max(1, math.ceil((b - a) / length))
        cuts.extend(a + (b - a) * np.arange(pieces) / pieces)
    return np.append(cuts, s)


def _gauss(cuts, nodes):
    """Nodes and weights of ``nodes`` Gauss points on every piece, by
    piece."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    width = np.diff(cuts)[:, None]
    return cuts[:-1, None] + 0.5 * width * (x + 1.0), 0.5 * width * w


def _line(f, profile, s, nodes=16):
    """``int_0^s f(t) dt`` on the pieces of :func:`_cuts`."""
    if s == 0.0:
        return 0j
    t, w = _gauss(_cuts(profile, s), nodes)
    return complex(np.sum(w * f(t)))


def _ordered(f, profile, s, nodes=16):
    """``iint_{t1 <= t2} f(t1, t2)`` on the pieces of :func:`_cuts`: each
    ordered pair of pieces on the tensor Gauss rule, each piece's own
    triangle on :func:`tensor_oracle.one_rule`."""
    if s == 0.0:
        return 0j
    cuts = _cuts(profile, s)
    t, w = _gauss(cuts, nodes)
    total = 0j
    for j in range(len(cuts) - 1):
        if j:
            earlier, weights = t[:j].ravel(), w[:j].ravel()
            total += w[j] @ f(earlier[None, :], t[j][:, None]) @ weights
        a = cuts[j]
        total += one_rule(lambda ts: f(a + ts[0], a + ts[1]), 2,
                          cuts[j + 1] - a, nodes)[0]
    return total


def _literal_kernels(profile, kt):
    """``E(t1, t2)`` and ``D(t)`` of :func:`second_moments`, written out."""
    def e(t1, t2):
        return np.exp(1j * (mean_heading(profile, t2) - mean_heading(profile, t1))
                      - 0.5 * kt * (t2 - t1))

    def d(t):
        return np.exp(2j * mean_heading(profile, t) - 2.0 * kt * t)

    return e, d


def _reference(profile, params, s):
    """``{name: value}`` of :func:`low_order_statistics` from the literal
    integrands on the knot-piece references."""
    kt, kr2 = params.k_theta, 0.5 * params.k_r
    e, d = _literal_kernels(profile, kt)
    z = _line(lambda t: np.exp(1j * mean_heading(profile, t) - 0.5 * kt * t),
              profile, s)
    j = _line(lambda t: t * np.exp(1j * mean_heading(profile, t) - 0.5 * kt * t),
              profile, s)
    i_d = _line(d, profile, s)
    ie = _ordered(e, profile, s)
    ide = _ordered(lambda t1, t2: d(t1) * e(t1, t2), profile, s)
    return {"mean_x": z.real, "mean_y": z.imag,
            "m_xx": ie.real + ide.real + kr2 * (s + i_d.real),
            "m_yy": ie.real - ide.real + kr2 * (s - i_d.real),
            "m_xy": ide.imag + kr2 * i_d.imag,
            "cov_xtheta": -kt * j.imag, "cov_ytheta": kt * j.real,
            "msd": params.k_r * s + 2.0 * ie.real}


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


def test_mean_squared_distance_refuses_no_correct_digit(monkeypatch):
    # An error estimate above the value's magnitude is refused, by the
    # public <D^2> and the checked one.
    monkeypatch.setattr(low_moments, "mean_squared_distance_with_error",
                        lambda *args: (0.122, 1.3))
    for call in (mean_squared_distance,
                 low_moments.checked_mean_squared_distance):
        with pytest.raises(NumericalConsistencyError):
            call(CONST, NoiseParams(0.01, 0.01), 1.0)


@pytest.mark.parametrize("s", [20.0, 200.0])
def test_long_curves_match_closed_forms(s):
    # Constant mu0 = 5, K = 0.01: the heading turns 100 and 1000 rad.
    profile = SpeedRatioProfile.constant(5.0, s_max=s)
    params = NoiseParams(0.01, 0.01)
    d2 = d2_closed(5.0, params, s)
    value, err = low_moments.mean_squared_distance_with_error(profile, params, s)
    assert abs(value - d2) <= 1e-12 * d2
    assert abs(value - d2) <= err
    assert mean_squared_distance(profile, params, s) == value
    m_xx, m_yy, _ = second_moments(profile, params, s)
    assert abs(m_xx + m_yy - d2) <= 1e-12 * d2
    z = mean_pose_closed(5.0, params, 0.0, s)
    assert abs(complex(mean_x(profile, params, s), mean_y(profile, params, s))
               - z) <= 1e-11


@pytest.mark.parametrize("k", [10.0, 100.0, 1000.0])
def test_strong_decay_matches_closed_forms(k):
    # The decay grades the panels toward 0: the pose is within a few eps of
    # the closed form, and <D^2> too.
    params = NoiseParams(k, k)
    d2 = d2_closed(5.0, params, 1.0)
    assert abs(mean_squared_distance(CONST, params, 1.0) - d2) <= 1e-14 * d2
    z = mean_pose_closed(5.0, params, 0.0, 1.0)
    got = complex(mean_x(CONST, params, 1.0), mean_y(CONST, params, 1.0))
    assert abs(got - z) <= 2e-15 * abs(z)


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


def five_kernel_second_moments(profile, params, s):
    """Oracle: each second moment and shift integral as its own real
    integral, on the knot-piece references."""
    kt = params.k_theta

    def damped_cos2(t):
        return np.cos(2.0 * mean_heading(profile, t)) * np.exp(-2.0 * kt * t)

    def damped_sin2(t):
        return np.sin(2.0 * mean_heading(profile, t)) * np.exp(-2.0 * kt * t)

    def kernel(combine):
        def f(t1, t2):
            dth = mean_heading(profile, t2) - mean_heading(profile, t1)
            env = np.exp(-0.5 * kt * (t2 - t1))
            return combine(damped_cos2(t1), damped_sin2(t1), np.cos(dth),
                           np.sin(dth)) * env
        return f

    xx = _ordered(kernel(lambda cc, cs, c, d: (1.0 + cc) * c - cs * d),
                  profile, s)
    yy = _ordered(kernel(lambda cc, cs, c, d: (1.0 - cc) * c + cs * d),
                  profile, s)
    xy = _ordered(kernel(lambda cc, cs, c, d: cs * c + cc * d), profile, s)
    int_cc = _line(damped_cos2, profile, s)
    int_cs = _line(damped_sin2, profile, s)
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
    got = second_moments(profile, params, s)
    want = five_kernel_second_moments(profile, params, s)
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


def test_calls_evaluate_one_rule_or_the_estimate_pair(monkeypatch):
    # A value-only call evaluates the rule of m nodes per panel; a call that
    # reports an estimate evaluates the rules of m - ESTIMATE_STEP and m
    # nodes on the same panels, those of panels() for dimension 2 and phase
    # weight 2. The heading is not looked up through mean_heading on a
    # table's knot segments. Each call starts without the previous call's
    # rules, which the statistics at one point share
    # (test_a_point_builds_one_rule).
    rules, headings = [], []
    rule = low_moments._rule

    def counting(profile, panels, m):
        rules.append((panels, m))
        return rule(profile, panels, m)

    monkeypatch.setattr(low_moments, "_rule", counting)
    for module in (low_moments, quadrature):
        monkeypatch.setattr(module, "mean_heading",
                            lambda *args: headings.append(args))
    params = NoiseParams(0.2, 0.5)
    for call, pair in ((mean_x, False), (cov_ytheta, False),
                       (second_moments, False),
                       (low_moments.mean_squared_distance_with_error, True),
                       (low_order_statistics, True)):
        rules.clear()
        low_moments._point_record.cache_clear()
        call(TABLE, params, 0.8)
        panels = quadrature.panels(TABLE, 0.8, params.k_theta, 2, 2)
        counts = [m for _, m in rules]
        assert counts == ([panels.m - quadrature.ESTIMATE_STEP, panels.m]
                          if pair else [panels.m])
        assert all(p is rules[0][0] for p, _ in rules)
        assert np.array_equal(rules[0][0].start, panels.start)
        # The m-node rule is the point's whatever the call that built it,
        # so a value-only call after an estimate builds none.
        rules.clear()
        for value_only in (mean_x, cov_ytheta, second_moments):
            value_only(TABLE, params, 0.8)
        assert rules == []
    assert headings == []


FIVE = (mean_x, mean_y, second_moments, cov_xtheta, cov_ytheta)


def _fresh(call, *args):
    """``call(*args)`` without a record left by an earlier call."""
    low_moments._point_record.cache_clear()
    return call(*args)


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE], ids=lambda p: p.kind)
def test_a_point_builds_one_rule(monkeypatch, profile):
    # The five statistics at one point build one rule between them, and a
    # new profile, k_theta or s a new one (k_r takes no part in the rule).
    # The four one-dimensional ones take the heading's cos and sin once.
    # Every value is the one of a call on a rule of its own, and s keys
    # the rule as a float.
    built, trig = [], []
    rule, cos_sin = low_moments._rule, low_moments._trig

    def counting(*args):
        built.append(args[2])
        return rule(*args)

    def counting_trig(*args):
        trig.append(args)
        return cos_sin(*args)

    monkeypatch.setattr(low_moments, "_rule", counting)
    monkeypatch.setattr(low_moments, "_trig", counting_trig)
    params, s = NoiseParams(0.2, 0.5), 0.8
    points = [(profile, params, s), (_shifted(profile, 0.9), params, s),
              (profile, NoiseParams(0.2, 0.6), s), (profile, params, 0.7)]
    for point in points:
        built.clear()
        trig.clear()
        values = [call(*point) for call in FIVE]
        assert len(built) == 1, point
        assert len(trig) == 1, point
        assert values == [_fresh(call, *point) for call in FIVE]
    built.clear()
    for call in FIVE:
        call(profile, NoiseParams(0.9, 0.5), 0.7)
    assert built == []
    # A shared rule cannot be changed by the call that holds it.
    point = low_moments._point(profile, 0.5, 0.7)
    for held in (point.coarse, point.rule):
        for array in (held.panels.coef, held.t, held.wt, held.h, held.local):
            assert not array.flags.writeable

    for same in ((0.8, np.float64(0.8), np.array(0.8)), (1.0, 1)):
        want = [_fresh(call, profile, params, same[0]) for call in FIVE]
        for t in same:
            built.clear()
            assert [call(profile, params, t) for call in FIVE] == want
            assert built == []
            assert [_fresh(call, profile, params, t) for call in FIVE] == want


# Rebuilds the profile it reads from stdin, hashes it, and writes the hash
# of a string (salted per process) and the profile, pickled.
_HASH_AND_PICKLE = """
import pickle, sys
profile = pickle.loads(sys.stdin.buffer.read())
hash(profile)
sys.stdout.buffer.write(pickle.dumps((hash("kind"), profile)))
"""


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE], ids=lambda p: p.kind)
def test_equal_profiles_hash_alike_and_share_a_record(profile, subprocess_env):
    # A profile computes its hash once and a pickle carries it, so the hash
    # takes nothing that Python salts per process: a profile hashed and
    # pickled under another PYTHONHASHSEED still finds this one's record.
    seed = os.environ.get("PYTHONHASHSEED", "")
    env = dict(subprocess_env, PYTHONHASHSEED="2" if seed == "1" else "1")
    fresh = SpeedRatioProfile(**dataclasses.asdict(profile))
    proc = subprocess.run([sys.executable, "-c", _HASH_AND_PICKLE],
                          input=pickle.dumps(fresh), capture_output=True,
                          env=env, check=True)
    salted, unpickled = pickle.loads(proc.stdout)
    assert salted != hash("kind")
    record = low_moments._point(profile, 0.5, 0.8)
    others = (SpeedRatioProfile(**dataclasses.asdict(profile)),
              dataclasses.replace(profile), copy.copy(profile), unpickled)
    for other in others:
        assert other == profile
        assert hash(other) == hash(profile)
        assert low_moments._point(other, 0.5, 0.8) is record


def test_an_overflowing_line_sum_refuses_only_its_statistics():
    # On a straight line past s ~ 1e154 the terms of J = int t exp(i h)
    # overflow where those of Z do not: the means keep their values, with
    # no numpy warning, and the covariances raise, in either order.
    s = 1e160
    line, params = SpeedRatioProfile.constant(0.0, s_max=s), NoiseParams(0.0, 0.0)
    for first in (mean_x, cov_xtheta):
        low_moments._point_record.cache_clear()
        for call in (first, mean_x, mean_y, cov_xtheta, cov_ytheta):
            if call in (mean_x, mean_y):
                assert call(line, params, s) == pytest.approx(
                    s if call is mean_x else 0.0, rel=1e-14)
            else:
                with pytest.raises(IntegrandEvaluationError):
                    call(line, params, s)


# The one-dimensional heading integrals as separate integrands, each copied
# from the version before they shared one, on the knot-piece reference.

def _mean_xy_oracle(profile, params, s):
    kt = params.k_theta
    return _line(lambda t: np.exp(1j * mean_heading(profile, t) - 0.5 * kt * t),
                 profile, s)


def _pose_oracle(profile, s):
    z = _line(lambda t: np.exp(1j * mean_heading(profile, t)), profile, s)
    return (z.real, z.imag, mean_heading(profile, s))


def _near(got, want, rel=1e-13):
    return abs(got - want) <= rel * max(1.0, abs(want))


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE], ids=lambda p: p.kind)
@pytest.mark.parametrize("theta0", [0.0, 0.9])
@pytest.mark.parametrize("s", [0.0, 0.55, 1.0])   # origin, a table knot, s_max
def test_heading_integrals_equal_separate_paths(profile, theta0, s):
    profile = _shifted(profile, theta0)
    for params in (NoiseParams(0.3, 0.7), NoiseParams(0.0, 0.0)):
        z = _mean_xy_oracle(profile, params, s)
        assert _near(mean_x(profile, params, s), z.real)
        assert _near(mean_y(profile, params, s), z.imag)
    for got, want in zip(deterministic_pose(profile, s), _pose_oracle(profile, s)):
        assert _near(got, want)


def test_pose_integrates_once_through_module_attribute(monkeypatch):
    # The heading at the end point, looked up as a module attribute, and on
    # non-constant profiles one panel rule for the position.
    calls, rules = [], []
    original, rule = low_moments.mean_heading, low_moments._rule

    def counting(profile, t):
        calls.append(np.size(t))
        return original(profile, t)

    def counting_rule(*args):
        rules.append(args[0].kind)
        return rule(*args)

    monkeypatch.setattr(low_moments, "mean_heading", counting)
    monkeypatch.setattr(low_moments, "_rule", counting_rule)
    for profile in (RAMP, TABLE, CONST):
        deterministic_pose(profile, 0.8)
    assert calls == [1, 1, 1]
    assert rules == ["polynomial", "table"]


# The two real covariance integrands, copied from the version before the
# pair became the imaginary and real parts of one complex heading integral.

def _cov_oracle(profile, params, s):
    kt = params.k_theta

    def fx(t):
        return t * np.sin(mean_heading(profile, t)) * np.exp(-0.5 * kt * t)

    def fy(t):
        return t * np.cos(mean_heading(profile, t)) * np.exp(-0.5 * kt * t)

    return (-kt * _line(fx, profile, s).real, kt * _line(fy, profile, s).real)


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE], ids=lambda p: p.kind)
@pytest.mark.parametrize("theta0", [0.0, 0.9, -2.4])
@pytest.mark.parametrize("s", [0.0, 0.55, 1.0])   # origin, a table knot, s_max
def test_covariances_match_real_integrand_oracle(profile, theta0, s):
    profile = _shifted(profile, theta0)
    for params in (NoiseParams(0.3, 0.7), NoiseParams(1.0, 1.0),
                   NoiseParams(0.0, 0.01)):
        got = (cov_xtheta(profile, params, s), cov_ytheta(profile, params, s))
        for g, w in zip(got, _cov_oracle(profile, params, s)):
            assert type(g) is float
            assert _near(g, w, 1e-14)


def test_covariances_share_the_weighted_heading_integral():
    params = NoiseParams(0.3, 0.7)
    for profile in (CONST, RAMP, TABLE):
        j = low_moments._mean_integral(profile, 0.7, 0.8, 1)
        assert cov_xtheta(profile, params, 0.8) == -0.7 * j.imag
        assert cov_ytheta(profile, params, 0.8) == 0.7 * j.real


def test_d2_estimate_bounds_closed_form_error_sweep():
    # The estimate carries a roundoff floor: the coarse/fine difference
    # alone can fall below the true error near roundoff.
    rng = np.random.default_rng(20)
    for _ in range(400):
        mu0, s = rng.uniform(0.0, 20.0), rng.uniform(0.0, 5.0)
        k = rng.uniform(0.01, 1.0)
        params = NoiseParams(k, k)
        value, err = low_moments.mean_squared_distance_with_error(
            SpeedRatioProfile.constant(mu0, s_max=s), params, s)
        assert abs(value - d2_closed(mu0, params, s)) <= err


# -- the panel rule against the knot-piece reference ----------------------------

def _piecewise_two_call(f, profile, s, nodes=12):
    """``(value, estimate)`` of ``iint_{t1 <= t2} f`` with the two-call rule
    on the triangle of every knot piece and the tensor rule of ``nodes + 2``
    points on every ordered pair of pieces."""
    if s == 0.0:
        return 0j, 0.0
    cuts = _cuts(profile, s)
    t, w = _gauss(cuts, nodes + 2)
    total, estimate = 0j, 0.0
    for j in range(len(cuts) - 1):
        if j:
            total += w[j] @ f(t[:j].ravel()[None, :], t[j][:, None]) @ w[:j].ravel()
        a = cuts[j]
        value, difference, floor = two_call_rule(
            lambda ts: f(a + ts[0], a + ts[1]), 2, cuts[j + 1] - a, nodes)
        total += value
        estimate += difference + floor
    return total, estimate


def _close(got, want, rel=1e-12):
    return abs(got - want) <= rel * max(1.0, abs(want))


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE], ids=lambda p: p.kind)
@pytest.mark.parametrize("theta0", [0.0, -1.3])
@pytest.mark.parametrize("s", [0.0, 0.3, 0.55, 1.0])   # 0.55: a table knot
def test_one_pass_matches_two_call_rule(profile, theta0, s):
    # The second moments and <D^2> against E and D E on the two-call rule,
    # triangle by knot piece: within 1e-12, and within each estimate.
    profile = _shifted(profile, theta0)
    for params in (NoiseParams(0.4, 0.7), NoiseParams(1.0, 0.0)):
        kt, kr2 = params.k_theta, 0.5 * params.k_r
        e, d = _literal_kernels(profile, kt)
        ie, e_e = _piecewise_two_call(e, profile, s)
        ide, e_de = _piecewise_two_call(lambda t1, t2: d(t1) * e(t1, t2),
                                        profile, s)
        i_d = _line(d, profile, s)
        want = {"m_xx": ie.real + ide.real + kr2 * (s + i_d.real),
                "m_yy": ie.real - ide.real + kr2 * (s - i_d.real),
                "m_xy": ide.imag + kr2 * i_d.imag}
        stats = low_order_statistics(profile, params, s)
        moments = second_moments(profile, params, s)
        for name, value in zip(("m_xx", "m_yy", "m_xy"), moments):
            assert value == stats[name][0]
            assert _close(value, want[name])
            assert abs(value - want[name]) <= stats[name][1] + e_e + e_de
        value, err = low_moments.mean_squared_distance_with_error(
            profile, params, s)
        msd = params.k_r * s + 2.0 * ie.real
        assert _close(value, msd)
        assert abs(value - msd) <= err + 2.0 * e_e


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE], ids=lambda p: p.kind)
@pytest.mark.parametrize("s", [0.0, 0.55, 1.0])
def test_low_order_statistics_equal_separate_calls(profile, s):
    for params in (NoiseParams(0.3, 0.7), NoiseParams(0.0, 0.0)):
        stats = low_order_statistics(profile, params, s)
        args = (profile, params, s)
        separate = {"mean_x": mean_x(*args), "mean_y": mean_y(*args),
                    **dict(zip(("m_xx", "m_yy", "m_xy"),
                               second_moments(*args))),
                    "cov_xtheta": cov_xtheta(*args),
                    "cov_ytheta": cov_ytheta(*args)}
        assert stats.keys() == separate.keys()
        for name, want in separate.items():
            value, err = stats[name]
            assert type(value) is float and type(err) is float
            assert value == want, name
            assert err >= 0.0


def _table_point(rng):
    return NoiseParams(*[math.exp(rng.uniform(math.log(0.01), 0.0))] * 2), \
        rng.uniform(0.2, 1.0)


SINE_TABLE = SpeedRatioProfile.table(
    [(i / 20, 5.0 + 3.0 * math.sin(2.0 * math.pi * i / 20)) for i in range(21)])
LONG_TABLE = SpeedRatioProfile.table(
    [(i / 40, 5.0 + 3.0 * math.sin(2.0 * math.pi * i / 40)) for i in range(401)])
# Uneven knots, whose segments split into 1, 2, 1 and 3 panels on [0, 1].
UNEVEN_TABLE = SpeedRatioProfile.table(
    [(0.0, 1.0), (0.1, 40.0), (0.35, 2.0), (0.4, 30.0), (1.0, 5.0)])
# No or next to no heading noise, where every panel shares one decay.
CALM = (NoiseParams(1.0, 0.0), NoiseParams(0.0, 0.0), NoiseParams(1.0, 1e-15))


@pytest.mark.parametrize("profile,points", [
    (SINE_TABLE, [_table_point(np.random.default_rng(7)) for _ in range(40)]),
    (LONG_TABLE, [(NoiseParams(1.0, 1.0), 10.0), (NoiseParams(0.01, 0.01), 10.0)]),
    (TABLE, [(params, s) for params in CALM for s in (0.52, 0.97)]),
    (UNEVEN_TABLE, [(params, s) for params in CALM for s in (0.63, 1.0)]),
], ids=["21_knots", "401_knots", "off_knots", "uneven_knots"])
def test_estimates_bound_the_error_on_tables(profile, points):
    # mu = 5 + 3 sin(2 pi s) sampled on 21 knots at 40 drawn (K, s), and on
    # 401 knots at s = 10; panels of unequal widths (a short last panel off
    # the knots, uneven knots) without decay: every value of
    # low_order_statistics and <D^2> lies within its estimate of the
    # knot-piece reference, and within 1e-12.
    for params, s in points:
        want = _reference(profile, params, s)
        stats = low_order_statistics(profile, params, s)
        for name in NAMES:
            value, err = stats[name]
            assert abs(value - want[name]) <= err, (name, params, s)
            assert _close(value, want[name]), (name, params, s)
        value, err = low_moments.mean_squared_distance_with_error(
            profile, params, s)
        assert abs(value - want["msd"]) <= err, (params, s)
        assert _close(value, want["msd"]), (params, s)


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE], ids=lambda p: p.kind)
def test_huge_heading_noise_leaves_the_translational_noise(profile):
    # At k_theta = 1e300 the heading decorrelates at once: <x^2> = <y^2> =
    # k_r s / 2, <D^2> = k_r s, and the means and <x y> vanish.
    params = NoiseParams(1.0, 1e300)
    stats = low_order_statistics(profile, params, 1.0)
    want = {"m_xx": 0.5, "m_yy": 0.5}
    for name in NAMES:
        assert abs(stats[name][0] - want.get(name, 0.0)) <= 1e-15, name
    assert mean_squared_distance(profile, params, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_heading_overflow_raises_with_a_point():
    # mu = 1e306 s^3: the heading passes the largest float near s = 5.2,
    # and the bound of its turn on [0, 8] is not finite. Every low-order
    # call raises at the end of that segment, before any rule is built.
    profile = SpeedRatioProfile.polynomial((0.0, 0.0, 0.0, 1e306), s_max=8.0)
    params = NoiseParams(0.2, 0.3)
    calls = (mean_x, mean_y, cov_xtheta, cov_ytheta, second_moments,
             low_order_statistics, low_moments.mean_squared_distance_with_error,
             mean_squared_distance)
    for call in calls:
        with pytest.raises(IntegrandEvaluationError) as got:
            call(profile, params, 8.0)
        assert got.value.point == (8.0,)
    with pytest.raises(IntegrandEvaluationError) as got:
        deterministic_pose(profile, 8.0)
    assert got.value.point == (8.0,)


def test_rule_of_too_many_panels_is_refused():
    # 1e6 rad of turning would take 159 155 panels of at most 2 pi.
    profile = SpeedRatioProfile.constant(1e6, s_max=1.0)
    with pytest.raises(EnvelopeRefusal):
        mean_x(profile, NoiseParams(0.1, 0.1), 1.0)


def test_one_pass_refuses_negative_length():
    for call in (second_moments, low_order_statistics,
                 low_moments.mean_squared_distance_with_error):
        with pytest.raises(ValueError):
            call(RAMP, NoiseParams(0.3, 0.3), -0.1)
