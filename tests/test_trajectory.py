"""Deterministic motion: profiles, headings and noise-free poses."""

import ast
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brownian_unicycle import (NoiseParams, ProfileDomainError,
                               SpeedRatioProfile, deterministic_pose,
                               mean_heading, mean_x, ratio, trajectory)


def test_heading_constant():
    prof = SpeedRatioProfile.constant(5.0, theta0=0.0, s_max=2.0)
    assert mean_heading(prof, 1.0) == pytest.approx(5.0, abs=1e-15)


def test_heading_linear_ramp():
    prof = SpeedRatioProfile.polynomial((0.0, 10.0), theta0=0.0, s_max=2.0)
    assert mean_heading(prof, 1.0) == pytest.approx(5.0, abs=1e-14)


def test_heading_at_origin_is_theta0():
    prof = SpeedRatioProfile.constant(5.0, theta0=0.3, s_max=1.0)
    assert mean_heading(prof, 0.0) == 0.3


def test_ratio_evaluation():
    poly = SpeedRatioProfile.polynomial((1.0, 2.0, 3.0), s_max=1.0)
    assert ratio(poly, 0.5) == pytest.approx(1.0 + 1.0 + 0.75, abs=1e-14)
    const = SpeedRatioProfile.constant(4.0, s_max=1.0)
    np.testing.assert_allclose(ratio(const, np.array([0.0, 1.0])), 4.0)
    tab = SpeedRatioProfile.table([(0.0, 1.0), (1.0, 3.0)], s_max=1.0)
    assert ratio(tab, 0.25) == pytest.approx(1.5, abs=1e-14)


def test_pose_straight_line():
    prof = SpeedRatioProfile.constant(0.0, theta0=0.0, s_max=2.0)
    assert deterministic_pose(prof, 2.0) == pytest.approx((2.0, 0.0, 0.0))


def test_pose_circle_squared_distance():
    prof = SpeedRatioProfile.constant(5.0, theta0=0.0, s_max=1.0)
    x, y, _ = deterministic_pose(prof, 1.0)
    assert x * x + y * y == pytest.approx(0.0573, abs=5e-5)


def test_pose_ramp_squared_distance():
    prof = SpeedRatioProfile.polynomial((0.0, 10.0), theta0=0.0, s_max=1.0)
    x, y, _ = deterministic_pose(prof, 1.0)
    assert x * x + y * y == pytest.approx(0.1021, abs=5e-5)


@given(mu0=st.floats(0.05, 8.0), sign=st.sampled_from([-1.0, 1.0]),
       theta0=st.floats(-3, 3), s=st.floats(0.01, 2))
@settings(max_examples=40, deadline=None)
def test_circle_identity(mu0, sign, theta0, s):
    mu0 = sign * mu0
    prof = SpeedRatioProfile.constant(mu0, theta0=theta0, s_max=2.0)
    x, y, _ = deterministic_pose(prof, s)
    # 1 - cos written in its cancellation-free half-angle form.
    expected = 2.0 / mu0 ** 2 * (2.0 * math.sin(0.5 * mu0 * s) ** 2)
    assert x * x + y * y == pytest.approx(expected, abs=1e-12, rel=1e-12)


@given(theta0=st.floats(-3, 3), phi=st.floats(-3, 3),
       s1=st.floats(0, 2), s2=st.floats(0, 2))
@settings(max_examples=40, deadline=None)
def test_heading_additivity(theta0, phi, s1, s2):
    base = SpeedRatioProfile.polynomial((1.0, -2.0, 0.5), theta0=theta0, s_max=2.0)
    moved = SpeedRatioProfile.polynomial((1.0, -2.0, 0.5), theta0=theta0 + phi,
                                         s_max=2.0)
    d_base = mean_heading(base, s2) - mean_heading(base, s1)
    d_moved = mean_heading(moved, s2) - mean_heading(moved, s1)
    assert d_base == pytest.approx(d_moved, abs=1e-12)


@given(theta0=st.floats(-2, 2), phi=st.floats(-2, 2), s=st.floats(0.1, 1.5))
@settings(max_examples=30, deadline=None)
def test_pose_rotation_equivariance(theta0, phi, s):
    prof = SpeedRatioProfile.constant(3.0, theta0=theta0, s_max=2.0)
    rotated = SpeedRatioProfile.constant(3.0, theta0=theta0 + phi, s_max=2.0)
    x, y, th = deterministic_pose(prof, s)
    xr, yr, thr = deterministic_pose(rotated, s)
    c, d = math.cos(phi), math.sin(phi)
    assert xr == pytest.approx(c * x - d * y, abs=1e-12)
    assert yr == pytest.approx(d * x + c * y, abs=1e-12)
    assert thr == pytest.approx(th + phi, abs=1e-12)


def test_pose_rotation_equivariance_polynomial():
    phi = 1.1
    prof = SpeedRatioProfile.polynomial((0.0, 10.0), theta0=0.3, s_max=1.0)
    rotated = SpeedRatioProfile.polynomial((0.0, 10.0), theta0=0.3 + phi,
                                           s_max=1.0)
    x, y, th = deterministic_pose(prof, 1.0)
    xr, yr, thr = deterministic_pose(rotated, 1.0)
    c, d = math.cos(phi), math.sin(phi)
    assert xr == pytest.approx(c * x - d * y, abs=1e-12)
    assert yr == pytest.approx(d * x + c * y, abs=1e-12)
    assert thr == pytest.approx(th + phi, abs=1e-12)


def test_domain_violations_raise():
    prof = SpeedRatioProfile.constant(1.0, s_max=1.0)
    with pytest.raises(ProfileDomainError):
        mean_heading(prof, -0.1)
    with pytest.raises(ProfileDomainError):
        mean_heading(prof, 1.0 + 1e-9)
    with pytest.raises(ProfileDomainError):
        mean_heading(prof, np.array([0.5, 2.0]))
    with pytest.raises(ProfileDomainError):
        ratio(prof, 1.5)


@pytest.mark.parametrize("prof", [
    SpeedRatioProfile.constant(1.0, s_max=1.0),
    SpeedRatioProfile.polynomial((0.0, 10.0), s_max=1.0),
    SpeedRatioProfile.table([(0.0, 1.0), (0.5, 2.0), (1.0, 0.0)]),
], ids=lambda p: p.kind)
def test_nan_curve_length_raises(prof):
    # NaN compares false against both ends of [0, s_max].
    for s in (math.nan, np.array([0.2, math.nan, 0.7])):
        with pytest.raises(ProfileDomainError):
            mean_heading(prof, s)
        with pytest.raises(ProfileDomainError):
            ratio(prof, s)
    with pytest.raises(ProfileDomainError):
        mean_x(prof, NoiseParams(0.1, 0.2), math.nan)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_noise_params_reject_non_finite(bad):
    for args in ((bad, 0.1), (0.1, bad)):
        with pytest.raises(ValueError, match="finite"):
            NoiseParams(*args)


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("build", [
    lambda x: SpeedRatioProfile.constant(1.0, theta0=x),
    lambda x: SpeedRatioProfile.constant(x),
    lambda x: SpeedRatioProfile.constant(1.0, s_max=x),
    lambda x: SpeedRatioProfile.polynomial((0.0, x)),
    lambda x: SpeedRatioProfile.polynomial((1.0,), theta0=x),
    lambda x: SpeedRatioProfile.table([(0.0, 1.0), (1.0, x)]),
    lambda x: SpeedRatioProfile.table([(0.0, 1.0), (0.5, 2.0), (x, 3.0)],
                                      s_max=0.5),
    lambda x: SpeedRatioProfile.table([(0.0, 1.0), (1.0, 2.0)], theta0=x),
], ids=["theta0", "mu0", "s_max", "coeffs", "poly_theta0", "knots_mu",
        "knots_s", "table_theta0"])
def test_profile_rejects_non_finite(build, bad):
    build(2.0)
    with pytest.raises(ValueError, match="finite"):
        build(bad)


def test_trajectory_imports_only_exceptions_from_the_package():
    tree = ast.parse(Path(trajectory.__file__).read_text(encoding="utf-8"))
    local = {node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level > 0}
    absolute = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    absolute |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert local == {"exceptions"}
    assert not any(name.startswith("brownian_unicycle") for name in absolute)
    names = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not any(name.startswith("damped_") for name in names)
    assert "deterministic_pose" not in names


def test_table_matches_polynomial_for_linear_ratio():
    # Piecewise-linear interpolation is exact for a linear ratio, so the
    # piecewise-quadratic cumulative integral must match the closed form.
    poly = SpeedRatioProfile.polynomial((0.0, 10.0), theta0=0.2, s_max=1.0)
    tab = SpeedRatioProfile.table(
        [(0.0, 0.0), (0.25, 2.5), (0.6, 6.0), (1.0, 10.0)], theta0=0.2)
    grid = np.linspace(0.0, 1.0, 57)
    np.testing.assert_allclose(mean_heading(tab, grid), mean_heading(poly, grid),
                               rtol=0, atol=1e-14)


def test_table_validation():
    with pytest.raises(ValueError):
        SpeedRatioProfile.table([(0.0, 1.0)])
    with pytest.raises(ValueError):
        SpeedRatioProfile.table([(0.1, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError):
        SpeedRatioProfile.table([(0.0, 1.0), (0.5, 2.0)], s_max=1.0)
    with pytest.raises(ValueError):
        SpeedRatioProfile.table([(0.0, 1.0), (0.0, 2.0)])


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(-0.1, 0.0)
    with pytest.raises(ValueError):
        NoiseParams(0.0, -0.1)


def test_profiles_are_immutable():
    prof = SpeedRatioProfile.constant(1.0, s_max=1.0)
    with pytest.raises(AttributeError):
        prof.mu0 = 2.0


def _table_heading_oracle(profile, s):
    """Table heading rebuilt from the knot tuples on every call."""
    arr = np.asarray(s, dtype=float)
    ks = np.asarray(profile.knots_s)
    kmu = np.asarray(profile.knots_mu)
    kh = np.asarray(profile.knot_heading)
    idx = np.clip(np.searchsorted(ks, arr, side="right") - 1, 0, ks.size - 2)
    ds = arr - ks[idx]
    slope = (kmu[idx + 1] - kmu[idx]) / (ks[idx + 1] - ks[idx])
    out = kh[idx] + kmu[idx] * ds + 0.5 * slope * ds * ds
    return out if np.ndim(s) else float(out)


def _sine_table(theta0=-0.4, s_max=None):
    samples = [(i / 20, 10.0 * i / 20 + 3.0 * math.sin(7.0 * i / 20))
               for i in range(21)]
    return SpeedRatioProfile.table(samples, theta0=theta0, s_max=s_max)


def test_table_heading_bit_identical_to_per_call_formula():
    prof = _sine_table(s_max=0.93)
    knots = np.asarray(prof.knots_s)
    rng = np.random.default_rng(7)
    for points in (knots[knots <= 0.93], np.array([0.0, 0.93]),
                   rng.uniform(0.0, 0.93, 500), rng.uniform(0.0, 0.93, (9, 11))):
        assert np.array_equal(mean_heading(prof, points),
                              _table_heading_oracle(prof, points))
    for s in (0.0, 0.35, 0.5, 0.93):
        got = mean_heading(prof, s)
        assert type(got) is float
        assert got == _table_heading_oracle(prof, s)
    two_knots = SpeedRatioProfile.table([(0.0, 1.0), (1.0, -2.0)], theta0=0.4)
    points = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 50)))
    assert np.array_equal(mean_heading(two_knots, points),
                          _table_heading_oracle(two_knots, points))


def test_table_panels_are_read_only_and_outside_equality():
    prof, twin = _sine_table(), _sine_table()
    mean_heading(prof, np.linspace(0.0, 1.0, 5))
    ratio(prof, 0.3)
    for arr in prof._panels:
        assert not arr.flags.writeable
    assert prof == twin
    assert hash(prof) == hash(twin)
    assert {prof: 1}[twin] == 1
    assert prof != _sine_table(theta0=0.1)


def test_pickled_table_leaves_its_panels_behind():
    # The cached panels stay out of the pickle; the copy rebuilds them
    # read-only, and keeps the hash.
    used, fresh = _sine_table(), _sine_table()
    mean_heading(used, np.linspace(0.0, 1.0, 5))
    assert pickle.dumps(used) == pickle.dumps(fresh)
    hash(used)
    copy = pickle.loads(pickle.dumps(used))
    assert "_panels" not in vars(copy)
    assert copy == used
    assert hash(copy) == hash(used)
    assert np.array_equal(mean_heading(copy, 0.37), mean_heading(used, 0.37))
    for built, cached in zip(copy._panels, used._panels):
        assert not built.flags.writeable
        assert np.array_equal(built, cached)
