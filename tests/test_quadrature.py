"""Nested ordered-region quadrature against exact and independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brownian_unicycle import (IntegrandEvaluationError, QuadratureSettings,
                               SpeedRatioProfile, integrate_ordered,
                               mean_heading)
from brownian_unicycle.quadrature import (MAX_TENSOR_DIM, chain_rule,
                                          integrate_chains)


def ordered_monomial_integral(powers, s) -> Fraction:
    """Exact nested integral of prod t_b**powers[b], innermost first."""
    poly = {0: Fraction(1)}
    for m in powers:
        poly = {p + m + 1: c / (p + m + 1) for p, c in poly.items()}
    return sum((c * Fraction(s) ** p for p, c in poly.items()), Fraction(0))


def test_empty_integral_convention():
    value, err = integrate_ordered(lambda ts: 1.0, 0, 1.0)
    assert value == 1.0 + 0.0j
    assert err == 0.0


def test_zero_length_domain():
    value, err = integrate_ordered(lambda ts: 1.0, 3, 0.0)
    assert value == 0.0


def test_simplex_volumes():
    settings_ = QuadratureSettings(nodes_per_level=6)
    for beta, s in [(1, 1.0), (2, 0.5), (3, 1.0), (4, 2.0), (5, 1.3)]:
        value, _ = integrate_ordered(lambda ts: 1.0, beta, s, settings_)
        exact = s ** beta / math.factorial(beta)
        assert value.real == pytest.approx(exact, rel=1e-12)
        assert abs(value.imag) < 1e-15


def test_simplex_volume_beta4_s2():
    value, _ = integrate_ordered(lambda ts: 1.0, 4, 2.0)
    assert value.real == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_exponential_pair_closed_form():
    # 1-D reduction done by hand: int_0^1 e^{t1} (e - e^{t1}) dt1 = (e-1)^2/2.
    value, _ = integrate_ordered(lambda ts: np.exp(ts[0] + ts[1]), 2, 1.0)
    assert value.real == pytest.approx((math.e - 1.0) ** 2 / 2.0, rel=1e-13)


@given(powers=st.lists(st.integers(0, 4), min_size=1, max_size=4),
       s=st.sampled_from([0.5, 1.0, 1.7]))
@settings(max_examples=40, deadline=None)
def test_polynomial_exactness(powers, s):
    if sum(powers) > 8:
        powers = powers[:2]
    settings_ = QuadratureSettings(nodes_per_level=8)

    def f(ts):
        out = 1.0
        for t, m in zip(ts, powers):
            out = out * t ** m
        return out

    value, err = integrate_ordered(f, len(powers), s, settings_)
    exact = float(ordered_monomial_integral(powers, s))
    assert value.real == pytest.approx(exact, rel=1e-12)
    assert err <= 1e-11 * max(1.0, abs(exact))


@pytest.mark.parametrize("beta", [2, 3])
def test_permutation_identity_symmetric_integrand(beta):
    # Ordered integral of a symmetric function times beta! equals the cube
    # integral; the cube side is computed with an independent tensor rule
    # and has closed form (e^s - 1)^beta.
    s = 0.8
    value, _ = integrate_ordered(lambda ts: np.exp(sum(ts)), beta, s)
    ordered_scaled = value.real * math.factorial(beta)
    x, w = np.polynomial.legendre.leggauss(24)
    x = 0.5 * s * (x + 1.0)
    w = 0.5 * s * w
    one_dim = float(w @ np.exp(x))
    assert ordered_scaled == pytest.approx(one_dim ** beta, rel=1e-12)
    assert ordered_scaled == pytest.approx((math.e ** s - 1.0) ** beta, rel=1e-8)


def test_error_estimate_decreases_with_refinement():
    profile = SpeedRatioProfile.polynomial((0.0, 10.0), s_max=1.0)
    kt = 1.0

    def f(ts):
        t1, t2 = ts
        return np.exp(-0.5 * kt * (t2 - t1)) * np.cos(
            mean_heading(profile, t2) - mean_heading(profile, t1))

    errs = []
    for g in (4, 8, 16):
        _, err = integrate_ordered(f, 2, 1.0, QuadratureSettings(nodes_per_level=g))
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]


def test_scipy_cross_check_two_dim():
    from scipy import integrate as sci

    profile = SpeedRatioProfile.polynomial((0.0, 10.0), s_max=1.0)
    kt = 1.0

    def f(ts):
        t1, t2 = ts
        return np.exp(-0.5 * kt * (t2 - t1)) * np.cos(
            mean_heading(profile, t2) - mean_heading(profile, t1))

    value, _ = integrate_ordered(f, 2, 1.0)
    th = lambda u: 5.0 * u * u
    ref, ref_err = sci.dblquad(
        lambda t2, t1: math.exp(-0.5 * kt * (t2 - t1)) * math.cos(th(t2) - th(t1)),
        0.0, 1.0, lambda t1: t1, 1.0, epsabs=1e-12, epsrel=1e-12)
    assert value.real == pytest.approx(ref, abs=10 * ref_err + 1e-12)


def test_complex_integrand_supported():
    value, _ = integrate_ordered(lambda ts: np.exp(1j * ts[0]), 1, 1.0)
    assert value.real == pytest.approx(math.sin(1.0), rel=1e-13)
    assert value.imag == pytest.approx(1.0 - math.cos(1.0), rel=1e-13)


def _single_chain(first, gaps, tail=1.0):
    """``evaluate`` for integrate_chains from per-point factor functions."""
    def evaluate(rule):
        return np.array([rule.chain(first(rule.t),
                                    [g(rule.t)[:, None] for g in gaps],
                                    tail)])
    return evaluate


def test_chain_volume_and_product():
    s = 1.0
    ones = lambda t: np.ones_like(t)
    value, err = integrate_chains(_single_chain(ones, [ones] * 5), [1.0], s)
    assert value.real == pytest.approx(1.0 / 720.0, rel=1e-12)
    assert err < 1e-12 * value.real

    ident = lambda t: t
    value, err = integrate_chains(_single_chain(ident, [ident] * 5), [1.0], s)
    # The product is symmetric, so the ordered integral is the cube mean
    # (s/2)^6 times the ordered-region volume.
    exact = (0.5 ** 6) / 720.0
    assert value.real == pytest.approx(exact, rel=1e-12)
    assert abs(value.real - exact) <= err


def test_chain_deterministic_for_fixed_settings():
    ex = np.exp
    evaluate = _single_chain(ex, [ex] * 5)
    a = integrate_chains(evaluate, [1.0], 1.0)
    b = integrate_chains(evaluate, [1.0], 1.0)
    assert a == b
    # exp(sum t) is symmetric: beta! times the ordered integral is (e - 1)^6.
    assert a[0].real * math.factorial(6) == pytest.approx((math.e - 1.0) ** 6,
                                                         rel=1e-12)


@pytest.mark.parametrize("profile", [
    SpeedRatioProfile.constant(5.0, s_max=1.0),
    SpeedRatioProfile.polynomial((0.0, 10.0), s_max=1.0)], ids=["const", "ramp"])
@pytest.mark.parametrize("beta", [1, 2, 3, 4, 5])
def test_chain_matches_tensor_rule_on_gap_kernels(profile, beta):
    # Gap factors exp(i w (heading(t) - heading(u)) - (t - u)) (t - u) with
    # weights 1, -2, 1, ..., and a tail (s - t_beta)^2.
    s = 0.9
    weights = [(1, -2)[b % 2] for b in range(beta)]

    def gap(w, dtheta, dt):
        return np.exp(1j * w * dtheta - dt) * dt

    def tensor_integrand(ts):
        out = (s - ts[-1]) ** 2
        t_prev, th_prev = 0.0, profile.theta0
        for w, t in zip(weights, ts):
            th = mean_heading(profile, t)
            out = out * gap(w, th - th_prev, t - t_prev)
            t_prev, th_prev = t, th
        return out

    def evaluate(rule):
        th_t = mean_heading(profile, rule.t)
        th_u = mean_heading(profile, rule.u)
        first = gap(weights[0], th_t - profile.theta0, rule.t)
        gaps = [gap(w, th_t[:, None] - th_u, rule.t[:, None] - rule.u)
                for w in weights[1:]]
        return np.array([rule.chain(first, gaps, (s - rule.u[-1]) ** 2)])

    ref, ref_err = integrate_ordered(tensor_integrand, beta, s)
    value, err = integrate_chains(evaluate, [1.0], s)
    assert ref_err <= 1e-13 * abs(ref)
    assert abs(value - ref) <= 1e-12 * abs(ref)
    assert abs(value - ref) <= err + ref_err


@pytest.mark.parametrize("n", [48, 128])
@pytest.mark.parametrize("columns", [None, 1], ids=["gap", "later_point"])
def test_operator_matches_weighted_interpolation(n, columns):
    # Reference: one level as a product with the (n*n, n) weighted
    # interpolation matrix, then the kernel-weighted row sums.
    rng = np.random.default_rng(n)
    rule = chain_rule(n, 0.7)
    shape = (n, columns or n)
    kernel = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tail = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sampled = (rule._weighted.reshape(n * n, n) @ f).reshape(n, n)
    level = rule.s * (kernel * sampled).sum(1)
    close = rule.s * (tail * sampled[-1]).sum()
    assert np.abs(rule.operator(kernel) @ f - level).max() <= 1e-13 * np.abs(level).max()
    assert abs(rule.tail_vector(tail) @ f - close) <= 1e-13 * abs(close)


def test_tensor_rule_refuses_high_dimensions():
    with pytest.raises(ValueError):
        integrate_ordered(lambda ts: 1.0, MAX_TENSOR_DIM + 1, 1.0)


def test_non_finite_integrand_reports_point():
    def f(ts):
        out = np.asarray(1.0 / (ts[0] - ts[0] + 1.0)).copy()
        out = np.where(ts[1] > 0.5, np.inf, 1.0)
        return out

    with pytest.raises(IntegrandEvaluationError) as info:
        integrate_ordered(f, 2, 1.0)
    assert info.value.point is not None
    assert len(info.value.point) == 2


def test_invalid_arguments():
    with pytest.raises(ValueError):
        integrate_ordered(lambda ts: 1.0, -1, 1.0)
    with pytest.raises(ValueError):
        integrate_ordered(lambda ts: 1.0, 2, -1.0)
    with pytest.raises(ValueError):
        QuadratureSettings(nodes_per_level=1)
    with pytest.raises(ValueError):
        QuadratureSettings(rel_tol=0.0)


STACK_KERNELS = (
    lambda ts: np.exp(1j * 3.0 * ts[-1] - 0.5 * ts[0]),
    lambda ts: np.cos(2.0 * ts[0]) * np.exp(-sum(ts)) + 0.0 * ts[-1],
    lambda ts: (1.0 + ts[0]) ** 2 + 0.0 * ts[-1],
)


def _stacked(ts):
    return np.stack(np.broadcast_arrays(*(k(ts) for k in STACK_KERNELS)))


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("nodes", [5, 24])
def test_stacked_integrand_matches_scalar_calls(beta, nodes):
    settings_ = QuadratureSettings(nodes_per_level=nodes)
    values, errs = integrate_ordered(_stacked, beta, 0.8, settings_)
    assert values.shape == errs.shape == (len(STACK_KERNELS),)
    assert values.dtype == complex and errs.dtype == float
    for kernel, value, err in zip(STACK_KERNELS, values, errs):
        ref, ref_err = integrate_ordered(kernel, beta, 0.8, settings_)
        assert abs(value - ref) <= 1e-15 * abs(ref)
        assert err == pytest.approx(ref_err, rel=1e-6, abs=1e-15)
    # Each kernel carries its own estimate, not a shared one.
    assert len(set(errs.tolist())) == len(STACK_KERNELS)


@pytest.mark.parametrize("beta", [1, 2])
def test_stacked_integrand_zero_length_domain(beta):
    values, errs = integrate_ordered(_stacked, beta, 0.0)
    assert values.shape == errs.shape == (len(STACK_KERNELS),)
    assert not values.any() and not errs.any()
    value, err = integrate_ordered(STACK_KERNELS[0], beta, 0.0)
    assert (value, err) == (0j, 0.0)


@pytest.mark.parametrize("beta", [1, 2])
def test_non_finite_stacked_kernel_reports_point(beta):
    def f(ts):
        bad = np.where(ts[-1] > 0.5, np.nan, 1.0)
        return np.stack(np.broadcast_arrays(np.ones_like(ts[-1]), bad))

    with pytest.raises(IntegrandEvaluationError) as info:
        integrate_ordered(f, beta, 1.0)
    assert len(info.value.point) == beta
    assert info.value.point[-1] > 0.5


def test_stacked_integrand_keeps_argument_checks():
    with pytest.raises(ValueError):
        integrate_ordered(_stacked, MAX_TENSOR_DIM + 1, 1.0)
    with pytest.raises(ValueError):
        integrate_ordered(_stacked, -1, 1.0)
    with pytest.raises(ValueError):
        integrate_ordered(_stacked, 2, -1.0)
    value, err = integrate_ordered(_stacked, 0, 1.0)
    assert (value, err) == (1.0 + 0.0j, 0.0)
