"""Nested ordered-region quadrature against exact and independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brownian_unicycle import (IntegrandEvaluationError, QuadratureSettings,
                               SpeedRatioProfile, mean_heading)
from brownian_unicycle import low_moments, quadrature
from brownian_unicycle.quadrature import ChainRule, integrate_chains
from tensor_oracle import chain, one_rule, two_call_rule


def ordered_monomial_integral(powers, s) -> Fraction:
    """Exact nested integral of prod t_b**powers[b], innermost first."""
    poly = {0: Fraction(1)}
    for m in powers:
        poly = {p + m + 1: c / (p + m + 1) for p, c in poly.items()}
    return sum((c * Fraction(s) ** p for p, c in poly.items()), Fraction(0))


def _single_chain(first, gaps, tail=1.0):
    """``evaluate`` for integrate_chains from per-point factor functions,
    each factor after the first as a gap kernel of its later point."""
    def evaluate(rule):
        n = rule.t.size
        kernels = [np.broadcast_to(g(rule.t)[:, None], (n, n)) for g in gaps]
        return np.array([chain(rule, first(rule.t), kernels, tail)])
    return evaluate


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _grid_rule(f, beta, s, nodes):
    """``(value, magnitude)`` of the ordered integral of ``f`` on the
    package's ``nodes``-node tensor grid scaled to ``[0, s]``: the grid sum
    of ``f * jw`` and the sum of ``|f * jw|``, with numpy's warnings off as
    in the low-order statistics."""
    ts, jw = quadrature._scaled_grid(beta, s, nodes)
    prod = f(ts) * jw
    return quadrature._grid_sum(prod, ts, jw), float(np.abs(prod).sum())


def _grid_integral(f, beta, s, nodes=24):
    """``(value, err_estimate)`` of the ordered integral of ``f`` as the
    low-order statistics report it: the ``nodes + 2``-node rule's sum, and
    the estimate from it and the ``nodes``-node rule's sum, coarse rule
    first."""
    coarse, _ = _grid_rule(f, beta, s, nodes)
    fine, magnitude = _grid_rule(f, beta, s, nodes + 2)
    return fine, low_moments._estimate(coarse, fine, magnitude)


def _point_product(factors, s, settings_=QuadratureSettings()):
    """Ordered integral of ``prod_b factors[b](t_b)``: on the tensor grid at
    dimensions 1 and 2 (those of the low-order statistics), on the chain
    rule above."""
    beta = len(factors)
    if beta <= 2:
        return _grid_integral(
            lambda ts: math.prod(g(t) for g, t in zip(factors, ts)),
            beta, s, settings_.nodes_per_level)
    return integrate_chains(_single_chain(factors[0], factors[1:]), [1.0], s,
                            settings_)


def test_zero_length_domain():
    value, err = _point_product([np.ones_like] * 3, 0.0)
    assert value == 0.0


def test_simplex_volumes():
    settings_ = QuadratureSettings(nodes_per_level=6)
    for beta, s in [(1, 1.0), (2, 0.5), (3, 1.0), (4, 2.0), (5, 1.3)]:
        value, _ = _point_product([np.ones_like] * beta, s, settings_)
        exact = s ** beta / math.factorial(beta)
        assert value.real == pytest.approx(exact, rel=1e-12)
        assert abs(value.imag) < 1e-15


def test_simplex_volume_beta4_s2():
    value, _ = _point_product([np.ones_like] * 4, 2.0)
    assert value.real == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_exponential_pair_closed_form():
    # 1-D reduction done by hand: int_0^1 e^{t1} (e - e^{t1}) dt1 = (e-1)^2/2.
    value, _ = _grid_integral(lambda ts: np.exp(ts[0] + ts[1]), 2, 1.0)
    assert value.real == pytest.approx((math.e - 1.0) ** 2 / 2.0, rel=1e-13)


@given(powers=st.lists(st.integers(0, 4), min_size=1, max_size=4),
       s=st.sampled_from([0.5, 1.0, 1.7]))
@settings(max_examples=40, deadline=None)
def test_polynomial_exactness(powers, s):
    if sum(powers) > 8:
        powers = powers[:2]
    settings_ = QuadratureSettings(nodes_per_level=8)
    factors = [lambda t, m=m: t ** m for m in powers]
    value, err = _point_product(factors, s, settings_)
    exact = float(ordered_monomial_integral(powers, s))
    assert value.real == pytest.approx(exact, rel=1e-12)
    assert err <= 1e-11 * max(1.0, abs(exact))


@pytest.mark.parametrize("beta", [2, 3])
def test_permutation_identity_symmetric_integrand(beta):
    # Ordered integral of a symmetric function times beta! equals the cube
    # integral; the cube side is computed with an independent tensor rule
    # and has closed form (e^s - 1)^beta.
    s = 0.8
    value, _ = _point_product([np.exp] * beta, s)
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
        _, err = _grid_integral(f, 2, 1.0, g)
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

    value, _ = _grid_integral(f, 2, 1.0)
    th = lambda u: 5.0 * u * u
    ref, ref_err = sci.dblquad(
        lambda t2, t1: math.exp(-0.5 * kt * (t2 - t1)) * math.cos(th(t2) - th(t1)),
        0.0, 1.0, lambda t1: t1, 1.0, epsabs=1e-12, epsrel=1e-12)
    assert value.real == pytest.approx(ref, abs=10 * ref_err + 1e-12)


def test_complex_integrand_supported():
    value, _ = _grid_integral(lambda ts: np.exp(1j * ts[0]), 1, 1.0)
    assert value.real == pytest.approx(math.sin(1.0), rel=1e-13)
    assert value.imag == pytest.approx(1.0 - math.cos(1.0), rel=1e-13)


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
@pytest.mark.parametrize("beta", [1, 2, 3, 4,
                                  pytest.param(5, marks=pytest.mark.slow)])
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
        return np.array([chain(rule, first, gaps, (s - rule.u[-1]) ** 2)])

    # ref_err is the reference's coarse/fine difference: how far it has
    # converged, without the roundoff floor of its error estimate.
    ref, ref_err, _ = two_call_rule(tensor_integrand, beta, s, 24)
    value, err = integrate_chains(evaluate, [1.0], s)
    assert ref_err <= 1e-13 * abs(ref)
    assert abs(value - ref) <= 1e-12 * abs(ref)
    assert abs(value - ref) <= err + ref_err


@pytest.mark.parametrize("m", quadrature.PANEL_NODES)
@pytest.mark.parametrize("edges", [(0.0, 0.7), (0.0, 0.1, 0.25, 0.7)],
                         ids=["one", "three"])
def test_panel_rule_integrates_polynomials_exactly(edges, m):
    # Every operator row integrates a polynomial of degree < m from 0 to its
    # node, across panel edges, and the tail row integrates it over [0, s].
    rule = ChainRule(np.array(edges), m)
    n = rule.t.size
    ones = rule.operator(np.ones((n, n)))
    tail = rule.tail_vector(1.0)
    for k in range(m):
        f = rule.t ** k
        assert np.abs(ones @ f - rule.t ** (k + 1) / (k + 1)).max() <= 1e-13
        assert abs(tail @ f - rule.s ** (k + 1) / (k + 1)) <= 1e-13
    # A gap kernel (t - u)^a is read at negative gaps inside a panel:
    # int_0^t (t - u)^a u^b du = t^(a+b+1) a! b! / (a+b+1)!.
    stack = rule.operator(np.stack([(rule.t[:, None] - rule.u) ** a
                                    for a in range(m)]))
    for a in range(m):
        for b in range(m - a):
            exact = (rule.t ** (a + b + 1) * math.factorial(a) * math.factorial(b)
                     / math.factorial(a + b + 1))
            assert np.abs(stack[a] @ rule.t ** b - exact).max() <= 1e-13
    assert np.array_equal(rule.u[-1], rule.t)
    assert np.all(np.diff(rule.t) > 0.0)


@pytest.mark.parametrize("m", quadrature.PANEL_NODES)
@pytest.mark.parametrize("rate", [0.5, 30.0, 3e3, 1e6])
def test_panel_rule_integrates_decay_exactly(rate, m):
    # The decay e^{-rate (t - u)} is integrated exactly against the panels'
    # interpolants, however fast: int_0^t e^{-rate (t - u)} u^a du for
    # a = 0, 1, relative to its scale 1 / rate.
    rule = ChainRule(np.array((0.0, 0.1, 0.25, 0.7)), m)
    n = rule.t.size
    op = rule.operator(np.ones((n, n)), rate)
    t = rule.t
    fall = -np.expm1(-rate * t) / rate
    assert np.abs(op @ np.ones(n) - fall).max() * rate <= 1e-13
    assert np.abs(op @ t - (t - fall) / rate).max() * rate <= 1e-13


def test_non_finite_integrand_reports_point():
    def f(ts):
        out = np.asarray(1.0 / (ts[0] - ts[0] + 1.0)).copy()
        out = np.where(ts[1] > 0.5, np.inf, 1.0)
        return out

    with pytest.raises(IntegrandEvaluationError) as info:
        _grid_integral(f, 2, 1.0)
    assert info.value.point is not None
    assert len(info.value.point) == 2


def test_invalid_arguments():
    with pytest.raises(ValueError):
        _grid_integral(lambda ts: 1.0, 2, -1.0)
    with pytest.raises(ValueError):
        QuadratureSettings(nodes_per_level=1)
    with pytest.raises(ValueError):
        QuadratureSettings(rel_tol=0.0)


# -- tensor grid against the two-call rule --------------------------------------
#
# The grid and its sum are written for any dimension. The package
# uses dimensions 1 and 2; from dimension 3 on a level has coordinate axes
# on both sides, which those do not exercise.

EPS = float(np.finfo(float).eps)
# Knots at 0.4 and 0.7: the heading is piecewise quadratic.
TABLE_PROFILE = SpeedRatioProfile.table([(0.0, 2.0), (0.4, 9.0), (0.7, -3.0),
                                         (1.2, 5.0)])
S_CASES = {"zero": 0.0, "knot": 0.4, "s_max": 1.2}


def _heading_kernel(ts):
    """Product over levels of exp(i b heading(t_b) - 0.3 (t_b - t_{b-1}))."""
    out, t_prev = 1.0, 0.0
    for b, t in enumerate(ts, start=1):
        out = out * np.exp(1j * b * mean_heading(TABLE_PROFILE, t) - 0.3 * (t - t_prev))
        t_prev = t
    return out


# Three kernels: the heading product, a cosine of the heading against t1,
# and a polynomial.
HEADING_KERNELS = (
    _heading_kernel,
    lambda ts: np.cos(mean_heading(TABLE_PROFILE, ts[-1]) - ts[0]),
    lambda ts: (1.0 + ts[0]) ** 2,
)


def _assert_matches_oracle(got, want, beta):
    (value, err), (ref, ref_err) = got, want
    if beta == 1:
        assert np.array_equal(value, ref) and np.array_equal(err, ref_err)
        assert type(value) is type(ref)
        return
    bound = 4 * EPS * np.maximum(1.0, np.abs(ref))
    assert np.all(np.abs(value - ref) <= bound)
    assert np.all(np.abs(err - ref_err) <= bound)


@pytest.mark.parametrize("kernels", [HEADING_KERNELS[:1], HEADING_KERNELS],
                         ids=["scalar", "stacked"])
@pytest.mark.parametrize("s_case", S_CASES)
@pytest.mark.parametrize("beta,nodes", [
    (beta, nodes) for beta in range(1, 6) for nodes in (2, 7, 24)
    # 24 nodes at dimension 5 is 16 million points per rule.
    if (beta, nodes) != (5, 24)])
def test_stacked_rule_matches_two_call_rule(beta, nodes, s_case, kernels):
    # "stacked": the three kernels, one per call. Each rule's sum matches
    # the oracle's rule, and so does the estimate of the pair.
    s = S_CASES[s_case]
    for kernel in kernels:
        for n in (nodes, nodes + 2):
            (value, _), (ref, _) = (_grid_rule(kernel, beta, s, n),
                                    one_rule(kernel, beta, s, n))
            _assert_matches_oracle((value, 0.0), (ref, 0.0), beta)
        ref, difference, floor = two_call_rule(kernel, beta, s, nodes)
        _assert_matches_oracle(_grid_integral(kernel, beta, s, nodes),
                               (ref, difference + floor), beta)


def _nan_above(threshold, stacked):
    """Kernels, NaN wherever the outermost point exceeds ``threshold``: one,
    or the second of a stack of two."""
    def bad(ts):
        return np.where(ts[0] > threshold, np.nan, 1.0) * np.exp(1j * ts[-1])
    return (lambda ts: np.exp(1j * ts[-1]), bad) if stacked else (bad,)


def _first_non_finite(kernels, beta, s, nodes):
    """The tensor grid's error for ``kernels``, coarse rule first: the rule
    sums of a single kernel, or the search over a stack's products (kernel
    by kernel) that the one-pass second moments run on each rule."""
    if len(kernels) == 1:
        with pytest.raises(IntegrandEvaluationError) as info:
            _grid_integral(kernels[0], beta, s, nodes)
        return info.value
    for n in (nodes, nodes + 2):
        ts, jw = quadrature._scaled_grid(beta, s, n)
        with np.errstate(invalid="ignore"):
            prods = tuple(kernel(ts) * jw for kernel in kernels)
        if not all(np.isfinite(prod).all() for prod in prods):
            return quadrature._non_finite_error(prods, ts, jw)
    raise AssertionError("every product is finite")


@pytest.mark.parametrize("stacked", [False, True], ids=["scalar", "stacked"])
@pytest.mark.parametrize("where", ["fine_last", "coarse_last"])
# "stacked" in the ids of beta names the evaluation checked: the rule pair
# of the estimate-bearing statistics.
@pytest.mark.parametrize("beta", [1, 2, 3], ids=lambda beta: f"stacked-{beta}")
def test_non_finite_point_matches_two_call_rule(beta, where, stacked):
    nodes, s = 7, 0.9
    coarse_last, fine_last = (
        s * (0.5 * (np.polynomial.legendre.leggauss(n)[0][-1] + 1.0))
        for n in (nodes, nodes + 2))
    # Above the midpoint only the fine rule's last outer node is bad; just
    # below the coarse rule's last node, that node is bad in the coarse
    # rule, which is evaluated first.
    threshold = (0.5 * (coarse_last + fine_last) if where == "fine_last"
                 else coarse_last * (1.0 - 1e-12))
    kernels = _nan_above(threshold, stacked)
    with pytest.raises(IntegrandEvaluationError) as want:
        two_call_rule(lambda ts: np.stack(np.broadcast_arrays(
            *(kernel(ts) for kernel in kernels))), beta, s, nodes)
    point = _first_non_finite(kernels, beta, s, nodes).point
    ref = want.value.point
    assert len(point) == beta
    assert point[0] == ref[0] == (fine_last if where == "fine_last" else coarse_last)
    assert np.allclose(point, ref, rtol=4 * EPS, atol=0.0)


def test_sum_overflow_of_finite_values_raises():
    with pytest.raises(IntegrandEvaluationError) as info:
        _grid_integral(lambda ts: np.full(np.shape(ts[0]), 1e308), 1, 4.0)
    assert info.value.point is None


@pytest.mark.parametrize("beta,nodes", [(1, 24), (2, 24), (1, 64)])
def test_grid_cache_keyed_by_dimension_and_nodes(beta, nodes):
    # One grid per (beta, rule): the pair of rules misses twice, then never.
    quadrature._simplex_grid.cache_clear()
    _grid_integral(_heading_kernel, beta, 1.0, nodes)
    assert quadrature._simplex_grid.cache_info().misses == 2
    for s in np.random.default_rng(beta).uniform(0.0, 1.2, 50):
        _grid_integral(_heading_kernel, beta, float(s), nodes)
    assert quadrature._simplex_grid.cache_info().misses == 2


@pytest.mark.parametrize("nodes", [2, 7, 24, 64])
def test_pair_grid_t1_nodes_are_the_line_grid(nodes):
    # The one-pass second moments read int D from the t1 nodes of the
    # dimension-2 grid with the dimension-1 grid's weights.
    (t1, t2), jw = quadrature._simplex_grid(2, nodes)
    (t,), w = quadrature._simplex_grid(1, nodes)
    assert t1.shape == (nodes, 1) and t2.shape == jw.shape == (nodes, nodes)
    assert w.shape == (nodes,)
    assert np.array_equal(t1[:, 0], t)


def _decay_weights_reference(m, rate):
    """``_decay_weights`` with its pieces built at every call, uncached."""
    x, w = quadrature._gauss_unit(m)
    ends = np.append(x, 1.0)
    steps = [2.0 ** j / rate for j in range(7) if 2.0 ** j < rate]
    breaks = np.minimum(ends[:, None], np.array([0.0, *steps, 1.0]))
    px, pw = quadrature._gauss_unit(quadrature.PIECE_NODES)
    span = np.diff(breaks)
    back = breaks[:, :-1, None] + span[:, :, None] * px
    small = 0.0 < rate < 1.0
    decay = (np.expm1 if small else np.exp)(-rate * back)
    diff = (ends[:, None, None] - back)[..., None] - x
    hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        basis = (-1.0) ** np.arange(m) * np.sqrt(x * (1.0 - x) * w) / diff
        basis /= basis.sum(axis=-1, keepdims=True)
    rows = hit.any(axis=-1)
    basis[rows] = hit[rows]
    out = np.einsum("epq,epqk->ek", span[:, :, None] * pw * decay, basis)
    if small:
        out += np.vstack(_decay_weights_reference(m, 0.0))
    return out[:-1], out[-1]


@pytest.mark.parametrize("m", [20, 24, 26])
def test_decay_weights_equal_uncached_pieces(m):
    # Up to rate 1 the pieces are built once per m; the weights must not
    # change by a bit.
    rates = [0.0, 1.0, 3.0, 40.0,
             *(10.0 ** np.random.default_rng(m).uniform(-6.0, 0.0, 40)).tolist()]
    for rate in rates:
        for got, want in zip(quadrature._decay_weights(m, rate),
                             _decay_weights_reference(m, rate)):
            assert np.array_equal(got, want), rate
