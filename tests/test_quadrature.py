"""Nested ordered-region quadrature against exact and independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brownian_unicycle import (IntegrandEvaluationError, NoiseParams,
                               SpeedRatioProfile, d4_moment,
                               displacement_moment, mean_heading,
                               mean_squared_distance, mean_x, mean_y)
from brownian_unicycle import quadrature
from brownian_unicycle.quadrature import (CHAIN_ROUNDOFF, ChainRule,
                                          integrate_chains)
from tensor_oracle import (chain, gap_starts, one_rule, per_count,
                           two_call_rule)


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
    return per_count(evaluate)


def _still(s, dimension):
    """The panels of an integrand of ``dimension`` factors on ``[0, s]``
    that neither turns nor decays: one panel."""
    return quadrature.panels(SpeedRatioProfile.constant(0.0, s_max=s), s, 0.0,
                             0, dimension)


def _point_product(factors, s):
    """Ordered integral of ``prod_b factors[b](t_b)`` on the chain rule."""
    return integrate_chains(_single_chain(factors[0], factors[1:]), [1.0],
                            _still(s, len(factors)))


def test_zero_length_domain():
    # The moment engines integrate nothing at s = 0: only the dimension-0
    # terms are left, exactly.
    profile = SpeedRatioProfile.constant(5.0, s_max=1.0)
    params = NoiseParams(0.3, 0.2)
    res = displacement_moment(1, 1, profile, params, 0.0)
    assert (res.value, res.err_estimate) == (0j, 0.0)
    assert d4_moment(profile, params, 0.0) == 0.0


def test_simplex_volumes():
    for beta, s in [(1, 1.0), (2, 0.5), (3, 1.0), (4, 2.0), (5, 1.3)]:
        value, _ = _point_product([np.ones_like] * beta, s)
        exact = s ** beta / math.factorial(beta)
        assert value.real == pytest.approx(exact, rel=1e-12)
        assert abs(value.imag) < 1e-15


def test_simplex_volume_beta4_s2():
    value, _ = _point_product([np.ones_like] * 4, 2.0)
    assert value.real == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_exponential_pair_closed_form():
    # 1-D reduction done by hand: int_0^1 e^{t1} (e - e^{t1}) dt1 = (e-1)^2/2.
    value, _ = _point_product([np.exp, np.exp], 1.0)
    assert value.real == pytest.approx((math.e - 1.0) ** 2 / 2.0, rel=1e-13)


@given(powers=st.lists(st.integers(0, 4), min_size=1, max_size=4),
       s=st.sampled_from([0.5, 1.0, 1.7]))
@settings(max_examples=40, deadline=None)
def test_polynomial_exactness(powers, s):
    if sum(powers) > 8:
        powers = powers[:2]
    factors = [lambda t, m=m: t ** m for m in powers]
    value, err = _point_product(factors, s)
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


def test_scipy_cross_check_two_dim():
    # The <D^2> kernel exp(-k_theta (t2 - t1) / 2) cos(h(t2) - h(t1)) on the
    # low-order panel rule: half of <D^2> without shift noise.
    from scipy import integrate as sci

    profile = SpeedRatioProfile.polynomial((0.0, 10.0), s_max=1.0)
    kt = 1.0
    value = 0.5 * mean_squared_distance(profile, NoiseParams(0.0, kt), 1.0)
    th = lambda u: 5.0 * u * u
    ref, ref_err = sci.dblquad(
        lambda t2, t1: math.exp(-0.5 * kt * (t2 - t1)) * math.cos(th(t2) - th(t1)),
        0.0, 1.0, lambda t1: t1, 1.0, epsabs=1e-12, epsrel=1e-12)
    assert value.real == pytest.approx(ref, abs=10 * ref_err + 1e-12)


def test_complex_integrand_supported():
    # int_0^1 exp(i t) dt: the mean position of the unit turn rate.
    profile = SpeedRatioProfile.constant(1.0, s_max=1.0)
    params = NoiseParams(0.0, 0.0)
    value = complex(mean_x(profile, params, 1.0), mean_y(profile, params, 1.0))
    assert value.real == pytest.approx(math.sin(1.0), rel=1e-13)
    assert value.imag == pytest.approx(1.0 - math.cos(1.0), rel=1e-13)


def test_chain_volume_and_product():
    s = 1.0
    ones = lambda t: np.ones_like(t)
    value, err = integrate_chains(_single_chain(ones, [ones] * 5), [1.0],
                                  _still(s, 6))
    assert value.real == pytest.approx(1.0 / 720.0, rel=1e-12)
    assert err < 1e-12 * value.real

    ident = lambda t: t
    value, err = integrate_chains(_single_chain(ident, [ident] * 5), [1.0],
                                  _still(s, 6))
    # The product is symmetric, so the ordered integral is the cube mean
    # (s/2)^6 times the ordered-region volume.
    exact = (0.5 ** 6) / 720.0
    assert value.real == pytest.approx(exact, rel=1e-12)
    assert abs(value.real - exact) <= err


def test_chain_deterministic_for_fixed_settings():
    ex = np.exp
    evaluate = _single_chain(ex, [ex] * 5)
    a = integrate_chains(evaluate, [1.0], _still(1.0, 6))
    b = integrate_chains(evaluate, [1.0], _still(1.0, 6))
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
    # weights 1, -2, 1, ..., and a tail (s - t_beta)^2: the panels of phase
    # weight 2 and decay w^2 k_theta / 2 = 1.
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
        u = gap_starts(rule)
        th_t = mean_heading(profile, rule.t)
        th_u = mean_heading(profile, u)
        first = gap(weights[0], th_t - profile.theta0, rule.t)
        gaps = [gap(w, th_t[:, None] - th_u, rule.t[:, None] - u)
                for w in weights[1:]]
        return np.array([chain(rule, first, gaps, (s - rule.t) ** 2)])

    # ref_err is the reference's coarse/fine difference: how far it has
    # converged, without the roundoff floor of its error estimate.
    ref, ref_err, _ = two_call_rule(tensor_integrand, beta, s, 24)
    value, err = integrate_chains(per_count(evaluate), [1.0],
                                  quadrature.panels(profile, s, 0.5, 2, beta))
    assert ref_err <= 1e-13 * abs(ref)
    assert abs(value - ref) <= 1e-12 * abs(ref)
    assert abs(value - ref) <= err + ref_err


def _rule(edges, m):
    """The chain rule of ``m`` nodes per panel between ``edges``."""
    edges = np.array(edges)
    return ChainRule(edges[:-1], np.diff(edges), m)


# The fewest nodes per panel that panels() gives, and more.
@pytest.mark.parametrize("m", [quadrature.NODES_MIN + 1, 20, 24])
@pytest.mark.parametrize("edges", [(0.0, 0.7), (0.0, 0.1, 0.25, 0.7)],
                         ids=["one", "three"])
def test_panel_rule_integrates_polynomials_exactly(edges, m):
    # The prefix integral V_0 takes a polynomial of degree < m to its
    # integral from 0 to each node, across panel edges, and the tail row
    # integrates it over [0, s]. Applied a + 1 times, V_0 is the gap kernel
    # (t - u)^a / a!: V_0^(a+1) t^b = t^(a+b+1) b! / (a+b+1)!, exact while
    # every power it passes through has degree < m.
    rule = _rule(edges, m)
    tail = rule.tail_vector(1.0)
    for k in range(m):
        f = rule.t ** k
        assert np.abs(rule.prefix(0.0, f) - rule.t ** (k + 1) / (k + 1)).max() <= 1e-13
        assert abs(tail @ f - rule.s ** (k + 1) / (k + 1)) <= 1e-13
    for b in range(m):
        f = rule.t ** b
        for a in range(m - b):
            f = rule.prefix(0.0, f)
            exact = (rule.t ** (a + b + 1) * math.factorial(b)
                     / math.factorial(a + b + 1))
            assert np.abs(f - exact).max() <= 1e-13
    assert np.all(np.diff(rule.t) > 0.0)


@pytest.mark.parametrize("m", [quadrature.NODES_MIN + 1, 20, 24])
@pytest.mark.parametrize("rate", [0.5, 30.0, 3e3, 1e6])
def test_panel_rule_integrates_decay_exactly(rate, m):
    # The decay e^{-rate (t - u)} is integrated exactly against the panels'
    # interpolants, however fast: V_rate of u^a for a = 0, 1, relative to
    # its scale 1 / rate.
    rule = _rule((0.0, 0.1, 0.25, 0.7), m)
    t = rule.t
    fall = -np.expm1(-rate * t) / rate
    assert np.abs(rule.prefix(rate, np.ones_like(t)) - fall).max() * rate <= 1e-13
    assert np.abs(rule.prefix(rate, t) - (t - fall) / rate).max() * rate <= 1e-13


def _recurrence(a, b):
    """``C_0 = 0``, ``C_{p+1} = a_p C_p + b_p``, one panel at a time."""
    out = np.zeros_like(b)
    for p in range(len(a) - 1):
        out[p + 1] = a[p] * out[p] + b[p]
    return out


# Columns on both sides of the scan's switch from its Python loop to
# doubling, and decays that underflow to 0 within a few panels.
@pytest.mark.parametrize("panels,columns", [(1, 3), (2, 1), (19, 2), (19, 40),
                                            (200, 2), (801, 3)])
@pytest.mark.parametrize("decay", [0.3, 800.0])
def test_carry_scan_matches_the_recurrence(panels, columns, decay):
    rng = np.random.default_rng(panels * columns)
    a = np.exp(1j * rng.uniform(0.0, 7.0, panels) - decay * rng.random(panels))
    b = rng.normal(size=(panels, columns)) + 1j * rng.normal(size=(panels, columns))
    want = _recurrence(a, b)
    assert np.all(np.abs(quadrature._scan(a, b) - want)
                  <= 8 * panels.bit_length() * EPS * np.abs(b).sum(axis=0))


def test_non_finite_integrand_reports_point():
    # mu = 1e306 t: the low-order rule's bound of the heading's turn on
    # [0, 100] is not finite, and the error names the segment's end.
    profile = SpeedRatioProfile.polynomial((0.0, 1e306), s_max=100.0)
    with pytest.raises(IntegrandEvaluationError) as info:
        mean_x(profile, NoiseParams(0.1, 0.01), 100.0)
    assert info.value.point == (100.0,)


def test_invalid_arguments():
    profile = SpeedRatioProfile.constant(5.0, s_max=1.0)
    params = NoiseParams(0.3, 0.2)
    with pytest.raises(ValueError):
        displacement_moment(1, 1, profile, params, -1.0)
    with pytest.raises(ValueError):
        d4_moment(profile, params, -1.0)


# -- the tensor-rule oracle on its own terms --------------------------------------
#
# tensor_oracle's rule is the reference of the chain rule at every
# dimension and of the low-order statistics' knot-piece references. With
# no tensor rule left in the package to cross-check it, it is checked here
# at dimensions 1 to 5: from dimension 3 on a level has coordinate axes on
# both sides.

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


def _polynomial_kernel(ts):
    return (1.0 + ts[0]) ** 2


# Three kernels: the heading product, a cosine of the heading against t1,
# and a polynomial.
HEADING_KERNELS = (
    _heading_kernel,
    lambda ts: np.cos(mean_heading(TABLE_PROFILE, ts[-1]) - ts[0]),
    _polynomial_kernel,
)


def _assert_matches_oracle(got, want):
    (value, err), (ref, ref_err) = got, want
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
    # "stacked": the three kernels, in one call each and as one stack along
    # a leading axis. Each kernel's entry of the stack matches its own call
    # on both rules, and its two-call value and estimate.
    s = S_CASES[s_case]

    def stack(ts):
        return np.stack(np.broadcast_arrays(*(kernel(ts) for kernel in kernels)))

    rules = {n: one_rule(stack, beta, s, n) for n in (nodes, nodes + 2)}
    (coarse, _), (fine, magnitude) = rules[nodes], rules[nodes + 2]
    for i, kernel in enumerate(kernels):
        for n, (values, moduli) in rules.items():
            _assert_matches_oracle((values[i], moduli[i]),
                                   one_rule(kernel, beta, s, n))
        ref, difference, floor = two_call_rule(kernel, beta, s, nodes)
        estimate = abs(fine[i] - coarse[i]) + CHAIN_ROUNDOFF * magnitude[i]
        _assert_matches_oracle((fine[i], estimate), (ref, difference + floor))
    # Independently of the oracle's layout: at dimension 1 each rule is
    # numpy's Gauss-Legendre rule on [0, s], and the polynomial kernel is
    # exact where its degree in each collapsed coordinate (beta + 1 in the
    # outermost, with the jacobian) is at most 2 n - 1.
    for n, (values, _) in rules.items():
        if beta == 1:
            x, w = np.polynomial.legendre.leggauss(n)
            x, w = 0.5 * (x + 1.0), 0.5 * w
            gauss = [complex(np.sum(s * w * kernel((s * x,))))
                     for kernel in kernels]
            assert np.allclose(values, gauss, rtol=4 * EPS, atol=0.0)
        if _polynomial_kernel in kernels and beta + 1 <= 2 * n - 1:
            zeros = (0,) * (beta - 1)
            exact = float(sum(c * ordered_monomial_integral((k, *zeros), s)
                              for k, c in enumerate((1, 2, 1))))
            got = values[kernels.index(_polynomial_kernel)]
            assert got.real == pytest.approx(exact, rel=1e-13, abs=0.0)
            assert got.imag == 0.0


def _reference_weights(n):
    """40-digit Gauss-Legendre weights of [0, 1]: each node polished by
    Newton steps on mpmath's ``P_n``, then ``1 / ((1 - x^2) P_n'(x)^2)``."""
    import mpmath

    with mpmath.workdps(40):
        def derivative(x):
            return n * (x * mpmath.legendre(n, x) - mpmath.legendre(n - 1, x)) / (x * x - 1)

        weights = []
        for start in np.polynomial.legendre.leggauss(n)[0]:
            x = mpmath.mpf(start)
            for _ in range(3):
                x -= mpmath.legendre(n, x) / derivative(x)
            weights.append(1 / ((1 - x * x) * derivative(x) ** 2))
        return weights


@pytest.mark.parametrize("n", [2, 5, 18, 24, 30, 40, 41, 50, 64])
def test_gauss_weights_match_40_digits(n):
    # Within 4 n eps up to 40 nodes; beyond, at least 10x closer than
    # numpy's leggauss weights, which are off by 1e-13 at 24 nodes.
    import mpmath

    want = _reference_weights(n)

    def error(weights):
        return max(float(abs((mpmath.mpf(float(w)) - ref) / ref))
                   for w, ref in zip(weights, want))

    got = error(quadrature._gauss_unit(n)[1])
    if n <= 40:
        assert got <= 4 * n * EPS
    else:
        assert 10 * got <= error(0.5 * np.polynomial.legendre.leggauss(n)[1])


def _decay_weights_reference(m, rate):
    """``_decay_weights`` with its pieces built at every call, uncached, and
    summed one at a time in the same order."""
    x, w = quadrature._gauss_unit(m)
    ends = np.append(x, 1.0)
    cuts = [0.0, *(2.0 ** j / rate for j in range(7) if 2.0 ** j < rate), 1.0]
    px, pw = quadrature._gauss_unit(quadrature.PIECE_NODES)
    small = 0.0 < rate < 1.0
    out = None
    for lo, hi in zip(cuts, cuts[1:]):
        lo, hi = np.minimum(ends, lo), np.minimum(ends, hi)
        back = lo[:, None] + (hi - lo)[:, None] * px
        decay = (np.expm1 if small else np.exp)(-rate * back)
        diff = (ends[:, None] - back)[..., None] - x
        hit = diff == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            basis = (-1.0) ** np.arange(m) * np.sqrt(x * (1.0 - x) * w) / diff
            basis /= basis.sum(axis=-1, keepdims=True)
        rows = hit.any(axis=-1)
        basis[rows] = hit[rows]
        part = np.einsum("eq,eqk->ek", (hi - lo)[:, None] * pw * decay, basis)
        out = part if out is None else out + part
    if small:
        out += _decay_weights_reference(m, 0.0)
    return out


@pytest.mark.parametrize("m", [20, 24, 26])
def test_decay_weights_equal_uncached_pieces(m):
    # Up to rate 1 the pieces are built once per m; the weights must not
    # change by a bit. Just above HUGE_DECAY m^2 they are their limit
    # instead of built from pieces, within 4 eps of the pieces.
    rates = [0.0, 1.0, 3.0, 40.0,
             *(10.0 ** np.random.default_rng(m).uniform(-6.0, 0.0, 40)).tolist()]
    for rate in rates:
        for got, want in zip(quadrature._decay_weights(m, rate),
                             _decay_weights_reference(m, rate)):
            assert np.array_equal(got, want), rate
    huge = 1.01 * quadrature.HUGE_DECAY * m * m
    for got, want in zip(quadrature._decay_weights(m, huge),
                         _decay_weights_reference(m, huge)):
        assert np.all(np.abs(got - want) <= 4 * EPS * np.abs(want).max())


def test_decay_weights_build_one_piece_at_a_time():
    # At rate 60 the weights of 45 nodes run over seven pieces. Built one
    # at a time, they hold the basis values of one piece (46 ends, 24
    # points, 45 nodes) and a few arrays of its size, not those of all
    # seven at once.
    import tracemalloc

    quadrature._gauss_unit(45)
    quadrature._gauss_unit(quadrature.PIECE_NODES)
    tracemalloc.start()
    try:
        quadrature._decay_weights.__wrapped__(45, 60.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 46 * 24 * 45 * 8


def test_graded_panels_leave_numpy_ma_unimported(subprocess_env):
    # At K = 10 the decay grades the panels of mean_x and of <u^2>. Merging
    # the grading cuts must not import numpy.ma, as np.union1d's first call
    # does: 10-80 ms of every process's first graded rule.
    import subprocess
    import sys

    script = ("import sys; from brownian_unicycle import *; "
              "p = SpeedRatioProfile.constant(5.0); k = NoiseParams(10.0, 10.0); "
              "mean_x(p, k, 1.0); displacement_moment(2, 0, p, k, 1.0); "
              "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=subprocess_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
