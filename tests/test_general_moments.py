"""Combinatorial enumeration and the general moment engine."""

import cmath
import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brownian_unicycle import (AccuracyWarning, EnvelopeRefusal,
                               EnvelopeWarning, NoiseParams,
                               SpeedRatioProfile, TermKey, TermKeyError,
                               cartesian_moment, coefficient,
                               count_phase_step_vectors, cov_xtheta,
                               cov_ytheta, d2_closed, d4_closed, d4_moment,
                               deterministic_pose,
                               displacement_heading_moment,
                               displacement_moment, mean_squared_distance,
                               mean_heading,
                               phase_step_vectors, second_moments, term_keys,
                               theta_power_compositions)
from brownian_unicycle import fourth_moment, general_moments, quadrature
from brownian_unicycle.constant_ratio import _kernel_chain
from brownian_unicycle.general_moments import double_factorial
from brownian_unicycle.quadrature import integrate_chains
from tensor_oracle import (chain, gap_starts, operator, per_count,
                           two_call_rule)

CONST = SpeedRatioProfile.constant(5.0, theta0=0.0, s_max=1.0)
RAMP = SpeedRatioProfile.polynomial((0.0, 10.0), theta0=0.0, s_max=1.0)
TABLE = SpeedRatioProfile.table(
    [(i / 20, 5.0 + 3.0 * math.sin(2.0 * math.pi * i / 20)) for i in range(21)])


# ---------------------------------------------------------------------------
# coefficients and keys


def test_coefficient_unit_case():
    # All factors collapse to 1 for the mixed-pair key of the (1,1) moment.
    assert coefficient(TermKey(1, 1, 1, 1, 1)) == 1


def test_coefficient_double_pair_case():
    # Only the two single-sided factorials contribute: 2! * 2! = 4.
    assert coefficient(TermKey(2, 2, 0, 0, 0)) == 4


def test_invalid_key_rejected():
    with pytest.raises(TermKeyError):
        TermKey(2, 2, 2, 3, 0)
    with pytest.raises(TermKeyError):
        TermKey(2, 2, 1, 1, 0)  # m parity must match l
    with pytest.raises(TermKeyError):
        TermKey(1, 0, 1, 0, 0)  # 2n - l exceeds p


def test_term_keys_for_fourth_moment():
    keys = term_keys(2, 2)
    expected = [(0, 0, 0), (1, 0, 0), (1, 1, 1), (1, 2, 0), (2, 2, 0), (2, 2, 2)]
    assert [(k.n, k.l, k.m) for k in keys] == expected
    counts = [count_phase_step_vectors(k) for k in keys]
    assert counts == [6, 3, 2, 3, 2, 1]
    assert sum(counts) == 17


# ---------------------------------------------------------------------------
# phase-step vectors


def test_six_vectors_of_the_fourth_moment():
    vectors = phase_step_vectors(TermKey(2, 2, 0, 0, 0))
    assert vectors == [(-1, -1, 1, 1), (-1, 1, -1, 1), (-1, 1, 1, -1),
                       (1, -1, -1, 1), (1, -1, 1, -1), (1, 1, -1, -1)]


def test_all_multiplicities_present_once():
    key = TermKey(3, 3, 2, 2, 0)  # rho=1, sigma=1, eta=1, chi=1, beta=4
    vectors = phase_step_vectors(key)
    assert len(vectors) == 24
    assert len(set(vectors)) == 24
    for v in vectors:
        assert sorted(v) == [-2, -1, 1, 2]


def test_empty_dimension_yields_single_empty_vector():
    assert phase_step_vectors(TermKey(1, 1, 1, 1, 1)) == [()]


@given(p=st.integers(0, 3), q=st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_vector_counts_match_closed_formula_and_brute_force(p, q):
    for key in term_keys(p, q):
        vectors = phase_step_vectors(key)
        assert len(vectors) == count_phase_step_vectors(key)
        multiset = ([-2] * key.count_minus2 + [-1] * key.count_minus1
                    + [1] * key.count_plus1 + [2] * key.count_plus2)
        brute = sorted(set(itertools.permutations(multiset)))
        assert vectors == brute


def test_vector_counts_closed_formula_through_order_six():
    for p in range(7):
        for q in range(7 - p):
            for key in term_keys(p, q):
                assert len(phase_step_vectors(key)) == count_phase_step_vectors(key)


def test_prefix_sums_end_at_q_minus_p():
    for p, q in [(1, 1), (2, 2), (3, 1), (0, 4)]:
        for key in term_keys(p, q):
            for v in phase_step_vectors(key):
                assert sum(v) == q - p


# ---------------------------------------------------------------------------
# heading-power compositions


def test_compositions_zero_power():
    assert theta_power_compositions(0, 3) == [(0, 0, 0, 0)]


def test_compositions_examples():
    assert theta_power_compositions(1, 1) == [(1, 0)]
    assert theta_power_compositions(2, 0) == [(2,)]
    assert theta_power_compositions(1, 0) == []


@given(r=st.integers(0, 5), beta=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_compositions_brute_force(r, beta):
    got = theta_power_compositions(r, beta)
    brute = [c for c in itertools.product(range(r + 1), repeat=beta + 1)
             if sum(c) == r and c[-1] % 2 == 0]
    assert got == sorted(brute)
    assert got == brute  # already lexicographic


def test_composition_count_equals_enumeration():
    for r in range(9):
        for beta in range(10):
            assert general_moments._count_theta_power_compositions(r, beta) \
                == len(theta_power_compositions(r, beta)), (r, beta)


# ---------------------------------------------------------------------------
# moment values


def test_zeroth_moment_is_one():
    res = displacement_moment(0, 0, CONST, NoiseParams(0.3, 0.7), 1.0)
    assert res.value == 1.0 + 0.0j
    assert res.terms_evaluated == 1


def test_first_reference_value():
    res = displacement_moment(1, 1, CONST, NoiseParams(0.01, 0.01), 1.0)
    assert res.value.real == pytest.approx(0.0680, abs=5e-4)
    assert abs(res.value.imag) < 1e-12


def test_term_bookkeeping_fourth_moment():
    res = displacement_moment(2, 2, CONST, NoiseParams(0.01, 0.01), 1.0)
    assert res.terms_evaluated == 17


def test_heading_variance_moment_exact():
    params = NoiseParams(0.3, 0.7)
    res = displacement_heading_moment(0, 0, 2, CONST, params, 1.0)
    assert res.value.real == params.k_theta * 1.0
    assert res.value.imag == 0.0
    res = displacement_heading_moment(0, 0, 2, CONST, params, 0.25)
    assert res.value.real == pytest.approx(params.k_theta * 0.25, rel=1e-15)


def test_odd_heading_moment_vanishes():
    res = displacement_heading_moment(0, 0, 1, CONST, NoiseParams(0.3, 0.7), 1.0)
    assert res.value == 0.0 + 0.0j


def test_mixed_heading_moment_matches_covariances():
    params = NoiseParams(0.0, 0.01)
    res = displacement_heading_moment(1, 0, 1, CONST, params, 1.0)
    assert res.value.real == pytest.approx(cov_xtheta(CONST, params, 1.0), rel=1e-8)
    assert res.value.imag == pytest.approx(cov_ytheta(CONST, params, 1.0), rel=1e-8)


@pytest.mark.parametrize("p,q", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
def test_conjugation_symmetry(p, q):
    params = NoiseParams(0.2, 0.3)
    a = displacement_moment(p, q, RAMP, params, 1.0).value
    b = displacement_moment(q, p, RAMP, params, 1.0).value
    assert a.real == pytest.approx(b.real, rel=1e-10, abs=1e-13)
    assert a.imag == pytest.approx(-b.imag, rel=1e-10, abs=1e-13)


def test_diagonal_moments_are_real():
    params = NoiseParams(0.2, 0.3)
    for p in (1, 2):
        value = displacement_moment(p, p, RAMP, params, 1.0).value
        assert abs(value.imag) <= 1e-10 * abs(value.real)


@pytest.mark.parametrize("profile", [CONST, RAMP])
def test_noise_free_limit_reduces_to_deterministic_powers(profile):
    params = NoiseParams(0.0, 0.0)
    x, y, _ = deterministic_pose(profile, 1.0)
    z = complex(x, y)
    for p, q in [(1, 0), (2, 0), (2, 1), (2, 2)]:
        res = displacement_moment(p, q, profile, params, 1.0)
        expected = z ** p * z.conjugate() ** q
        assert res.value.real == pytest.approx(expected.real, rel=1e-8, abs=1e-10)
        assert res.value.imag == pytest.approx(expected.imag, rel=1e-8, abs=1e-10)


def test_theta0_phase_carried_by_moments():
    shifted = SpeedRatioProfile.constant(5.0, theta0=0.4, s_max=1.0)
    params = NoiseParams(0.1, 0.2)
    base = displacement_moment(2, 1, CONST, params, 1.0).value
    rot = displacement_moment(2, 1, shifted, params, 1.0).value
    assert rot == pytest.approx(base * np.exp(1j * 0.4), rel=1e-9)


# ---------------------------------------------------------------------------
# cartesian assembly


def test_cartesian_trivial():
    assert cartesian_moment(0, 0, 0, CONST, NoiseParams(0.1, 0.1), 1.0) == 1.0


def test_cartesian_matches_second_moments():
    shifted = SpeedRatioProfile.constant(5.0, theta0=0.4, s_max=1.0)
    params = NoiseParams(0.05, 0.02)
    m_xx, m_yy, m_xy = second_moments(shifted, params, 1.0)
    assert cartesian_moment(2, 0, 0, shifted, params, 1.0) == pytest.approx(m_xx, rel=1e-8)
    assert cartesian_moment(0, 2, 0, shifted, params, 1.0) == pytest.approx(m_yy, rel=1e-8)
    assert cartesian_moment(1, 1, 0, shifted, params, 1.0) == pytest.approx(m_xy, rel=1e-8)


def test_cartesian_exact_zero_does_not_false_alarm():
    # <x y> vanishes identically on the straight line; the imaginary-residue
    # check must not trip on a 0/0 comparison.
    prof = SpeedRatioProfile.constant(0.0, s_max=1.0)
    value = cartesian_moment(1, 1, 0, prof, NoiseParams(0.1, 0.3), 1.0)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_cartesian_distance_identity():
    params = NoiseParams(0.3, 0.4)
    d2 = mean_squared_distance(RAMP, params, 1.0)
    total = (cartesian_moment(2, 0, 0, RAMP, params, 1.0)
             + cartesian_moment(0, 2, 0, RAMP, params, 1.0))
    assert total == pytest.approx(d2, rel=1e-9)


@pytest.mark.parametrize("i,j,k", [(2, 2, 0), (1, 2, 1)])
def test_cartesian_mirrors_conjugate_moments(monkeypatch, i, j, k):
    # Reference: the binomial loop with one moment per (a, b).
    params = NoiseParams(0.3, 0.4)
    pref = 0.5 ** (i + j) * (-1j) ** j
    loop = sum(pref * math.comb(i, a) * math.comb(j, b) * (-1) ** (j - b)
               * displacement_heading_moment(a + b, i + j - a - b, k, RAMP,
                                             params, 1.0).value
               for a in range(i + 1) for b in range(j + 1))
    calls = []
    moment = general_moments.displacement_heading_moment

    def counting(p, q, r, *args):
        calls.append((p, q, r))
        return moment(p, q, r, *args)

    monkeypatch.setattr(general_moments, "displacement_heading_moment", counting)
    value = cartesian_moment(i, j, k, RAMP, params, 1.0)
    assert abs(value - loop.real) <= 1e-13 * abs(loop)
    power = i + j
    assert sorted(calls) == [(p, power - p, k)
                             for p in range((power + 1) // 2, power + 1)]


def test_envelope_warning():
    params = NoiseParams(0.0, 0.1)
    tiny = SpeedRatioProfile.constant(1.0, s_max=0.01)
    with pytest.warns(EnvelopeWarning):
        displacement_heading_moment(0, 0, 5, tiny, params, 0.01)


def test_negative_orders_rejected():
    with pytest.raises(ValueError):
        displacement_moment(-1, 0, CONST, NoiseParams(0.1, 0.1), 1.0)
    with pytest.raises(ValueError):
        cartesian_moment(0, -1, 0, CONST, NoiseParams(0.1, 0.1), 1.0)


# ---------------------------------------------------------------------------
# the chain engine against independent oracles


def _phase_weights(p, q, c):
    """Running phase weights ``p - q + (partial sum of c)`` before each step
    but the last: the weights of a chain's ``len(c)`` gaps."""
    if not c:
        return ()
    return tuple(itertools.accumulate(c[:-1], initial=p - q))


def _sampled_factors(rule, profile, kt):
    """``factor(w, g, inner)``: the gap factor of weight ``w`` and fluctuation
    power ``g`` on ``rule``, of the first gap (``0 -> t_j``) or an inner one
    (``u_jk -> t_j``), sampled from its definition with the Gaussian moments
    in the per-sample form ``dt^(g/2) * sum_a c_a (i w sqrt(k_theta
    dt))^(g-2a)``; one array per argument triple. The roots are taken in
    complex arithmetic: inside a panel the rule reads a factor at negative
    gaps, where it continues analytically."""
    u = gap_starts(rule)
    th_t = mean_heading(profile, rule.t)
    th_u = mean_heading(profile, u)
    gaps = ((th_t - profile.theta0, rule.t),
            (th_t[:, None] - th_u, rule.t[:, None] - u))

    @functools.lru_cache(maxsize=None)
    def factor(w, g, inner):
        dtheta, dt = gaps[inner]
        herm = sum(math.factorial(g)
                   // (math.factorial(a) * math.factorial(g - 2 * a) * 2 ** a)
                   * (1j * w * np.sqrt(kt * dt + 0j)) ** (g - 2 * a)
                   for a in range(g // 2 + 1))
        return (np.exp(1j * w * dtheta - 0.5 * w * w * kt * dt)
                * (dt + 0j) ** (0.5 * g) * herm)

    return factor


def _rule_chain(rule, factor, weights, gamma, build=None):
    """One term's nested integral on ``rule``, through the oracle's dense
    operators (``build``, as for :func:`tensor_oracle.chain`)."""
    return chain(rule, factor(weights[0], gamma[0], False),
                 [factor(w, g, True) for w, g in zip(weights[1:], gamma[1:-1])],
                 (rule.s - rule.t) ** (gamma[-1] // 2), build)


def _gap_chain(profile, params, s, weights, gamma):
    """One term's nested integral on the refined chain rule, on the panels
    of its largest phase weight and its dimension."""
    def evaluate(rule):
        factor = _sampled_factors(rule, profile, params.k_theta)
        return np.array([_rule_chain(rule, factor, weights, gamma)])
    at = quadrature.panels(profile, s, params.k_theta, max(map(abs, weights)),
                           len(weights))
    return integrate_chains(per_count(evaluate), [1.0], at)


def _tensor_term(profile, params, s, weights, gamma):
    """The same term on the tensor-rule oracle, with each gap's Gaussian
    moments in the per-sample form ``dt^(g/2) * sum_a c_a (i w sqrt(k_theta
    dt))^(g-2a)``; the estimate is the oracle's coarse/fine difference,
    without its roundoff floor."""
    kt = params.k_theta

    def f(ts):
        out = np.maximum(s - ts[-1], 0.0) ** (gamma[-1] // 2)
        t_prev, th_prev = 0.0, profile.theta0
        for w, g, t in zip(weights, gamma, ts):
            th = mean_heading(profile, t)
            dt = np.maximum(t - t_prev, 0.0)
            herm = sum(math.factorial(g)
                       // (math.factorial(a) * math.factorial(g - 2 * a) * 2 ** a)
                       * (1j * w * np.sqrt(kt * dt)) ** (g - 2 * a)
                       for a in range(g // 2 + 1))
            out = out * (np.exp(1j * w * (th - th_prev) - 0.5 * w * w * kt * dt)
                         * dt ** (0.5 * g) * herm)
            t_prev, th_prev = t, th
        return out

    value, difference, _ = two_call_rule(f, len(weights), s, 24)
    return value, difference


def _exact_term(mu0, k, s, weights):
    """Heading-power-free term for ``mu = mu0``, ``theta0 = 0``: the gap factor
    is ``exp(lam_b (t_b - t_{b-1}))``, so the point rates are
    ``lam_b - lam_{b+1}`` with ``lam_{beta+1} = 0``."""
    lam = [complex(-0.5 * w * w * k, w * mu0) for w in weights] + [0j]
    return _kernel_chain([lam[b] - lam[b + 1] for b in range(len(weights))], s)(s)


def _exact_moment(p, q, mu0, k, s):
    """``<u^p w^q>`` for ``mu = mu0``, ``k_r = k_theta = k``, by exact chains."""
    total = 0j
    for key in term_keys(p, q):
        base = k ** key.n * coefficient(key) * s ** key.m
        for c in phase_step_vectors(key):
            weights = _phase_weights(p, q, c)
            total += base * (_exact_term(mu0, k, s, weights) if weights else 1.0)
    return total


@pytest.mark.parametrize("profile", [CONST, RAMP], ids=["const", "ramp"])
@pytest.mark.parametrize("weights,gamma", [
    ((1,), (0, 0)),
    ((1,), (1, 2)),
    ((0, -1), (2, 0, 0)),
    ((1, 2, 1), (0, 1, 0, 2)),
    ((2, 1, -1, 1), (1, 0, 1, 0, 2)),
    pytest.param((2, 1, 0, -1, -2), (0, 0, 0, 0, 0, 0),
                 marks=pytest.mark.slow),
    pytest.param((1, -1, 1, 0, -1), (0, 2, 0, 0, 1, 0),
                 marks=pytest.mark.slow),
])
def test_chain_matches_tensor_rule(profile, weights, gamma):
    params = NoiseParams(0.5, 0.5)
    ref, ref_err = _tensor_term(profile, params, 0.9, weights, gamma)
    value, err = _gap_chain(profile, params, 0.9, weights, gamma)
    assert ref_err <= 1e-13 * abs(ref)
    assert abs(value - ref) <= 1e-12 * abs(ref)


@pytest.mark.filterwarnings("ignore::brownian_unicycle.EnvelopeWarning")
@pytest.mark.parametrize("p,q", [(6, 0), (4, 3), (5, 3), (3, 6), (10, 0)])
@pytest.mark.parametrize("k", [0.01, 1.0])
def test_chain_matches_exact_chain_beyond_dimension_five(p, q, k):
    # Terms of dimension p + q - n - m: every dimension from 6 to 10 occurs.
    profile = SpeedRatioProfile.constant(5.0, s_max=1.0)
    params = NoiseParams(k, k)
    for key in term_keys(p, q):
        if key.dimension < 6:
            continue
        vectors = phase_step_vectors(key)
        for c in (vectors[0], vectors[-1]):
            weights = _phase_weights(p, q, c)
            exact = _exact_term(5.0, k, 1.0, weights)
            # The integral of the modulus: the rotation can cancel a chain to
            # far below it, and roundoff scales with it.
            modulus = _exact_term(0.0, k, 1.0, weights).real
            value, _ = _gap_chain(profile, params, 1.0, weights,
                                  (0,) * (len(weights) + 1))
            assert abs(value - exact) <= 1e-12 * abs(exact) + 1e-16 * modulus, \
                (key, c)
    res = displacement_moment(p, q, profile, params, 1.0)
    assert abs(res.value - _exact_moment(p, q, 5.0, k, 1.0)) <= res.err_estimate


def test_six_zero_zero_small_noise_within_error_estimate():
    profile = SpeedRatioProfile.constant(5.0, s_max=1.0)
    for s in (0.9, 0.95, 1.0):
        params = NoiseParams(0.01, 0.01)
        res = displacement_moment(6, 0, profile, params, s)
        exact = _exact_moment(6, 0, 5.0, 0.01, s)
        assert abs(res.value - exact) <= res.err_estimate
        assert res.err_estimate <= 1e-12 * abs(exact)


@pytest.mark.parametrize("k", [0.01, 1.0])
def test_refinement_error_estimate_fast_rotation(monkeypatch, k):
    # At mu0 = 40 the running phases of <u^6> turn by up to 240 rad over
    # the unit length, up to 38 rad on a panel (one per 2 pi of heading).
    # With a third of the nodes per unit of that phase the first pair
    # disagrees, so the panels must be halved.
    panel_counts = set()
    rule = quadrature.ChainRule

    def spy(start, width, m):
        panel_counts.add(width.size)
        return rule(start, width, m)

    monkeypatch.setattr(quadrature, "ChainRule", spy)
    monkeypatch.setattr(quadrature, "NODES_PER_RATE",
                        quadrature.NODES_PER_RATE / 3)
    profile = SpeedRatioProfile.constant(40.0, s_max=1.0)
    res = displacement_moment(6, 0, profile, NoiseParams(k, k), 1.0)
    exact = _exact_moment(6, 0, 40.0, k, 1.0)
    assert max(panel_counts) > min(panel_counts)
    assert abs(res.value - exact) <= res.err_estimate
    assert res.err_estimate <= 1e-9 * abs(exact)


def _table_d2_reference(profile, k, s):
    """``<D^2>`` with one Gauss rule per pair of table panels: the heading is
    smooth inside a panel, so this converges spectrally."""
    x, w = np.polynomial.legendre.leggauss(40)
    x, w = 0.5 * (x + 1.0), 0.5 * w

    def kernel(t1, t2):
        dth = mean_heading(profile, t2) - mean_heading(profile, t1)
        return np.exp(-0.5 * k * (t2 - t1)) * np.cos(dth)

    knots = [t for t in profile.knots_s if t < s] + [s]
    acc = 0.0
    for i in range(len(knots) - 1):
        a, b = knots[i], knots[i + 1]
        t1, w1 = a + (b - a) * x, (b - a) * w
        # t1 <= t2 inside panel i, then t2 in every later panel.
        t2 = t1[:, None] + (b - t1[:, None]) * x[None, :]
        acc += (kernel(t1[:, None], t2) * w1[:, None] * (b - t1[:, None]) * w).sum()
        for j in range(i + 1, len(knots) - 1):
            c, d = knots[j], knots[j + 1]
            acc += w1 @ kernel(t1[:, None], c + (d - c) * x[None, :]) @ ((d - c) * w)
    return k * s + 2.0 * acc


def test_error_estimate_bounds_true_error_on_table_profile():
    # The table heading is only continuously differentiable, at the knots;
    # the panels end there, so convergence stays spectral.
    table = SpeedRatioProfile.table(
        [(i / 20, 5.0 + 3.0 * math.sin(2.0 * math.pi * i / 20)) for i in range(21)])
    for k, s in ((0.5, 1.0), (0.01, 0.83)):
        res = displacement_moment(1, 1, table, NoiseParams(k, k), s)
        ref = _table_d2_reference(table, k, s)
        assert abs(res.value - ref) <= res.err_estimate
        assert abs(res.value - ref) <= 1e-12 * ref
        assert res.err_estimate <= 1e-6 * ref


@pytest.mark.parametrize("s", [20.0, 50.0, 100.0])
def test_long_curves_match_closed_forms(s):
    # 100, 250 and 500 rad of turning at mu0 = 5: the panels are cut after
    # every 2 pi of heading, so the turning costs no digits.
    params = NoiseParams(0.01, 0.01)
    profile = SpeedRatioProfile.constant(5.0, s_max=s)
    d4 = d4_closed(5.0, params, s)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        pairs = ((displacement_moment(2, 2, profile, params, s).value, d4),
                 (d4_moment(profile, params, s), d4),
                 (displacement_moment(1, 1, profile, params, s).value,
                  d2_closed(5.0, params, s)))
    for value, exact in pairs:
        assert abs(value - exact) <= 1e-12 * exact


@pytest.mark.parametrize("s", [200.0, 1000.0])
def test_curves_past_the_old_node_cap_converge(s):
    # 1000 and 5000 rad of turning at mu0 = 5: 160 and 800 panels, which
    # the dense operators refused past 1600 nodes. The prefix carry costs
    # O(n) memory, so the rule keeps its panels and converges.
    params = NoiseParams(0.01, 0.01)
    profile = SpeedRatioProfile.constant(5.0, s_max=s)
    d4 = d4_closed(5.0, params, s)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        pairs = ((displacement_moment(2, 2, profile, params, s).value, d4),
                 (d4_moment(profile, params, s), d4),
                 (displacement_moment(1, 1, profile, params, s).value,
                  d2_closed(5.0, params, s)))
    for value, exact in pairs:
        assert abs(value - exact) <= 1e-11 * exact


def test_node_values_past_the_budget_are_refused():
    # <u^4 w^4 theta~^4> holds 5.8 kB of node values a node; at mu0 = 5 and
    # s = 2000 its first pair would need 0.3 GB of them.
    profile = SpeedRatioProfile.constant(5.0, s_max=2000.0)
    with pytest.raises(EnvelopeRefusal, match="driven by s"):
        displacement_heading_moment(4, 4, 4, profile, NoiseParams(0.01, 0.01),
                                    2000.0)


@pytest.mark.parametrize("k", [1e50, 1e100, 1e300])
def test_huge_heading_noise_is_right_or_refused(k):
    # The heading decorrelates at once: <u^2> tends to k_r s / 2 = 0.5 at
    # k_r = k_theta = k, within O(1 / k), and <D^4> to its constant class
    # 2 k_r^2 s^2 at k_r = 1. The decay grading that resolves the layer
    # near 0 takes log2(k) panels, and the O(n) carry keeps them all: a
    # refusal fails, like a value outside its estimate.
    res = displacement_moment(2, 0, CONST, NoiseParams(k, k), 1.0)
    assert abs(res.value - 0.5) <= res.err_estimate
    assert abs(d4_moment(CONST, NoiseParams(1.0, k), 1.0) - 2.0) <= 1e-9 * 2.0


@pytest.mark.parametrize("p,q", [(8, 0), (6, 0), (5, 3)])
def test_fast_decay_matches_50_digits(p, q):
    # At k_theta = 100 a gap of weight 8 decays like e^{-3200 dt}: read at a
    # negative gap it would overflow, and a rule that samples it must
    # resolve a layer 3e-4 wide at every node.
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        res = displacement_moment(p, q, CONST, NoiseParams(100.0, 100.0), 1.0)
    exact = _exact_moment_50(p, q, 5.0, 100.0, 1.0)
    assert abs(res.value - exact) <= max(res.err_estimate, 1e-12 * abs(exact))
    assert res.err_estimate <= 1e-12 * abs(exact)


@pytest.mark.parametrize("profile", [CONST, RAMP], ids=["const", "ramp"])
@pytest.mark.parametrize("k", [100.0, 1000.0])
def test_fast_decay_with_heading_power_converges(profile, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        res = displacement_heading_moment(8, 0, 4, profile, NoiseParams(k, k),
                                          1.0)
    assert np.isfinite(res.value)
    assert res.err_estimate <= 1e-9 * abs(res.value)


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE],
                         ids=["const", "ramp", "table"])
def test_smooth_profiles_meet_rel_tol_without_warning(profile):
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        res = displacement_moment(2, 2, profile, NoiseParams(1.0, 1.0), 1.0)
    assert res.err_estimate <= 1e-9 * abs(res.value)


def test_one_operator_per_gap_factor_and_rule(monkeypatch):
    builds = []
    carry = quadrature.PrefixCarry

    def spy(width, m, rate):
        builds.append((width.size, m, rate))
        return carry(width, m, rate)

    monkeypatch.setattr(quadrature, "PrefixCarry", spy)
    displacement_moment(4, 4, RAMP, NoiseParams(1.0, 1.0), 1.0)
    # Every gap after the first applies the prefix integral of its decay
    # w^2 k_theta / 2: one weight build per |w|, on the one rule that
    # stacks both node counts of the first pair.
    inner = {abs(w) for key in term_keys(4, 4) for c in phase_step_vectors(key)
             for w in _phase_weights(4, 4, c)[1:]}
    # The first pair of the builder's panels converges.
    walk = general_moments._plan(4, 4, 0).walk
    at = quadrature.panels(RAMP, 1.0, 1.0, walk.largest_weight, walk.dimension)
    counts = (at.m, at.m + quadrature.ESTIMATE_STEP)
    assert sorted(builds) == sorted((at.width.size, counts, 0.5 * w * w)
                                    for w in inner)


@pytest.mark.parametrize("profile", [RAMP, TABLE], ids=["ramp", "table"])
def test_heading_sampled_at_nodes_only(monkeypatch, profile):
    # The gap factors split at the nodes: the heading enters the operators
    # through node vectors, never through an (n, n) array of node pairs.
    shapes = []

    def spy(prof, s):
        shapes.append(np.shape(s))
        return mean_heading(prof, s)

    monkeypatch.setattr(general_moments, "mean_heading", spy)
    params = NoiseParams(0.5, 0.7)
    displacement_heading_moment(2, 2, 2, profile, params, 0.9)
    d4_moment(profile, params, 0.9)
    assert shapes
    assert all(len(shape) == 1 for shape in shapes), shapes


def test_memory_grows_linearly_with_the_nodes():
    # <u^2 w^2> on constant mu0 = 5 at K = 0.01: the panels, and so the
    # nodes, grow in proportion to s. Every array an evaluation holds is
    # O(n) (node values, panel weights, the carry), so four times the
    # curve may take about four times the memory; n x n operators would
    # take 16 times.
    import tracemalloc

    params = NoiseParams(0.01, 0.01)
    peaks = []
    for s in (250.0, 1000.0):
        profile = SpeedRatioProfile.constant(5.0, s_max=s)
        displacement_heading_moment(2, 2, 0, profile, params, s)
        tracemalloc.start()
        try:
            displacement_heading_moment(2, 2, 0, profile, params, s)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 5 * peaks[0]


def test_repeated_calls_bit_identical():
    params = NoiseParams(0.2, 0.3)
    for profile in (CONST, RAMP):
        a = displacement_heading_moment(3, 1, 1, profile, params, 0.9)
        b = displacement_heading_moment(3, 1, 1, profile, params, 0.9)
        assert a == b


# ---------------------------------------------------------------------------
# the lattice walk against the enumerated chains


@pytest.mark.parametrize("p", range(9))
def test_terms_evaluated_counts_the_enumeration(p):
    # Zero noise leaves only the n = 0 keys at r = 0 to integrate; the count
    # does not depend on the values.
    for q in range(9 - p):
        for r in range(5):
            brute = sum(len(theta_power_compositions(r, key.dimension))
                        for key in term_keys(p, q)
                        for _ in phase_step_vectors(key))
            res = displacement_heading_moment(p, q, r, CONST,
                                              NoiseParams(0.0, 0.0), 0.5)
            assert res.terms_evaluated == brute, (p, q, r)


def _chain_by_chain(p, q, r, profile, params, s):
    """``<u^p w^q theta~^r>`` with every enumerated chain summed on its own
    through the oracle's dense operators, its factors sampled directly, on
    the panels the walk uses."""
    kr, kt = params.k_r, params.k_theta
    phase0 = cmath.exp(1j * (p - q) * profile.theta0)
    total, scales, chains = 0j, [], []
    for key in term_keys(p, q):
        base = kr ** key.n * coefficient(key) * s ** key.m * phase0
        for c in phase_step_vectors(key):
            for gamma in theta_power_compositions(r, key.dimension):
                scale = (base * math.factorial(r) * double_factorial(gamma[-1] - 1)
                         * kt ** (0.5 * r) / math.prod(map(math.factorial, gamma)))
                if c:
                    scales.append(scale)
                    chains.append((_phase_weights(p, q, c), gamma))
                else:
                    total += scale * s ** (gamma[-1] // 2)

    def evaluate(rule):
        # One operator per sampled kernel, shared by the chains that read it.
        factor = _sampled_factors(rule, profile, kt)
        built = {}

        def build(kernel):
            if id(kernel) not in built:
                built[id(kernel)] = operator(rule, kernel)
            return built[id(kernel)]

        return np.array([_rule_chain(rule, factor, *chain, build)
                         for chain in chains])

    walk = general_moments._plan(p, q, r).walk
    at = quadrature.panels(profile, s, kt, walk.largest_weight, walk.dimension)
    value, _ = integrate_chains(per_count(evaluate), scales, at)
    return total + value


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE],
                         ids=["const", "ramp", "table"])
@pytest.mark.parametrize("p,q,r", [(3, 1, 1), (2, 2, 2), (3, 3, 2), (2, 2, 4)])
def test_walk_matches_chains_one_by_one(profile, p, q, r):
    params = NoiseParams(0.5, 0.7)
    res = displacement_heading_moment(p, q, r, profile, params, 0.9)
    ref = _chain_by_chain(p, q, r, profile, params, 0.9)
    assert abs(res.value - ref) <= 1e-13 * abs(ref)


def _two_call_loop(evaluate, scales, panels, node_bytes=16):
    """``integrate_chains`` as it ran with ``evaluate`` called once per rule,
    the coarse rule of the first pair on its own: its value, its estimate
    and the panel counts of its rules."""
    scales = np.asarray(scales)
    cap = quadrature.MAX_NODE_BYTES // node_bytes
    start, width = panels.start, panels.width
    fine_m = panels.m + quadrature.ESTIMATE_STEP
    sizes = []

    def total(rule):
        sizes.append(rule.width.size)
        terms = scales * evaluate(rule)[0]
        return complex(terms.sum()), float(np.abs(terms).sum())

    coarse, _ = total(quadrature.ChainRule(start, width, panels.m))
    while True:
        fine, magnitude = total(quadrature.ChainRule(start, width, fine_m))
        diff = abs(fine - coarse)
        floor = quadrature.CHAIN_ROUNDOFF * magnitude
        if diff <= max(quadrature.REL_TOL * abs(fine), floor):
            return fine, diff + floor, sizes
        if (2 * fine_m * width.size > cap
                or 2 * width.size > quadrature.MAX_PANELS):
            return fine, diff + floor, sizes
        width = np.repeat(0.5 * width, 2)
        start = np.column_stack((start, start + width[::2])).ravel()
        coarse = fine


@pytest.mark.parametrize("moment,profile,halves", [
    *[pytest.param(moment, profile, False, id=f"{name}-{label}")
      for moment, name in (((2, 2, 2), "222"), ((4, 4, 4), "444"),
                           ("d4", "d4"))
      for profile, label in ((CONST, "const"), (RAMP, "ramp"),
                             (TABLE, "table"))],
    pytest.param((6, 0, 0), SpeedRatioProfile.constant(40.0, s_max=1.0), True,
                 id="600-halved")])
def test_stacked_rule_changes_no_bit(monkeypatch, moment, profile, halves):
    # Each count of the stacked first pair evaluates to the bits of its own
    # one-count rule, and integrate_chains returns what the loop that
    # evaluated one rule at a time returned, also when it halves the panels
    # (a third of the nodes per unit of phase, as in
    # test_refinement_error_estimate_fast_rotation).
    if halves:
        monkeypatch.setattr(quadrature, "NODES_PER_RATE",
                            quadrature.NODES_PER_RATE / 3)
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return integrate_chains(*args, **kwargs)

    params = NoiseParams(0.5, 0.7)
    if moment == "d4":
        monkeypatch.setattr(fourth_moment, "integrate_chains", spy)
        d4_moment(profile, params, 0.9)
    else:
        monkeypatch.setattr(general_moments, "integrate_chains", spy)
        displacement_heading_moment(*moment, profile, params, 0.9)
    ((evaluate, scales, at, *rest), kwargs), = calls
    counts = (at.m, at.m + quadrature.ESTIMATE_STEP)
    stacked = evaluate(quadrature.ChainRule(at.start, at.width, counts))
    assert stacked.shape == (2, len(scales))
    for row, m in zip(stacked, counts):
        one = evaluate(quadrature.ChainRule(at.start, at.width, m))
        assert np.array_equal(row, one[0])
    value, err, sizes = _two_call_loop(evaluate, scales, at, *rest, **kwargs)
    assert (integrate_chains(evaluate, scales, at, *rest, **kwargs)
            == (value, err))
    assert (max(sizes) > min(sizes)) == halves


@pytest.mark.parametrize("p,q,r,profile", [
    pytest.param(*order, profile, id="-".join(map(str, order)) + suffix)
    for profile, suffix in ((RAMP, ""), (TABLE, "-table"))
    for order in ((4, 4, 4), (5, 3, 4), (8, 0, 4))])
def test_envelope_corners_meet_rel_tol(p, q, r, profile):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = displacement_heading_moment(p, q, r, profile, NoiseParams(1.0, 1.0), 1.0)
    assert res.err_estimate <= 1e-9 * abs(res.value)


#: ``(profile, K, (p, q, r), value, err_estimate)`` at ``s = 0.95`` with
#: ``k_r = k_theta = K``: the benchmark's ``moments`` orders on its three
#: cases, and two envelope corners on the ramp. Recorded from the walk on
#: the prefix carry; each value is within 1e-15 relative of the one the
#: dense operators recorded before it (the one-panel values at ``r = 0``
#: are unchanged) and within its estimate of it, and each constant-ratio
#: value at ``r = 0`` within its estimate of ``_exact_moment_50``.
PINNED_MOMENTS = [
    ("constant", 0.01, (1, 1, 0),
     (0.08704498017325131+0j), 1.1227030571499381e-14),
    ("constant", 0.01, (2, 0, 0),
     (0.0017563167320981277-0.074723255119171j), 1.3083668347137762e-15),
    ("constant", 0.01, (2, 2, 0),
     (0.008994621728495822+0j), 7.356164119966015e-15),
    ("constant", 0.01, (3, 1, 1),
     (7.047503439006146e-05+0.00018992756286815874j), 9.947746613283695e-18),
    ("constant", 0.01, (2, 2, 2),
     (8.929110058651874e-05+0j), 2.8072026075803564e-15),
    ("constant", 0.01, (5, 0, 0),
     (0.0008805315877029918-0.00088048556445354j), 9.644444789934659e-17),
    ("constant", 0.01, (6, 0, 0),
     (7.791828295462328e-06+0.00029848168889031455j), 4.0645568574115334e-17),
    ("constant", 1.0, (1, 1, 0),
     (1.0731948770275213+0j), 6.762572470261957e-13),
    ("constant", 1.0, (2, 0, 0),
     (-0.027571007715907318+0.07539260423654101j), 3.1966731794544133e-15),
    ("constant", 1.0, (2, 2, 0),
     (2.3668647177787383+0j), 5.392111749654371e-13),
    ("constant", 1.0, (3, 1, 1),
     (0.10892292531431041-0.062034219901237225j), 6.887699408176106e-15),
    ("constant", 1.0, (2, 2, 2),
     (2.557934654004409+0j), 2.312645533094905e-12),
    ("constant", 1.0, (5, 0, 0),
     (-0.0042547576894451595-0.03111915423079386j), 8.872629937014975e-16),
    ("constant", 1.0, (6, 0, 0),
     (0.005042853696090576-0.015310757343386935j), 7.57102512109146e-16),
    ("ramp", 1.0, (1, 1, 0),
     (1.114516869135723+0j), 3.5402574256692786e-14),
    ("ramp", 1.0, (2, 0, 0),
     (0.18140322584329993+0.229417090932299j), 4.892491755772481e-15),
    ("ramp", 1.0, (2, 2, 0),
     (2.6401931415338797+0j), 3.4603916624547945e-14),
    ("ramp", 1.0, (3, 1, 1),
     (-0.41061124582967523-0.1295745504874171j), 9.457850715021403e-15),
    ("ramp", 1.0, (2, 2, 2),
     (2.778210269277703+0j), 4.647830406901052e-14),
    ("ramp", 1.0, (5, 0, 0),
     (-0.04581832035632898+0.1663298755452648j), 2.836755266340747e-15),
    ("ramp", 1.0, (6, 0, 0),
     (-0.053069761698881696+0.15470130346607547j), 2.8944139049431635e-15),
    ("ramp", 1.0, (4, 4, 4),
     (219.67117730372348-3.3306690738754696e-15j), 1.4009221104303321e-11),
    ("ramp", 1.0, (8, 0, 4),
     (0.8605065573265109+0.2618174569614163j), 3.361174271513174e-14),
]


# Named without the recorded figures, so that a re-recording keeps the names.
@pytest.mark.parametrize(
    "label,k,order,value,err", PINNED_MOMENTS,
    ids=["{}-{}-{}-{}-{}".format(label, k, *order)
         for label, k, order, *_ in PINNED_MOMENTS])
def test_moments_bit_identical_to_recorded(label, k, order, value, err):
    profile = CONST if label == "constant" else RAMP
    res = displacement_heading_moment(*order, profile, NoiseParams(k, k), 0.95)
    assert (res.value, res.err_estimate) == (value, err)


def _exact_moment_50(p, q, mu0, k, s):
    """``_exact_moment`` in 50-digit arithmetic: its double-precision chains
    lose up to 1e-13 relative to cancellation at small ``k``.

    Each chain's nested integral of ``exp(lam_w (t_b - t_{b-1}))`` is an
    exponential polynomial ``{w: coefficients of t^j}`` of its last point;
    the chains whose steps so far are orderings of one multiset share it,
    so they are summed as they are built.
    """
    import mpmath

    with mpmath.workdps(50):
        mu0, k, s = mpmath.mpf(mu0), mpmath.mpf(k), mpmath.mpf(s)

        def lam(w):
            return mpmath.mpc(-w * w * k / 2, w * mu0)

        def antiderivative(poly, c):
            # A with (A e^{ct})' = poly e^{ct}.
            out = [mpmath.mpc(0)] * len(poly)
            for deg, coef in enumerate(poly):
                term = coef / c
                for j in range(deg + 1):
                    out[deg - j] += term
                    term = -term * (deg - j) / c
            return out

        def add(acc, w, poly):
            row = acc.setdefault(w, [])
            row.extend([mpmath.mpc(0)] * (len(poly) - len(row)))
            for i, c in enumerate(poly):
                row[i] += c

        def gap(f, w):
            # t -> int_0^t exp(lam_w (t - x)) f(x) dx
            out = {}
            for v, poly in f.items():
                c = lam(v) - lam(w)
                if c == 0:
                    add(out, v, [0] + [a / (i + 1) for i, a in enumerate(poly)])
                else:
                    a = antiderivative(poly, c)
                    add(out, v, a)
                    add(out, w, [-a[0]])
            return out

        def integral(f):
            total = mpmath.mpc(0)
            for v, poly in f.items():
                c = lam(v)
                if c == 0:
                    total += sum(a * s ** (i + 1) / (i + 1) for i, a in enumerate(poly))
                else:
                    a = antiderivative(poly, c)
                    total += (sum(x * s ** i for i, x in enumerate(a)) * mpmath.exp(c * s)
                              - a[0])
            return total

        @functools.lru_cache(maxsize=None)
        def walk(u):
            # Counts of the steps -2, -1, 1, 2 taken so far.
            if not any(u):
                return {p - q: [mpmath.mpc(1)]}
            acc = {}
            for i in range(4):
                if u[i]:
                    for v, poly in walk(u[:i] + (u[i] - 1,) + u[i + 1:]).items():
                        add(acc, v, poly)
            return gap(acc, p - q + 2 * (u[3] - u[0]) + u[2] - u[1])

        total = mpmath.mpc(0)
        for key in term_keys(p, q):
            base = k ** key.n * coefficient(key) * s ** key.m
            c = (key.count_minus2, key.count_minus1, key.count_plus1, key.count_plus2)
            if not any(c):
                total += base
            for i in range(4):
                if c[i]:
                    total += base * integral(walk(c[:i] + (c[i] - 1,) + c[i + 1:]))
        return complex(total)


@pytest.mark.parametrize("p,q,mu0,k,s,rel", [
    (2, 2, 5.0, 1.0, 1.0, 1e-14), (3, 2, 7.1, 0.3, 0.8, 1e-14),
    (0, 4, 40.0, 1.0, 0.9, 1e-13),
    # The double-precision chains cancel down to 6e-13 relative here.
    (5, 3, 5.0, 0.01, 1.0, 1e-11),
])
def test_exact_moment_50_digits_matches_exact_chains(p, q, mu0, k, s, rel):
    exact = _exact_moment(p, q, mu0, k, s)
    assert abs(_exact_moment_50(p, q, mu0, k, s) - exact) <= rel * abs(exact)


def test_error_estimate_bounds_true_error_sweep(monkeypatch):
    # Random constant-profile moments against their 50-digit values; the
    # estimate adds the roundoff floors of the closes and of the moduli.
    rng = np.random.default_rng(20261018)
    for _ in range(64):
        p, q = (int(v) for v in rng.integers(0, 6, size=2))
        mu0 = rng.uniform(0.0, 25.0)
        k = 10.0 ** rng.uniform(-2.0, 0.0)
        s = rng.uniform(0.3, 1.0)
        profile = SpeedRatioProfile.constant(mu0, s_max=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EnvelopeWarning)
            res = displacement_moment(p, q, profile, NoiseParams(k, k), s)
        exact = _exact_moment_50(p, q, mu0, k, s)
        assert abs(res.value - exact) <= res.err_estimate, (p, q, mu0, k, s)
    # <w^4> is off by 1.5-2.5 times the chain's estimate: only the moduli
    # term (7 times the error) bounds it.
    mu0, k, s = 13.973747347377005, 0.014718128575881914, 0.9125682354604787
    profile = SpeedRatioProfile.constant(mu0, s_max=1.0)
    exact = _exact_moment_50(0, 4, mu0, k, s)
    res = displacement_moment(0, 4, profile, NoiseParams(k, k), s)
    assert abs(res.value - exact) <= res.err_estimate
    monkeypatch.setattr(general_moments, "MODULUS_ROUNDOFF", 0.0)
    res = displacement_moment(0, 4, profile, NoiseParams(k, k), s)
    assert abs(res.value - exact) > res.err_estimate
