"""Combinatorial enumeration and the general moment engine."""

import cmath
import contextlib
import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brownian_unicycle import (AccuracyWarning, EnvelopeWarning, NoiseParams,
                               QuadratureSettings, SpeedRatioProfile, TermKey,
                               TermKeyError, cartesian_moment, coefficient,
                               count_phase_step_vectors, cov_xtheta,
                               cov_ytheta, deterministic_pose,
                               displacement_heading_moment,
                               displacement_moment, mean_squared_distance,
                               mean_heading,
                               phase_step_vectors, second_moments, term_keys,
                               theta_power_compositions)
from brownian_unicycle import general_moments, quadrature
from brownian_unicycle.constant_ratio import _kernel_chain
from brownian_unicycle.general_moments import double_factorial
from brownian_unicycle.quadrature import integrate_chains
from tensor_oracle import chain, two_call_rule

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
    quick = QuadratureSettings(nodes_per_level=4)
    with pytest.warns(EnvelopeWarning):
        displacement_heading_moment(0, 0, 5, tiny, params, 0.01, quick)


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
    (``u_jm -> t_j``), sampled from its definition with the Gaussian moments
    in the per-sample form ``dt^(g/2) * sum_a c_a (i w sqrt(k_theta
    dt))^(g-2a)``; one array per argument triple."""
    th_t = mean_heading(profile, rule.t)
    th_u = mean_heading(profile, rule.u)
    gaps = ((th_t - profile.theta0, rule.t),
            (th_t[:, None] - th_u, rule.t[:, None] - rule.u))

    @functools.lru_cache(maxsize=None)
    def factor(w, g, inner):
        dtheta, dt = gaps[inner]
        herm = sum(math.factorial(g)
                   // (math.factorial(a) * math.factorial(g - 2 * a) * 2 ** a)
                   * (1j * w * np.sqrt(kt * dt)) ** (g - 2 * a)
                   for a in range(g // 2 + 1))
        return np.exp(1j * w * dtheta - 0.5 * w * w * kt * dt) * dt ** (0.5 * g) * herm

    return factor


def _rule_chain(rule, factor, weights, gamma):
    """One term's nested integral on ``rule``."""
    return chain(rule, factor(weights[0], gamma[0], False),
                 [factor(w, g, True) for w, g in zip(weights[1:], gamma[1:-1])],
                 (rule.s - rule.u[-1]) ** (gamma[-1] // 2))


def _gap_chain(profile, params, s, weights, gamma, settings=QuadratureSettings()):
    """One term's nested integral on the refined chain rule."""
    def evaluate(rule):
        factor = _sampled_factors(rule, profile, params.k_theta)
        return np.array([_rule_chain(rule, factor, weights, gamma)])
    return integrate_chains(evaluate, [1.0], s, settings)


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
    # At mu0 = 40 the running phases turn by up to 240 rad over the unit
    # length: the 48/64 pair disagrees, so the pair must double.
    node_counts = set()
    chain_rule = quadrature.chain_rule

    def spy(n, s):
        node_counts.add(n)
        return chain_rule(n, s)

    monkeypatch.setattr(quadrature, "chain_rule", spy)
    profile = SpeedRatioProfile.constant(40.0, s_max=1.0)
    res = displacement_moment(4, 2, profile, NoiseParams(k, k), 1.0)
    exact = _exact_moment(4, 2, 40.0, k, 1.0)
    assert max(node_counts) > 64
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
    # The table heading is only continuously differentiable: convergence is
    # algebraic and refinement runs to the node cap.
    table = SpeedRatioProfile.table(
        [(i / 20, 5.0 + 3.0 * math.sin(2.0 * math.pi * i / 20)) for i in range(21)])
    for k, s in ((0.5, 1.0), (0.01, 0.83)):
        with pytest.warns(AccuracyWarning):
            res = displacement_moment(1, 1, table, NoiseParams(k, k), s)
        ref = _table_d2_reference(table, k, s)
        assert abs(res.value - ref) <= res.err_estimate
        assert res.err_estimate <= 1e-6 * ref


@pytest.mark.parametrize("profile", [CONST, RAMP], ids=["const", "ramp"])
def test_smooth_profiles_meet_rel_tol_without_warning(profile):
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        res = displacement_moment(2, 2, profile, NoiseParams(1.0, 1.0), 1.0)
    assert res.err_estimate <= 1e-9 * abs(res.value)


def test_one_operator_per_gap_factor_and_rule(monkeypatch):
    builds = {}
    operator = quadrature.ChainRule.operator

    def spy(rule, kernel):
        builds[rule.t.size] = builds.get(rule.t.size, 0) + 1
        return operator(rule, kernel)

    monkeypatch.setattr(quadrature.ChainRule, "operator", spy)
    displacement_moment(4, 4, RAMP, NoiseParams(1.0, 1.0), 1.0)
    # Every gap after the first is an operator; with r = 0 its (w, g) is (w, 0).
    inner = {w for key in term_keys(4, 4) for c in phase_step_vectors(key)
             for w in _phase_weights(4, 4, c)[1:]}
    assert sorted(builds) == [48, 64]
    assert max(builds.values()) <= len(inner)


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
    through :meth:`ChainRule.chain`, its factors sampled directly."""
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
        # One operator per sampled kernel: at the 256 nodes a table profile
        # refines to, building one takes milliseconds.
        factor = _sampled_factors(rule, profile, kt)
        build, built = rule.operator, {}

        def operator(kernel):
            if id(kernel) not in built:
                built[id(kernel)] = build(kernel)
            return built[id(kernel)]

        rule.operator = operator
        return np.array([_rule_chain(rule, factor, *chain) for chain in chains])

    value, _ = integrate_chains(evaluate, scales, s)
    return total + value


@pytest.mark.parametrize("profile", [CONST, RAMP, TABLE],
                         ids=["const", "ramp", "table"])
@pytest.mark.parametrize("p,q,r", [(3, 1, 1), (2, 2, 2), (3, 3, 2), (2, 2, 4)])
def test_walk_matches_chains_one_by_one(profile, p, q, r):
    # The table profile runs to the node cap on both sides.
    def capped():
        return (pytest.warns(AccuracyWarning) if profile is TABLE
                else contextlib.nullcontext())

    params = NoiseParams(0.5, 0.7)
    with capped():
        res = displacement_heading_moment(p, q, r, profile, params, 0.9)
    with capped():
        ref = _chain_by_chain(p, q, r, profile, params, 0.9)
    assert abs(res.value - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("p,q,r", [(4, 4, 4), (5, 3, 4), (8, 0, 4)])
def test_envelope_corners_meet_rel_tol(p, q, r):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = displacement_heading_moment(p, q, r, RAMP, NoiseParams(1.0, 1.0), 1.0)
    assert res.err_estimate <= 1e-9 * abs(res.value)


#: ``(profile, K, (p, q, r), value, err_estimate)`` at ``s = 0.95`` with
#: ``k_r = k_theta = K``, recorded from the engine before the pairing count
#: and the envelope check were shared: the benchmark's ``moments`` orders on
#: its three cases, and two envelope corners on the ramp.
PINNED_MOMENTS = [
    ("constant", 0.01, (1, 1, 0),
     (0.08704498017325153+0j), 7.355127773119162e-15),
    ("constant", 0.01, (2, 0, 0),
     (0.0017563167320981284-0.0747232551191715j), 3.3122434132445953e-15),
    ("constant", 0.01, (2, 2, 0),
     (0.008994621728495824+0j), 1.9993380261496396e-15),
    ("constant", 0.01, (3, 1, 1),
     (7.04750343900614e-05+0.000189927562868159j), 1.2517562838403071e-17),
    ("constant", 0.01, (2, 2, 2),
     (8.929110058651875e-05+0j), 2.0071187826182605e-17),
    ("constant", 0.01, (5, 0, 0),
     (0.0008805315877030483-0.0008804855644535605j), 2.1078381863987036e-16),
    ("constant", 0.01, (6, 0, 0),
     (7.79182829545856e-06+0.0002984816888903166j), 7.695391575962638e-17),
    ("constant", 1.0, (1, 1, 0),
     (1.0731948770275215+0j), 6.431940694223265e-15),
    ("constant", 1.0, (2, 0, 0),
     (-0.027571007715908022+0.07539260423654096j), 4.9659054479552744e-15),
    ("constant", 1.0, (2, 2, 0),
     (2.3668647177787383+0j), 3.2616408828978257e-14),
    ("constant", 1.0, (3, 1, 1),
     (0.10892292531431096-0.06203421990123728j), 8.803619920693929e-15),
    ("constant", 1.0, (2, 2, 2),
     (2.5579346540044083+0j), 3.4245841959158945e-14),
    ("constant", 1.0, (5, 0, 0),
     (-0.004254757689445136-0.031119154230793943j), 1.1638670287532882e-15),
    ("constant", 1.0, (6, 0, 0),
     (0.005042853696090633-0.015310757343386997j), 9.915464456225136e-16),
    ("ramp", 1.0, (1, 1, 0),
     (1.1145168691357232+0j), 6.675553494516871e-15),
    ("ramp", 1.0, (2, 0, 0),
     (0.18140322584329951+0.22941709093229945j), 7.147312626139216e-15),
    ("ramp", 1.0, (2, 2, 0),
     (2.6401931415338806+0j), 3.2494492877760217e-14),
    ("ramp", 1.0, (3, 1, 1),
     (-0.41061124582967645-0.12957455048741728j), 1.3462567139358199e-14),
    ("ramp", 1.0, (2, 2, 2),
     (2.7782102692777038-5.551115123125783e-17j), 3.2713740774793283e-14),
    ("ramp", 1.0, (5, 0, 0),
     (-0.045818320356329316+0.16632987554526543j), 5.206845632445393e-15),
    ("ramp", 1.0, (6, 0, 0),
     (-0.05306976169888199+0.15470130346607597j), 5.167043002046192e-15),
    ("ramp", 1.0, (4, 4, 4),
     (219.6711773037235-3.1086244689504383e-15j), 1.4264847063889622e-11),
    ("ramp", 1.0, (8, 0, 4),
     (0.8605065573265165+0.26181745696141856j), 5.175378319808021e-14),
]


@pytest.mark.parametrize("label,k,order,value,err", PINNED_MOMENTS)
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


def test_error_estimate_bounds_true_error_sweep():
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
