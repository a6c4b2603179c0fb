"""Combinatorial enumeration and the general moment engine."""

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
                               integrate_ordered, mean_heading,
                               phase_step_vectors, second_moments, term_keys,
                               theta_power_compositions)
from brownian_unicycle import general_moments, quadrature
from brownian_unicycle.constant_ratio import _kernel_chain
from brownian_unicycle.general_moments import _GapFactors, _phase_weights
from brownian_unicycle.quadrature import integrate_chains

CONST = SpeedRatioProfile.constant(5.0, theta0=0.0, s_max=1.0)
RAMP = SpeedRatioProfile.polynomial((0.0, 10.0), theta0=0.0, s_max=1.0)


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


def _gap_chain(profile, params, s, weights, gamma, settings=QuadratureSettings()):
    """One term's nested integral on the refined chain rule."""
    def evaluate(rule):
        factors = _GapFactors(rule, profile, params.k_theta)
        return np.array([factors.term(weights, gamma)])
    return integrate_chains(evaluate, [1.0], s, settings)


def _tensor_term(profile, params, s, weights, gamma):
    """The same term on the tensor rule, with each gap's Gaussian moments in
    the per-sample form ``dt^(g/2) * sum_a c_a (i w sqrt(k_theta dt))^(g-2a)``."""
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

    return integrate_ordered(f, len(weights), s)


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
    ((2, 1, 0, -1, -2), (0, 0, 0, 0, 0, 0)),
    ((1, -1, 1, 0, -1), (0, 2, 0, 0, 1, 0)),
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
