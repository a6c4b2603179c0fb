"""Exact reference for constant-ratio moments without heading power.

With ``mu(s) = mu0`` the deterministic heading is linear, so the gap
factor of every term of ``<u^p w^q>`` is ``exp(lam_b * (t_b - t_{b-1}))``
with ``lam_b = i w_b mu0 - w_b^2 K / 2`` for running phase weight
``w_b``. Collecting the exponent by sample point gives
``sum_b t_b (lam_b - lam_{b+1})`` with ``lam_{beta+1} = 0``, so the
nested integral is a chain of prefix integrals of ``ExpPolySum`` terms:
no quadrature is involved.

The chain runs over the package's public enumeration (``term_keys``,
``phase_step_vectors``, ``coefficient``), but not over its integrand or
its quadrature, so it checks the numeric engine independently of both.
"""

from __future__ import annotations

import cmath

from brownian_unicycle import (ExpPolySum, NoiseParams, coefficient,
                               d2_closed, d4_closed, phase_step_vectors,
                               term_keys)


def exact_moment(p: int, q: int, mu0: float, k: float, s: float,
                 theta0: float = 0.0) -> tuple[complex, float]:
    """``<u^p w^q>`` for constant ratio ``mu0`` and ``k_r = k_theta = k``.

    Returns ``(value, magnitude)`` where ``magnitude`` is the sum of the
    absolute values of all terms; callers scale their roundoff floor by it.
    """
    phase0 = cmath.exp(1j * (p - q) * theta0)
    total = 0j
    magnitude = 0.0
    for key in term_keys(p, q):
        base = k ** key.n * coefficient(key) * s ** key.m * phase0
        for steps in phase_step_vectors(key):
            weights = []
            w = p - q
            for step in steps:
                weights.append(w)
                w += step
            rates = [complex(-0.5 * wb * wb * k, wb * mu0) for wb in weights] + [0j]
            f = ExpPolySum.unit()
            for b in range(len(weights)):
                f = f.shifted_rate(rates[b] - rates[b + 1]).integral(s)
            term = base * f(s)
            total += term
            magnitude += abs(term)
    return total, magnitude


def self_check(mu0: float, k: float, s: float, rel_tol: float = 1e-13) -> list[str]:
    """Compare the chain with the package closed forms for D^2 and D^4.

    Returns a list of mismatch descriptions; empty when both agree.
    """
    params = NoiseParams(k, k)
    problems = []
    for (p, q), closed in (((1, 1), d2_closed), ((2, 2), d4_closed)):
        value, _ = exact_moment(p, q, mu0, k, s)
        ref = closed(mu0, params, s)
        rel = abs(value - ref) / abs(ref)
        if rel > rel_tol:
            problems.append(f"exact <u^{p} w^{q}> at mu0={mu0}, K={k}, s={s} "
                            f"is {value}, closed form {ref} (rel {rel:.2e})")
    return problems
