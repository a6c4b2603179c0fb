"""The tensor rule as an independent test oracle, at any dimension.

``one_rule`` builds an ``n``-node Gauss-Legendre tensor rule of the
ordered region on ``[0, s]`` itself and evaluates the integrand on it;
``two_call_rule`` calls it at ``G`` and ``G + 2`` nodes. They check the
chain rule at every dimension (``test_chain_matches_tensor_rule*``), and
the low-order statistics' tests use them on the triangle of every knot
piece of their references. The package has no tensor rule of its own;
``test_stacked_rule_matches_two_call_rule`` checks this one on its own
terms.
``chain`` evaluates one product of gap factors on the nodes of one chain
rule with the oracles' own engine, the dense Nystrom operators of
``operator``: a gap factor sampled at the node pairs ``gap_starts`` times
one ``n x n`` weight matrix. The package applies its gap factors through
the O(n) prefix carry instead; the two share the panels, the nodes and the
decay weights of each panel, not the way a factor is applied.
``per_count`` runs such an evaluation once per node count of a chain rule,
as ``integrate_chains`` reads it.
"""

import numpy as np

from brownian_unicycle import IntegrandEvaluationError
from brownian_unicycle.quadrature import (CHAIN_ROUNDOFF, ChainRule,
                                          _decay_weights)


def gap_starts(rule):
    """Gap starts ``u[j, k]`` of the gap that ends at ``t[j]``, for node
    ``k``, shape ``(n, n)``: ``t[k]`` in earlier panels and in ``t[j]``'s
    own, where a kernel past ``t[j]`` is read at its analytic continuation
    to a negative gap, else ``t[j]``."""
    (m,) = rule.counts
    panel = np.repeat(np.arange(rule.width.size), m)
    return np.where(panel > panel[:, None], rule.t[:, None], rule.t)


def operator(rule, kernel, decay=0.0):
    """Matrix of ``F -> int_0^t e^{-decay (t - u)} K(u, t) F(u) du`` on the
    node values of ``rule``.

    ``kernel`` holds ``K(u[j, k], t[j])`` of :func:`gap_starts`, with shape
    ``(n, n)``, or a stack of them along a leading axis; each panel
    integrates ``K F`` through its interpolant on the panel's nodes. The
    matrix is ``kernel * omega``: for node ``k`` in an earlier panel of
    width ``h`` ending at ``b``, ``h W[k] e^{-decay (t[j] - b)}``; within
    ``t[j]``'s own panel, ``h S[i, k]``; 0 after (``S`` and ``W`` of
    ``_decay_weights`` at the rate ``decay h``).
    """
    start, width, (m,) = rule.start, rule.width, rule.counts
    panels = width.size
    panel = np.repeat(np.arange(panels), m)
    weights = np.array([_decay_weights(m, float(decay * h)) * h
                        for h in width.tolist()])
    reach = (np.arange(panels) < panel[:, None]) * np.exp(
        -decay * np.maximum(rule.t[:, None] - (start + width), 0.0))
    omega = (reach[:, :, None] * weights[:, -1]).reshape(rule.t.size, -1)
    at = np.arange(panels)
    omega.reshape(panels, m, panels, m)[at, :, at] = weights[:, :-1]
    return kernel * omega


def chain(rule, first, kernels, tail=1.0, build=None):
    """Nested integral of one product of gap factors on ``rule``: the first
    factor's node values, the operators of ``kernels`` applied in turn,
    then the tail row. ``build(kernel)`` makes an operator, by default
    :func:`operator` without decay."""
    f = first
    for kernel in kernels:
        f = (operator(rule, kernel) if build is None else build(kernel)) @ f
    return complex(rule.tail_vector(tail) @ f)


def per_count(evaluate):
    """``evaluate`` of one-count chain rules as ``integrate_chains`` calls
    it: one row per node count of the rule, each from ``evaluate`` on the
    ``ChainRule`` of that count alone on the same panels."""
    def rows(rule):
        return np.array([evaluate(ChainRule(rule.start, rule.width, m))
                         for m in rule.counts])
    return rows


def one_rule(f, beta, s, n):
    """``(value, magnitude)`` of the ordered integral of ``f`` on the
    ``n``-node rule: the sum of ``f * jw`` and of ``|f * jw|``.

    ``f`` receives ``beta`` broadcast-compatible coordinate arrays and
    returns values, or a stack of kernels along a leading axis, which
    gives one value and magnitude per kernel. A non-finite product raises
    :class:`IntegrandEvaluationError` at its first point, kernel by
    kernel, then in grid order.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    ts = []
    t_prev = np.zeros(())
    jw = np.ones(())
    for b in range(beta):
        shape = (1,) * b + (n,) + (1,) * (beta - 1 - b)
        gap = s - t_prev
        t = t_prev + gap * x.reshape(shape)
        jw = jw * gap * w.reshape(shape)
        ts.append(t)
        t_prev = t
    jw = np.broadcast_to(jw, (n,) * beta)
    prod = np.asarray(f(tuple(ts))) * jw
    bad = ~np.isfinite(prod)
    if bad.any():
        idx = tuple(np.argwhere(bad)[0])
        point = tuple(float(np.broadcast_to(t, bad.shape)[idx]) for t in ts)
        raise IntegrandEvaluationError(f"non-finite at {point}", point=point)
    magnitude = np.abs(prod)
    if prod.ndim > beta:
        axes = tuple(range(1, prod.ndim))
        return prod.sum(axis=axes).astype(complex), magnitude.sum(axis=axes)
    return complex(prod.sum()), float(magnitude.sum())


def two_call_rule(f, beta, s, nodes):
    """``(value, difference, floor)`` of the ordered integral of ``f``.

    ``f`` is as in :func:`one_rule`. The value is the ``(nodes + 2)``-node
    sum and the difference its distance from the ``nodes``-node sum, which
    measures convergence; the floor is ``CHAIN_ROUNDOFF`` times the summed
    ``|f * jw|`` of the finer rule, so ``difference + floor`` is the
    package's error estimate. A non-finite product raises at the first
    point of :func:`one_rule`, coarse rule first.
    """
    coarse, _ = one_rule(f, beta, s, nodes)
    fine, magnitude = one_rule(f, beta, s, nodes + 2)
    return fine, abs(fine - coarse), CHAIN_ROUNDOFF * magnitude
