"""The tensor rule as an independent test oracle, at any dimension.

``one_rule`` builds an ``n``-node Gauss-Legendre tensor rule of the
ordered region on ``[0, s]`` itself and evaluates the integrand on it;
``two_call_rule`` calls it at ``G`` and ``G + 2`` nodes. They check the
package's tensor grid and its sums rule by rule at dimensions 1-5 (the
low-order statistics use 1 and 2; at dimension 1 the two agree bit for
bit), compute the separate integrals of the low-order statistics'
oracles, and check the chain rule at every dimension. ``chain`` evaluates one product of gap factors on one chain
rule, the form in which the tests hand their integrands to the chain
rule.
"""

import numpy as np

from brownian_unicycle import IntegrandEvaluationError
from brownian_unicycle.quadrature import CHAIN_ROUNDOFF


def chain(rule, first, kernels, tail=1.0):
    """Nested integral of one product of gap factors on ``rule``: the first
    factor's node values, the operators of ``kernels`` applied in turn,
    then the tail row."""
    f = first
    for kernel in kernels:
        f = rule.operator(kernel) @ f
    return complex(rule.tail_vector(tail) @ f)


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
