"""Nested quadrature over the ordered region 0 <= s1 <= ... <= s_beta <= s.

Two engines share this module.

The tensor rule (:func:`integrate_ordered`) takes any callable integrand
of dimension 1 or 2, the low-order statistics. It maps level ``b`` onto
Gauss-Legendre nodes of the unit interval spanning ``[s_{b-1}, s]``,

    t_b = t_{b-1} + (s - t_{b-1}) * x_b,      jacobian prod_b (s - t_{b-1}),

which turns the ordered region into a tensor-product rule on the unit
cube. Cost is ``nodes_per_level ** beta``, so dimensions above
``MAX_TENSOR_DIM`` are refused: they go through the chain rule. The
returned error estimate is the difference between the rules with ``G``
and ``G + 2`` nodes per level plus a roundoff floor. Both rules share one
grid, built once per ``(beta, G)`` on the unit simplex (``s = 1``) and
cached: the ``G``-node rule is padded to ``G + 2`` nodes per level with
zero-weight copies of its last node, and the two rules are stacked on a
leading rule axis. A call scales that grid to ``[0, s]`` (coordinates by
``s``, weights by ``s**beta``) and evaluates the integrand once for both
rules. An integrand may return a stack of kernels along a leading axis;
the grid is then evaluated once for the whole stack, and the call
returns one value and one error estimate per kernel.

The chain rule (:class:`ChainRule`, :func:`integrate_chains`) serves
integrands that are products of per-gap factors,

    prod_{b=1..beta} K_b(t_{b-1}, t_b) * tail(s - t_beta),   t_0 = 0,

which is every moment term of this package. Such an integral is ``beta``
applications of a Volterra operator: ``F_1(t) = K_1(0, t)``,
``F_b(t) = int_0^t K_b(u, t) F_{b-1}(u) du``, and the result is
``int_0^s F_beta(u) tail(s - u) du``. Each ``F_b`` is represented by its
values on Chebyshev-Lobatto nodes of ``[0, s]``; the integral for node
``t_j`` uses a Gauss-Legendre rule on ``[0, t_j]`` whose points read
``F_{b-1}`` through barycentric interpolation (Berrut & Trefethen, SIAM
Rev. 46, 2004), as in Chebfun's ``volt`` (Driscoll, Bornemann &
Trefethen, BIT 48, 2008). The interpolation array ``W[j, m, k]``, with
the Gauss weights folded in, is built once per node count. A gap factor
becomes the discrete Volterra operator ``M_K[j, k] = s * sum_m K(u_jm,
t_j) W[j, m, k]``, one batched product of ``n**3`` flops built once per
distinct factor and rule. After that every level is ``M_K @ F`` and
every close a dot product with a tail row, ``n**2`` flops each: a moment
with ``D`` distinct gap factors and ``L`` node-value vectors to carry
through a level (one per state and heading power of its lattice walk in
:mod:`general_moments`) costs ``O(D n**3 + L n**2)`` instead of
``G**beta`` integrand points per term. Convergence is spectral for the
smooth headings of constant and polynomial profiles and
algebraic for table profiles, whose heading is only continuously
differentiable.

All reductions run in a fixed order; results are bit-stable for a given
settings object.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import AccuracyWarning, IntegrandEvaluationError

#: Largest dimension the tensor rule accepts; higher-dimensional integrals
#: of this package are products of gap factors and go through the chain.
MAX_TENSOR_DIM = 2

#: Node counts of the first coarse/fine pair of chain rules; each
#: refinement doubles the fine count and compares with the previous one.
CHAIN_BASE_PAIR = (48, 64)
#: Fine node count at which refinement stops.
CHAIN_MAX_NODES = 256
#: Roundoff of a chain sum relative to the sum of its terms' magnitudes.
CHAIN_ROUNDOFF = 64 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadratureSettings:
    """Knobs for the nested quadrature engines.

    Parameters
    ----------
    nodes_per_level : int
        Gauss-Legendre nodes per nesting level of the tensor rule (>= 2).
    rel_tol : float
        Relative accuracy target of the chain rule: the moment engines
        (:func:`~brownian_unicycle.displacement_heading_moment`,
        :func:`~brownian_unicycle.d4_moment`) double their node count
        until the last two results agree to ``rel_tol`` or the node count
        reaches ``CHAIN_MAX_NODES``.
    """

    nodes_per_level: int = 24
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.nodes_per_level < 2:
            raise ValueError("nodes_per_level must be >= 2")
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive")


DEFAULT_SETTINGS = QuadratureSettings()


@lru_cache(maxsize=64)
def _gauss_unit(n: int):
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# -- tensor rule ---------------------------------------------------------------

@lru_cache(maxsize=256)
def _simplex_grid(beta: int, n_nodes: int):
    """The ``n_nodes`` and ``n_nodes + 2`` rules on the unit simplex
    (``s = 1``), stacked on a leading rule axis of length 2.

    The coarse rule is padded to ``n_nodes + 2`` nodes per level with
    zero-weight copies of its last node, so both rules share one shape;
    every padded point repeats a real point of the coarse rule.
    Coordinate ``t_b`` (``b = 1..beta``) has shape ``(2,) + (n,) * b +
    (1,) * (beta - b)`` and the weight*jacobian tensor ``(2,) + (n,) *
    beta``, with ``n = n_nodes + 2``. Also returns, for
    :func:`_rule_sums`, each rule's index: the coarse one leaves the
    padding out of its sum, which keeps its summation order.
    """
    x, w = _gauss_unit(n_nodes)
    fine_x, fine_w = _gauss_unit(n_nodes + 2)
    nodes = np.stack((np.concatenate((x, x[-1:], x[-1:])), fine_x))
    weights = np.stack((np.concatenate((w, [0.0, 0.0])), fine_w))
    ts = []
    t_prev = np.zeros(())
    jw = np.ones(())
    for b in range(beta):
        shape = (2,) + (1,) * b + (n_nodes + 2,) + (1,) * (beta - 1 - b)
        gap = 1.0 - t_prev
        t = t_prev + gap * nodes.reshape(shape)
        jw = jw * gap * weights.reshape(shape)
        ts.append(t)
        t_prev = t
    for arr in ts + [jw]:
        arr.setflags(write=False)
    rules = tuple((Ellipsis, rule) + (slice(None, n),) * beta
                  for rule, n in enumerate((n_nodes, n_nodes + 2)))
    return tuple(ts), jw, rules


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _rule_sums(f, ts, jw, rules):
    """Sums of ``f(ts) * jw`` over the coarse and the fine rule of one
    grid, and the fine rule's roundoff floor.

    ``rules`` holds the two rules' indices into the products, which carry
    the rule axis in front of the ``beta`` coordinate axes. Each sum is a
    complex, or a complex array for a stack of kernels; the floor,
    ``CHAIN_ROUNDOFF`` times the summed ``|f * jw|`` of the fine rule, is
    a float, or a float array with one entry per kernel. A non-finite sum
    raises :class:`IntegrandEvaluationError` at the first non-finite
    product, taken rule by rule, then kernel by kernel, then in grid
    order; numpy's floating-point warnings stay silent.
    """
    beta = len(ts)
    prod = np.asarray(f(ts)) * jw
    axes = tuple(range(-beta, 0))
    sums = [prod[rule].sum(axis=axes) for rule in rules]
    if not np.isfinite(sums).all():
        bad = np.moveaxis(~np.isfinite(prod), -beta - 1, 0)
        if not bad.any():
            raise IntegrandEvaluationError("the rule sum overflowed")
        idx = np.argwhere(bad)[0]
        at = (idx[0],) + tuple(idx[-beta:])
        point = tuple(float(np.broadcast_to(t, jw.shape)[at]) for t in ts)
        raise IntegrandEvaluationError(
            f"integrand returned a non-finite value at {point}", point=point)
    coarse, fine = (total.astype(complex) if total.ndim else complex(total)
                    for total in sums)
    floor = CHAIN_ROUNDOFF * np.abs(prod[rules[-1]]).sum(axis=axes)
    return coarse, fine, floor if floor.ndim else float(floor)


def integrate_ordered(f, beta: int, s: float,
                      settings: QuadratureSettings = DEFAULT_SETTINGS):
    """Integrate ``f`` over the ordered region of dimension ``beta``.

    Parameters
    ----------
    f : callable
        Receives a tuple of ``beta`` broadcast-compatible coordinate
        arrays ``(t1, ..., t_beta)`` with ``t1 <= ... <= t_beta`` and must
        return the (possibly complex) integrand values elementwise. The
        arrays carry a leading rule axis in front of the ``beta``
        coordinate axes (both rules of the pair in one call), so ``f``
        must not rely on their number of axes. It may instead return a
        stack of ``k`` integrands along a leading axis, in front of the
        rule axis (each slice broadcast against the coordinates), so that
        work shared by the kernels, such as the heading, is done once per
        grid. ``f`` runs with numpy's overflow, invalid and divide
        warnings off: a non-finite value raises instead.
    beta : int
        Dimension of the nested integral, at most ``MAX_TENSOR_DIM``;
        ``beta == 0`` returns ``(1, 0)`` by the empty-integral convention.
    s : float
        Upper endpoint of the ordered region.

    Returns
    -------
    (value, err_estimate) : tuple[complex, float]
        The fine rule's sum, and its distance from the coarse rule's plus
        the roundoff floor ``CHAIN_ROUNDOFF * sum |f * jw|`` of the fine
        rule. For a stack, arrays of shape ``(k,)``: complex values, and
        each kernel's own error estimate. At ``s == 0`` every weight
        vanishes, so the result is zeros of the integrand's shape.

    Raises
    ------
    ValueError
        When ``beta`` is negative or above ``MAX_TENSOR_DIM`` (integrate
        products of gap factors with :func:`integrate_chains`), or ``s``
        is negative.
    IntegrandEvaluationError
        When a rule sum is not finite. ``point`` holds the ``beta``
        coordinates of the first non-finite value, the coarse rule
        searched before the fine one, or is ``None`` when finite values
        overflow the sum.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if beta > MAX_TENSOR_DIM:
        raise ValueError(
            f"the tensor rule stops at dimension {MAX_TENSOR_DIM}, got {beta}; "
            "integrate products of gap factors with the chain rule")
    if beta == 0:
        return 1.0 + 0.0j, 0.0
    if s < 0.0:
        raise ValueError("s must be non-negative")
    ts, jw, rules = _simplex_grid(beta, settings.nodes_per_level)
    coarse, fine, floor = _rule_sums(f, tuple(s * t for t in ts),
                                     s ** beta * jw, rules)
    return fine, abs(fine - coarse) + floor


# -- chain rule ----------------------------------------------------------------

class ChainRule:
    """Volterra chains on Chebyshev-Lobatto nodes of ``[0, s]``.

    ``t`` holds the ``n`` nodes (ascending, ``t[0] = 0``, ``t[-1] = s``)
    and ``u`` the ``n`` Gauss points of each node's interval: row ``j``
    lies in ``[0, t[j]]``, so ``u[-1]`` is the Gauss rule of ``[0, s]``.
    Callers sample their gap factors at these points and turn them into
    :meth:`operator` matrices and :meth:`tail_vector` rows; a chain is its
    first factor's node values, the operators applied in turn, and a tail
    row, so chains can share operators and the levels of a common prefix.
    Construct through :func:`chain_rule`, which caches the
    ``s``-independent arrays.
    """

    def __init__(self, s: float, x, u, weighted) -> None:
        self.s = s
        self.t = s * x
        self.u = s * u
        self._weighted = weighted

    def operator(self, kernel) -> np.ndarray:
        """Matrix of ``F -> int_0^t K(u, t) F(u) du`` on the node values.

        ``kernel`` holds ``K(u_jm, t_j)`` with shape ``(n, n)``, or a stack
        of them along a leading axis (one matrix each). Entry ``[j, k]`` is
        ``s * sum_m K(u_jm, t_j) W[j, m, k]``: one batched product with
        the weighted interpolation array, real against the (re, im) pairs
        of all stacked kernels, so the array is read once per stack.
        """
        n = self.t.size
        kernel = np.asarray(kernel)
        # pairs[j, m, (i, c)]: part c (re, im) of stacked kernel i.
        stack = kernel.reshape(-1, n, n).transpose(1, 2, 0)
        pairs = np.ascontiguousarray(stack, dtype=complex).view(np.float64)
        out = (self._weighted.transpose(0, 2, 1) @ pairs).view(np.complex128)
        out *= self.s
        return np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(kernel.shape)

    def tail_vector(self, tail) -> np.ndarray:
        """Row ``v`` with ``v @ f = int_0^s F(u) tail(s - u) du`` for node
        values ``f`` of ``F``; ``tail`` holds ``tail(s - u[-1, m])``, or is
        a scalar."""
        n = self.t.size
        return self.s * (np.broadcast_to(tail, (n,)) @ self._weighted[-1])


@lru_cache(maxsize=8)
def _unit_chain(n: int):
    """Nodes, Gauss points and weighted interpolation array on ``[0, 1]``.

    ``weighted[j, m, k]`` is the Gauss weight of point ``u[j, m]`` on
    ``[0, x[j]]`` times the barycentric weight of node ``k`` at that
    point, so ``weighted[j] @ f`` is the rule's sample of ``F`` at each
    point.
    """
    k = np.arange(n)
    x = 0.5 * (1.0 - np.cos(np.pi * k / (n - 1)))
    bary = (-1.0) ** k
    bary[0] *= 0.5
    bary[-1] *= 0.5
    gx, gw = _gauss_unit(n)
    u = x[:, None] * gx[None, :]
    # Barycentric rows, built in place: at n = 256 the matrix is 134 MB.
    weighted = u.reshape(-1, 1) - x[None, :]
    exact = weighted == 0.0
    with np.errstate(divide="ignore"):
        np.divide(bary, weighted, out=weighted)
    hit = exact.any(axis=1)
    weighted[hit] = exact[hit]
    weighted /= weighted.sum(axis=1, keepdims=True)
    weighted *= (x[:, None] * gw[None, :]).reshape(-1, 1)
    weighted = weighted.reshape(n, n, n)
    for arr in (x, u, weighted):
        arr.setflags(write=False)
    return x, u, weighted


def chain_rule(n: int, s: float) -> ChainRule:
    """The ``n``-node chain rule on ``[0, s]``, ``n >= 2``, ``s > 0``."""
    return ChainRule(s, *_unit_chain(n))


def integrate_chains(evaluate, scales, s: float,
                     settings: QuadratureSettings = DEFAULT_SETTINGS):
    """``sum_i scales[i] * chain_i`` on refined pairs of chain rules.

    ``evaluate(rule)`` returns the nested integrals ``chain_i`` on one
    rule, as an array aligned with ``scales``; each is a product of gap
    factors of dimension >= 1 (a first factor's node values carried
    through :meth:`ChainRule.operator` matrices and closed by a
    :meth:`ChainRule.tail_vector` row), or a sum of such, so all vanish
    when ``s == 0``. The sum runs on the coarse/fine pair
    ``CHAIN_BASE_PAIR``; while the last two sums differ by more than
    ``settings.rel_tol`` relative to the later one, and by more than the
    roundoff floor, the sum runs again on twice the previous fine node
    count, up to ``CHAIN_MAX_NODES``. Stopping there with the difference
    still above both issues an :class:`AccuracyWarning`; the value is
    returned all the same.

    Returns
    -------
    (value, err_estimate) : tuple[complex, float]
        The last sum, and its distance from the one before (the coarse
        rule of the pair, then the previous fine rule, with half the
        nodes) plus the roundoff floor
        ``CHAIN_ROUNDOFF * sum_i |scales[i] * chain_i|``.
    """
    if s < 0.0:
        raise ValueError("s must be non-negative")
    scales = np.asarray(scales)
    if s == 0.0 or scales.size == 0:
        return 0j, 0.0

    def total(n: int):
        # A non-finite sum raises below; numpy's warnings would only
        # repeat it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            terms = scales * evaluate(chain_rule(n, s))
            value = complex(terms.sum())
        if not np.isfinite(value):
            raise IntegrandEvaluationError(
                f"chain integral is not finite on the {n}-node rule")
        return value, float(np.abs(terms).sum())

    coarse_n, fine_n = CHAIN_BASE_PAIR
    coarse, _ = total(coarse_n)
    while True:
        fine, magnitude = total(fine_n)
        diff = abs(fine - coarse)
        floor = CHAIN_ROUNDOFF * magnitude
        if diff <= max(settings.rel_tol * abs(fine), floor):
            return fine, diff + floor
        if fine_n >= CHAIN_MAX_NODES:
            warnings.warn(
                f"chain refinement stopped at {fine_n} nodes with the error "
                f"estimate {diff + floor:.3e} above rel_tol = "
                f"{settings.rel_tol:.1e} times the chain sum {abs(fine):.3e}",
                AccuracyWarning, stacklevel=3)
            return fine, diff + floor
        # The next rule is compared with this one, half its nodes: under
        # algebraic convergence a 3/4-node pair understates the error.
        coarse, fine_n = fine, 2 * fine_n
