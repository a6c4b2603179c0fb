"""Nested quadrature over the ordered region 0 <= s1 <= ... <= s_beta <= s.

The chain rule serves every moment term of this package; the tensor grid
and its sums serve the low-order statistics of :mod:`low_moments`.

The tensor grid maps level ``b`` onto Gauss-Legendre nodes of the unit
interval spanning ``[s_{b-1}, s]``,

    t_b = t_{b-1} + (s - t_{b-1}) * x_b,      jacobian prod_b (s - t_{b-1}),

which turns the ordered region into a tensor-product rule on the unit
cube, at a cost of ``nodes_per_level ** beta``. :func:`_simplex_grid`
builds one Gauss rule per ``(beta, n)`` on the unit simplex (``s = 1``)
and caches it; :func:`_scaled_grid` scales it to ``[0, s]`` (coordinates
by ``s``, weights by ``s**beta``), and :func:`_grid_sum` sums the
integrand's values times the weights, refusing a non-finite sum. The
level-1 coordinates of the dimension-2 grid are the nodes of the
dimension-1 grid, so :mod:`low_moments` reads every integral of one
heading from one dimension-2 grid.

The chain rule (:class:`ChainRule`, :func:`integrate_chains`) serves
integrands that are products of per-gap factors,

    prod_{b=1..beta} K_b(t_{b-1}, t_b) * tail(s - t_beta),   t_0 = 0,

which is every moment term of this package. Such an integral is ``beta``
applications of a Volterra operator: ``F_1(t) = K_1(0, t)``,
``F_b(t) = int_0^t K_b(u, t) F_{b-1}(u) du``, and the result is
``int_0^s F_beta(u) tail(s - u) du``. Each ``F_b`` lives at the Gauss
points of panels of ``[0, s]``, which the moment engines cut at the table
knots and after every ``2 pi`` of heading turn (Pachon, Platte &
Trefethen, IMA J. Numer. Anal. 30, 2010). For node ``t_j`` each panel
integrates ``K F`` through its interpolant on the panel's nodes: the
earlier panels in full, its own up to ``t_j`` through the spectral
integration matrix ``S[i, k] = int_0^{x_i} l_k`` (Greengard, SIAM J.
Numer. Anal. 28, 1991). A gap's decay ``e^{-c (t - u)}`` is not sampled
but folded into those weights, exactly at any rate, and the panels are
graded toward 0, where fast-decaying chains have a layer. A gap factor
thus becomes the operator ``kernel * omega``, once per rule, and every
level is ``M_K @ F``: a moment with ``D`` distinct gap factors and ``L``
node-value vectors per level (one per state and heading power of its
walk in :mod:`general_moments`) costs ``O((D + L) n**2)``, and converges
spectrally on every profile kind.

All reductions run in a fixed order; results are bit-stable for a given
settings object.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt

import numpy as np

from .exceptions import AccuracyWarning, IntegrandEvaluationError

#: Gauss points per panel of the chain rule's coarse and fine rules.
PANEL_NODES = (20, 24)
#: Panels of the whole curve at the first pair, shared out by length.
PANELS_PER_LENGTH = 2
#: Gauss points per piece of the integrals behind a panel's decay weights.
PIECE_NODES = 24
#: Decay rate times width of the first panel, when a chain's decay grades
#: the panels toward 0.
PANEL_DECAY = 16.0
#: Largest node count of a chain rule (an operator then takes 26 MB).
CHAIN_MAX_NODES = 1280
#: Memory the ``n x n`` arrays of one chain evaluation may take, which
#: caps ``n`` below ``CHAIN_MAX_NODES`` when there are many of them.
CHAIN_MAX_BYTES = 160 * 2 ** 20
#: Roundoff of a chain sum relative to the sum of its terms' magnitudes.
CHAIN_ROUNDOFF = 64 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadratureSettings:
    """Knobs for the nested quadrature engines.

    Parameters
    ----------
    nodes_per_level : int
        Gauss-Legendre nodes ``G`` per nesting level of the tensor rule
        (>= 2): the low-order statistics sum its ``G + 2``-node rule, and
        the ``G``-node rule too where they estimate an error.
    rel_tol : float
        Relative accuracy target of the chain rule: the moment engines
        (:func:`~brownian_unicycle.displacement_heading_moment`,
        :func:`~brownian_unicycle.d4_moment`) halve their panels until
        the last two results agree to ``rel_tol``, or warn when the next
        rule would pass the node cap of :func:`integrate_chains`.
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
    """The ``n_nodes``-node rule on the unit simplex (``s = 1``): coordinate
    ``t_b`` (``b = 1..beta``) has shape ``(n_nodes,) * b + (1,) * (beta -
    b)`` and the weight*jacobian tensor ``(n_nodes,) * beta``."""
    x, w = _gauss_unit(n_nodes)
    ts = []
    t_prev = np.zeros(())
    jw = np.ones(())
    for b in range(beta):
        shape = (1,) * b + (n_nodes,) + (1,) * (beta - 1 - b)
        gap = 1.0 - t_prev
        t = t_prev + gap * x.reshape(shape)
        jw = jw * gap * w.reshape(shape)
        ts.append(t)
        t_prev = t
    for arr in ts + [jw]:
        arr.setflags(write=False)
    return tuple(ts), jw


def _non_finite_error(prods, ts, jw):
    """The :class:`IntegrandEvaluationError` of a non-finite rule sum.

    ``prods`` are integrand values times ``jw`` on the grid ``ts``.
    ``point`` holds the coordinates of the first non-finite product, taken
    product by product, then in grid order; it is ``None`` when finite
    products overflow the sum.
    """
    for prod in prods:
        bad = ~np.isfinite(np.broadcast_to(prod, jw.shape))
        if bad.any():
            at = tuple(np.argwhere(bad)[0])
            point = tuple(float(np.broadcast_to(t, jw.shape)[at]) for t in ts)
            return IntegrandEvaluationError(
                f"integrand returned a non-finite value at {point}",
                point=point)
    return IntegrandEvaluationError("the rule sum overflowed")


def _scaled_grid(beta: int, s: float, n_nodes: int):
    """The grid of :func:`_simplex_grid` scaled to ``[0, s]``: coordinates
    times ``s``, weights times ``s**beta``.

    Raises :class:`ValueError` when ``s`` is negative.
    """
    if s < 0.0:
        raise ValueError("s must be non-negative")
    ts, jw = _simplex_grid(beta, n_nodes)
    return tuple(s * t for t in ts), s ** beta * jw


def _grid_sum(prod, ts, jw) -> complex:
    """The sum of ``prod``, values times ``jw`` on the grid ``ts``, refused by
    :func:`_non_finite_error` when not finite: callers turn numpy's
    floating-point warnings off around its evaluation and this call."""
    total = complex(prod.sum())
    if not cmath.isfinite(total):
        raise _non_finite_error((prod,), ts, jw)
    return total


# -- chain rule ----------------------------------------------------------------

def _pieces(m: int, steps):
    """Points, weights and basis values of :func:`_decay_weights` on the
    pieces between 0, ``steps`` and 1.

    For each end ``e`` among the ``m`` Gauss nodes ``x`` of ``[0, 1]`` and
    1 (axis 0), and each piece (axis 1): its ``PIECE_NODES`` Gauss points
    as distances ``back`` from the end, their weights, and the Lagrange
    basis ``l_k`` of the nodes at ``e - back`` (last axis ``k``).
    """
    x, w = _gauss_unit(m)
    ends = np.append(x, 1.0)
    breaks = np.minimum(ends[:, None], np.array([0.0, *steps, 1.0]))
    px, pw = _gauss_unit(PIECE_NODES)
    span = np.diff(breaks)
    back = breaks[:, :-1, None] + span[:, :, None] * px
    # l_k at every point, in barycentric form (Berrut & Trefethen, SIAM
    # Rev. 46, 2004), with Gauss nodes' weights (-1)^k sqrt(x_k (1 - x_k) w_k).
    diff = (ends[:, None, None] - back)[..., None] - x
    hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        basis = (-1.0) ** np.arange(m) * np.sqrt(x * (1.0 - x) * w) / diff
        basis /= basis.sum(axis=-1, keepdims=True)
    rows = hit.any(axis=-1)
    basis[rows] = hit[rows]
    return back, span[:, :, None] * pw, basis


@lru_cache(maxsize=64)
def _unit_pieces(m: int):
    """:func:`_pieces` of every rate up to 1: one piece from 0 to each end."""
    pieces = _pieces(m, ())
    for arr in pieces:
        arr.setflags(write=False)
    return pieces


@lru_cache(maxsize=1024)
def _decay_weights(m: int, rate: float):
    """Weights of the ``m`` Gauss nodes ``x`` of ``[0, 1]`` under the decay
    ``e^{-rate (e - x)}`` up to an end ``e``: ``S[i, k] = int_0^{x_i}
    e^{-rate (x_i - x)} l_k(x) dx`` and ``W[k]``, the same up to 1, with
    ``l_k`` the nodes' Lagrange basis (at ``rate = 0``, the spectral
    integration matrix and the Gauss rule).

    An integral runs back from ``e`` over pieces that end at ``2**j /
    rate < 1``, ``j <= 6`` (beyond, the decay is below ``e^-64``), on
    ``PIECE_NODES`` Gauss points each, so no rate outgrows its rule. Up to
    ``rate = 1`` there is one piece and its basis values, which do not
    depend on the rate, are built once per ``m``. Below ``rate = 1`` it
    integrates ``expm1(-rate (e - x)) l_k(x)`` and adds the ``rate = 0``
    weights, so its roundoff vanishes with ``rate``.
    """
    steps = [2.0 ** j / rate for j in range(7) if 2.0 ** j < rate]
    back, weights, basis = _pieces(m, steps) if steps else _unit_pieces(m)
    small = 0.0 < rate < 1.0
    decay = (np.expm1 if small else np.exp)(-rate * back)
    out = np.einsum("epq,epqk->ek", weights * decay, basis)
    if small:
        out += np.vstack(_decay_weights(m, 0.0))
    out.setflags(write=False)
    return out[:-1], out[-1]


class ChainRule:
    """Volterra chains on ``m`` Gauss-Legendre points ``t`` per panel
    between consecutive ``edges``, ascending from 0 to ``s > 0``.

    ``u[j, k]`` starts the gap that ends at ``t[j]`` for node ``k``: ``t[k]``
    in earlier panels and in ``t[j]``'s own, where a kernel past ``t[j]``
    is read at its analytic continuation to a negative gap, else ``t[j]``.
    A gap's decay is not sampled there but passed to :meth:`operator`,
    which integrates it exactly, so no sampled kernel grows with its gap.
    A chain is its first factor's node values, the :meth:`operator`
    matrices of the others applied in turn, and a :meth:`tail_vector` row.
    """

    def __init__(self, edges, m: int) -> None:
        x, w = _gauss_unit(m)
        self._width = np.diff(edges)
        self.s = float(edges[-1])
        self.t = (edges[:-1, None] + self._width[:, None] * x).ravel()
        self._weights = (self._width[:, None] * w).ravel()
        # The panel structure every operator shares: each node's panel, the
        # distinct widths and each panel's among them, and for each node
        # the earlier panels (reach 1, else 0) and its distance past their
        # ends.
        panels = self._width.size
        self._panel = np.repeat(np.arange(panels), m)
        self._widths = sorted(set(self._width.tolist()))
        self._width_class = np.searchsorted(self._widths, self._width)
        self._reach = (np.arange(panels) < self._panel[:, None]).astype(float)
        self._past = np.maximum(self.t[:, None] - edges[1:], 0.0)

    @cached_property
    def u(self) -> np.ndarray:
        """Gap starts ``u[j, k]``, with shape ``(n, n)``."""
        return np.where(self._panel > self._panel[:, None], self.t[:, None],
                        self.t)

    def operator(self, kernel, decay: float = 0.0) -> np.ndarray:
        """Matrix of ``F -> int_0^t e^{-decay (t - u)} K(u, t) F(u) du`` on
        the node values.

        ``kernel`` holds ``K(u[j, k], t[j])`` with shape ``(n, n)``, or a
        stack of them along a leading axis; each panel integrates ``K F``
        through its interpolant on the panel's nodes. The matrix is
        ``kernel * omega``: for node ``k`` in an earlier panel of width
        ``h`` ending at ``b``, ``h W[k] e^{-decay (t[j] - b)}``; within
        ``t[j]``'s own panel, ``h S[i, k]``; 0 after (``S`` and ``W`` of
        :func:`_decay_weights` at the rate ``decay h``).
        """
        panels = self._width.size
        m = self.t.size // panels
        own, row = map(np.array, zip(*(_decay_weights(m, float(decay * width))
                                       for width in self._widths)))
        row = row[self._width_class] * self._width[:, None]
        reach = self._reach * np.exp(-decay * self._past) if decay else self._reach
        omega = (reach[:, :, None] * row).reshape(self.t.size, -1)
        at = np.arange(panels)
        omega.reshape(panels, m, panels, m)[at, :, at] = (
            own[self._width_class] * self._width[:, None, None])
        return kernel * omega

    def tail_vector(self, tail) -> np.ndarray:
        """Row ``v`` with ``v @ f = int_0^s F(u) tail(s - u) du`` for node
        values ``f`` of ``F``: the Gauss weights times ``tail``, which holds
        ``tail(s - t)`` or is a scalar."""
        return self._weights * tail


def integrate_chains(evaluate, scales, s: float,
                     settings: QuadratureSettings = DEFAULT_SETTINGS,
                     cuts=(), decay: float = 0.0, operators: int = 1):
    """``sum_i scales[i] * chain_i`` on refined pairs of panel rules.

    ``evaluate(rule)`` returns the nested integrals ``chain_i``, products
    of gap factors of dimension >= 1 or sums of such, on one
    :class:`ChainRule`, aligned with ``scales``. Each segment between 0,
    the ascending ``cuts`` inside ``(0, s)`` and ``s`` gets
    ``ceil(PANELS_PER_LENGTH * length / s)`` equal panels. Chains whose
    factors decay at rates up to ``decay`` can fall like ``e^{-decay t}``
    near 0, so more cuts grade the panels there geometrically, doubling
    from ``PANEL_DECAY / decay`` up to ``s / PANELS_PER_LENGTH``; a decay
    inside a gap is integrated exactly (:meth:`ChainRule.operator`).
    ``operators`` counts the ``n x n`` float arrays ``evaluate`` holds at
    once; they may take ``CHAIN_MAX_BYTES``, which with ``CHAIN_MAX_NODES``
    caps the node count ``n``. Every other cut is dropped until the first
    fine rule fits the cap. The sum runs on the pair of ``PANEL_NODES``
    points per panel, then at the fine count on twice the panels while the
    last two sums differ by more than ``settings.rel_tol`` relative and
    the roundoff floor; when the next rule would pass the cap it warns
    (:class:`AccuracyWarning`) instead. A ``decay`` that is not finite
    raises :class:`IntegrandEvaluationError`.

    Returns
    -------
    (value, err_estimate) : tuple[complex, float]
        The last sum, and its distance from the one before (the coarse
        rule of the pair, then the previous fine rule) plus the roundoff
        floor ``CHAIN_ROUNDOFF * sum_i |scales[i] * chain_i|``.
    """
    if s < 0.0:
        raise ValueError("s must be non-negative")
    scales = np.asarray(scales)
    if s == 0.0 or scales.size == 0:
        return 0j, 0.0
    if not np.isfinite(decay):
        raise IntegrandEvaluationError(
            f"the chains' decay rate {decay} is not finite: k_theta is too large")
    coarse_m, fine_m = PANEL_NODES
    cap = min(CHAIN_MAX_NODES, isqrt(CHAIN_MAX_BYTES // (8 * operators)))
    cuts = np.asarray(cuts, dtype=float)
    if decay * s > PANELS_PER_LENGTH * PANEL_DECAY:
        doublings = np.log2(decay * s / (PANELS_PER_LENGTH * PANEL_DECAY))
        cuts = np.union1d(cuts, PANEL_DECAY / decay
                          * 2.0 ** np.arange(np.ceil(doublings)))
    while True:
        ends = np.concatenate(([0.0], cuts, [s]))
        counts = np.ceil(PANELS_PER_LENGTH / s * np.diff(ends)).astype(int)
        if fine_m * counts.sum() <= cap or not cuts.size:
            break
        cuts = cuts[1::2]

    def edges():
        # np.linspace(a, b, k, endpoint=False) on every segment, at once.
        start = np.repeat(ends[:-1], counts)
        step = np.repeat(np.diff(ends) / counts, counts)
        at = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        return np.append(at * step + start, s)

    def total(rule):
        # A non-finite sum raises below; numpy's warnings would only
        # repeat it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            terms = scales * evaluate(rule)
            value = complex(terms.sum())
        if not np.isfinite(value):
            raise IntegrandEvaluationError(
                f"chain integral is not finite on the {rule.t.size}-node rule")
        return value, float(np.abs(terms).sum())

    panels = edges()
    coarse, _ = total(ChainRule(panels, coarse_m))
    while True:
        fine, magnitude = total(ChainRule(panels, fine_m))
        diff = abs(fine - coarse)
        floor = CHAIN_ROUNDOFF * magnitude
        if diff <= max(settings.rel_tol * abs(fine), floor):
            return fine, diff + floor
        if 2 * fine_m * counts.sum() > cap:
            warnings.warn(
                f"chain refinement stopped at {fine_m * counts.sum()} nodes "
                f"with the error estimate {diff + floor:.3e} above rel_tol = "
                f"{settings.rel_tol:.1e} times the chain sum {abs(fine):.3e}",
                AccuracyWarning, stacklevel=3)
            return fine, diff + floor
        coarse, counts = fine, 2 * counts
        panels = edges()
