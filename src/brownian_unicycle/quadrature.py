"""Nested quadrature over the ordered region 0 <= s1 <= ... <= s_beta <= s.

One panel policy serves every integral of this package: :func:`panels`
cuts ``[0, s]`` at the table knots, grades the panels toward 0 where a
fast decay has a layer, splits them after at most ``PANEL_TURN`` of
heading turn (Pachon, Platte & Trefethen, IMA J. Numer. Anal. 30, 2010),
and sets the node count ``m`` per panel from the largest phase and decay
of a panel and the integrand's dimension. The low-order statistics of
:mod:`low_moments` sum on it directly; the chain rule (:class:`ChainRule`,
:func:`integrate_chains`) serves every moment term, integrands that are
products of per-gap factors,

    prod_{b=1..beta} K_b(t_{b-1}, t_b) * tail(s - t_beta),   t_0 = 0.

Such an integral is ``beta`` applications of a Volterra operator:
``F_1(t) = K_1(0, t)``, ``F_b(t) = int_0^t K_b(u, t) F_{b-1}(u) du``, and
the result is ``int_0^s F_beta(u) tail(s - u) du``. Each ``F_b`` lives at
the Gauss points of the panels. Every gap factor is, up to node vectors
of the heading, ``e^{-c x}`` times a polynomial in the gap ``x = t - u``,
and ``x^e e^{-c x} / e!`` is the ``(e + 1)``-fold convolution of ``e^{-c
x}``: one operator, the decay prefix integral ``V_c F(t) = int_0^t e^{-c
(t - u)} F(u) du``, serves every factor. :class:`PrefixCarry` applies it
panel by panel, each panel through the spectral integration matrix ``S[i,
k] = int_0^{x_i} l_k`` (Greengard, SIAM J. Numer. Anal. 28, 1991) with the
decay folded in exactly (:func:`_decay_weights`), and one carry across the
panel ends that is never divided by a decay: ``O(n m)`` time per column
of node values and memory linear in ``n``. The low-order statistics run
the same carry on their separable kernels.

An error estimate compares the rules of ``m`` and ``m + ESTIMATE_STEP``
nodes on the same panels. A :class:`ChainRule` may hold several node
counts, their nodes stacked on one node axis, so that the node-wise work
of the pair runs once (:func:`integrate_chains`); each count keeps its
own panel products and carry, and its sums are bit for bit those of its
rule alone.

All reductions run in a fixed order; results are bit-stable.
"""

from __future__ import annotations

import bisect
import itertools
import math
import warnings
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exceptions import (AccuracyWarning, EnvelopeRefusal,
                         IntegrandEvaluationError, ProfileDomainError)
from .trajectory import SpeedRatioProfile, mean_heading

#: Gauss points per piece of the integrals behind a panel's decay weights.
PIECE_NODES = 24
#: Largest sampled decay rate times width of the first panel, when the
#: decay grades the panels toward 0.
PANEL_DECAY = 16.0
#: Largest heading turn of one panel, by the segment's bound of ``|mu|``.
PANEL_TURN = 2.0 * math.pi
#: Gauss points per panel: ``NODES_MIN`` plus the integrand's dimension
#: plus ``NODES_PER_RATE`` per unit of the largest ``|i w turn - decay|``
#: of a panel, for the phase weight ``w``.
NODES_MIN = 4
NODES_PER_RATE = 0.6
#: Decay rate per squared node count above which a panel's decay
#: weights are their limit (:func:`_decay_weights`).
HUGE_DECAY = 1e20
#: Gauss points per panel between the two rules of an error estimate.
ESTIMATE_STEP = 4
#: Most panels of one rule.
MAX_PANELS = 2 ** 15
#: Memory the node values of one chain rule may take, which caps its node
#: count ``n``: ``(4,4,4)`` holds 5.8 kB a node. The first evaluation of
#: :func:`integrate_chains` holds both rules of its pair, up to about
#: twice this.
MAX_NODE_BYTES = 64 * 2 ** 20
#: Machine epsilon: decays ``c H`` within ``4 EPS`` share weights.
EPS = float(np.finfo(float).eps)
#: Roundoff of a chain sum relative to the sum of its terms' magnitudes.
CHAIN_ROUNDOFF = 64 * float(np.finfo(float).eps)
#: Relative accuracy target of the chain rule: :func:`integrate_chains`
#: halves its panels until the last two sums agree to ``REL_TOL``, or warns
#: when the next rule would pass the node-value budget or ``MAX_PANELS``.
REL_TOL = 1e-9


def _legendre(n: int, x: np.ndarray):
    """``P_n(x)`` and ``P_n'(x)`` from the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


@lru_cache(maxsize=64)
def _gauss_unit(n: int):
    """Gauss-Legendre nodes and weights mapped to [0, 1].

    numpy's ``leggauss`` nodes take one Newton step, and the weights are
    ``2 / ((1 - x^2) P_n'(x)^2)`` at them: ``leggauss``' own weights are
    off by up to 1e-13 relative at 24 nodes, these by about ``n eps``.
    """
    x, _ = np.polynomial.legendre.leggauss(n)
    p, dp = _legendre(n, x)
    x = x - p / dp
    _, dp = _legendre(n, x)
    w = 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x = 0.5 * (x + 1.0)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# -- the panels ----------------------------------------------------------------

class _Panels(NamedTuple):
    """The panels of ``[0, s]`` and the node count ``m`` of their rule.

    Row ``p`` of ``coef`` holds panel ``p``'s start ``p0``, width ``H`` and,
    for constant and table profiles, the heading ``h0 + B x + C x^2`` in
    the panel coordinate ``x = (t - p0) / H`` (zeros for a polynomial,
    whose heading is evaluated at the nodes). ``graded`` counts the cuts
    that the decay grading added.
    """

    coef: np.ndarray
    m: int
    graded: int = 0

    @property
    def start(self) -> np.ndarray:
        return self.coef[:, 0]

    @property
    def width(self) -> np.ndarray:
        return self.coef[:, 1]


def _check_length(profile: SpeedRatioProfile, s: float) -> None:
    # Written so that NaN, which compares false either way, fails too.
    if not (0.0 <= s <= profile.s_max):
        raise ProfileDomainError(
            f"curve length {s} outside [0, {profile.s_max}]")


def _node_count(turn: float, decay: float, weight, dimension: int) -> int:
    """Gauss points per panel for the largest turn and sampled decay of a
    panel, whose integrand turns ``weight`` times as fast as the heading."""
    return (NODES_MIN + dimension
            + math.ceil(NODES_PER_RATE * math.hypot(weight * turn, decay)))


def _bound(profile: SpeedRatioProfile, end: float) -> float:
    """A bound of ``|mu|`` on ``[0, end]`` for a constant or polynomial
    profile, in Python floats, where an overflow gives inf without a
    numpy warning."""
    bound = 0.0
    for coeff in reversed(profile.coeffs or (profile.mu0,)):
        bound = bound * end + abs(coeff)
    return bound


def _refuse_turn(end: float):
    raise IntegrandEvaluationError(
        f"the heading's turn bound up to t = {end} is not finite",
        point=(end,))


def _refuse_count(turn: float, s: float, count: int):
    raise EnvelopeRefusal(
        f"the heading may turn {turn:.3g} rad over [0, {s}]: the rule would "
        f"need {count} panels, more than {MAX_PANELS}")


def panels(profile: SpeedRatioProfile, s: float, k_theta: float, weight,
           dimension: int) -> _Panels:
    """The panels of ``profile`` on ``[0, s]``, ``s > 0``, for an integrand
    of dimension ``dimension`` whose factors turn with phase weights up to
    ``weight`` and decay at rates up to ``weight**2 k_theta / 2``.

    Segments end at the table knots inside ``(0, s)``; when that largest
    decay ``rate`` times ``s`` passes ``PANEL_DECAY``, more cuts grade them
    toward 0, doubling from ``PANEL_DECAY / rate``, so that no decay
    outgrows the first panel. Each segment gets ``ceil(bound * length /
    PANEL_TURN)`` equal panels, with ``bound`` a bound of ``|mu|`` on it:
    the larger ``|mu|`` at a table segment's ends, ``sum_k |c_k| b^k`` for
    a polynomial on ``[a, b]``. The largest ``|mu|`` times the longest
    segment bounds every segment's turn, so segments are split only when
    it passes ``PANEL_TURN``. The node count ``m`` is :func:`_node_count`
    of the largest turn and decay of a panel. A decay rate or turn bound
    that is not finite raises :class:`IntegrandEvaluationError`, the
    latter at the end of the first segment where it is not, and a rule of
    more than ``MAX_PANELS`` panels :class:`EnvelopeRefusal`.
    """
    rate = 0.5 * weight * weight * k_theta
    if not math.isfinite(rate):
        raise IntegrandEvaluationError(
            f"the decay rate {weight}^2 k_theta / 2 = {rate} is not finite: "
            "k_theta is too large")
    table = profile.kind == "table"
    # Panels start off the table knots when the decay grades them or a
    # segment is split.
    off_knots = rate * s > PANEL_DECAY
    if not (table or off_knots):
        # One segment, in Python floats: the common case, without the
        # array work below.
        turn = _bound(profile, s) * s
        if not math.isfinite(turn):
            _refuse_turn(s)
        count = max(math.ceil(turn / PANEL_TURN), 1)
        if count > MAX_PANELS:
            _refuse_count(turn, s, count)
        width = s / count
        m = _node_count(turn / count, rate * width, weight, dimension)
        mu = profile.mu0
        if count == 1:
            return _Panels(np.array(((0.0, s, profile.theta0, mu * s, 0.0),)), m)
        start = width * np.arange(count)
        return _Panels(np.array([start, np.full(count, width),
                                 profile.theta0 + mu * start,
                                 np.full(count, mu * width),
                                 np.zeros(count)]).T, m)
    if table:
        ks, kmu, kh, slope = profile._panels
        n = bisect.bisect_left(profile.knots_s, s, 1)
        ends = ks[:n + 1].copy()
        ends[n] = s
    else:
        ends = np.array((0.0, s))
    graded = 0
    if off_knots:
        graded = math.ceil(math.log2(rate * s / PANEL_DECAY))
        cuts = PANEL_DECAY / rate * 2.0 ** np.arange(graded)
        # np.union1d, without the import of numpy.ma on its first call.
        ends = np.sort(np.append(ends, cuts))
        ends = ends[np.append(True, ends[1:] != ends[:-1])]
    lengths = ends[1:] - ends[:-1]
    width_max = max(lengths.tolist())
    if table:
        # |mu| at the knots: mu is linear in between.
        largest = max(map(abs, profile.knots_mu[:n + 1])) * width_max
    else:
        bound = np.array([_bound(profile, end) for end in ends[1:].tolist()])
        largest = max(bound.tolist()) * width_max
    if not math.isfinite(largest) or largest > PANEL_TURN:
        if table:
            # The larger |mu| at the knots around each segment.
            bound = np.abs(kmu)
            bound = np.maximum(bound[:-1], bound[1:])[
                np.searchsorted(ks, ends[:-1], side="right") - 1]
        # Python floats: an overflow gives inf without a numpy warning.
        for end, b, length in zip(ends[1:].tolist(), bound.tolist(),
                                  lengths.tolist()):
            if not math.isfinite(b * length):
                _refuse_turn(end)
    width = lengths
    if largest > PANEL_TURN:
        turn = bound * lengths
        counts = np.ceil(turn / PANEL_TURN)
        if counts.sum() > MAX_PANELS:
            _refuse_count(float(turn.sum()), s, int(counts.sum()))
        largest = float((turn / counts).max())
        counts = counts.astype(int)
        width = np.repeat(lengths / counts, counts)
        width_max = float(width.max())
        at = np.arange(width.size) - np.repeat(np.cumsum(counts) - counts, counts)
        ends = np.append(np.repeat(ends[:-1], counts) + at * width, s)
        off_knots = True
    start = ends[:-1]
    m = _node_count(largest, min(rate * width_max, PANEL_DECAY), weight,
                    dimension)
    if not table:
        mu = profile.mu0
        return _Panels(np.array([start, width, profile.theta0 + mu * start,
                                 mu * width, np.zeros_like(width)]).T, m, graded)
    if off_knots:
        knot = np.searchsorted(ks, start, side="right") - 1
        h0, mu, half_slope = (mean_heading(profile, start),
                              np.interp(start, ks, kmu), 0.5 * slope[knot])
    else:
        h0, mu, half_slope = kh[:n], kmu[:n], 0.5 * slope[:n]
    return _Panels(np.array([start, width, h0, mu * width,
                             half_slope * width * width]).T, m, graded)


# -- chain rule ----------------------------------------------------------------

def _piece(m: int, lo: float, hi: float):
    """Points, weights and basis values of :func:`_decay_weights` on the
    piece from ``lo`` to ``hi`` back from each end ``e`` among the ``m``
    Gauss nodes ``x`` of ``[0, 1]`` and 1 (axis 0), cut at ``e``: its
    ``PIECE_NODES`` Gauss points as distances ``back`` from the end, their
    weights, and the Lagrange basis ``l_k`` of the nodes at ``e - back``
    (last axis ``k``)."""
    x, w = _gauss_unit(m)
    ends = np.append(x, 1.0)
    lo, hi = np.minimum(ends, lo), np.minimum(ends, hi)
    px, pw = _gauss_unit(PIECE_NODES)
    back = lo[:, None] + (hi - lo)[:, None] * px
    # l_k at every point, in barycentric form (Berrut & Trefethen, SIAM
    # Rev. 46, 2004), with Gauss nodes' weights (-1)^k sqrt(x_k (1 - x_k) w_k).
    diff = (ends[:, None] - back)[..., None] - x
    hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        basis = (-1.0) ** np.arange(m) * np.sqrt(x * (1.0 - x) * w) / diff
        basis /= basis.sum(axis=-1, keepdims=True)
    rows = hit.any(axis=-1)
    basis[rows] = hit[rows]
    return back, (hi - lo)[:, None] * pw, basis


@lru_cache(maxsize=4)
def _unit_piece(m: int):
    """:func:`_piece` of every rate up to 1: from 0 to each end."""
    piece = _piece(m, 0.0, 1.0)
    for arr in piece:
        arr.setflags(write=False)
    return piece


@lru_cache(maxsize=1024)
def _decay_weights(m: int, rate: float) -> np.ndarray:
    """Weights of the ``m`` Gauss nodes ``x`` of ``[0, 1]`` under the decay
    ``e^{-rate (e - x)}`` up to an end ``e``: rows ``S[i, k] = int_0^{x_i}
    e^{-rate (x_i - x)} l_k(x) dx`` and, last, ``W[k]``, the same up to 1,
    with ``l_k`` the nodes' Lagrange basis (at ``rate = 0``, the spectral
    integration matrix and the Gauss rule), shape ``(m + 1, m)``.

    An integral runs back from ``e`` over pieces that end at ``2**j /
    rate < 1``, ``j <= 6`` (beyond, the decay is below ``e^-64``), on
    ``PIECE_NODES`` Gauss points each, so no rate outgrows its rule; the
    pieces are built and summed one at a time, nearest the end first. Up
    to ``rate = 1`` there is one piece and its basis values, which do not
    depend on the rate, are built once per ``m``. Below ``rate = 1`` it
    integrates ``expm1(-rate (e - x)) l_k(x)`` and adds the ``rate = 0``
    weights, so its roundoff vanishes with ``rate``. Above ``rate =
    HUGE_DECAY m^2`` the weights are their limit ``[I; l(1)] / rate``,
    ``l(1)`` the basis at 1: the next term, ``l_k'(x_i) / rate^2``, is
    below ``eps`` of it.
    """
    if rate > HUGE_DECAY * m * m:
        x, w = _gauss_unit(m)
        end = (-1.0) ** np.arange(m) * np.sqrt(x * (1.0 - x) * w) / (1.0 - x)
        out = np.vstack((np.eye(m), end / end.sum())) / rate
        out.setflags(write=False)
        return out
    cuts = [0.0, *(2.0 ** j / rate for j in range(7) if 2.0 ** j < rate), 1.0]
    small = 0.0 < rate < 1.0
    out = None
    for lo, hi in zip(cuts, cuts[1:]):
        back, weights, basis = (_piece(m, lo, hi) if len(cuts) > 2
                                else _unit_piece(m))
        decay = (np.expm1 if small else np.exp)(-rate * back)
        part = np.einsum("eq,eqk->ek", weights * decay, basis)
        out = part if out is None else out + part
    if small:
        out += _decay_weights(m, 0.0)
    out.setflags(write=False)
    return out


def _runs(rates: list) -> list:
    """``(first, end)`` of each run of consecutive panels whose decays
    ``rates`` lie within ``4 eps`` of the decay of the run's first panel."""
    if max(rates) - min(rates) <= 4.0 * EPS:
        return [(0, len(rates))]
    firsts = [0]
    for p, rate in enumerate(rates):
        if abs(rate - rates[firsts[-1]]) > 4.0 * EPS:
            firsts.append(p)
    return list(zip(firsts, [*firsts[1:], len(rates)]))


def _scan(a: np.ndarray, b: np.ndarray, groups: int = 1) -> np.ndarray:
    """``C_p`` of ``C_0 = 0``, ``C_{p+1} = a_p C_p + b_p``, for ``b`` and the
    result of shape ``(panels, columns)``, the columns in ``groups`` groups
    of equal width. One or two columns a group (the low-order statistics',
    a ``d4_moment`` chain) run a Python loop, which costs less than numpy's
    calls; more double in ``log2(panels)`` steps, row ``p`` holding the
    recurrence run from ``p - 2d`` after the step of ``d``. Either runs
    column by column, so a group's result does not depend on the groups
    beside it. Neither divides by the decays, which may underflow to 0."""
    if b.shape[1] <= 2 * groups:
        a, out = a.tolist(), []
        for column in b.T.tolist():
            c, carried = 0j, []
            for a_p, b_p in zip(a, column):
                carried.append(c)
                c = a_p * c + b_p
            out.append(carried)
        return np.array(out).T
    out = np.empty_like(b)
    out[0] = 0.0
    out[1:] = b[:-1]
    c, step = out[1:], 1
    a = a[:-1, None].copy()
    while step < len(c):
        c[step:] += a[step:] * c[:-step]
        if 2 * step < len(c):
            a[step:] *= a[:-step]
        step *= 2
    return out


class PrefixCarry:
    """The decay prefix integral ``V_c F(t) = int_0^t e^{-c (t - u)} F(u)
    du``, ``c = rate``, at the Gauss points of the panels of the widths
    ``width``: ``counts`` per panel, or each count of the tuple ``counts``
    in turn, their node values stacked count by count on one node axis as
    in :class:`ChainRule`. On a panel ``[p0, p0 + H]``, with ``C = V_c
    F(p0)`` carried in from the panels before it,

        V_c F(t) = e^{-c (t - p0)} C + H (S F)(t),    C <- e^{-c H} C + H W F,

    ``S`` and ``W`` of :func:`_decay_weights` at the rate ``c H``, built
    once per count for a run of panels whose decays lie within ``4 eps``
    (:func:`_runs`) and scaled by each panel's ``H`` into one array, which
    one batched product applies; the carry runs by :func:`_scan`. Each
    count keeps its own products and carry, so its values do not depend
    on the counts stacked with it; one panel has no carry.
    """

    def __init__(self, width: np.ndarray, counts, rate: float) -> None:
        rates = (rate * width).tolist()
        runs = _runs(rates)
        self._panels = panels = width.size
        if panels > 1:
            self._across = np.exp(-rate * width)
        # Per count: its slice of the node axis, m, each panel's weights
        # and the decay in each panel.
        self._rules, at = [], 0
        for m in counts if isinstance(counts, tuple) else (counts,):
            weights = np.empty((panels, m + 1, m))
            for a, b in runs:
                np.multiply(_decay_weights(m, rates[a]), width[a:b, None, None],
                            out=weights[a:b])
            fall = (np.exp(-rate * (width[:, None] * _gauss_unit(m)[0]))
                    if panels > 1 else None)
            self._rules.append((slice(at, at + panels * m), m, weights, fall))
            at += panels * m

    def __call__(self, f: np.ndarray, turn=None) -> np.ndarray:
        """``V_c F`` at the nodes, in the shape of ``f``, for complex and
        contiguous node values ``f`` whose leading axes hold the nodes (the
        stacked node axis, or panels and nodes of one count); with
        ``turn``, on one count, a factor per panel that the carry takes on
        at the panel's end (for ``F`` in panel-local frames)."""
        panels, rules = self._panels, self._rules
        if len(rules) == 1:
            # One count: its node values as they are, without the slicing
            # and the side-by-side carry of a stack.
            (_, m, weights, fall), = rules
            flat = f.reshape(panels, m, -1).view(float)
            inner = (weights[:, :-1] @ flat).view(complex)
            if panels > 1:
                across = self._across
                ends = (weights[:, -1:] @ flat)[:, 0].view(complex)
                if turn is not None:
                    across, ends = turn * across, turn[:, None] * ends
                inner += fall[..., None] * _scan(across, ends)[:, None]
            return inner.reshape(f.shape)
        flat = f.reshape(len(f), -1).view(float)
        out = np.empty_like(flat)
        if panels > 1:
            # Each count's W F side by side: one scan carries them all.
            ends = np.empty((panels, len(rules), flat.shape[1]))
        for i, (at, m, weights, _) in enumerate(rules):
            nodes = flat[at].reshape(panels, m, -1)
            np.matmul(weights[:, :-1], nodes, out=out[at].reshape(panels, m, -1))
            if panels > 1:
                np.matmul(weights[:, -1:], nodes, out=ends[:, i:i + 1])
        out = out.view(complex)
        if panels > 1:
            carried = _scan(self._across, ends.view(complex).reshape(panels, -1),
                            len(rules)).reshape(panels, len(rules), -1)
            for i, (at, m, _, fall) in enumerate(rules):
                inner = out[at].reshape(panels, m, -1)
                inner += fall[..., None] * carried[:, None, i]
        return out.reshape(f.shape)


class ChainRule:
    """Volterra chains on the panels starting at the ascending ``start``
    with the widths ``width``, from 0 to ``s > 0``, on ``m`` Gauss-Legendre
    points per panel for each node count ``m`` of ``counts`` (one count,
    or a tuple of them).

    The nodes ``t`` of the counts are stacked count by count on one node
    axis, count ``i`` at ``slices[i]``: node-wise work runs once for all
    counts, and a chain's sum on count ``i`` reads that slice. A chain is
    its first factor's node values, each later gap factor applied in turn
    through the :class:`PrefixCarry` of its decay rate (:meth:`prefix`),
    and a :meth:`tail_vector` row.
    """

    def __init__(self, start, width, counts) -> None:
        counts = counts if isinstance(counts, tuple) else (counts,)
        self.start, self.width, self.counts = start, width, counts
        self.s = float(start[-1] + width[-1])
        rules = [_gauss_unit(m) for m in counts]
        self.t = np.concatenate([(start[:, None] + width[:, None] * x).ravel()
                                 for x, _ in rules])
        self._weights = np.concatenate([(width[:, None] * w).ravel()
                                        for _, w in rules])
        ends = list(itertools.accumulate(m * width.size for m in counts))
        self.slices = tuple(map(slice, [0, *ends], ends))
        self._carries: dict[float, PrefixCarry] = {}

    def prefix(self, rate: float, f: np.ndarray) -> np.ndarray:
        """:class:`PrefixCarry` at ``c = rate``, built at the first use of
        each rate, applied to node values ``f`` (node axis first)."""
        carry = self._carries.get(rate)
        if carry is None:
            carry = self._carries[rate] = PrefixCarry(self.width, self.counts,
                                                      rate)
        return carry(np.ascontiguousarray(f, dtype=complex))

    def tail_vector(self, tail) -> np.ndarray:
        """Row ``v`` with ``v[a] @ f[a] = int_0^s F(u) tail(s - u) du`` on
        the count of each slice ``a`` of :attr:`slices`, for node values
        ``f`` of ``F``: the Gauss weights times ``tail``, which holds
        ``tail(s - t)`` or is a scalar."""
        return self._weights * tail


def integrate_chains(evaluate, scales, panels: _Panels,
                     node_bytes: int = 16):
    """``sum_i scales[i] * chain_i`` on refined pairs of panel rules.

    ``evaluate(rule)`` returns the nested integrals ``chain_i``, products
    of gap factors of dimension >= 1 or sums of such, on a
    :class:`ChainRule`: one row per count of the rule, aligned with
    ``scales``. The sum runs on the ``m``- and ``m + ESTIMATE_STEP``-node
    rules of ``panels`` (of :func:`panels`), evaluated as one rule of both
    counts, then on the finer count with every panel halved, one count a
    rule, while the last two sums differ by more than ``REL_TOL``
    relative and the roundoff floor. ``evaluate`` holds ``node_bytes`` of
    node values per node, and one rule may take ``MAX_NODE_BYTES`` in
    all; the first evaluation holds both rules of its pair. A first pair
    whose finer rule is past that budget raises :class:`EnvelopeRefusal`,
    naming what drives the node count (``s`` or ``k_theta``); a later rule
    past it, or past ``MAX_PANELS``, warns (:class:`AccuracyWarning`) and
    returns the last sum.

    Returns
    -------
    (value, err_estimate) : tuple[complex, float]
        The last sum, and its distance from the one before (the coarser
        rule of the pair, then the previous finer rule) plus the roundoff
        floor ``CHAIN_ROUNDOFF * sum_i |scales[i] * chain_i|``.
    """
    scales = np.asarray(scales)
    cap = MAX_NODE_BYTES // node_bytes
    start, width, fine_m = panels.start, panels.width, panels.m + ESTIMATE_STEP
    if fine_m * width.size > cap:
        cause = (f"k_theta: {panels.graded} cuts grade its decay toward 0"
                 if 2 * panels.graded >= width.size else "s: the heading's turn")
        raise EnvelopeRefusal(
            f"the chain rule would need {fine_m * width.size} nodes ("
            f"{width.size} panels of {fine_m}) of {node_bytes} bytes of node "
            f"values each, more than its budget of {MAX_NODE_BYTES} bytes; "
            f"the panel count is driven by {cause}")

    def totals(rule):
        """The sum on each count of ``rule``, and the sum of its terms'
        magnitudes on the last."""
        # A non-finite sum raises below; numpy's warnings would only
        # repeat it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            terms = scales * evaluate(rule)
            values = [complex(row.sum()) for row in terms]
        for m, value in zip(rule.counts, values):
            if not np.isfinite(value):
                raise IntegrandEvaluationError(
                    f"chain integral is not finite on the {m * width.size}-node "
                    "rule")
        return values, float(np.abs(terms[-1]).sum())

    (coarse, fine), magnitude = totals(ChainRule(start, width,
                                                 (panels.m, fine_m)))
    while True:
        diff = abs(fine - coarse)
        floor = CHAIN_ROUNDOFF * magnitude
        if diff <= max(REL_TOL * abs(fine), floor):
            return fine, diff + floor
        if 2 * fine_m * width.size > cap or 2 * width.size > MAX_PANELS:
            warnings.warn(
                f"chain refinement stopped at {fine_m * width.size} nodes "
                f"with the error estimate {diff + floor:.3e} above REL_TOL = "
                f"{REL_TOL:.1e} times the chain sum {abs(fine):.3e}",
                AccuracyWarning, stacklevel=3)
            return fine, diff + floor
        # Every panel halved.
        width = np.repeat(0.5 * width, 2)
        start = np.column_stack((start, start + width[::2])).ravel()
        coarse = fine
        (fine,), magnitude = totals(ChainRule(start, width, fine_m))
