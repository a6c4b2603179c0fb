"""Arbitrary-order moments of the noisy unicycle displacement.

Write ``u`` for the complex displacement ``x + i y`` accumulated by the
noisy motion and ``w`` for its conjugate partner, and ``theta_tilde`` for
the zero-mean heading fluctuation. Every planar statistic is a polynomial
combination of the moments ``<u^p w^q theta_tilde^r>``, and each such
moment is an exact finite sum

    sum over keys (n, l, m)
        k_r^n * coefficient * s^m * e^{i (p-q) theta0}
        * sum over phase-step vectors c
            * sum over power compositions gamma
                * (gamma factor) * nested ordered integral of dimension beta

where the keys classify how the shift-noise factors pair up (``n`` pairs
in total, ``l`` of them on the conjugate side, ``m`` mixed), ``beta =
p + q - n - m`` is the dimension of the remaining integral, and the
phase-step vector ``c`` (entries in {-2, -1, 1, 2}) records how the
running phase weight changes across the ordered sample points. The
``gamma`` compositions distribute the ``theta_tilde`` power across the
``beta + 1`` inter-sample gaps; the last part must be even because an odd
residual Gaussian power averages to zero.

The terms are regrouped, not evaluated one by one: a key's vectors are
all orderings of one multiset of steps, and each gap factor depends only
on the running weight, that is on the multiset of steps taken before it.
So the nested integrals of all terms are summed as a walk over used
steps (:class:`_Walk`), whose states every key shares. Coefficients are
evaluated in exact integer arithmetic and converted to float once per
key; the walk visits its states in a fixed order (level, weight, step
counts), adds predecessors in step order and closes keys in the order of
``term_keys``, so runs are bit-reproducible.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import warnings
from dataclasses import dataclass
from math import comb, factorial
from typing import Iterator

import numpy as np

from .exceptions import (EnvelopeWarning, IntegrandEvaluationError,
                         NumericalConsistencyError, TermKeyError)
from .quadrature import _check_length, integrate_chains, panels
from .trajectory import NoiseParams, SpeedRatioProfile, mean_heading

#: Guaranteed cost envelope; larger requests work but warn.
MAX_TOTAL_POWER = 8
MAX_HEADING_POWER = 4

#: Roundoff of a moment beyond the chain rule's floor, per unit of the bound
#: ``_Walk.moduli`` on the integral of its integrand's modulus: sixteen
#: times the largest share (0.004 eps) that 640 random constant-ratio
#: moments showed against 50-digit values on the global Chebyshev rule.
#: On the heading-free operators the chain floor alone does not always
#: cover the error: ``<w^4>`` at constant ``mu0 = 13.97``, ``K = 0.0147``,
#: ``s = 0.913`` is 2.5e-18 off with a chain estimate of 1.7e-18, and this
#: term adds 1.1e-17. Over random moments with ``p, q <= 6``, ``mu0`` up to
#: 25 and ``K`` in [0.003, 3] it is up to 99% of an estimate.
MODULUS_ROUNDOFF = float(np.finfo(float).eps) / 16


@dataclass(frozen=True)
class MomentSpec:
    """Requested moment orders: displacement powers p, q and heading power r."""

    p: int
    q: int
    r: int = 0

    def __post_init__(self) -> None:
        if min(self.p, self.q, self.r) < 0:
            raise ValueError("moment orders must be non-negative")

    @property
    def within_envelope(self) -> bool:
        return self.p + self.q <= MAX_TOTAL_POWER and self.r <= MAX_HEADING_POWER


@dataclass(frozen=True)
class TermKey:
    """One (n, l, m) pairing class of the moment expansion for given (p, q).

    ``n`` counts the paired shift-noise factors, ``l`` how many of the
    paired factors sit on the conjugate side, ``m`` how many pairs mix the
    two sides. The derived counts give the multiset content of the
    phase-step vectors and the dimension of the remaining integral.
    """

    p: int
    q: int
    n: int
    l: int
    m: int

    def __post_init__(self) -> None:
        p, q, n, l, m = self.p, self.q, self.n, self.l, self.m
        if min(p, q, n, l, m) < 0:
            raise TermKeyError("indices must be non-negative")
        if n > (p + q) // 2:
            raise TermKeyError(f"n={n} exceeds floor((p+q)/2)")
        if l > 2 * n or 2 * n - l > p or l > q:
            raise TermKeyError(f"l={l} out of range for n={n}, p={p}, q={q}")
        if m > min(l, 2 * n - l) or (l - m) % 2:
            raise TermKeyError(f"m={m} invalid for l={l}, n={n}")
        # Conservation of the phase weight across the whole vector.
        alpha = (2 * self.count_minus2 + self.count_minus1
                 - self.count_plus1 - 2 * self.count_plus2)
        if alpha != p - q:
            raise TermKeyError("phase-weight bookkeeping broken")

    @property
    def count_minus2(self) -> int:
        return (2 * self.n - self.l - self.m) // 2

    @property
    def count_minus1(self) -> int:
        return self.p - 2 * self.n + self.l

    @property
    def count_plus2(self) -> int:
        return (self.l - self.m) // 2

    @property
    def count_plus1(self) -> int:
        return self.q - self.l

    @property
    def dimension(self) -> int:
        """Dimension beta of the remaining ordered integral."""
        return self.p + self.q - self.n - self.m


@dataclass(frozen=True)
class MomentResult:
    """Moment value with an accumulated error estimate and term count."""

    value: complex
    err_estimate: float
    terms_evaluated: int


def term_keys(p: int, q: int) -> list[TermKey]:
    """All valid (n, l, m) keys for ``<u^p w^q ...>``, lexicographic."""
    keys = []
    for n in range((p + q) // 2 + 1):
        for l in range(max(0, 2 * n - p), min(2 * n, q) + 1):
            for m in range(l % 2, min(l, 2 * n - l) + 1, 2):
                keys.append(TermKey(p, q, n, l, m))
    return keys


def double_factorial(k: int) -> int:
    """k!! with the conventions (-1)!! = 0!! = 1."""
    if k < -1:
        raise ValueError("double factorial undefined below -1")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def coefficient(key: TermKey) -> int:
    """Exact integer prefactor of one (n, l, m) term.

    Binomials choose which displacement factors join pairs, the factorial
    and double factorials count the distinct pairings (``m`` mixed pairs,
    the rest matched within each side), and the four trailing factorials
    count the orderings collapsed when the surviving sample indices are
    sorted.
    """
    p, q, n, l, m = key.p, key.q, key.n, key.l, key.m
    return (comb(p, 2 * n - l) * comb(q, l) * comb(2 * n - l, m) * comb(l, m)
            * factorial(m)
            * double_factorial(2 * n - l - m - 1)
            * double_factorial(l - m - 1)
            * factorial(key.count_minus2) * factorial(key.count_plus2)
            * factorial(key.count_minus1) * factorial(key.count_plus1))


def _multiset_permutations(counts: dict[int, int], length: int) -> Iterator[tuple[int, ...]]:
    if length == 0:
        yield ()
        return
    for v in sorted(counts):
        if counts[v]:
            counts[v] -= 1
            for rest in _multiset_permutations(counts, length - 1):
                yield (v,) + rest
            counts[v] += 1


def phase_step_vectors(key: TermKey) -> list[tuple[int, ...]]:
    """All distinct phase-step vectors of a key, lexicographic order.

    Each vector has ``count_plus2`` entries equal to 2, ``count_plus1``
    equal to 1, ``count_minus1`` equal to -1 and ``count_minus2`` equal
    to -2; its prefix sums shift the running phase weight, ending at
    ``q - p``.
    """
    counts = {-2: key.count_minus2, -1: key.count_minus1,
              1: key.count_plus1, 2: key.count_plus2}
    counts = {v: c for v, c in counts.items() if c}
    return list(_multiset_permutations(counts, key.dimension))


def count_phase_step_vectors(key: TermKey) -> int:
    """Closed-form count of the phase-step vectors of a key."""
    beta = key.dimension
    return (comb(beta, key.count_plus1)
            * comb(beta - key.count_plus1, key.count_minus1)
            * comb(key.count_minus2 + key.count_plus2, key.count_plus2))


def theta_power_compositions(r: int, beta: int) -> list[tuple[int, ...]]:
    """Compositions of r into ``beta + 1`` non-negative parts, last even.

    Lexicographic order. Empty when no composition exists (odd ``r`` with
    ``beta == 0``). The parts are allowed to be zero: the multinomial
    expansion of the fluctuation power produces zero exponents, and a
    positive-parts reading would wrongly annihilate the odd mixed moments.
    """
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, parts_left: int) -> None:
        if parts_left == 1:
            if remaining % 2 == 0:
                out.append(prefix + (remaining,))
            return
        for v in range(remaining + 1):
            rec(prefix + (v,), remaining - v, parts_left - 1)

    rec((), r, beta + 1)
    return out


def _count_theta_power_compositions(r: int, beta: int) -> int:
    """Closed-form ``len(theta_power_compositions(r, beta))``: an even last
    part ``e`` leaves ``r - e`` for ``beta`` parts."""
    if beta == 0:
        return 1 - r % 2
    return sum(comb(r - e + beta - 1, beta - 1) for e in range(0, r + 1, 2))


def _pairings(g: int, a: int) -> int:
    """Ways to pick ``a`` disjoint pairs among ``g`` items,
    ``g! / (a! (g-2a)! 2^a)``."""
    return factorial(g) // (factorial(a) * factorial(g - 2 * a) * 2 ** a)


@functools.lru_cache(maxsize=None)
def _gap_table(r: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gaussian-moment polynomials of the gaps, for powers ``g <= r``.

    A gap of length ``x``, weight ``w`` and fluctuation power ``g`` carries
    ``i^g R_{w,g}(x)``, with the real polynomial

        R_{w,g}(x) = sum_a (-1)^a g! / (a! (g-2a)! 2^a)
                     * (w sqrt(k_theta))^(g-2a) * x^(g-a) / g!:

    the integer prefactors count the ways to pair off ``2a`` of the ``g``
    fluctuation factors, each pair contributing the gap variance ``x`` and
    each unpaired factor ``i w sqrt(k_theta x)``. Returns ``coef[g, e]``
    and ``expo[g, e]`` with ``R_{w,g}(x) = sum_e coef[g, e] * (w
    sqrt(k_theta))^expo[g, e] * x^e``, read only.
    """
    coef = np.zeros((r + 1, r + 1))
    expo = np.zeros((r + 1, r + 1), dtype=int)
    for g in range(r + 1):
        for a in range(g // 2 + 1):
            coef[g, g - a] = (-1) ** a * _pairings(g, a) / factorial(g)
            expo[g, g - a] = g - 2 * a
    coef.setflags(write=False)
    expo.setflags(write=False)
    return coef, expo


@functools.lru_cache(maxsize=None)
def _modulus_table(r: int):
    """The tables of :meth:`_Walk.moduli` for heading powers ``g <= r``:
    ``|coef|`` and ``expo`` of :func:`_gap_table`, the powers ``e``, ``e +
    1`` and ``e!``, and the index and mask that turn a row by ``g`` into
    the lower triangular Toeplitz matrix ``[h, h'] -> row[h - h']``."""
    coef, expo = _gap_table(r)
    e = np.arange(r + 1)
    shift = e[:, None] - e
    out = (np.abs(coef), expo, e, e + 1.0, np.cumprod(np.maximum(e, 1.0)),
           np.maximum(shift, 0), (shift >= 0).astype(float))
    for arr in out:
        arr.setflags(write=False)
    return out


def _gap_polynomials(r: int, w: int, kt: float) -> np.ndarray:
    """``C[g, e]``, the coefficient of ``x^e`` in ``R_{w,g}(x)``, ``g <= r``."""
    coef, expo = _gap_table(r)
    return coef * (w * kt ** 0.5) ** expo


@functools.lru_cache(maxsize=256)
def _gap_mixing(r: int, w: int, kt: float):
    """How a gap of weight ``+-w`` and power ``g``, which applies ``sum_e
    C[g, e] e! V^(e + 1)`` (:class:`_GapFactors`), takes the heading power
    ``h'`` before it to ``h = h' + g``: the count of powers ``V^(e + 1)``
    it reads, and the matrices of ``+w`` and ``-w`` that take ``V^(e + 1)
    F[h']``, stacked by ``e`` and then ``h' <= r - e``, to the powers
    ``h``, ``(+-1)^g C[g, e] e!`` with ``g = h - h'``, read only."""
    coef = _gap_polynomials(r, w, kt) * np.cumprod(
        np.maximum(np.arange(r + 1), 1))
    count = 1 + max(e for e in range(r + 1) if coef[:, e].any())
    stack = [(e, h) for e in range(count) for h in range(r + 1 - e)]
    mix = np.zeros((2, r + 1, len(stack)))
    for k, (e, h) in enumerate(stack):
        g = np.arange(r + 1 - h)
        mix[0, h + g, k] = coef[g, e]
        mix[1, h + g, k] = coef[g, e] * (-1.0) ** g
    mix.setflags(write=False)
    return count, mix


class _GapFactors:
    """The gap factors of one moment on one chain rule, split at the nodes.

    The gap from ``u`` to ``t`` with phase weight ``w`` and fluctuation
    power ``g`` contributes

        exp(i w (heading(t) - heading(u)) - w^2 k_theta (t - u) / 2)
        * i^g R_{w,g}(t - u)

    (:func:`_gap_table`), the first gap starting at ``u = 0``; ``g`` runs
    up to the moment's heading power ``r``. Its phase is ``E_w(t)
    conj(E_w(u))`` with ``E_w = exp(i w (heading - theta0))``, so the
    heading is sampled once per rule, at ``rule.t``, and enters only
    through those node vectors (:meth:`phases`). What is left of an inner
    factor is real and heading-free: ``x^e e^{-c x} / e!``, ``x = t - u``,
    ``c = w^2 k_theta / 2``, is the ``(e + 1)``-fold convolution of
    ``e^{-c x}``, so the factor applies ``sum_e C[g, e] e! V_c^(e + 1)``
    with ``C`` of :func:`_gap_polynomials` and the prefix integral ``V_c``
    of the rule (:meth:`integrate`); ``R_{-w,g} = (-1)^g R_{w,g}``. The
    phases and the ``i^g``, which multiply to ``i^h`` along a chain, are
    the caller's; each tail power becomes one tail row.
    """

    def __init__(self, rule, profile: SpeedRatioProfile, kt: float,
                 r: int) -> None:
        self.rule = rule
        self._r = r
        self.kt = kt
        self._heading = mean_heading(profile, rule.t) - profile.theta0
        self._tails: dict[int, np.ndarray] = {}

    def phases(self, weights) -> np.ndarray:
        """``E_w`` at the nodes, one column per weight ``w`` of ``weights``."""
        return np.exp(1j * np.multiply.outer(self._heading, weights))

    def first(self, w: int) -> np.ndarray:
        """Node values of the first gap's factors, ``0 -> t_j``, by ``g``,
        without ``E_w(t_j)`` and ``i^g``: real."""
        t = self.rule.t
        decay = np.exp((-0.5 * w * w * self.kt) * t)
        if not self._r:
            return decay[None]
        return (_gap_polynomials(self._r, w, self.kt)
                @ t ** np.arange(self._r + 1)[:, None]) * decay

    def integrate(self, w: int, f: np.ndarray) -> np.ndarray:
        """``V_c`` of node values ``f`` (node axis first), ``c = w^2 k_theta
        / 2``."""
        return self.rule.prefix(0.5 * w * w * self.kt, f)

    def tail(self, power: int) -> np.ndarray:
        out = self._tails.get(power)
        if out is None:
            out = self.rule.tail_vector((self.rule.s - self.rule.t) ** power)
            self._tails[power] = out
        return out


#: The steps -2, -1, 1, 2 of a walk state's counts, in slot order.
_STEPS = (-2, -1, 1, 2)


def _step_counts(key: TermKey) -> tuple[int, int, int, int]:
    return (key.count_minus2, key.count_minus1, key.count_plus1,
            key.count_plus2)


def _without(u: tuple[int, ...], i: int) -> tuple[int, ...]:
    return u[:i] + (u[i] - 1,) + u[i + 1:]


class _Walk:
    """All chains of one moment, summed as a walk over used phase steps.

    A state ``u`` counts the phase steps already taken; every chain whose
    first ``|u|`` steps are some ordering of them has the running weight
    ``w(u) = p - q + sum(u)`` on its next gap. With ``h`` the heading power
    spent so far, the node values

        F[0, h] = i^h E_{p-q} first(p - q, h),
        F[u, h] = sum_g K[w(u), g] sum_{v in u} F[u - v, h - g]

    (``K`` the inner gap factor as an integral operator, ``1/g!`` folded
    into it) sum all those chain prefixes at
    once. A close ``(u, h)`` is ``tail(r - h) @ F[u, h]``: for a key with
    step counts ``c`` and ``u = c - v``, the sum of its chains whose last
    step is ``v``, with tail power ``r - h`` (the last step sets no gap).

    The walk runs in the rotating frame ``G[u, h] = conj(E_{w(u)}) F[u, h]
    / i^h`` of :class:`_GapFactors`, where every operator is real and the
    heading enters through fixed node vectors: a predecessor ``u - v``
    comes in times the step phase ``E_{w(u - v)} conj(E_{w(u)}) = exp(-i
    v heading)``, and with ``c = w(u)^2 k_theta / 2``

        G[0, h] = first(p - q, h),
        P[u, h] = sum_v exp(-i v heading) G[u - v, h],
        G[u, h] = sum_g sum_e C[g, e] e! V_c^(e + 1) P[u, h - g],

    and a close multiplies ``G[u, h]`` by ``E_{w(u)}`` before its tail row;
    its ``i^h`` is left to its scale.

    Only states below some close are visited. They run level by level
    (``|u|``), then by ``|w|``, then by weight and counts. A level sums
    its predecessors in one pass, adding them in step order ``-2, -1, 1,
    2``; the states of one level sharing ``|w|`` go through the powers
    ``V_c^(e + 1)`` together, each one prefix integral of the one before
    over the heading powers it still reaches, and one real matrix product
    per sign of ``w`` takes them to the heading powers after the gap
    (:func:`_gap_mixing`). Results are therefore bit-reproducible.
    """

    def __init__(self, w0: int, r: int,
                 closes: list[tuple[tuple[int, ...], int]]) -> None:
        self._w0 = w0
        self._r = r
        states = set()
        todo = [u for u, _ in closes]
        while todo:
            u = todo.pop()
            if u not in states:
                states.add(u)
                todo += [_without(u, i) for i in range(4) if u[i]]

        def weight(u):
            return w0 + 2 * (u[3] - u[0]) + u[2] - u[1]

        # (level, |weight|, weight, counts) of every state, in walk order.
        order = sorted((sum(u), abs(weight(u)), weight(u), u) for u in states)
        index = {u: i for i, (*_, u) in enumerate(order)}
        size = len(order)
        self._size = size
        # One predecessor slot per step, the all-zero state where it is absent.
        preds = np.array([[index[_without(u, i)] if u[i] else size
                           for i in range(4)] for *_, u in order])
        self._weights = np.array(sorted({w for _, w, *_ in order}))
        slot = {w: i for i, w in enumerate(self._weights)}
        # Levels after the empty state: their bounds, predecessors, runs of
        # one |w| (its first state, first state of positive weight, end)
        # and each state's |w| by its place in ``_weights``.
        self._levels = []
        lo = 1
        for _, level in itertools.groupby(order[1:], key=lambda x: x[0]):
            level = list(level)
            runs = []
            start = lo
            for w, run in itertools.groupby(level, key=lambda x: x[1]):
                run = list(run)
                runs.append((w, start, start + sum(x[2] < 0 for x in run),
                             start + len(run)))
                start += len(run)
            self._levels.append((lo, start, preds[lo:start], runs,
                                 np.array([slot[x[1]] for x in level])))
            lo = start
        # Bytes of node values evaluate holds per node: r + 1 complex ones
        # per state and the all-zero one.
        self.node_bytes = 16 * (r + 1) * (size + 1)
        self.largest_weight = int(self._weights[-1])
        self._close_h = np.array([h for _, h in closes], dtype=int)
        self._close_u = np.array([index[u] for u, _ in closes], dtype=int)
        self._close_tail = (r - self._close_h) // 2
        beta = [sum(u) + 1 for u, _ in closes]
        self.dimension = max(beta)
        self._close_beta = np.array(beta, dtype=int)
        self._close_inverse_factorial = np.array([1.0 / factorial(b)
                                                  for b in beta])
        # The node vectors E_w of a rule: the step phases E_{-v}, in slot
        # order, and each close's E_{w(u)}.
        close_w = [weight(u) for u, _ in closes]
        self._phase_weights = sorted({-v for v in _STEPS} | set(close_w))
        self._step_at = [self._phase_weights.index(-v) for v in _STEPS]
        self._close_at = [self._phase_weights.index(w) for w in close_w]

    def moduli(self, kt: float, s: float) -> np.ndarray:
        """Bounds of the integrals of the closes' integrand moduli.

        A factor's modulus is at most its decay times its Gaussian-moment
        polynomial with absolute coefficients. Two bounds of the nested
        integral of such a product over the gaps ``x_b >= 0``, ``sum x_b
        <= s``, are walked like the closes, and the smaller one is kept:
        each factor at its largest (``x_b = s``, no decay) times the volume
        ``s**beta / beta!``, and the product of each factor's integral
        over ``[0, s]``. The tail adds at most ``s**((r - h) / 2)``.
        """
        r = self._r
        coef, expo, e, e1, factorial_e, shift, lower = _modulus_table(r)
        w = self._weights
        # |coefficients| of x^e in each |w|'s polynomials, (|w|, g, e).
        coef = coef * (w[:, None, None] * kt ** 0.5) ** expo
        # int_0^s x^e exp(-w^2 k_theta x / 2) dx, bounded two ways.
        with np.errstate(divide="ignore"):
            area = np.minimum(s ** e1 / e1,
                              factorial_e / (0.5 * kt * w * w)[:, None] ** e1)
        # (|w|, [top, area], g), and as the lower triangular Toeplitz
        # matrices (|w|, [top, area], h, h - g) that shift the heading power.
        x = np.empty(area.shape + (2,))
        x[..., 0] = s ** e
        x[..., 1] = area
        bounds = (coef @ x).transpose(0, 2, 1)
        toeplitz = bounds[..., shift] * lower
        f = np.zeros((self._size + 1, 2, r + 1))
        f[0] = bounds[np.searchsorted(w, abs(self._w0))]
        for lo, hi, preds, _, at in self._levels:
            f[lo:hi] = (toeplitz[at] @ f[preds].sum(axis=1)[..., None])[..., 0]
        top, area = f[self._close_u, :, self._close_h].T
        volume = s ** self._close_beta * self._close_inverse_factorial
        return s ** self._close_tail * np.minimum(top * volume, area)

    def evaluate(self, factors: _GapFactors) -> np.ndarray:
        """The value of every close on the rule of ``factors``, each without
        its ``i^h``: one row per count of the rule, its nodes walked
        together and closed count by count."""
        r = self._r
        n = factors.rule.t.size
        phases = factors.phases(self._phase_weights)
        steps = phases[:, self._step_at]
        f = np.zeros((n, r + 1, self._size + 1), dtype=complex)
        f[:, :, 0] = factors.first(self._w0).T
        for lo, hi, preds, runs, _ in self._levels:
            prev = np.einsum("jhks,js->jhk", f[:, :, preds], steps, order="C")
            for w, a, mid, b in runs:
                count, mix = _gap_mixing(r, w, factors.kt)
                # V^(e + 1) of the heading powers h' <= r - e before the gap,
                # stacked, as real values with twice the columns.
                y, powers = prev[:, :, a - lo:b - lo], []
                for e in range(count):
                    y = factors.integrate(w, y[:, :r + 1 - e])
                    powers.append(y)
                y = np.concatenate(powers, axis=1).view(float)
                split = 2 * (mid - a)
                if mid > a:
                    f[:, :, a:mid] += (mix[1] @ y[..., :split]).view(complex)
                if b > mid:
                    f[:, :, mid:b] += (mix[0] @ y[..., split:]).view(complex)
        ends = f[:, self._close_h, self._close_u] * phases[:, self._close_at]
        tails = np.array([factors.tail(power)
                          for power in range(r // 2 + 1)])[self._close_tail]
        return np.array([np.einsum("jc,cj->c", ends[a], tails[:, a])
                         for a in factors.rule.slices])


def _check_envelope(spec: MomentSpec) -> None:
    if not spec.within_envelope:
        warnings.warn(
            f"moment ({spec.p}, {spec.q}, {spec.r}) is outside the guaranteed "
            f"envelope (p+q <= {MAX_TOTAL_POWER}, r <= {MAX_HEADING_POWER}); "
            "its cost and error estimate are untested there",
            EnvelopeWarning, stacklevel=3)


@dataclass(frozen=True)
class _Plan:
    """What a moment of given orders sums, whatever its profile and noise.

    A term of key ``(n, l, m)`` scales as ``k_r^n s^m``; ``coef`` holds the
    rest of its factor but ``k_theta^(r/2) e^{i (p-q) theta0}``, one entry
    per close of ``walk`` (``i^h`` included) and per dimension-0 term
    (``const_*``, the trailing ``s**(r/2)`` included at call time).
    """

    walk: _Walk | None
    coef: np.ndarray
    n: np.ndarray
    m: np.ndarray
    const_coef: np.ndarray
    const_n: np.ndarray
    const_m: np.ndarray
    terms: int


@functools.lru_cache(maxsize=256)
def _plan(p: int, q: int, r: int) -> _Plan:
    """The enumeration of ``<u^p w^q theta_tilde^r>``, once per orders."""
    r_fact = factorial(r)
    closes, parts, const = [], [], []
    n_terms = 0
    for key in term_keys(p, q):
        beta = key.dimension
        compositions = _count_theta_power_compositions(r, beta)
        n_terms += count_phase_step_vectors(key) * compositions
        if not compositions:
            continue
        base = coefficient(key)
        # h: heading power of the gaps; the tail takes the even rest.
        for h in range(r % 2, r + 1, 2) if beta else (0,):
            part = (base * r_fact * double_factorial(r - h - 1)
                    / factorial(r - h))
            if beta == 0:
                const.append((part, key.n, key.m))
                continue
            # One close per last step: the roundoff floor sums the closes'
            # moduli, and whole keys cancel more than their parts.
            counts = _step_counts(key)
            for i in range(4):
                if counts[i]:
                    closes.append((_without(counts, i), h))
                    parts.append((part * (1, 1j, -1, -1j)[h % 4], key.n, key.m))

    def columns(rows, dtype):
        # (coefficient, n, m) rows as read-only columns: every call shares them.
        out = [np.array([row[i] for row in rows], dtype=kind)
               for i, kind in enumerate((dtype, int, int))]
        for col in out:
            col.setflags(write=False)
        return out

    return _Plan(_Walk(p - q, r, closes) if closes else None,
                 *columns(parts, complex), *columns(const, float), n_terms)


def displacement_heading_moment(p: int, q: int, r: int,
                                profile: SpeedRatioProfile,
                                params: NoiseParams, s: float
                                ) -> MomentResult:
    """Compute ``<u^p w^q theta_tilde^r>`` from the term expansion.

    The terms of one key share its exact integer coefficient; those of
    dimension ``beta >= 1`` are nested integrals of gap-factor chains,
    summed by the lattice walk of :class:`_Walk` on the chain rule of
    :mod:`quadrature`, on the panels of its largest phase weight and close
    dimension, with one close per key, last step and heading power before
    the tail. Dimension-0 terms use the empty-integral-equals-1 convention
    with the trailing gap factor ``s**(r/2)`` applied analytically. The
    enumeration and the walk depend on the orders only and are built once
    per orders (:func:`_plan`). The error estimate is that of the summed
    closes (coarse/fine difference plus roundoff floor) plus
    ``MODULUS_ROUNDOFF`` times the bound :meth:`_Walk.moduli`;
    ``terms_evaluated`` counts the enumerated terms, vectors times
    compositions summed over the keys; an ``s`` outside ``[0, s_max]`` is
    refused (:class:`~brownian_unicycle.exceptions.ProfileDomainError`).
    """
    _check_envelope(MomentSpec(p, q, r))
    _check_length(profile, s)
    plan = _plan(p, q, r)
    kr, kt = params.k_r, params.k_theta
    common = kt ** (0.5 * r) * cmath.exp(1j * (p - q) * profile.theta0)
    # An overflow raises below; numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        total = complex(common * s ** (r // 2) * np.sum(
            plan.const_coef * kr ** plan.const_n * s ** plan.const_m))
        scales = plan.coef * (kr ** plan.n * s ** plan.m) * common
    if not (cmath.isfinite(total) and np.isfinite(scales).all()):
        raise IntegrandEvaluationError(
            f"k_r = {kr:g} overflows the terms' factors k_r**n s**m")
    if s == 0.0 or not scales.any():
        return MomentResult(total, 0.0, plan.terms)
    walk = plan.walk

    def evaluate(rule):
        return walk.evaluate(_GapFactors(rule, profile, kt, r))

    value, err = integrate_chains(
        evaluate, scales,
        panels(profile, s, kt, walk.largest_weight, walk.dimension),
        walk.node_bytes)
    # A rotating chain sum can cancel far below the moduli of its closes,
    # while the roundoff of its sampled phases scales with the integral of
    # the integrand's modulus.
    err += MODULUS_ROUNDOFF * float(np.abs(scales) @ walk.moduli(kt, s))
    return MomentResult(total + value, err, plan.terms)


def displacement_moment(p: int, q: int, profile: SpeedRatioProfile,
                        params: NoiseParams, s: float) -> MomentResult:
    """Compute ``<u^p w^q>`` (heading power zero)."""
    return displacement_heading_moment(p, q, 0, profile, params, s)


def cartesian_moment(i: int, j: int, k: int, profile: SpeedRatioProfile,
                     params: NoiseParams, s: float) -> float:
    """Compute ``<x^i y^j theta_tilde^k>`` by binomial expansion.

    ``x = (u + w)/2`` and ``y = (u - w)/(2i)`` turn the request into a
    linear combination of displacement-heading moments
    ``<u^p w^(i+j-p) theta_tilde^k>``, one per ``p``; since ``w`` is the
    conjugate of ``u``, those with ``p < i+j-p`` are the conjugates of
    their mirror images and are not computed again. The assembled result
    must be real; its imaginary residue is checked against
    ``1e-8 * |value|`` (plus a roundoff floor tied to the term magnitudes
    and the quadrature error estimate) and then discarded.
    """
    _check_envelope(MomentSpec(i, j, k))
    power = i + j
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EnvelopeWarning)
        moments = {p: displacement_heading_moment(p, power - p, k, profile,
                                                  params, s)
                   for p in range((power + 1) // 2, power + 1)}
    pref = 0.5 ** (i + j) * (-1j) ** j
    total = 0.0 + 0.0j
    err = 0.0
    magnitude = 0.0
    for a in range(i + 1):
        for b in range(j + 1):
            coef = pref * comb(i, a) * comb(j, b) * (-1) ** (j - b)
            p = a + b
            res = moments[max(p, power - p)]
            value = res.value if 2 * p >= power else res.value.conjugate()
            total += coef * value
            err += abs(coef) * res.err_estimate
            magnitude += abs(coef) * abs(value)
    tol = 1e-8 * abs(total) + 1e-13 * magnitude + err
    if abs(total.imag) > tol:
        raise NumericalConsistencyError(
            f"imaginary residue {total.imag:.3e} exceeds tolerance {tol:.3e} "
            f"for <x^{i} y^{j} theta~^{k}>")
    return total.real
