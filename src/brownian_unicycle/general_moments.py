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
from math import comb, factorial, inf
from typing import Iterator

import numpy as np

from .exceptions import (EnvelopeWarning, NumericalConsistencyError,
                         TermKeyError)
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings, integrate_chains
from .trajectory import NoiseParams, SpeedRatioProfile, mean_heading

#: Guaranteed cost envelope; larger requests work but warn.
MAX_TOTAL_POWER = 8
MAX_HEADING_POWER = 4

#: Roundoff of a moment beyond the chain rule's floor, per unit of the bound
#: ``_Walk.moduli`` on the integral of its integrand's modulus: sixteen
#: times the largest share (0.004 eps) seen on 640 random constant-ratio
#: moments against 50-digit values.
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


def _gap_polynomial(g: int, w: int, kt: float, dt):
    """Gaussian-moment factor of one gap carrying fluctuation power g.

    ``sum_a g! / (a! (g-2a)! 2^a) * (i w sqrt(kt))^(g-2a) * dt^(g-a)``; the
    integer prefactors count the ways to pair off 2a of the g fluctuation
    factors, each pair contributing the gap variance ``dt`` and each
    unpaired factor ``i w sqrt(kt dt)``.
    """
    base = 1j * w * np.sqrt(kt)
    acc = 0.0
    for a in range(g // 2 + 1):
        acc = acc + _pairings(g, a) * base ** (g - 2 * a) * dt ** (g - a)
    return acc


class _Gaps:
    """Factors of one family of gaps, from one complex exponential.

    The rotation ``exp(i dtheta)`` is evaluated once; the phase of weight
    ``w`` is its ``|w|``-th power by repeated squaring (conjugated for
    ``w < 0``; a complex ``**`` costs about ten products), and the decay
    ``exp(-w^2 k_theta dt / 2)`` is a real exponential.
    """

    def __init__(self, dtheta, dt, kt: float) -> None:
        self._rotation = np.exp(1j * dtheta)
        self._dt = dt
        self._kt = kt

    def factors(self, w: int, powers: int) -> list[np.ndarray]:
        """``exp(i w dtheta - w^2 k_theta dt / 2)
        * _gap_polynomial(g, w, k_theta, dt) / g!`` for ``g < powers``."""
        phase, square, k = None, self._rotation, abs(w)
        while k:
            if k & 1:
                phase = square if phase is None else phase * square
            k >>= 1
            if k:
                square = square * square
        if phase is None:
            phase = np.ones(self._dt.shape)
        elif w < 0:
            phase = phase.conj()
        if w and self._kt:
            phase = phase * np.exp((-0.5 * w * w * self._kt) * self._dt)
        return [phase * (_gap_polynomial(g, w, self._kt, self._dt) / factorial(g))
                if g else phase for g in range(powers)]


class _GapFactors:
    """The gap factors of one moment, sampled on one chain rule.

    The gap from ``u`` to ``t`` with phase weight ``w`` and fluctuation
    power ``g`` contributes

        exp(i w (heading(t) - heading(u)) - w^2 k_theta (t - u) / 2)
        * _gap_polynomial(g, w, k_theta, t - u) / g!,

    the first gap starting at ``u = 0``; ``g`` runs up to the moment's
    heading power ``r``. Headings are evaluated once per rule. The inner
    factors of one weight become Volterra operators of the rule on the
    weight's first use, each tail power one tail row.
    """

    def __init__(self, rule, profile: SpeedRatioProfile, kt: float,
                 r: int) -> None:
        self.rule = rule
        self._powers = r + 1
        th_t = mean_heading(profile, rule.t)
        th_u = mean_heading(profile, rule.u)
        self._first = _Gaps(th_t - profile.theta0, rule.t, kt)
        self._inner = _Gaps(th_t[:, None] - th_u, rule.t[:, None] - rule.u, kt)
        self._tail_gap = rule.s - rule.u[-1]
        self._operators: dict[int, list[np.ndarray]] = {}
        self._tails: dict[int, np.ndarray] = {}

    def first(self, w: int) -> list[np.ndarray]:
        """Node values of the first gap's factors, ``0 -> t_j``, by ``g``."""
        return self._first.factors(w, self._powers)

    def operators(self, w: int) -> list[np.ndarray]:
        """The Volterra operators of the inner factors of weight ``w``, by
        ``g``."""
        out = self._operators.get(w)
        if out is None:
            mirror = self._operators.get(-w)
            if mirror is not None:
                # The factors of -w are the conjugates of those of w.
                out = [op.conj() for op in mirror]
            else:
                out = list(self.rule.operator(
                    np.stack(self._inner.factors(w, self._powers))))
            self._operators[w] = out
        return out

    def tail(self, power: int) -> np.ndarray:
        out = self._tails.get(power)
        if out is None:
            out = self.rule.tail_vector(self._tail_gap ** power)
            self._tails[power] = out
        return out


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

        F[0, h] = first(p - q, h),
        F[u, h] = sum_g M[w(u), g] @ sum_{v in u} F[u - v, h - g]

    (``1/g!`` folded into each factor) sum all those chain prefixes at
    once. A close ``(u, h)`` is ``tail(r - h) @ F[u, h]``: for a key with
    step counts ``c`` and ``u = c - v``, the sum of its chains whose last
    step is ``v``, with tail power ``r - h`` (the last step sets no gap).

    Only states below some close are visited. They run level by level
    (``|u|``), then by weight, then by counts; the states of one level
    sharing a weight go through each of their operators as one matrix
    product, and every sum over predecessors adds them in step order
    ``-2, -1, 1, 2``. Results are therefore bit-reproducible.
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
        # (level, weight, counts) of every state, in walk order.
        order = sorted((sum(u), w0 + 2 * (u[3] - u[0]) + u[2] - u[1], u)
                       for u in states)
        index = {u: i for i, (*_, u) in enumerate(order)}
        size = len(order)
        self._size = size

        def preds(u):
            # Padded to four with the index of an all-zero state.
            out = [index[_without(u, i)] for i in range(4) if u[i]]
            return out + [size] * (4 - len(out))

        # Runs of states with one (level, weight) after the empty one.
        self._groups = []
        lo = 1
        for (_, w), run in itertools.groupby(order[1:], key=lambda x: x[:2]):
            run = [u for *_, u in run]
            self._groups.append((w, lo, lo + len(run),
                                 np.array([preds(u) for u in run])))
            lo += len(run)
        self._close_h = np.array([h for _, h in closes], dtype=int)
        self._close_u = np.array([index[u] for u, _ in closes], dtype=int)
        self._close_beta = np.array([sum(u) + 1 for u, _ in closes], dtype=int)
        tails = [(r - h) // 2 for _, h in closes]
        self._tail_groups = [(power, np.flatnonzero(np.equal(tails, power)))
                             for power in sorted(set(tails))]

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

        @functools.lru_cache(maxsize=None)
        def gap_bounds(w):
            # [top, area] of each power g, as columns, for weight +-w.
            decay = 0.5 * w * w * kt
            out = np.zeros((2, r + 1))
            for g in range(r + 1):
                for a in range(g // 2 + 1):
                    coef = (_pairings(g, a) * (w * kt ** 0.5) ** (g - 2 * a)
                            / factorial(g))
                    e = g - a
                    out[0, g] += coef * s ** e
                    # int_0^s x^e exp(-decay x) dx
                    out[1, g] += coef * min(s ** (e + 1) / (e + 1),
                                            factorial(e) / decay ** (e + 1)
                                            if decay else inf)
            return out

        f = np.zeros((2, r + 1, self._size + 1))
        f[:, :, 0] = gap_bounds(abs(self._w0))
        for w, lo, hi, preds in self._groups:
            prev = f[:, :, preds].sum(axis=3)
            for g, bound in enumerate(gap_bounds(abs(w)).T):
                f[:, g:, lo:hi] += bound[:, None, None] * prev[:, :r + 1 - g]
        top, area = f[:, self._close_h, self._close_u]
        beta = self._close_beta
        volume = s ** beta / np.array([factorial(b) for b in beta])
        return s ** ((r - self._close_h) // 2) * np.minimum(top * volume, area)

    def evaluate(self, factors: _GapFactors) -> np.ndarray:
        """The value of every close on the rule of ``factors``."""
        r = self._r
        n = factors.rule.t.size
        f = np.zeros((r + 1, self._size + 1, n), dtype=complex)
        f[:, 0] = factors.first(self._w0)
        for w, lo, hi, preds in self._groups:
            prev = f[:, preds].sum(axis=2)
            out = f[:, lo:hi]
            for g, op in enumerate(factors.operators(w)):
                # Heading power h - g before the gap, h after it.
                part = prev[:r + 1 - g].reshape(-1, n) @ op.T
                out[g:] += part.reshape(r + 1 - g, hi - lo, n)
        ends = f[self._close_h, self._close_u]
        values = np.empty(len(ends), dtype=complex)
        for power, rows in self._tail_groups:
            values[rows] = ends[rows] @ factors.tail(power)
        return values


def _check_envelope(spec: MomentSpec) -> None:
    if not spec.within_envelope:
        warnings.warn(
            f"moment ({spec.p}, {spec.q}, {spec.r}) is outside the guaranteed "
            f"envelope (p+q <= {MAX_TOTAL_POWER}, r <= {MAX_HEADING_POWER}); "
            "its cost and error estimate are untested there",
            EnvelopeWarning, stacklevel=3)


def displacement_heading_moment(p: int, q: int, r: int,
                                profile: SpeedRatioProfile,
                                params: NoiseParams, s: float,
                                settings: QuadratureSettings = DEFAULT_SETTINGS
                                ) -> MomentResult:
    """Compute ``<u^p w^q theta_tilde^r>`` from the term expansion.

    The terms of one key share its exact integer coefficient; those of
    dimension ``beta >= 1`` are nested integrals of gap-factor chains,
    summed by the lattice walk of :class:`_Walk` on the chain rule of
    :mod:`quadrature` with one close per key, last step and heading power
    before the tail. Dimension-0 terms use the empty-integral-equals-1
    convention with the trailing gap factor ``s**(r/2)`` applied
    analytically. The error estimate is that of the summed closes
    (coarse/fine difference plus roundoff floor) plus ``MODULUS_ROUNDOFF``
    times the bound :meth:`_Walk.moduli`; ``terms_evaluated`` counts the
    enumerated terms, vectors times compositions summed over the keys.
    """
    _check_envelope(MomentSpec(p, q, r))
    kr, kt = params.k_r, params.k_theta
    phase0 = cmath.exp(1j * (p - q) * profile.theta0)
    r_fact = factorial(r)

    total = 0.0 + 0.0j
    closes, scales = [], []
    n_terms = 0
    for key in term_keys(p, q):
        beta = key.dimension
        compositions = _count_theta_power_compositions(r, beta)
        n_terms += count_phase_step_vectors(key) * compositions
        if not compositions:
            continue
        base = (kr ** key.n) * coefficient(key) * (s ** key.m) * phase0
        # h: heading power of the gaps; the tail takes the even rest.
        for h in range(r % 2, r + 1, 2) if beta else (0,):
            scale = base * (r_fact * double_factorial(r - h - 1)
                            * kt ** (0.5 * r) / factorial(r - h))
            if scale == 0:
                continue
            if beta == 0:
                total += scale * s ** (r // 2)
                continue
            # One close per last step: the roundoff floor sums the closes'
            # moduli, and whole keys cancel more than their parts.
            counts = _step_counts(key)
            for i in range(4):
                if counts[i]:
                    closes.append((_without(counts, i), h))
                    scales.append(scale)

    walk = _Walk(p - q, r, closes)

    def evaluate(rule):
        return walk.evaluate(_GapFactors(rule, profile, kt, r))

    value, err = integrate_chains(evaluate, scales, s, settings)
    if scales:
        # A rotating chain sum can cancel far below the moduli of its closes,
        # while the roundoff of its sampled phases scales with the integral
        # of the integrand's modulus.
        err += MODULUS_ROUNDOFF * float(np.abs(scales) @ walk.moduli(kt, s))
    return MomentResult(total + value, err, n_terms)


def displacement_moment(p: int, q: int, profile: SpeedRatioProfile,
                        params: NoiseParams, s: float,
                        settings: QuadratureSettings = DEFAULT_SETTINGS
                        ) -> MomentResult:
    """Compute ``<u^p w^q>`` (heading power zero)."""
    return displacement_heading_moment(p, q, 0, profile, params, s, settings)


def cartesian_moment(i: int, j: int, k: int, profile: SpeedRatioProfile,
                     params: NoiseParams, s: float,
                     settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
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
                                                  params, s, settings)
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
