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

Coefficients are evaluated in exact integer arithmetic and converted to
float once per term; term results accumulate in a fixed lexicographic
order over (n, l, m, c, gamma) so runs are bit-reproducible.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from math import comb, factorial
from typing import Iterator

import numpy as np

from .exceptions import (EnvelopeWarning, NumericalConsistencyError,
                         TermKeyError)
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings, integrate_chains
from .trajectory import NoiseParams, SpeedRatioProfile, mean_heading

#: Guaranteed cost envelope; larger requests work but warn.
MAX_TOTAL_POWER = 8
MAX_HEADING_POWER = 4


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


def _phase_weights(p: int, q: int, c: tuple[int, ...]) -> tuple[int, ...]:
    """Running phase weights w_b = p - q + (partial sum of c), b < beta."""
    if not c:
        return ()
    w = p - q
    out = [w]
    for step in c[:-1]:
        w += step
        out.append(w)
    return tuple(out)


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
        coef = factorial(g) // (factorial(a) * factorial(g - 2 * a) * 2 ** a)
        acc = acc + coef * base ** (g - 2 * a) * dt ** (g - a)
    return acc


class _GapFactors:
    """The gap factors of one moment, sampled on one chain rule.

    The gap from ``u`` to ``t`` with phase weight ``w`` and fluctuation
    power ``g`` contributes

        exp(i w (heading(t) - heading(u)) - w^2 k_theta (t - u) / 2)
        * _gap_polynomial(g, w, k_theta, t - u),

    the first gap starting at ``u = 0``. Headings are evaluated once per
    rule, each distinct inner ``(w, g)`` factor becomes one Volterra
    operator of the rule, each tail power one tail row, and each distinct
    prefix of ``(w, g)`` steps is evaluated once, shared by all terms that
    start with it (a first-gap factor is the prefix of one step).
    """

    def __init__(self, rule, profile: SpeedRatioProfile, kt: float) -> None:
        self.rule = rule
        self._kt = kt
        th_t = mean_heading(profile, rule.t)
        th_u = mean_heading(profile, rule.u)
        # (heading change, length) of the gaps 0 -> t_j and u_jm -> t_j.
        self._first_gaps = (th_t - profile.theta0, rule.t)
        self._inner_gaps = (th_t[:, None] - th_u, rule.t[:, None] - rule.u)
        self._tail_gap = rule.s - rule.u[-1]
        self._operators: dict[tuple[int, int], np.ndarray] = {}
        self._tails: dict[int, np.ndarray] = {}
        self._prefixes: dict[tuple[tuple[int, int], ...], np.ndarray] = {}

    def _factor(self, w: int, g: int, gaps) -> np.ndarray:
        dtheta, dt = gaps
        out = np.exp(1j * w * dtheta - (0.5 * w * w * self._kt) * dt)
        if g:
            out = out * _gap_polynomial(g, w, self._kt, dt)
        return out

    def _operator(self, w: int, g: int) -> np.ndarray:
        out = self._operators.get((w, g))
        if out is None:
            out = self.rule.operator(self._factor(w, g, self._inner_gaps))
            self._operators[(w, g)] = out
        return out

    def _tail(self, power: int) -> np.ndarray:
        out = self._tails.get(power)
        if out is None:
            out = self.rule.tail_vector(self._tail_gap ** power)
            self._tails[power] = out
        return out

    def _prefix(self, steps: tuple[tuple[int, int], ...]) -> np.ndarray:
        """Node values of ``F_b`` for the first ``b = len(steps)`` gaps."""
        out = self._prefixes.get(steps)
        if out is None:
            if len(steps) == 1:
                out = self._factor(*steps[0], self._first_gaps)
            else:
                out = self._operator(*steps[-1]) @ self._prefix(steps[:-1])
            self._prefixes[steps] = out
        return out

    def term(self, weights: tuple[int, ...], gamma: tuple[int, ...]) -> complex:
        """Nested integral of one term; ``gamma[-1]`` is the tail power."""
        f = self._prefix(tuple(zip(weights, gamma)))
        return complex(self._tail(gamma[-1] // 2) @ f)


def _check_envelope(p: int, q: int, r: int) -> None:
    if p + q > MAX_TOTAL_POWER or r > MAX_HEADING_POWER:
        warnings.warn(
            f"moment ({p}, {q}, {r}) is outside the guaranteed envelope "
            f"(p+q <= {MAX_TOTAL_POWER}, r <= {MAX_HEADING_POWER}); "
            "enumeration cost grows combinatorially",
            EnvelopeWarning, stacklevel=3)


def displacement_heading_moment(p: int, q: int, r: int,
                                profile: SpeedRatioProfile,
                                params: NoiseParams, s: float,
                                settings: QuadratureSettings = DEFAULT_SETTINGS
                                ) -> MomentResult:
    """Compute ``<u^p w^q theta_tilde^r>`` by exact term enumeration.

    Every term is one nested ordered integral (dimension ``beta``) scaled
    by an exact integer coefficient; dimension-0 terms use the
    empty-integral-equals-1 convention with the trailing gap factor
    ``s**(gamma_last/2)`` applied analytically. The integrals are chains
    of gap factors, summed on the chain rule of :mod:`quadrature`; the
    error estimate is that of the summed chains (coarse/fine difference
    plus roundoff floor).
    """
    spec = MomentSpec(p, q, r)
    _check_envelope(p, q, r)
    kr, kt = params.k_r, params.k_theta
    phase0 = cmath.exp(1j * (p - q) * profile.theta0)
    r_fact = factorial(r)

    total = 0.0 + 0.0j
    scales, chains = [], []
    n_terms = 0
    for key in term_keys(p, q):
        beta = key.dimension
        gammas = theta_power_compositions(r, beta)
        if not gammas:
            continue
        base = (kr ** key.n) * coefficient(key) * (s ** key.m) * phase0
        for c in phase_step_vectors(key):
            weights = _phase_weights(p, q, c)
            for gamma in gammas:
                gamma_prod = 1
                for g in gamma:
                    gamma_prod *= factorial(g)
                gfac = (r_fact * double_factorial(gamma[-1] - 1)
                        * kt ** (0.5 * r) / gamma_prod)
                scale = base * gfac
                n_terms += 1
                if scale == 0:
                    continue
                if beta == 0:
                    total += scale * s ** (gamma[-1] // 2)
                else:
                    scales.append(scale)
                    chains.append((weights, gamma))

    def evaluate(rule):
        factors = _GapFactors(rule, profile, kt)
        return np.array([factors.term(*chain) for chain in chains])

    value, err = integrate_chains(evaluate, scales, s, settings)
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
    if min(i, j, k) < 0:
        raise ValueError("moment orders must be non-negative")
    _check_envelope(i, j, k)
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
