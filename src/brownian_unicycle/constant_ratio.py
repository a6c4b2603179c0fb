"""Closed-form statistics for a constant speed ratio.

With ``mu(s) = mu0`` the deterministic heading is linear in the curve
length and every moment kernel becomes a product of complex exponentials
in the sample points. Nested integration then stays inside the family

    sum_k c_k * t^(m_k) * exp(lambda_k * t)

represented by :class:`ExpPolySum`, so the distance moments evaluate
without quadrature. The governing complex rate is

    z = -k_theta/2 + i*mu0

for the squared distance; the fourth moment additionally involves
``-3*k_theta/2 + i*mu0`` and ``-2*k_theta + 2i*mu0`` (and conjugates).

Every closed form here is an :class:`ExpPolySum` chain
(:func:`_kernel_chain`) evaluated at ``s``: the mean pose has one level,
the squared distance two, the fourth moment up to four. Numerical care
lives in :meth:`ExpPolySum.integral` alone: the antiderivative (by parts)
form of the iterated integrals cancels catastrophically when ``|rate *
s|`` is small compared to the polynomial power, so each term switches to
an exact truncated series in that regime.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .fourth_moment import _d4_chains, variance_from_moments
from .trajectory import NoiseParams

_ZERO_RATE = 1e-12
_SERIES_STOP = 1e-20
_SERIES_MAX_TERMS = 220


def complex_rate(mu0: float, k_theta: float) -> complex:
    """The decay-plus-rotation rate ``-k_theta/2 + i*mu0``."""
    return complex(-0.5 * k_theta, mu0)


@dataclass(frozen=True)
class ExpPolySum:
    """Canonical sum of ``coeff * t^power * exp(rate * t)`` terms.

    Terms are keyed and merged on exactly equal ``(rate, power)`` pairs
    and stored sorted, so algebra on these objects is deterministic.
    """

    terms: tuple[tuple[complex, int, complex], ...]

    @classmethod
    def unit(cls) -> "ExpPolySum":
        return cls(((0j, 0, 1.0 + 0j),))

    @classmethod
    def from_terms(cls, raw) -> "ExpPolySum":
        merged: dict[tuple[complex, int], complex] = {}
        for rate, power, coeff in raw:
            key = (complex(rate), int(power))
            merged[key] = merged.get(key, 0j) + coeff
        canon = tuple(sorted(
            ((rate, power, coeff) for (rate, power), coeff in merged.items()
             if coeff != 0),
            key=lambda t: (t[0].real, t[0].imag, t[1])))
        return cls(canon)

    def __add__(self, other: "ExpPolySum") -> "ExpPolySum":
        return ExpPolySum.from_terms(self.terms + other.terms)

    def scaled(self, factor: complex) -> "ExpPolySum":
        return ExpPolySum.from_terms(
            (rate, power, coeff * factor) for rate, power, coeff in self.terms)

    def shifted_rate(self, rate_shift: complex) -> "ExpPolySum":
        """Multiply by ``exp(rate_shift * t)``."""
        return ExpPolySum.from_terms(
            (rate + rate_shift, power, coeff) for rate, power, coeff in self.terms)

    def integral(self, scale: float) -> "ExpPolySum":
        """Prefix integral from 0 to the running variable.

        ``scale`` bounds the evaluation domain; it selects, per term,
        between the exact by-parts antiderivative (large ``|rate|*scale``)
        and a truncated power series (small or zero rate), keeping both
        regimes numerically stable.
        """
        out: list[tuple[complex, int, complex]] = []
        for rate, power, coeff in self.terms:
            mag = abs(rate) * scale
            if abs(rate) < _ZERO_RATE or mag < max(2.9, 0.6 * power + 0.5):
                out.extend(_series_integral(coeff, rate, power, scale))
            else:
                out.extend(_byparts_integral(coeff, rate, power))
        return ExpPolySum.from_terms(out)

    def __call__(self, t: float) -> complex:
        return sum((coeff * t ** power * cmath.exp(rate * t)
                    for rate, power, coeff in self.terms), 0j)

    def rates(self) -> tuple[complex, ...]:
        return tuple(sorted({rate for rate, _, _ in self.terms},
                            key=lambda z: (z.real, z.imag)))


def _series_integral(coeff: complex, rate: complex, power: int, scale: float):
    """integral of c t^m e^{rate t} as rate-0 terms via the exponential series."""
    if abs(rate) < _ZERO_RATE:
        return [(0j, power + 1, coeff / (power + 1))]
    out = []
    mag = abs(rate) * scale
    running = coeff
    biggest = 0.0
    j = 0
    while True:
        new_power = power + j + 1
        out.append((0j, new_power, running / new_power))
        contribution = abs(running) * scale ** new_power / new_power
        biggest = max(biggest, contribution)
        j += 1
        if j >= _SERIES_MAX_TERMS:
            break
        # `<=`: at scale 0 every contribution is 0 and the series is done.
        if j > mag + 4 and contribution <= _SERIES_STOP * biggest:
            break
        running = running * rate / j
    return out


def _byparts_integral(coeff: complex, rate: complex, power: int):
    """Exact antiderivative of c t^m e^{rate t}, stable for |rate*t| >> m."""
    out = []
    running = coeff / rate
    for k in range(power + 1):
        out.append((rate, power - k, running))
        if k < power:
            running = -running * (power - k) / rate
    out.append((0j, 0, -running))
    return out


def _kernel_chain(rates, s: float) -> ExpPolySum:
    """Nested integral of ``prod_j exp(rates[j] * t_j)`` over the ordered
    region ``t_1 <= ... <= t_beta``, as a function of its upper end.

    Evaluation points must lie in ``[0, s]``. Raises ``ValueError``
    unless ``s`` is finite and non-negative and every rate is finite.
    """
    # Written so that NaN, which compares false either way, fails too.
    if not 0.0 <= s < math.inf:
        raise ValueError(f"s must be finite and >= 0, got {s}")
    if not all(cmath.isfinite(rate) for rate in rates):
        raise ValueError(f"mu0 must be finite, got the chain rates {rates}")
    f = ExpPolySum.unit()
    for rate in rates:
        f = f.shifted_rate(rate).integral(s)
    return f


def d2_closed(mu0: float, params: NoiseParams, s: float) -> float:
    """Mean squared distance, ``k_r s + 2 Re[(e^{zs} - 1 - zs)/z^2]``.

    The bracket is the two-level chain ``iint e^{z (t2 - t1)}`` over
    ``t1 <= t2``.
    """
    z = complex_rate(mu0, params.k_theta)
    return params.k_r * s + 2.0 * _kernel_chain((-z, z), s)(s).real


def mean_pose_closed(mu0: float, params: NoiseParams, theta0: float,
                     s: float) -> complex:
    """Mean complex position ``<x> + i <y>``, ``e^{i theta0} (e^{zs}-1)/z``."""
    if not math.isfinite(theta0):
        raise ValueError(f"theta0 must be finite, got {theta0}")
    z = complex_rate(mu0, params.k_theta)
    return cmath.exp(1j * theta0) * _kernel_chain((z,), s)(s)


def d4_closed(mu0: float, params: NoiseParams, s: float) -> float:
    """Mean fourth power of the distance, constructed symbolically.

    Applies :meth:`ExpPolySum.integral` to the six-term kernel table of
    :mod:`fourth_moment` with each cosine written as the real part of a
    complex-exponential chain; no quadrature is involved, so the result
    is exact up to floating error and the series truncation floor.
    """
    kt = params.k_theta
    constant, chains = _d4_chains(params, s)
    chain_sum = 0.0
    for weight, (decay, phase) in chains:
        rates = [complex(-0.5 * kt * d, mu0 * g) for d, g in zip(decay, phase)]
        chain_sum += weight * _kernel_chain(rates, s)(s).real
    return constant + chain_sum


def variance_d2_closed(mu0: float, params: NoiseParams, s: float) -> float:
    """Variance of the squared distance from the closed-form path.

    Raises :class:`NumericalConsistencyError` below ``-VARIANCE_SLACK``,
    as :func:`~brownian_unicycle.fourth_moment.variance_d2` does.
    """
    return variance_from_moments(d4_closed(mu0, params, s),
                                 d2_closed(mu0, params, s))

