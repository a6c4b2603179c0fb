"""Fourth moment of the distance via its explicit six-term decomposition.

``<D^4>`` (the squared distance squared) splits into six pairing classes.
The kernels below are coded literally from the printed expressions of
that decomposition rather than re-derived from the general enumeration
machinery; the whole point of this module is to be an independent
implementation path against :func:`displacement_moment` at orders (2, 2).

Each table entry is ``(kr_power, s_power, prefactor, kernels)`` where a
kernel ``(decay, phase)`` contributes

    exp(-k_theta/2 * sum_j decay[j] * t_j) * cos(sum_j phase[j] * heading(t_j))

inside one nested ordered integral of dimension ``len(decay)``. Only the
integration engine is shared with the general enumeration. The two
conjugate three-dimensional classes are already combined into their real
cosine form, and the dimension-0 class is the pure ``2 k_r^2 s^2`` term.
:func:`_d4_chains` is the table's one reader, for :func:`d4_moment` here
and for the closed form :func:`~brownian_unicycle.constant_ratio.d4_closed`.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NumericalConsistencyError
from .low_moments import mean_squared_distance
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings, integrate_chains
from .trajectory import NoiseParams, SpeedRatioProfile, mean_heading

DISTANCE4_KERNELS = (
    # n=0 class: four surviving sample points, six phase patterns paired
    # into three cosines.
    (0, 0, 8.0, (
        ((-1, -3, 3, 1), (-1, -1, 1, 1)),
        ((-1, 1, -1, 1), (-1, 1, -1, 1)),
        ((-1, 1, -1, 1), (-1, 1, 1, -1)),
    )),
    # n=1, unmixed pair: conjugate classes combined into real cosines.
    (1, 0, 4.0, (
        ((-4, 3, 1), (2, -1, -1)),
        ((-1, 0, 1), (-1, 2, -1)),
        ((-1, -3, 4), (-1, -1, 2)),
    )),
    # n=1, mixed pair: one traveled-distance factor pulled out as s.
    (1, 1, 8.0, (
        ((-1, 1), (-1, 1)),
    )),
    # n=2, two unmixed pairs.
    (2, 0, 2.0, (
        ((-4, 4), (-2, 2)),
    )),
    # n=2, two mixed pairs: fully integrated, 2 k_r^2 s^2.
    (2, 2, 2.0, ()),
)

#: Absolute slack allowed below zero before variance cancellation is fatal.
VARIANCE_SLACK = 1e-10


def _d4_chains(params: NoiseParams, s: float):
    """The table's constant class and one ``(weight, (decay, phase))`` per
    chain, with ``weight = prefactor * k_r**kr_power * s**s_power``."""
    constant = 0.0
    chains = []
    for kr_power, s_power, prefactor, kernels in DISTANCE4_KERNELS:
        weight = prefactor * params.k_r ** kr_power * s ** s_power
        if kernels:
            chains += [(weight, kernel) for kernel in kernels]
        else:
            constant += weight
    return constant, chains


def d4_moment(profile: SpeedRatioProfile, params: NoiseParams, s: float,
              settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Mean fourth power of the distance from the start point.

    Each kernel is the real part of a chain of per-point factors
    ``exp(-k_theta/2 * decay[j] * t + i * phase[j] * heading(t))``,
    integrated by the chain rule of :mod:`quadrature`.
    """
    kt = params.k_theta
    constant, chains = _d4_chains(params, s)

    def evaluate(rule):
        th = mean_heading(profile, rule.t)
        out = []
        for _, (decay, phase) in chains:
            factors = [np.exp((-0.5 * kt * d) * rule.t + 1j * g * th)
                       for d, g in zip(decay, phase)]
            out.append(rule.chain(factors[0], [f[:, None] for f in factors[1:]],
                                  1.0))
        return np.array(out)

    value, _ = integrate_chains(evaluate, [w for w, _ in chains], s, settings)
    return constant + value.real


def variance_d2(profile: SpeedRatioProfile, params: NoiseParams, s: float,
                settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Variance of the squared distance, ``<D^4> - <D^2>^2``.

    Raises :class:`NumericalConsistencyError` if cancellation drives the
    result below ``-VARIANCE_SLACK`` instead of clamping silently.
    """
    return variance_from_moments(d4_moment(profile, params, s, settings),
                                 mean_squared_distance(profile, params, s, settings))


def variance_from_moments(d4: float, d2: float) -> float:
    """``d4 - d2**2``, refusing results below ``-VARIANCE_SLACK``."""
    out = d4 - d2 * d2
    if out < -VARIANCE_SLACK:
        raise NumericalConsistencyError(
            f"variance of D^2 came out {out:.3e} < -{VARIANCE_SLACK:.0e}; "
            "quadrature cancellation is out of control")
    return out
