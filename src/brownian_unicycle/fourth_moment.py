"""Fourth moment of the distance via its explicit six-term decomposition.

``<D^4>`` (the squared distance squared) splits into six pairing classes.
The kernels below are coded literally from the printed expressions of
that decomposition rather than re-derived from the general enumeration
(term keys, coefficients, heading-power compositions); the whole point of
this module is to be an independent derivation to check
:func:`displacement_moment` at orders (2, 2) against.

Each table entry is ``(kr_power, s_power, prefactor, kernels)`` where a
kernel ``(decay, phase)`` contributes

    exp(-k_theta/2 * sum_j decay[j] * t_j) * cos(sum_j phase[j] * heading(t_j))

inside one nested ordered integral of dimension ``len(decay)``, as the
decomposition prints it, per sample point. :func:`d4_moment` evaluates
each kernel in gap form on the gap factors, panels and chain rule of the
general moments; that sampling and the integration engine are all it
shares with them. The two conjugate three-dimensional classes are already
combined into their real cosine form, and the dimension-0 class is the
pure ``2 k_r^2 s^2`` term.
:func:`_d4_chains` is the table's one reader, for :func:`d4_moment` here
and for the closed form :func:`~brownian_unicycle.constant_ratio.d4_closed`.
"""

from __future__ import annotations

import itertools

import numpy as np

from .exceptions import IntegrandEvaluationError, NumericalConsistencyError
from .general_moments import _GapFactors
from .low_moments import checked_mean_squared_distance
from .quadrature import _check_length, integrate_chains, panels
from .trajectory import NoiseParams, SpeedRatioProfile

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
        try:
            weight = prefactor * params.k_r ** kr_power * s ** s_power
        except OverflowError:
            raise IntegrandEvaluationError(
                f"k_r = {params.k_r:g} overflows k_r**{kr_power} s**{s_power}") from None
        if kernels:
            chains += [(weight, kernel) for kernel in kernels]
        else:
            constant += weight
    return constant, chains


def d4_moment(profile: SpeedRatioProfile, params: NoiseParams,
              s: float) -> float:
    """Mean fourth power of the distance from the start point.

    Each kernel is the real part of one chain in gap form: the gap
    ``t_{b-1} -> t_b`` (``t_0 = 0``) has the weight ``G_b = sum_{j >= b}
    phase[j]``, which turns ``sum_j phase[j] heading(t_j)`` into ``sum_b
    G_b (heading(t_b) - heading(t_{b-1}))``. Every table kernel has ``G_1
    = 0`` and the suffix sums ``G_b**2`` in ``decay``, so each gap is a
    factor of the walk of :mod:`general_moments` (``_GapFactors`` at
    heading power 0), of modulus at most 1; per point the factors grow
    like ``e^{2 k_theta t}``. The chains run in the walk's rotating frame:
    a gap from weight ``G_b`` to ``G_{b+1}`` multiplies by the step phase
    ``E_{G_b} conj(E_{G_{b+1}})``, and the close by ``E_{G_beta}``, on the
    panels of the largest ``|G_b| = 2`` and dimension 4.
    """
    _check_length(profile, s)
    constant, chains = _d4_chains(params, s)
    if s == 0.0:
        return constant
    weights = [tuple(itertools.accumulate(reversed(phase)))[::-1]
               for _, (_, phase) in chains]

    def evaluate(rule):
        gaps = _GapFactors(rule, profile, params.k_theta, 0)
        # E_w for the weights -2..2, by w: every weight and step is in there.
        phase = dict(zip(range(-2, 3), gaps.phases(range(-2, 3)).T))
        tail = gaps.tail(0)
        out = np.empty((len(rule.counts), len(weights)), complex)
        for i, chain in enumerate(weights):
            f = gaps.first(chain[0])[0]
            for w_prev, w in zip(chain, chain[1:]):
                f = gaps.integrate(w, phase[w_prev - w] * f)
            f = phase[chain[-1]] * f
            # One row per count of the rule, each closed on its nodes.
            out[:, i] = [tail[a] @ f[a] for a in rule.slices]
        return out

    # Node values: the five phases, a chain's values and the tail row.
    value, _ = integrate_chains(evaluate, [w for w, _ in chains],
                                panels(profile, s, params.k_theta, 2, 4),
                                node_bytes=16 * 7)
    return constant + value.real


def variance_d2(profile: SpeedRatioProfile, params: NoiseParams,
                s: float) -> float:
    """Variance of the squared distance, ``<D^4> - <D^2>^2``.

    Raises :class:`NumericalConsistencyError` when ``<D^2>`` has no
    correct digit
    (:func:`~brownian_unicycle.low_moments.checked_mean_squared_distance`),
    or if cancellation drives the result below ``-VARIANCE_SLACK`` instead
    of clamping silently.
    """
    d2, _ = checked_mean_squared_distance(profile, params, s)
    return variance_from_moments(d4_moment(profile, params, s), d2)


def variance_from_moments(d4: float, d2: float) -> float:
    """``d4 - d2**2``, refusing results below ``-VARIANCE_SLACK``."""
    out = d4 - d2 * d2
    if out < -VARIANCE_SLACK:
        raise NumericalConsistencyError(
            f"variance of D^2 came out {out:.3e} < -{VARIANCE_SLACK:.0e}; "
            "quadrature cancellation is out of control")
    return out
