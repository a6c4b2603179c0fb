"""Heading integrals: the noise-free pose and the low-order statistics.

Every quantity here is an explicit one- or two-dimensional integral over
the deterministic heading, with the heading-noise decay ``exp(-k_theta *
s' / 2)`` attached to each displacement factor. The two-dimensional
integrals are stated over ``(s', s'')`` with ``s''`` the gap between the
two sample points; substituting ``t2 = s' + s''`` maps them onto the
tensor grid of :mod:`~brownian_unicycle.quadrature`, on which this module
evaluates its integrands and which sums them
(:func:`~brownian_unicycle.quadrature._grid_sum`).

A pass evaluates one Gauss rule, ``G = nodes_per_level``: the value-only
functions make one, on the ``(G + 2)``-node rule; those that report an
error estimate make one at ``G`` and then one at ``G + 2`` nodes
(:func:`_estimate`). A non-finite sum raises at its first rule's first
non-finite point.

A single one-dimensional integral, ``int_0^s t^power exp(i w
mean_heading(t) - c t) dt`` (:func:`_heading_integral`), serves the
separate first-order functions: the mean position (``w = 1``, ``c =
k_theta/2``), the noise-free pose (``w = 1``, ``c = 0``) and, with
``power = 1``, the position-heading covariances.

The three second moments come from two complex kernels, ``E = exp(i
(h2 - h1) - k_theta (t2 - t1) / 2)`` and ``D E`` with ``D = exp(2 i h1 -
2 k_theta t1)``: ``<x^2>`` and ``<y^2>`` take ``Re iint E +- Re iint D E``
and ``<x y>`` takes ``Im iint D E``, plus shift-noise terms in ``int D``.
They make one pass over a cached dimension-2 grid of the tensor rule:
the heading is evaluated once at its ``t1`` nodes and once at its ``t2``
points, ``E`` is summed over ``t2`` first, and ``D``, a function of
``t1`` alone, multiplies those per-``t1`` sums. The ``t1`` nodes are the
dimension-1 grid's nodes, so ``int D`` is a sum over them with the 1-D
rule's weights. ``<D^2>`` integrates ``Re E`` on the same pass, and
:func:`low_order_statistics` adds the means and ``J`` below as sums over
the ``t1`` nodes, with every error estimate.

The position-heading covariances are ``k_theta`` times the parts of
``J = int_0^s t exp(i mean_heading(t) - k_theta t/2) dt``:
``cov(x, theta) = -k_theta Im J`` and ``cov(y, theta) = k_theta Re J``.
The factor ``t`` comes from differentiating the mean position under the
integral sign; the finite-difference form survives only as a test
oracle.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

import numpy as np

from .exceptions import NumericalConsistencyError
from .quadrature import (CHAIN_ROUNDOFF, DEFAULT_SETTINGS, QuadratureSettings,
                         _grid_sum, _non_finite_error, _scaled_grid)
from .trajectory import NoiseParams, SpeedRatioProfile, mean_heading


def orientation_distribution(profile: SpeedRatioProfile, params: NoiseParams,
                             s: float) -> tuple[float, float]:
    """Mean and variance of the heading marginal, ``(mean_heading, k_theta*s)``."""
    return mean_heading(profile, s), params.k_theta * s


#: Tensor rule of the noise-free pose of non-constant profiles.
_POSE_SETTINGS = QuadratureSettings(nodes_per_level=64)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _heading_integral(profile, s, w, c, settings, power=0):
    """``int_0^s t^power exp(i w mean_heading(t) - c t) dt`` on the
    ``(G + 2)``-node dimension-1 grid, a Python complex."""
    ts, jw = _scaled_grid(1, s, settings.nodes_per_level + 2)
    t = ts[0]
    e = np.exp(1j * w * mean_heading(profile, t) - c * t)
    return _grid_sum((t ** power * e if power else e) * jw, ts, jw)


def _estimate(coarse, fine, magnitude):
    """``|fine - coarse|`` plus ``CHAIN_ROUNDOFF`` times ``magnitude``, the
    fine rule's summed ``|values * jw|``."""
    return abs(fine - coarse) + CHAIN_ROUNDOFF * float(magnitude)


def deterministic_pose(profile: SpeedRatioProfile, s: float,
                       settings: QuadratureSettings = _POSE_SETTINGS):
    """Noise-free pose ``(x, y, theta)`` after curve length ``s``.

    ``x + i y = int_0^s exp(i * mean_heading)``. Constant profiles take
    the exact one-level chain of
    :func:`~brownian_unicycle.constant_ratio.mean_pose_closed` without
    noise; other kinds integrate on the ``(G + 2)``-node rule of the tensor
    grid, ``G = 64`` by default.
    """
    th = mean_heading(profile, s)
    if profile.kind == "constant":
        # constant_ratio imports this module through fourth_moment.
        from .constant_ratio import mean_pose_closed
        z = mean_pose_closed(profile.mu0, NoiseParams(0.0, 0.0),
                             profile.theta0, s)
    else:
        z = _heading_integral(profile, s, 1, 0.0, settings)
    return (z.real, z.imag, th)


def mean_x(profile: SpeedRatioProfile, params: NoiseParams, s: float,
           settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """``integral_0^s cos(mean_heading) * exp(-k_theta s'/2) ds'``."""
    return _heading_integral(profile, s, 1, 0.5 * params.k_theta,
                             settings).real


def mean_y(profile: SpeedRatioProfile, params: NoiseParams, s: float,
           settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Sine analogue of :func:`mean_x`."""
    return _heading_integral(profile, s, 1, 0.5 * params.k_theta,
                             settings).imag


class _PairGrid(NamedTuple):
    """The dimension-2 tensor grid of one rule on ``[0, s]`` with the
    heading evaluated on it once, at ``t1`` and at ``t2``.

    ``ts`` and ``jw`` are the grid's coordinates and weights
    (:func:`~brownian_unicycle.quadrature._scaled_grid`). ``w1``, ``t1``
    and ``h1`` are the 1-D rule's weights, the nodes and the heading at the
    ``t1`` nodes. ``phase`` and ``decay`` are ``h2 - h1`` and
    ``exp(-k_theta (t2 - t1) / 2)`` on the grid, the parts of ``E``.
    """

    ts: tuple
    jw: np.ndarray
    w1: np.ndarray
    t1: np.ndarray
    h1: np.ndarray
    phase: np.ndarray
    decay: np.ndarray


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _pair_grid(profile, kt, s, n_nodes) -> _PairGrid:
    """The :class:`_PairGrid` of ``profile`` and ``k_theta`` on the
    ``n_nodes``-node rule of ``[0, s]``."""
    (t1, t2), jw = _scaled_grid(2, s, n_nodes)
    _, w1 = _scaled_grid(1, s, n_nodes)
    h1 = mean_heading(profile, t1)
    return _PairGrid((t1, t2), jw, w1, t1[:, 0], h1[:, 0],
                     mean_heading(profile, t2) - h1,
                     np.exp(-0.5 * kt * (t2 - t1)))


@np.errstate(over="ignore", invalid="ignore")
def _second_order_sums(grid: _PairGrid, kt):
    """``E`` times the weights, ``D = exp(2 i h1 - 2 k_theta t1)`` at the
    ``t1`` nodes, and the rule sums of ``iint E``, ``iint D E`` and
    ``int D``, as Python complexes.

    ``E`` is summed over ``t2`` first and ``D`` multiplies those sums;
    ``int D`` takes the 1-D rule's weights at the same nodes. A non-finite
    sum raises :class:`IntegrandEvaluationError` at the first non-finite
    value of ``E``, then of ``D E``, in grid order.
    """
    e_jw = np.empty(grid.jw.shape, complex)
    decay_jw = grid.decay * grid.jw
    for part, trig in ((e_jw.real, np.cos), (e_jw.imag, np.sin)):
        trig(grid.phase, out=part)
        part *= decay_jw
    d = np.exp(2j * grid.h1 - 2.0 * kt * grid.t1)
    terms = np.empty((3,) + d.shape, complex)
    terms[0] = e_jw.sum(axis=-1)
    np.multiply(d, terms[0], out=terms[1])
    np.multiply(d, grid.w1, out=terms[2])
    sums = terms.sum(axis=-1).tolist()
    if not all(map(cmath.isfinite, sums)):
        raise _non_finite_error((e_jw, d[:, None] * e_jw), grid.ts, grid.jw)
    return e_jw, d, sums


def _second_moments(k_r, s, ie, ide, i_d):
    """``(<x^2>, <y^2>, <x y>)`` from ``iint E``, ``iint D E`` and
    ``int D``."""
    kr2 = 0.5 * k_r
    return (float(ie.real + ide.real + kr2 * (s + i_d.real)),
            float(ie.real - ide.real + kr2 * (s - i_d.real)),
            float(ide.imag + kr2 * i_d.imag))


def second_moments(profile: SpeedRatioProfile, params: NoiseParams, s: float,
                   settings: QuadratureSettings = DEFAULT_SETTINGS
                   ) -> tuple[float, float, float]:
    """Second moments ``(<x^2>, <y^2>, <x y>)`` of the position.

    With ``h`` the heading, ``E = exp(i (h2 - h1) - k_theta (t2 - t1)/2)``
    and ``D = exp(2 i h1 - 2 k_theta t1)`` (the damped double-angle
    factor of the inner point), over the ordered pair ``t1 <= t2``:
    ``<x^2> = Re iint E + Re iint D E + k_r/2 * (s + Re int D)``,
    ``<y^2> = Re iint E - Re iint D E + k_r/2 * (s - Re int D)`` and
    ``<x y> = Im iint D E + k_r/2 * Im int D``. All three integrals come
    from one pass over the ``(G + 2)``-node rule of the dimension-2 tensor
    grid.
    """
    kt = params.k_theta
    grid = _pair_grid(profile, kt, s, settings.nodes_per_level + 2)
    return _second_moments(params.k_r, s, *_second_order_sums(grid, kt)[2])


def low_order_statistics(profile: SpeedRatioProfile, params: NoiseParams,
                         s: float,
                         settings: QuadratureSettings = DEFAULT_SETTINGS
                         ) -> dict[str, tuple[float, float]]:
    """Means, second moments and position-heading covariances, each with
    its error estimate, from one pass over each rule of the dimension-2
    tensor grid.

    Returns ``{name: (value, err_estimate)}`` for ``mean_x``, ``mean_y``,
    ``m_xx``, ``m_yy``, ``m_xy`` (the three of :func:`second_moments`),
    ``cov_xtheta`` and ``cov_ytheta``. The values are those of the
    separate functions: the means and ``J`` of the covariances are sums
    over the grid's ``t1`` nodes, the 1-D rule's nodes, with its weights.
    Each integral's estimate is :func:`_estimate` of the ``G``- and ``(G +
    2)``-node passes; a statistic adds the estimates of its integrals
    times the moduli of their coefficients. A non-finite sum raises at the
    first non-finite point of ``E``, then of ``D E``, on the ``G``-node
    rule first.
    """
    kt = params.k_theta
    passes = []
    for n_nodes in (settings.nodes_per_level, settings.nodes_per_level + 2):
        grid = _pair_grid(profile, kt, s, n_nodes)
        e_jw, d, second = _second_order_sums(grid, kt)
        mean = np.exp(1j * grid.h1 - 0.5 * kt * grid.t1)
        first = np.stack((mean * grid.w1, grid.t1 * mean * grid.w1))
        passes.append(first.sum(axis=-1).tolist() + second)
    # The magnitudes of the fine rule, the last pass.
    abs_rows = np.abs(e_jw).sum(axis=-1)
    magnitudes = (*np.abs(first).sum(axis=-1).tolist(), abs_rows.sum(),
                  (np.abs(d) * abs_rows).sum(), np.abs(d * grid.w1).sum())
    (z, j, ie, ide, i_d), (e_z, e_j, e_e, e_de, e_d) = zip(*(
        (fine, _estimate(coarse, fine, magnitude))
        for coarse, fine, magnitude in zip(*passes, magnitudes)))
    m_xx, m_yy, m_xy = _second_moments(params.k_r, s, ie, ide, i_d)
    kr2 = 0.5 * params.k_r
    return {"mean_x": (z.real, e_z), "mean_y": (z.imag, e_z),
            "m_xx": (m_xx, e_e + e_de + kr2 * e_d),
            "m_yy": (m_yy, e_e + e_de + kr2 * e_d),
            "m_xy": (m_xy, e_de + kr2 * e_d),
            "cov_xtheta": (-kt * j.imag, kt * e_j),
            "cov_ytheta": (kt * j.real, kt * e_j)}


def cov_xtheta(profile: SpeedRatioProfile, params: NoiseParams, s: float,
               settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Covariance of x with the heading, ``-k_theta * int s' sin(mean_heading) e^{-k_theta s'/2}``."""
    kt = params.k_theta
    j = _heading_integral(profile, s, 1, 0.5 * kt, settings, 1)
    return -kt * j.imag


def cov_ytheta(profile: SpeedRatioProfile, params: NoiseParams, s: float,
               settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Covariance of y with the heading, ``+k_theta * int s' cos(mean_heading) e^{-k_theta s'/2}``."""
    kt = params.k_theta
    j = _heading_integral(profile, s, 1, 0.5 * kt, settings, 1)
    return kt * j.real


def mean_squared_distance(profile: SpeedRatioProfile, params: NoiseParams,
                          s: float,
                          settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Mean of the squared distance from the start point.

    ``k_r*s + 2 * iint exp(-k_theta (t2-t1)/2) cos(heading(t2) - heading(t1))``
    over the ordered pair ``t1 <= t2``, refused like
    :func:`checked_mean_squared_distance` when no digit is right.
    """
    return checked_mean_squared_distance(profile, params, s, settings)[0]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def mean_squared_distance_with_error(profile: SpeedRatioProfile,
                                     params: NoiseParams, s: float,
                                     settings: QuadratureSettings = DEFAULT_SETTINGS
                                     ) -> tuple[float, float]:
    """The mean squared distance and the error estimate of its integral,
    unchecked.

    The integrand is ``Re E`` of :func:`second_moments`, summed in one pass
    over each rule of the dimension-2 tensor grid; the estimate is
    :func:`_estimate` of the two passes.
    """
    sums = []
    for n_nodes in (settings.nodes_per_level, settings.nodes_per_level + 2):
        grid = _pair_grid(profile, params.k_theta, s, n_nodes)
        prod = grid.decay * np.cos(grid.phase) * grid.jw
        sums.append(_grid_sum(prod, grid.ts, grid.jw))
    coarse, fine = sums
    return (params.k_r * s + 2.0 * fine.real,
            2.0 * _estimate(coarse, fine, np.abs(prod).sum()))


def checked_mean_squared_distance(profile: SpeedRatioProfile,
                                  params: NoiseParams, s: float,
                                  settings: QuadratureSettings = DEFAULT_SETTINGS
                                  ) -> tuple[float, float]:
    """:func:`mean_squared_distance_with_error`, refused when no digit is
    right.

    Raises :class:`NumericalConsistencyError` when the error estimate
    exceeds the value's magnitude: the tensor rule does not follow a
    heading that turns many times (constant ``mu0 = 5``, ``K = 0.01``,
    ``s = 20`` gives 0.122 with an estimate of 1.3, where ``<D^2>`` is
    0.226).
    """
    value, err = mean_squared_distance_with_error(profile, params, s, settings)
    if err > abs(value):
        raise NumericalConsistencyError(
            f"<D^2> = {value:.6g} has no correct digit: its error "
            f"estimate {err:.3g} exceeds its magnitude")
    return value, err
