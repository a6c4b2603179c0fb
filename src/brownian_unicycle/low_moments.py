"""Heading integrals: the noise-free pose and the low-order statistics.

Every quantity here is an explicit one- or two-dimensional integral over
the deterministic heading, with the heading-noise decay ``exp(-k_theta *
s' / 2)`` attached to each displacement factor. The two-dimensional
integrals are stated over ``(s', s'')`` with ``s''`` the gap between the
two sample points; substituting ``t2 = s' + s''`` maps them onto the
tensor rule of :func:`~brownian_unicycle.quadrature.integrate_ordered`.

A single one-dimensional integral, ``int_0^s t^power exp(i w
mean_heading(t) - c t) dt`` (:func:`_heading_integral`), serves every
first-order result: the mean position (``w = 1``, ``c = k_theta/2``),
the shift-noise term ``int D`` of the second moments (``w = 2``, ``c = 2
k_theta``), the noise-free pose (``w = 1``, ``c = 0``) and, with
``power = 1``, the position-heading covariances.

Integrals that share a heading evaluation go through one call: the
integrand returns their kernels as a stack (see
:func:`~brownian_unicycle.quadrature.integrate_ordered`), so each grid
point's heading is computed once for all of them. The three second
moments come from two complex kernels, ``E = exp(i (h2 - h1) - k_theta
(t2 - t1) / 2)`` and ``D E`` with ``D = exp(2 i h1 - 2 k_theta t1)``:
``<x^2>`` and ``<y^2>`` take ``Re iint E +- Re iint D E`` and ``<x y>``
takes ``Im iint D E``, plus shift-noise terms in ``int D``.

The position-heading covariances are ``k_theta`` times the parts of
``J = int_0^s t exp(i mean_heading(t) - k_theta t/2) dt``:
``cov(x, theta) = -k_theta Im J`` and ``cov(y, theta) = k_theta Re J``.
The factor ``t`` comes from differentiating the mean position under the
integral sign; the finite-difference form survives only as a test
oracle.
"""

from __future__ import annotations

import numpy as np

from .quadrature import DEFAULT_SETTINGS, QuadratureSettings, integrate_ordered
from .trajectory import NoiseParams, SpeedRatioProfile, mean_heading


def orientation_distribution(profile: SpeedRatioProfile, params: NoiseParams,
                             s: float) -> tuple[float, float]:
    """Mean and variance of the heading marginal, ``(mean_heading, k_theta*s)``."""
    return mean_heading(profile, s), params.k_theta * s


#: Tensor rule of the noise-free pose of non-constant profiles.
_POSE_SETTINGS = QuadratureSettings(nodes_per_level=64)


def _heading_integral(profile, s, w, c, settings, power=0):
    """``int_0^s t^power exp(i w mean_heading(t) - c t) dt`` and its error
    estimate."""

    def f(ts):
        t = ts[0]
        e = np.exp(1j * w * mean_heading(profile, t) - c * t)
        return t ** power * e if power else e

    return integrate_ordered(f, 1, s, settings)


def deterministic_pose(profile: SpeedRatioProfile, s: float,
                       settings: QuadratureSettings = _POSE_SETTINGS):
    """Noise-free pose ``(x, y, theta)`` after curve length ``s``.

    ``x + i y = int_0^s exp(i * mean_heading)``. Constant profiles take
    the exact one-level chain of
    :func:`~brownian_unicycle.constant_ratio.mean_pose_closed` without
    noise; other kinds integrate on the tensor rule, 64 nodes by default.
    """
    th = mean_heading(profile, s)
    if profile.kind == "constant":
        # constant_ratio imports this module through fourth_moment.
        from .constant_ratio import mean_pose_closed
        z = mean_pose_closed(profile.mu0, NoiseParams(0.0, 0.0),
                             profile.theta0, s)
    else:
        z, _ = _heading_integral(profile, s, 1, 0.0, settings)
    return (z.real, z.imag, th)


def mean_x(profile: SpeedRatioProfile, params: NoiseParams, s: float,
           settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """``integral_0^s cos(mean_heading) * exp(-k_theta s'/2) ds'``."""
    return _heading_integral(profile, s, 1, 0.5 * params.k_theta,
                             settings)[0].real


def mean_y(profile: SpeedRatioProfile, params: NoiseParams, s: float,
           settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Sine analogue of :func:`mean_x`."""
    return _heading_integral(profile, s, 1, 0.5 * params.k_theta,
                             settings)[0].imag


def second_moments(profile: SpeedRatioProfile, params: NoiseParams, s: float,
                   settings: QuadratureSettings = DEFAULT_SETTINGS
                   ) -> tuple[float, float, float]:
    """Second moments ``(<x^2>, <y^2>, <x y>)`` of the position.

    With ``h`` the heading, ``E = exp(i (h2 - h1) - k_theta (t2 - t1)/2)``
    and ``D = exp(2 i h1 - 2 k_theta t1)`` (the damped double-angle
    factor of the inner point), over the ordered pair ``t1 <= t2``:
    ``<x^2> = Re iint E + Re iint D E + k_r/2 * (s + Re int D)``,
    ``<y^2> = Re iint E - Re iint D E + k_r/2 * (s - Re int D)`` and
    ``<x y> = Im iint D E + k_r/2 * Im int D``. Both double integrals
    come from one stacked call.
    """
    kt = params.k_theta

    def pair(ts):
        t1, t2 = ts
        h1 = mean_heading(profile, t1)
        e = np.exp(1j * (mean_heading(profile, t2) - h1) - 0.5 * kt * (t2 - t1))
        d = np.exp(2j * h1 - 2.0 * kt * t1)
        return np.stack((e, d * e))

    (ie, ide), _ = integrate_ordered(pair, 2, s, settings)
    i_d, _ = _heading_integral(profile, s, 2, 2.0 * kt, settings)

    kr2 = 0.5 * params.k_r
    m_xx = ie.real + ide.real + kr2 * (s + i_d.real)
    m_yy = ie.real - ide.real + kr2 * (s - i_d.real)
    m_xy = ide.imag + kr2 * i_d.imag
    return float(m_xx), float(m_yy), float(m_xy)


def cov_xtheta(profile: SpeedRatioProfile, params: NoiseParams, s: float,
               settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Covariance of x with the heading, ``-k_theta * int s' sin(mean_heading) e^{-k_theta s'/2}``."""
    kt = params.k_theta
    j, _ = _heading_integral(profile, s, 1, 0.5 * kt, settings, 1)
    return -kt * j.imag


def cov_ytheta(profile: SpeedRatioProfile, params: NoiseParams, s: float,
               settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Covariance of y with the heading, ``+k_theta * int s' cos(mean_heading) e^{-k_theta s'/2}``."""
    kt = params.k_theta
    j, _ = _heading_integral(profile, s, 1, 0.5 * kt, settings, 1)
    return kt * j.real


def mean_squared_distance(profile: SpeedRatioProfile, params: NoiseParams,
                          s: float,
                          settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Mean of the squared distance from the start point.

    ``k_r*s + 2 * iint exp(-k_theta (t2-t1)/2) cos(heading(t2) - heading(t1))``
    over the ordered pair ``t1 <= t2``.
    """
    return mean_squared_distance_with_error(profile, params, s, settings)[0]


def mean_squared_distance_with_error(profile: SpeedRatioProfile,
                                     params: NoiseParams, s: float,
                                     settings: QuadratureSettings = DEFAULT_SETTINGS
                                     ) -> tuple[float, float]:
    """:func:`mean_squared_distance` and the error estimate of its integral."""
    kt = params.k_theta

    def f(ts):
        t1, t2 = ts
        dth = mean_heading(profile, t2) - mean_heading(profile, t1)
        return np.exp(-0.5 * kt * (t2 - t1)) * np.cos(dth)

    value, err = integrate_ordered(f, 2, s, settings)
    return params.k_r * s + 2.0 * value.real, 2.0 * err
