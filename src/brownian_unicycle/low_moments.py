"""First and second order statistics of the noisy unicycle.

Every quantity here is an explicit one- or two-dimensional integral over
the deterministic heading, with the heading-noise decay ``exp(-k_theta *
s' / 2)`` attached to each displacement factor. The two-dimensional
integrals are stated over ``(s', s'')`` with ``s''`` the gap between the
two sample points; substituting ``t2 = s' + s''`` maps them onto the
ordered-region engine, which is the single quadrature code path used
throughout the package.

Integrals that share a heading evaluation go through one call: the
integrand returns their kernels as a stack (see
:func:`~brownian_unicycle.quadrature.integrate_ordered`), so each grid
point's heading is computed once for all of them. The three second
moments come from two complex kernels, ``E = exp(i (h2 - h1) - k_theta
(t2 - t1) / 2)`` and ``D E`` with ``D = exp(2 i h1 - 2 k_theta t1)``:
``<x^2>`` and ``<y^2>`` take ``Re iint E +- Re iint D E`` and ``<x y>``
takes ``Im iint D E``, plus shift-noise terms in ``int D``.

The heading covariances are computed from the analytically
differentiated integrands (differentiation under the integral sign with
respect to ``k_theta``); the finite-difference form survives only as a
test oracle.
"""

from __future__ import annotations

import numpy as np

from .quadrature import DEFAULT_SETTINGS, QuadratureSettings, integrate_ordered
from .trajectory import NoiseParams, SpeedRatioProfile, mean_heading


def orientation_distribution(profile: SpeedRatioProfile, params: NoiseParams,
                             s: float) -> tuple[float, float]:
    """Mean and variance of the heading marginal, ``(mean_heading, k_theta*s)``."""
    return mean_heading(profile, s), params.k_theta * s


def _mean_xy(profile, params, s, settings):
    kt = params.k_theta

    def f(ts):
        t = ts[0]
        return np.exp(1j * mean_heading(profile, t) - 0.5 * kt * t)

    value, err = integrate_ordered(f, 1, s, settings)
    return value, err


def mean_x(profile: SpeedRatioProfile, params: NoiseParams, s: float,
           settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """``integral_0^s cos(mean_heading) * exp(-k_theta s'/2) ds'``."""
    return _mean_xy(profile, params, s, settings)[0].real


def mean_y(profile: SpeedRatioProfile, params: NoiseParams, s: float,
           settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Sine analogue of :func:`mean_x`."""
    return _mean_xy(profile, params, s, settings)[0].imag


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

    def single(ts):
        t = ts[0]
        return np.exp(2j * mean_heading(profile, t) - 2.0 * kt * t)

    (ie, ide), _ = integrate_ordered(pair, 2, s, settings)
    i_d, _ = integrate_ordered(single, 1, s, settings)

    kr2 = 0.5 * params.k_r
    m_xx = ie.real + ide.real + kr2 * (s + i_d.real)
    m_yy = ie.real - ide.real + kr2 * (s - i_d.real)
    m_xy = ide.imag + kr2 * i_d.imag
    return float(m_xx), float(m_yy), float(m_xy)


def cov_xtheta(profile: SpeedRatioProfile, params: NoiseParams, s: float,
               settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Covariance of x with the heading, ``-k_theta * int s' sin(mean_heading) e^{-k_theta s'/2}``."""
    kt = params.k_theta

    def f(ts):
        t = ts[0]
        return t * np.sin(mean_heading(profile, t)) * np.exp(-0.5 * kt * t)

    value, _ = integrate_ordered(f, 1, s, settings)
    return -kt * value.real


def cov_ytheta(profile: SpeedRatioProfile, params: NoiseParams, s: float,
               settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Covariance of y with the heading, ``+k_theta * int s' cos(mean_heading) e^{-k_theta s'/2}``."""
    kt = params.k_theta

    def f(ts):
        t = ts[0]
        return t * np.cos(mean_heading(profile, t)) * np.exp(-0.5 * kt * t)

    value, _ = integrate_ordered(f, 1, s, settings)
    return kt * value.real


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
