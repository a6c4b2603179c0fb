"""First and second order statistics of the noisy unicycle.

Every quantity here is an explicit one- or two-dimensional integral over
the deterministic heading, with the heading-noise decay ``exp(-k_theta *
s' / 2)`` attached to each displacement factor. The two-dimensional
integrals are stated over ``(s', s'')`` with ``s''`` the gap between the
two sample points; substituting ``t2 = s' + s''`` maps them onto the
ordered-region engine, which is the single quadrature code path used
throughout the package.

The heading covariances are computed from the analytically
differentiated integrands (differentiation under the integral sign with
respect to ``k_theta``); the finite-difference form survives only as a
test oracle.
"""

from __future__ import annotations

import numpy as np

from .quadrature import DEFAULT_SETTINGS, QuadratureSettings, integrate_ordered
from .trajectory import (NoiseParams, SpeedRatioProfile, damped_cos2,
                         damped_sin2, mean_heading)


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

    Each is a two-dimensional integral of the heading-difference kernel
    weighted by the damped double-angle factors of the inner point, plus
    the shift-noise terms ``k_r/2 * (s +- int chi_c)`` and
    ``k_r/2 * int chi_s``.
    """
    kt = params.k_theta

    def kernel(ts, combine):
        t1, t2 = ts
        dth = mean_heading(profile, t2) - mean_heading(profile, t1)
        env = np.exp(-0.5 * kt * (t2 - t1))
        cc = damped_cos2(profile, params, t1)
        cs = damped_sin2(profile, params, t1)
        return combine(cc, cs, np.cos(dth), np.sin(dth)) * env

    xx, _ = integrate_ordered(
        lambda ts: kernel(ts, lambda cc, cs, c, d: (1.0 + cc) * c - cs * d),
        2, s, settings)
    yy, _ = integrate_ordered(
        lambda ts: kernel(ts, lambda cc, cs, c, d: (1.0 - cc) * c + cs * d),
        2, s, settings)
    xy, _ = integrate_ordered(
        lambda ts: kernel(ts, lambda cc, cs, c, d: cs * c + cc * d),
        2, s, settings)

    int_cc, _ = integrate_ordered(lambda ts: damped_cos2(profile, params, ts[0]),
                                  1, s, settings)
    int_cs, _ = integrate_ordered(lambda ts: damped_sin2(profile, params, ts[0]),
                                  1, s, settings)

    kr2 = 0.5 * params.k_r
    m_xx = xx.real + kr2 * (s + int_cc.real)
    m_yy = yy.real + kr2 * (s - int_cc.real)
    m_xy = xy.real + kr2 * int_cs.real
    return m_xx, m_yy, m_xy


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
