"""Heading integrals: the noise-free pose and the low-order statistics.

Every quantity here is an explicit one- or two-dimensional integral over
the deterministic heading ``h``, with the heading-noise decay attached to
each displacement factor, and all of them run on one Gauss-Legendre panel
rule of ``[0, s]``: the panels of :func:`~brownian_unicycle.quadrature.panels`
for an integrand of dimension 2 and phase weight 2 (``D`` below), which
grades them toward 0 when ``2 k_theta s`` passes ``PANEL_DECAY`` and takes
``m`` from the largest turn and decay of a panel, and :func:`_rule` on
them. Each segment's heading is evaluated at its own nodes from its own
quadratic (a table) or closed form. Consecutive calls at one ``(profile,
k_theta, s)`` share one record of it (:class:`_Point`), which builds the
panels, each rule and the line sums ``Z`` and ``J`` once there: a memo
keeps the read-only record of the last point only.

The one-dimensional integrals are Gauss sums on the panels: the mean
position ``Z = int_0^s exp(i h(t) - k_theta t / 2) dt`` (without the decay,
the noise-free pose), ``J``, the same integral with a factor ``t``, and
``int D`` with ``D = exp(2 i h - 2 k_theta t)``. The position-heading
covariances are ``cov(x, theta) = -k_theta Im J`` and ``cov(y, theta) =
k_theta Re J``: the factor ``t`` comes from differentiating the mean
position under the integral sign.

The two-dimensional integrals are ``iint_{u < t} E(t, u) f(u)`` with
``E = exp(i (h(t) - h(u)) - c (t - u))``, ``c = k_theta / 2``, and ``f =
1`` or ``D``. ``E`` is separable, so the inner integral ``I(t) = int_0^t
E(t, u) f(u) du`` is a prefix integral (:func:`_pair_sums`). On a
panel ``[p0, p0 + H]``, with ``g = exp(-i (h(u) - h(p0))) f(u)`` at its
nodes,

    I(t) = exp(i (h(t) - h(p0))) [exp(-c (t - p0)) C + H (S_c g)(t)],
    C <- exp(i dh) (exp(-c H) C + H W_c g),

where ``C = I(p0)`` is one complex number carried from panel to panel,
``dh`` is the panel's turn and ``S_c``, ``W_c`` are
:func:`~brownian_unicycle.quadrature._decay_weights` at the rate ``c H``,
which integrate the gap's decay exactly: the
:class:`~brownian_unicycle.quadrature.PrefixCarry` of the moment engines,
with the turn taken into the carry. No exponent grows, and the cost is
``O(n m)`` for ``n`` nodes. ``<D^2> = k_r s + 2 Re iint E``, and the
second moments are ``<x^2> = Re iint E + Re iint D E + k_r/2 (s + Re int
D)``, ``<y^2> = Re iint E - Re iint D E + k_r/2 (s - Re int D)`` and ``<x
y> = Im iint D E + k_r/2 Im int D``.

The value-only functions evaluate the rule of ``m`` nodes per panel;
:func:`low_order_statistics` and :func:`mean_squared_distance_with_error`
also evaluate the one of ``m - ESTIMATE_STEP`` nodes on the same panels,
and estimate each error from the two. A turn bound that is not finite
raises :class:`~brownian_unicycle.exceptions.IntegrandEvaluationError`
with the end of its segment as the point, before any rule is built, and
a sum that is not finite raises it without one.
"""

from __future__ import annotations

import cmath
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .exceptions import IntegrandEvaluationError, NumericalConsistencyError
from .quadrature import (CHAIN_ROUNDOFF, ESTIMATE_STEP, PrefixCarry,
                         _check_length, _gauss_unit, _Panels, panels)
from .trajectory import (NoiseParams, SpeedRatioProfile, mean_heading,
                         polynomial_heading)


def orientation_distribution(profile: SpeedRatioProfile, params: NoiseParams,
                             s: float) -> tuple[float, float]:
    """Mean and variance of the heading marginal, ``(mean_heading, k_theta*s)``."""
    return mean_heading(profile, s), params.k_theta * s


# -- the panel rule ------------------------------------------------------------

class _Rule(NamedTuple):
    """The ``m``-node rule on :class:`~brownian_unicycle.quadrature._Panels`:
    nodes ``t`` and weights ``wt`` with shape ``(panels, m)``, the heading
    ``h`` at the nodes and ``local``, its rise ``B x + C x^2`` from the
    panel's start (zero for a polynomial: see :func:`_rise`)."""

    panels: _Panels
    t: np.ndarray
    wt: np.ndarray
    h: np.ndarray
    local: np.ndarray


@lru_cache(maxsize=64)
def _basis(m: int) -> np.ndarray:
    """The matrices that take the rows of ``_Panels.coef`` to the
    panels' ``t``, ``h``, ``local`` and ``wt`` at the ``m`` Gauss nodes
    ``x`` of ``[0, 1]``, stacked."""
    x, w = _gauss_unit(m)
    basis = np.zeros((4, 5, m))
    basis[0, 0] = 1.0                   # t = p0 + H x
    basis[0, 1] = x
    basis[1, 2] = 1.0                   # h = h0 + B x + C x^2
    basis[1, 3] = basis[2, 3] = x       # local = B x + C x^2
    basis[1, 4] = basis[2, 4] = x * x
    basis[3, 1] = w                     # wt = H w
    basis.setflags(write=False)
    return basis


def _rule(profile: SpeedRatioProfile, panels: _Panels, m: int) -> _Rule:
    """The read-only ``m``-node rule on ``panels``: one product of their
    ``coef`` with :func:`_basis`, and a polynomial's heading at the
    nodes."""
    stack = panels.coef @ _basis(m)
    stack.setflags(write=False)
    t, h, local, wt = stack
    if profile.kind == "polynomial":
        h = polynomial_heading(profile, t)
        h.setflags(write=False)
    return _Rule(panels, t, wt, h, local)


def _rise(profile: SpeedRatioProfile, rule: _Rule):
    """The heading at each panel's start, its rise from there at the nodes,
    and its turn across each panel: for constant and table profiles from
    the panel's quadratic, which carries no roundoff of the start's
    heading."""
    coef = rule.panels.coef
    if profile.kind != "polynomial":
        return coef[:, 2], rule.local, coef[:, 3] + coef[:, 4]
    h = polynomial_heading(profile, np.append(coef[:, 0], coef[-1, 0]
                                               + coef[-1, 1]))
    return h[:-1], rule.h - h[:-1, None], h[1:] - h[:-1]


class _Point:
    """The record of one point ``(profile, kt, s)``, ``s > 0``, that the
    statistics there share: the panels of an integrand of dimension 2 and
    phase weight 2 (``D``) and, each built on first need, the rule of ``m``
    nodes per panel, the coarse rule of ``m - ESTIMATE_STEP`` nodes on the
    same panels and the line sums ``(Z, J)`` on the rule, unchecked (a
    caller refuses the one it reads when it is not finite)."""

    def __init__(self, profile, kt, s):
        self.profile, self.kt = profile, kt
        self.panels = panels(profile, s, kt, 2, 2)
        self.panels.coef.setflags(write=False)

    @cached_property
    def rule(self) -> _Rule:
        return _rule(self.profile, self.panels, self.panels.m)

    @cached_property
    def coarse(self) -> _Rule:
        return _rule(self.profile, self.panels, self.panels.m - ESTIMATE_STEP)

    @cached_property
    def lines(self) -> tuple[complex, complex]:
        return _line_sums(self.rule, self.kt)


# The record of the most recent point only.
_point_record = lru_cache(maxsize=1)(_Point)


def _point(profile, kt, s) -> _Point:
    """The record of ``profile``, ``kt`` and ``s``: ``kt`` and ``s`` key it
    as floats, so a 0-d array, an ``int`` and an ``np.float64`` find the
    same entry."""
    return _point_record(profile, float(kt), float(s))


# -- sums on one rule ----------------------------------------------------------

def _finite(value: complex) -> complex:
    """``value``, refused when it is not finite."""
    if not cmath.isfinite(value):
        raise IntegrandEvaluationError("the rule sum is not finite")
    return value


def _estimate(coarse: complex, fine: complex, modulus: float) -> float:
    """``|fine - coarse|`` plus ``CHAIN_ROUNDOFF`` times the fine rule's sum
    of the moduli of its terms."""
    return abs(fine - coarse) + CHAIN_ROUNDOFF * modulus


def _trig(rule: _Rule):
    """``cos h`` and ``sin h`` at the nodes."""
    return np.cos(rule.h), np.sin(rule.h)


def _line_sums(rule: _Rule, kt: float, moduli: bool = False):
    """``Z`` and ``J`` on ``rule``, unchecked, from one :func:`_trig` and one
    vector of decay times weight, ``J``'s being ``Z``'s times ``t``, and
    with ``moduli`` the sums of the moduli of their terms as well."""
    cos, sin = _trig(rule)
    e = np.exp(-0.5 * kt * rule.t)
    e *= rule.wt
    # Past s ~ 1e154 the terms of J overflow where Z's do not.
    with np.errstate(over="ignore"):
        et = e * rule.t
    sums = (complex(np.vdot(cos, e), np.vdot(sin, e)),
            complex(np.vdot(cos, et), np.vdot(sin, et)))
    if not moduli:
        return sums
    return sums, (float(e.sum()), float(et.sum()))


def _pair_sums(profile, rule: _Rule, kt: float, second: bool,
               moduli: bool = False):
    """``iint E`` on ``rule`` and, when ``second``, ``iint D E`` and ``int D``,
    and with ``moduli`` the sums of the moduli of their terms as well.

    The inner integral is the prefix carry of the module docstring, on
    the panel-local values ``g`` with each panel's turn ``exp(i dh)`` taken
    into the carry; the outer integral is the Gauss sum of ``I`` over the
    nodes.
    """
    h0, local, turn = _rise(profile, rule)
    phase = np.exp(1j * local)
    # g[..., 0] = exp(-i (h - h0)) and g[..., 1] = that times D = exp(2 i h -
    # 2 kt t).
    g = np.empty(phase.shape + (1 + second,), complex)
    np.conjugate(phase, out=g[..., 0])
    if second:
        np.exp(1j * (rule.h + h0[:, None]) - 2.0 * kt * rule.t, out=g[..., 1])
    # I at the nodes, without exp(i (h - h0)).
    inner = PrefixCarry(rule.panels.width, rule.t.shape[1], 0.5 * kt)(
        g, np.exp(1j * turn))
    weighted = rule.wt * phase
    sums = (weighted.ravel() @ inner.reshape(-1, g.shape[-1])).tolist()
    if second:
        sums.append(complex(np.dot(weighted.ravel(), g[..., 1].ravel())))
    sums = [_finite(value) for value in sums]
    if not moduli:
        return sums
    mods = (rule.wt[..., None] * np.abs(inner)).sum(axis=(0, 1)).tolist()
    if second:
        mods.append(float(np.exp(-2.0 * kt * rule.t).ravel() @ rule.wt.ravel()))
    return sums, mods


# -- the statistics ------------------------------------------------------------

def _mean_integral(profile, kt, s, power=0) -> complex:
    """``int_0^s t^power exp(i h(t) - kt t / 2) dt`` on the rule of
    ``kt``."""
    _check_length(profile, s)
    if s == 0.0:
        return 0j
    return _finite(_point(profile, kt, s).lines[power])


def deterministic_pose(profile: SpeedRatioProfile, s: float):
    """Noise-free pose ``(x, y, theta)`` after curve length ``s``.

    ``x + i y = int_0^s exp(i * mean_heading)``. Constant profiles take
    the exact one-level chain of
    :func:`~brownian_unicycle.constant_ratio.mean_pose_closed` without
    noise; other kinds sum the panel rule.
    """
    if profile.kind == "constant":
        # constant_ratio imports this module through fourth_moment.
        from .constant_ratio import mean_pose_closed
        z = mean_pose_closed(profile.mu0, NoiseParams(0.0, 0.0),
                             profile.theta0, s)
    else:
        z = _mean_integral(profile, 0.0, s)
    th = mean_heading(profile, s)
    return (z.real, z.imag, th)


def mean_x(profile: SpeedRatioProfile, params: NoiseParams, s: float) -> float:
    """``integral_0^s cos(mean_heading) * exp(-k_theta s'/2) ds'``."""
    return _mean_integral(profile, params.k_theta, s).real


def mean_y(profile: SpeedRatioProfile, params: NoiseParams, s: float) -> float:
    """Sine analogue of :func:`mean_x`."""
    return _mean_integral(profile, params.k_theta, s).imag


def cov_xtheta(profile: SpeedRatioProfile, params: NoiseParams,
               s: float) -> float:
    """Covariance of x with the heading, ``-k_theta * int s' sin(mean_heading) e^{-k_theta s'/2}``."""
    kt = params.k_theta
    return -kt * _mean_integral(profile, kt, s, 1).imag


def cov_ytheta(profile: SpeedRatioProfile, params: NoiseParams,
               s: float) -> float:
    """Covariance of y with the heading, ``+k_theta * int s' cos(mean_heading) e^{-k_theta s'/2}``."""
    kt = params.k_theta
    return kt * _mean_integral(profile, kt, s, 1).real


def _second_moments(k_r, s, ie, ide, i_d):
    """``(<x^2>, <y^2>, <x y>)`` from ``iint E``, ``iint D E`` and
    ``int D``."""
    kr2 = 0.5 * k_r
    return (float(ie.real + ide.real + kr2 * (s + i_d.real)),
            float(ie.real - ide.real + kr2 * (s - i_d.real)),
            float(ide.imag + kr2 * i_d.imag))


def second_moments(profile: SpeedRatioProfile, params: NoiseParams,
                   s: float) -> tuple[float, float, float]:
    """Second moments ``(<x^2>, <y^2>, <x y>)`` of the position.

    With ``h`` the heading, ``E = exp(i (h2 - h1) - k_theta (t2 - t1)/2)``
    and ``D = exp(2 i h1 - 2 k_theta t1)`` (the damped double-angle
    factor of the inner point), over the ordered pair ``t1 <= t2``:
    ``<x^2> = Re iint E + Re iint D E + k_r/2 * (s + Re int D)``,
    ``<y^2> = Re iint E - Re iint D E + k_r/2 * (s - Re int D)`` and
    ``<x y> = Im iint D E + k_r/2 * Im int D``, on one panel rule.
    """
    _check_length(profile, s)
    if s == 0.0:
        return _second_moments(params.k_r, s, 0j, 0j, 0j)
    rule = _point(profile, params.k_theta, s).rule
    return _second_moments(params.k_r, s,
                           *_pair_sums(profile, rule, params.k_theta, True))


def low_order_statistics(profile: SpeedRatioProfile, params: NoiseParams,
                         s: float) -> dict[str, tuple[float, float]]:
    """Means, second moments and position-heading covariances, each with
    its error estimate, from one heading evaluation on each rule of the
    estimate pair.

    Returns ``{name: (value, err_estimate)}`` for ``mean_x``, ``mean_y``,
    ``m_xx``, ``m_yy``, ``m_xy`` (the three of :func:`second_moments`),
    ``cov_xtheta`` and ``cov_ytheta``. The values are those of the
    separate functions, on the rule of ``m`` nodes per panel. Each
    integral's estimate is :func:`_estimate` of the ``m - ESTIMATE_STEP``-
    and ``m``-node rules; a statistic adds the estimates of its integrals
    times the moduli of their coefficients.
    """
    _check_length(profile, s)
    kt = params.k_theta

    def integrals(rule, moduli):
        # Z, J, iint E, iint D E and int D, and with moduli the sums of
        # the moduli of their terms.
        if not moduli:
            return ([_finite(z) for z in _line_sums(rule, kt)]
                    + _pair_sums(profile, rule, kt, True))
        lines, line_mods = _line_sums(rule, kt, moduli=True)
        pairs, mods = _pair_sums(profile, rule, kt, True, moduli=True)
        return [_finite(z) for z in lines] + pairs, [*line_mods, *mods]

    if s == 0.0:
        sums, estimates = [0j] * 5, [0.0] * 5
    else:
        point = _point(profile, kt, s)
        coarse_rule, rule = point.coarse, point.rule
        sums, mods = integrals(rule, True)
        estimates = [_estimate(c, f, mod) for c, f, mod
                     in zip(integrals(coarse_rule, False), sums, mods)]
    (z, j, ie, ide, i_d), (e_z, e_j, e_e, e_de, e_d) = sums, estimates
    m_xx, m_yy, m_xy = _second_moments(params.k_r, s, ie, ide, i_d)
    kr2 = 0.5 * params.k_r
    return {"mean_x": (z.real, e_z), "mean_y": (z.imag, e_z),
            "m_xx": (m_xx, e_e + e_de + kr2 * e_d),
            "m_yy": (m_yy, e_e + e_de + kr2 * e_d),
            "m_xy": (m_xy, e_de + kr2 * e_d),
            "cov_xtheta": (-kt * j.imag, kt * e_j),
            "cov_ytheta": (kt * j.real, kt * e_j)}


def mean_squared_distance(profile: SpeedRatioProfile, params: NoiseParams,
                          s: float) -> float:
    """Mean of the squared distance from the start point.

    ``k_r*s + 2 * iint exp(-k_theta (t2-t1)/2) cos(heading(t2) - heading(t1))``
    over the ordered pair ``t1 <= t2``, refused like
    :func:`checked_mean_squared_distance` when no digit is right.
    """
    return checked_mean_squared_distance(profile, params, s)[0]


def mean_squared_distance_with_error(profile: SpeedRatioProfile,
                                     params: NoiseParams, s: float
                                     ) -> tuple[float, float]:
    """The mean squared distance and the error estimate of its integral,
    unchecked.

    The integral is ``Re iint E`` of :func:`second_moments`, on each rule
    of the estimate pair; the estimate is :func:`_estimate` of the two.
    """
    _check_length(profile, s)
    if s == 0.0:
        return params.k_r * s, 0.0
    kt = params.k_theta
    point = _point(profile, kt, s)
    coarse_rule, rule = point.coarse, point.rule
    (coarse,) = _pair_sums(profile, coarse_rule, kt, False)
    (fine,), (mod,) = _pair_sums(profile, rule, kt, False, moduli=True)
    return params.k_r * s + 2.0 * fine.real, 2.0 * _estimate(coarse, fine, mod)


def checked_mean_squared_distance(profile: SpeedRatioProfile,
                                  params: NoiseParams, s: float
                                  ) -> tuple[float, float]:
    """:func:`mean_squared_distance_with_error`, refused when no digit is
    right.

    Raises :class:`NumericalConsistencyError` when the error estimate
    exceeds the value's magnitude.
    """
    value, err = mean_squared_distance_with_error(profile, params, s)
    if err > abs(value):
        raise NumericalConsistencyError(
            f"<D^2> = {value:.6g} has no correct digit: its error "
            f"estimate {err:.3g} exceeds its magnitude")
    return value, err
