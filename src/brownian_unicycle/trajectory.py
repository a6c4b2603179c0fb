"""Speed-ratio profiles: the deterministic motion of the planar unicycle.

The commanded motion enters every formula through the speed ratio
``mu(s)`` (angular over linear speed) expressed in the curve-length
parameter ``s``, and through the noise-free heading it induces,

    mean_heading(s) = theta0 + integral_0^s mu(s') ds'.

Profiles are immutable after construction and precompute whatever makes
the heading evaluation exact: constant and polynomial ratios integrate in
closed form, tabulated ratios use linear interpolation of ``mu`` whose
cumulative integral is piecewise quadratic and therefore also exact.

Queries outside ``[0, s_max]``, and NaN, raise :class:`ProfileDomainError`
rather than extrapolating; silently extrapolated ratios would corrupt the
high-order moment integrals downstream.

This module holds the profile geometry only. Every integral of the
heading, the noise-free pose included, lives in :mod:`low_moments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ProfileDomainError


@dataclass(frozen=True)
class NoiseParams:
    """Diffusion constants of the two noise channels.

    ``k_r`` scales the variance of the longitudinal shift per unit of
    traveled distance, ``k_theta`` the variance of the heading per unit of
    traveled distance. Both must be finite and non-negative.
    """

    k_r: float
    k_theta: float

    def __post_init__(self) -> None:
        # Written so that NaN, which compares false either way, fails too.
        if not (0.0 <= self.k_r < math.inf):
            raise ValueError(f"k_r must be finite and >= 0, got {self.k_r}")
        if not (0.0 <= self.k_theta < math.inf):
            raise ValueError(f"k_theta must be finite and >= 0, got {self.k_theta}")


@dataclass(frozen=True)
class SpeedRatioProfile:
    """Deterministic speed-ratio command ``mu(s)`` plus the start heading.

    Use the :meth:`constant`, :meth:`polynomial` or :meth:`table`
    constructors instead of calling ``__init__`` directly. ``coeffs`` are
    monomial coefficients, ``mu(s) = sum(coeffs[k] * s**k)``. Table
    profiles carry strictly increasing sample abscissae starting at 0 and
    covering ``[0, s_max]``; ``knot_heading`` caches the exact cumulative
    integral of the interpolated ratio at each knot.
    """

    kind: str
    theta0: float
    s_max: float
    mu0: float = 0.0
    coeffs: tuple[float, ...] = ()
    knots_s: tuple[float, ...] = ()
    knots_mu: tuple[float, ...] = ()
    knot_heading: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "polynomial", "table"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not (0.0 < self.s_max < math.inf):
            raise ValueError(f"s_max must be positive and finite, got {self.s_max}")
        for name in ("theta0", "mu0", "coeffs", "knots_s", "knots_mu"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kind == "table":
            ks = np.asarray(self.knots_s)
            if ks.size < 2:
                raise ValueError("table profile needs at least two samples")
            if ks[0] != 0.0:
                raise ValueError("table samples must start at s = 0")
            if not np.all(np.diff(ks) > 0.0):
                raise ValueError("table samples must be strictly increasing in s")
            if ks[-1] < self.s_max:
                raise ValueError("table samples must cover [0, s_max]")
            if len(self.knots_mu) != ks.size:
                raise ValueError("knots_s and knots_mu must have equal length")

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        """The instance state without the cached ``_panels``.

        The copy rebuilds them, read-only, on first use. ``_hash`` stays:
        it hashes numbers only, so it is valid in any process.
        """
        state = self.__dict__.copy()
        state.pop("_panels", None)
        return state

    @cached_property
    def _hash(self) -> int:
        """The hash of every field but ``kind``, computed once.

        A string's hash differs from process to process, and a pickled
        profile carries this value with it; the fields left are numbers,
        whose hashes do not. Equality still compares ``kind``.
        """
        return hash((self.theta0, self.s_max, self.mu0, self.coeffs,
                     self.knots_s, self.knots_mu, self.knot_heading))

    @cached_property
    def _panels(self):
        """Read-only ``(ks, kmu, kh, slope)`` of a table profile: knot
        abscissae, ratios and headings, and each panel's ratio slope.

        Built on first use and kept outside the dataclass fields, so it
        takes no part in equality or hashing.
        """
        ks = np.asarray(self.knots_s, dtype=float)
        kmu = np.asarray(self.knots_mu, dtype=float)
        kh = np.asarray(self.knot_heading, dtype=float)
        slope = (kmu[1:] - kmu[:-1]) / (ks[1:] - ks[:-1])
        for arr in (ks, kmu, kh, slope):
            arr.setflags(write=False)
        return ks, kmu, kh, slope

    @classmethod
    def constant(cls, mu0: float, theta0: float = 0.0, s_max: float = 1.0) -> "SpeedRatioProfile":
        return cls(kind="constant", theta0=theta0, s_max=s_max, mu0=float(mu0))

    @classmethod
    def polynomial(cls, coeffs, theta0: float = 0.0, s_max: float = 1.0) -> "SpeedRatioProfile":
        return cls(kind="polynomial", theta0=theta0, s_max=s_max,
                   coeffs=tuple(float(c) for c in coeffs))

    @classmethod
    def table(cls, samples, theta0: float = 0.0, s_max: float | None = None) -> "SpeedRatioProfile":
        """Build from ``[(s, mu), ...]`` pairs, linearly interpolated."""
        pts = sorted((float(s), float(mu)) for s, mu in samples)
        ks = tuple(s for s, _ in pts)
        kmu = tuple(mu for _, mu in pts)
        if s_max is None:
            s_max = ks[-1]
        # Exact cumulative integral of the piecewise-linear ratio: each
        # panel contributes its trapezoid area.
        heading = [theta0]
        for i in range(1, len(ks)):
            heading.append(heading[-1] + 0.5 * (kmu[i - 1] + kmu[i]) * (ks[i] - ks[i - 1]))
        return cls(kind="table", theta0=theta0, s_max=float(s_max),
                   knots_s=ks, knots_mu=kmu, knot_heading=tuple(heading))


def _check_domain(profile: SpeedRatioProfile, s) -> np.ndarray:
    arr = np.asarray(s, dtype=float)
    # Written so that NaN, which compares false either way, fails too.
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= profile.s_max):
        raise ProfileDomainError(
            f"curve length outside [0, {profile.s_max}]: "
            f"range [{arr.min()}, {arr.max()}]")
    return arr


def ratio(profile: SpeedRatioProfile, s):
    """Evaluate the speed ratio ``mu(s)``. Accepts scalars or arrays."""
    arr = _check_domain(profile, s)
    if profile.kind == "constant":
        out = np.full_like(arr, profile.mu0)
    elif profile.kind == "polynomial":
        out = np.zeros_like(arr)
        for c in reversed(profile.coeffs):
            out = out * arr + c
    else:
        ks, kmu, _, _ = profile._panels
        out = np.interp(arr, ks, kmu)
    return out if np.ndim(s) else float(out)


def polynomial_heading(profile: SpeedRatioProfile, s):
    """The heading of a polynomial profile at ``s`` by Horner's rule, with
    no domain check."""
    out = 0.0
    for k in range(len(profile.coeffs) - 1, -1, -1):
        out = out * s + profile.coeffs[k] / (k + 1)
    return profile.theta0 + out * s


def mean_heading(profile: SpeedRatioProfile, s):
    """Noise-free heading ``theta0 + integral_0^s mu``, unwrapped.

    Closed form for constant and polynomial profiles; exact piecewise
    quadratic for table profiles. The result is never reduced mod 2*pi so
    finite differences of headings stay smooth.
    """
    arr = _check_domain(profile, s)
    if profile.kind == "constant":
        out = profile.theta0 + profile.mu0 * arr
    elif profile.kind == "polynomial":
        out = polynomial_heading(profile, arr)
    else:
        ks, kmu, kh, slope = profile._panels
        # Panel holding each point; searching the interior knots keeps
        # s = ks[-1] in the last panel.
        idx = np.searchsorted(ks[1:-1], arr, side="right")
        ds = arr - ks[idx]
        out = kh[idx] + kmu[idx] * ds + 0.5 * slope[idx] * ds * ds
    return out if np.ndim(s) else float(out)
