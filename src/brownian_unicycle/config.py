"""Experiment configuration: one JSON document drives every command.

Schema (section ``sim`` is optional):

    {
      "profile":    {"kind": "constant" | "polynomial" | "table",
                     "mu0": 5.0 | "coeffs": [c0, c1, ...]
                               | "samples": [[s, mu], ...],
                     "theta0": 0.0, "s_max": 1.0},
      "noise":      {"k_r": 0.01, "k_theta": 0.01},
      "sim":        {"s_final": 1.0, "steps": 10000,
                     "trials": 100000, "master_seed": 0}
    }

The moment engines' chain rule runs to the fixed accuracy target
:data:`~brownian_unicycle.quadrature.REL_TOL`. A ``quadrature`` section,
written by older versions, must be a JSON object whose ``rel_tol``, if
present, equals that target; any other ``rel_tol`` is refused rather than
silently ignored. Loading is strict about unknown profile kinds, invalid
values (a fractional or boolean ``steps``, ``trials`` or ``master_seed``,
``coeffs`` or ``samples`` that are not JSON arrays) and sections that are
not JSON objects, and ignores sections and ``quadrature`` keys it does not
read (such as the ``output`` section and the ``nodes_per_level``,
``max_dim_deterministic`` and ``qmc_samples`` keys of older configs); every
failure is reported as :class:`ConfigError` so the CLI can map it to its
exit code.
``dump_config`` emits a document that loads back to an equivalent
configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .exceptions import ConfigError
from .montecarlo import SimConfig
from .quadrature import REL_TOL
from .trajectory import NoiseParams, SpeedRatioProfile

_SIM_DEFAULTS = {"steps": 10000, "trials": 100000, "master_seed": 0}


@dataclass(frozen=True)
class ExperimentConfig:
    profile: SpeedRatioProfile
    noise: NoiseParams
    sim: SimConfig


def _array(value, name: str) -> list:
    """``value`` if it is a JSON array; anything else is refused."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a JSON array, "
                          f"got {type(value).__name__}")
    return value


def _whole(value, name: str) -> int:
    """``value`` as an int if it is a JSON number without a fraction, such
    as ``10000`` or ``1e5``; anything else is refused."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _profile_from_dict(d: dict) -> SpeedRatioProfile:
    kind = d.get("kind")
    theta0 = float(d.get("theta0", 0.0))
    if kind == "constant":
        return SpeedRatioProfile.constant(float(d["mu0"]), theta0,
                                          float(d["s_max"]))
    if kind == "polynomial":
        coeffs = [float(c) for c in _array(d["coeffs"], "coeffs")]
        return SpeedRatioProfile.polynomial(coeffs, theta0, float(d["s_max"]))
    if kind == "table":
        rows = [_array(row, "a samples row")
                for row in _array(d["samples"], "samples")]
        return SpeedRatioProfile.table([(float(s), float(mu)) for s, mu in rows],
                                       theta0, float(d.get("s_max")) if "s_max" in d else None)
    raise ConfigError(f"unknown profile kind {kind!r}")


def _profile_to_dict(p: SpeedRatioProfile) -> dict:
    out = {"kind": p.kind, "theta0": p.theta0, "s_max": p.s_max}
    if p.kind == "constant":
        out["mu0"] = p.mu0
    elif p.kind == "polynomial":
        out["coeffs"] = list(p.coeffs)
    else:
        out["samples"] = [[s, mu] for s, mu in zip(p.knots_s, p.knots_mu)]
    return out


def _section(doc: dict, name: str, required: bool = True) -> dict:
    """Section ``name`` of ``doc``, empty when an optional one is absent;
    a section that is not a JSON object is refused."""
    if not required and name not in doc:
        return {}
    section = doc[name]
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object, "
                          f"got {type(section).__name__}")
    return section


def config_from_dict(doc: dict) -> ExperimentConfig:
    try:
        profile = _profile_from_dict(_section(doc, "profile"))
        noise_doc = _section(doc, "noise")
        noise = NoiseParams(float(noise_doc["k_r"]), float(noise_doc["k_theta"]))
        sim_doc = dict(_SIM_DEFAULTS, **_section(doc, "sim", False))
        sim = SimConfig(
            profile=profile,
            params=noise,
            s_final=float(sim_doc.get("s_final", profile.s_max)),
            steps=_whole(sim_doc["steps"], "steps"),
            trials=_whole(sim_doc["trials"], "trials"),
            master_seed=_whole(sim_doc["master_seed"], "master_seed"),
        )
        quad_doc = _section(doc, "quadrature", False)
        rel_tol = float(quad_doc.get("rel_tol", REL_TOL))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    if rel_tol != REL_TOL:
        raise ConfigError(
            f"quadrature.rel_tol = {rel_tol:g} is not supported: the chain "
            f"rule's accuracy target is fixed at {REL_TOL:g}")
    return ExperimentConfig(profile, noise, sim)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return config_from_dict(doc)


def dump_config(cfg: ExperimentConfig) -> dict:
    return {
        "profile": _profile_to_dict(cfg.profile),
        "noise": {"k_r": cfg.noise.k_r, "k_theta": cfg.noise.k_theta},
        "sim": {
            "s_final": cfg.sim.s_final,
            "steps": cfg.sim.steps,
            "trials": cfg.sim.trials,
            "master_seed": cfg.sim.master_seed,
        },
    }
