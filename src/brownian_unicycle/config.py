"""Experiment configuration: one JSON document drives every command.

Schema (sections ``sim`` and ``quadrature`` are optional):

    {
      "profile":    {"kind": "constant" | "polynomial" | "table",
                     "mu0": 5.0 | "coeffs": [c0, c1, ...]
                               | "samples": [[s, mu], ...],
                     "theta0": 0.0, "s_max": 1.0},
      "noise":      {"k_r": 0.01, "k_theta": 0.01},
      "sim":        {"s_final": 1.0, "steps": 10000,
                     "trials": 100000, "master_seed": 0},
      "quadrature": {"nodes_per_level": 24, "rel_tol": 1e-9}
    }

Loading is strict about unknown profile kinds and invalid values, and
ignores sections and ``quadrature`` keys it does not read (such as the
``output`` section and the ``max_dim_deterministic`` and ``qmc_samples``
keys of older configs); every failure is reported as
:class:`ConfigError` so the CLI can map it to its exit code. ``dump_config`` emits a document that loads back to an
equivalent configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .exceptions import ConfigError
from .montecarlo import SimConfig
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings
from .trajectory import NoiseParams, SpeedRatioProfile

_SIM_DEFAULTS = {"steps": 10000, "trials": 100000, "master_seed": 0}


@dataclass(frozen=True)
class ExperimentConfig:
    profile: SpeedRatioProfile
    noise: NoiseParams
    sim: SimConfig
    settings: QuadratureSettings


def _profile_from_dict(d: dict) -> SpeedRatioProfile:
    kind = d.get("kind")
    theta0 = float(d.get("theta0", 0.0))
    if kind == "constant":
        return SpeedRatioProfile.constant(float(d["mu0"]), theta0,
                                          float(d["s_max"]))
    if kind == "polynomial":
        return SpeedRatioProfile.polynomial([float(c) for c in d["coeffs"]],
                                            theta0, float(d["s_max"]))
    if kind == "table":
        return SpeedRatioProfile.table([(float(s), float(mu)) for s, mu in d["samples"]],
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


def config_from_dict(doc: dict) -> ExperimentConfig:
    try:
        profile = _profile_from_dict(doc["profile"])
        noise_doc = doc["noise"]
        noise = NoiseParams(float(noise_doc["k_r"]), float(noise_doc["k_theta"]))
        sim_doc = dict(_SIM_DEFAULTS, **doc.get("sim", {}))
        sim = SimConfig(
            profile=profile,
            params=noise,
            s_final=float(sim_doc.get("s_final", profile.s_max)),
            steps=int(sim_doc["steps"]),
            trials=int(sim_doc["trials"]),
            master_seed=int(sim_doc["master_seed"]),
        )
        quad_doc = doc.get("quadrature", {})
        settings = QuadratureSettings(
            nodes_per_level=int(quad_doc.get("nodes_per_level",
                                             DEFAULT_SETTINGS.nodes_per_level)),
            rel_tol=float(quad_doc.get("rel_tol", DEFAULT_SETTINGS.rel_tol)),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return ExperimentConfig(profile, noise, sim, settings)


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
        "quadrature": {
            "nodes_per_level": cfg.settings.nodes_per_level,
            "rel_tol": cfg.settings.rel_tol,
        },
    }
