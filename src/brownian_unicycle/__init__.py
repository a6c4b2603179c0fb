"""Moments and Monte Carlo simulation of Brownian unicycle motion.

A planar vehicle that can only translate along its heading, driven by a
known speed-ratio command and two Brownian noise channels (longitudinal
shift and heading). The package computes statistical moments of the
resulting position/heading distribution to arbitrary order, provides
closed-form fast paths for constant speed ratio, and ships a reproducible
Monte Carlo simulator that serves as the independent statistical oracle.
"""

from .constant_ratio import (ExpPolySum, complex_rate, d2_closed, d4_closed,
                             mean_pose_closed, variance_d2_closed)
from .exceptions import (AccuracyWarning, BrownianUnicycleError, ConfigError,
                         EnvelopeRefusal, EnvelopeWarning,
                         IntegrandEvaluationError, NumericalConsistencyError,
                         ProfileDomainError, TermKeyError)
from .fourth_moment import d4_moment, variance_d2
from .general_moments import (MomentResult, MomentSpec, TermKey,
                              cartesian_moment, coefficient,
                              count_phase_step_vectors,
                              displacement_heading_moment, displacement_moment,
                              phase_step_vectors, term_keys,
                              theta_power_compositions)
from .low_moments import (cov_xtheta, cov_ytheta, deterministic_pose,
                          low_order_statistics, mean_squared_distance, mean_x,
                          mean_y, orientation_distribution, second_moments)
from .montecarlo import (SimConfig, TrialStatistics, collect_samples,
                         run_experiment, simulate_trial,
                         statistics_from_samples)
from .quadrature import QuadratureSettings
from .trajectory import NoiseParams, SpeedRatioProfile, mean_heading, ratio

__all__ = [
    "AccuracyWarning", "BrownianUnicycleError", "ConfigError", "EnvelopeRefusal",
    "EnvelopeWarning", "ExpPolySum", "IntegrandEvaluationError",
    "MomentResult", "MomentSpec", "NoiseParams", "NumericalConsistencyError",
    "ProfileDomainError", "QuadratureSettings", "SimConfig",
    "SpeedRatioProfile", "TermKey", "TermKeyError", "TrialStatistics",
    "cartesian_moment", "coefficient", "collect_samples", "complex_rate",
    "count_phase_step_vectors", "cov_xtheta", "cov_ytheta", "d2_closed",
    "d4_closed", "d4_moment", "deterministic_pose", "displacement_heading_moment",
    "displacement_moment", "low_order_statistics",
    "mean_heading", "mean_pose_closed", "mean_squared_distance", "mean_x",
    "mean_y", "orientation_distribution", "phase_step_vectors", "ratio",
    "run_experiment", "second_moments", "simulate_trial",
    "statistics_from_samples", "term_keys", "theta_power_compositions",
    "variance_d2", "variance_d2_closed",
]

__version__ = "0.1.0"
