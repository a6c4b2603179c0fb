"""Exception and warning types shared across the package."""


class BrownianUnicycleError(Exception):
    """Base class for errors raised by this package."""


class ProfileDomainError(BrownianUnicycleError, ValueError):
    """A curve-length query fell outside the profile domain [0, s_max]."""


class IntegrandEvaluationError(BrownianUnicycleError):
    """An integrand returned a non-finite value.

    The first offending evaluation point is attached as ``point``.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class TermKeyError(BrownianUnicycleError, ValueError):
    """An (n, l, m) index combination is invalid for its (p, q)."""


class NumericalConsistencyError(BrownianUnicycleError):
    """Independent numerical paths disagree beyond tolerance."""


class ConfigError(BrownianUnicycleError):
    """An experiment configuration failed to parse or validate."""


class EnvelopeRefusal(BrownianUnicycleError):
    """A moment request beyond the cost envelope was refused."""


class EnvelopeWarning(UserWarning):
    """A moment request exceeds the guaranteed cost envelope."""


class AccuracyWarning(UserWarning):
    """A chain integral's error estimate stayed above the accuracy target
    ``quadrature.REL_TOL``."""
