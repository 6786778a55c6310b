"""Exception types shared across the package."""


class WaveboundError(Exception):
    """Base class for all package errors."""


class ProfileError(WaveboundError):
    """Wave-speed profile produced a non-finite or invalid value."""


class PositivityError(ProfileError):
    """Wave speed is not strictly positive at a sampled time."""


class CoverageError(WaveboundError):
    """Grid does not cover the support of the initial data."""


class AccuracyError(WaveboundError):
    """A quadrature or oracle did not reach the requested tolerance.

    ``achieved`` carries the best estimate obtained before giving up.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class BlowUpError(WaveboundError):
    """Non-finite field value during time stepping.

    Usually signals a CFL violation or a misbehaving speed profile.
    ``step_index`` is the index of the first bad step.
    """

    def __init__(self, step_index):
        super().__init__(
            f"non-finite field at step {step_index}; check the CFL number and the profile"
        )
        self.step_index = step_index


class ConfigError(WaveboundError):
    """Experiment configuration failed validation."""


class CapacityError(ConfigError):
    """Requested resolution exceeds the configured memory budget."""


class SeriesError(WaveboundError):
    """Diagnostic series is degenerate or unusable."""


class FitError(WaveboundError):
    """Growth fit cannot be performed on the requested window."""


class HypothesisError(WaveboundError):
    """The antiderivative of the initial velocity is not square integrable.

    This marks the norm-growth regime, not an artifact failure: none of the
    closed-form bounds apply and the norm is expected to grow.
    """


class OracleError(WaveboundError):
    """No oracle is available for the requested configuration."""
