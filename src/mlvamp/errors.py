"""Exception types shared across the package."""


class MlvampError(Exception):
    """Base class for all library errors."""


class ConfigError(MlvampError):
    """Invalid configuration or arguments."""


class ObservationError(MlvampError):
    """An observation the model cannot produce, so the posterior has no mass;
    ``context`` holds the offending inputs."""

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = context or {}


class DivergenceError(MlvampError):
    """An iterative optimizer or sampler diverged."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class EngineError(MlvampError):
    """A denoiser failed, or a message turned non-finite, inside the sweep.

    ``state_dump`` holds iteration/layer context plus the message state at
    the time of failure.
    """

    def __init__(self, message, state_dump=None):
        super().__init__(message)
        self.state_dump = state_dump or {}
