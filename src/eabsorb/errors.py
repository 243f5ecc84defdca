"""Exception types shared across the toolkit."""

from __future__ import annotations


class EabsorbError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(EabsorbError, ValueError):
    """A physical parameter is out of its valid range."""


class SynthesisError(EabsorbError):
    """Controller synthesis failed (e.g. inadmissible target impedance)."""


class SingularDesignError(EabsorbError):
    """A circuit design hits a singular operating condition."""


class IdentificationError(EabsorbError):
    """Parameter identification could not be carried out."""


class DiscretizationError(EabsorbError):
    """A continuous-time transfer cannot be realized at the given rate."""


class DivergenceError(EabsorbError):
    """The closed loop diverged in simulation (time_s says when) or is
    unstable and has no steady state (time_s is None)."""

    def __init__(self, message: str, time_s: float | None):
        super().__init__(message)
        self.time_s = time_s
