"""Exception types shared across the package."""


class PidTuneError(Exception):
    """Base class for all pidtune errors."""


class InvalidInput(PidTuneError, ValueError):
    """A value that a constructor or input check rejects."""


class ImproperLoop(PidTuneError):
    """Gains and plant whose ideal-PID unity-feedback loop is not proper."""


class NoUltimateGain(PidTuneError):
    """Proportional loop never crosses the stability boundary."""


class GainOverflow(PidTuneError):
    """A search poll whose gains overflow to a non-finite value."""


class NonFiniteStart(PidTuneError):
    """Direct search started from a point with a non-finite score."""


class ResampleExhausted(PidTuneError):
    """No destabilizing random start found within the attempt budget."""


class OutputUnwritable(PidTuneError):
    """An output file or directory could not be created or written."""


class PlantParseError(PidTuneError):
    """Plant text that does not match the coefficient grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
