"""PID auto-tuning: closed-loop step-response simulation, a rise-time plus
settling-band objective, Ziegler-Nichols and random initialization, and
compass-search optimization with full evaluation traces."""

from .errors import (
    GainOverflow,
    ImproperLoop,
    InvalidInput,
    NonFiniteStart,
    NoUltimateGain,
    OutputUnwritable,
    PidTuneError,
    PlantParseError,
    ResampleExhausted,
)
from .lti import (
    PidGains,
    SimConfig,
    StateSpace,
    StepResponse,
    TransferFunction,
    close_unity_feedback,
    simulate_step,
    tf_to_state_space,
)
from .objective import ObjectiveValue, band_deviation, evaluate, rise_time, step_response
from .render import export_trace, render_animation, render_frame
from .search import (
    BUDGET_EXHAUSTED,
    STEP_CONVERGED,
    EvaluationRecord,
    SearchConfig,
    SearchTrace,
    optimize,
)
from .tuning import UltimatePoint, ultimate_point, zn_pid_gains

__version__ = "0.1.0"

__all__ = [
    "BUDGET_EXHAUSTED",
    "STEP_CONVERGED",
    "EvaluationRecord",
    "GainOverflow",
    "ImproperLoop",
    "InvalidInput",
    "NoUltimateGain",
    "NonFiniteStart",
    "ObjectiveValue",
    "OutputUnwritable",
    "PidGains",
    "PidTuneError",
    "PlantParseError",
    "ResampleExhausted",
    "SearchConfig",
    "SearchTrace",
    "SimConfig",
    "StateSpace",
    "StepResponse",
    "TransferFunction",
    "UltimatePoint",
    "band_deviation",
    "close_unity_feedback",
    "evaluate",
    "export_trace",
    "optimize",
    "render_animation",
    "render_frame",
    "rise_time",
    "simulate_step",
    "step_response",
    "tf_to_state_space",
    "ultimate_point",
    "zn_pid_gains",
]
