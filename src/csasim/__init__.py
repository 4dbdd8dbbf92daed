"""Coded slotted-Aloha simulator and analysis toolkit.

Users send coded bursts on random slots of a shared frame; the receiver
recovers them by iterative interference cancellation. The package provides
the frame/placement model, the peeling decoder, an analytic per-round
recursion predicting decoder behaviour, a Monte Carlo harness with load
sweeps and confidence intervals, and a CSV-emitting command line.
"""
from .configfile import ConfigError, parse_config, render_config
from .csvio import emit_csv
from .decoder import DecodeTrace, RoundRecord, decode_frame, empirical_round_curves
from .density import (
    DEState,
    DETrace,
    de_iterate,
    decode_probability,
    initial_erasure_probability,
)
from .model import (
    FramePlacement,
    InternalError,
    SystemConfig,
    UserCode,
    expected_initial_histogram,
    place_frame,
)
from .montecarlo import (
    BaselineCurve,
    SweepResult,
    TrialAggregate,
    aloha_baseline,
    normalized_load,
    run_trials,
    sweep_load,
    users_for_load,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineCurve",
    "ConfigError",
    "DEState",
    "DETrace",
    "DecodeTrace",
    "FramePlacement",
    "InternalError",
    "RoundRecord",
    "SweepResult",
    "SystemConfig",
    "TrialAggregate",
    "UserCode",
    "aloha_baseline",
    "de_iterate",
    "decode_frame",
    "decode_probability",
    "emit_csv",
    "empirical_round_curves",
    "expected_initial_histogram",
    "initial_erasure_probability",
    "normalized_load",
    "parse_config",
    "place_frame",
    "render_config",
    "run_trials",
    "sweep_load",
    "users_for_load",
]
