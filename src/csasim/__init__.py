"""Coded slotted-Aloha simulator and analysis toolkit.

Users send coded bursts on random slots of a shared frame; the receiver
recovers them by iterative interference cancellation. The package provides
the frame/placement model, the peeling decoder, an analytic per-round
recursion predicting decoder behaviour, a Monte Carlo harness with load
sweeps and confidence intervals, and a CSV-emitting command line.

Exports are loaded lazily (PEP 562): ``import csasim`` loads no submodule,
and reading an export loads only the module that defines it.
"""
import importlib

# defining module -> the names it exports
_EXPORTS = {
    "configfile": ("ConfigError", "parse_config", "render_config"),
    "csvio": ("emit_csv",),
    "decoder": ("DecodeTrace", "RoundRecord", "decode_frame"),
    "density": (
        "BaselineCurve",
        "DEState",
        "DETrace",
        "aloha_baseline",
        "de_iterate",
        "decode_probability",
        "initial_erasure_probability",
    ),
    "model": (
        "FramePlacement",
        "InternalError",
        "SystemConfig",
        "UserCode",
        "expected_initial_histogram",
        "place_frame",
    ),
    "montecarlo": (
        "SweepResult",
        "TrialAggregate",
        "empirical_round_curves",
        "normalized_load",
        "run_trials",
        "sweep_load",
        "users_for_load",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
