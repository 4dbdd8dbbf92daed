"""Command-line front end.

Subcommands:

    simulate  --config F --frames N [--seed S] [--workers W] --out F.csv
    sweep     --config F --g 0.05:1.0:0.05 --frames N [--seed S] [--workers W] --out F.csv
    de        --config F --out F.csv
    trace     --config F --frame-index J --out F.csv
    baseline  --variant slotted|pure --g GRID --out F.csv

Load grids are START:STOP:STEP (inclusive) or a comma-separated list, and
N is between 1 and sys.maxsize. All behaviour is controlled by flags;
environment variables are ignored so a command line fully reproduces a
result.

Exit status: 0 on success, 1 on bad input, an I/O error, an allocation
that does not fit in memory or a worker process that died (one ``error:``
line on stderr; ``--out`` is left as it was), 2 on a usage error (argparse),
3 on an internal error, i.e. a bug (one ``error: internal:`` line).
"""
from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from typing import Callable

from .configfile import ConfigError, parse_config
from .csvio import emit_csv
from .decoder import DecodeTrace, decode_frame
from .density import DETrace, de_iterate
from .model import InternalError, SystemConfig, place_frame
from .montecarlo import (
    BaselineCurve,
    SweepResult,
    baseline_curve,
    run_trials,
    sweep_load,
)


# largest START:STOP:STEP grid, checked before any of its points is built
MAX_GRID_POINTS = 10**6


def parse_g_spec(text: str) -> tuple[float, ...]:
    """Parse a load grid: START:STOP:STEP (inclusive) or comma list."""
    ranged = ":" in text
    tokens = text.split(":") if ranged else [t for t in text.split(",") if t.strip()]
    try:
        numbers = [float(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"bad load grid {text!r}") from None
    if not all(math.isfinite(x) for x in numbers):
        raise ValueError(f"bad load grid {text!r} (values must be finite)")
    if ranged:
        if len(numbers) != 3:
            raise ValueError(f"bad load grid {text!r} (expected START:STOP:STEP)")
        start, stop, step = numbers
        if step <= 0 or stop < start:
            raise ValueError(f"bad load grid {text!r} (need step > 0 and stop >= start)")
        steps = (stop - start) / step + 1e-9
        if not steps < MAX_GRID_POINTS:  # also catches an overflow to inf
            raise ValueError(f"bad load grid {text!r} (more than {MAX_GRID_POINTS} points)")
        count = int(math.floor(steps)) + 1
        numbers = [round(start + i * step, 12) for i in range(count)]
    if not numbers:
        raise ValueError(f"empty load grid {text!r}")
    if any(g < 0 for g in numbers):
        raise ValueError(f"negative load in grid {text!r}")
    return tuple(numbers)


def _load_config(args: argparse.Namespace) -> SystemConfig:
    with open(args.config) as handle:
        config = parse_config(handle.read())
    seed = getattr(args, "seed", None)
    return config if seed is None else replace(config, seed=seed)


def _simulate(args: argparse.Namespace) -> SweepResult:
    config = _load_config(args)
    return SweepResult.of(config, [run_trials(config, args.frames, args.workers)])


def _sweep(args: argparse.Namespace) -> SweepResult:
    return sweep_load(_load_config(args), args.g, args.frames, args.workers)


def _de(args: argparse.Namespace) -> DETrace:
    return de_iterate(_load_config(args))


def _trace(args: argparse.Namespace) -> DecodeTrace:
    config = _load_config(args)
    return decode_frame(config, place_frame(config, args.frame_index))


def _baseline(args: argparse.Namespace) -> BaselineCurve:
    return baseline_curve(args.g, args.variant)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csasim",
        description="Coded slotted-Aloha simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(
        name: str, run: Callable, summary: str, config: bool = True
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        if config:
            p.add_argument("--config", required=True, help="configuration file path")
        p.add_argument("--out", required=True, help="output CSV path")
        return p

    def add_monte_carlo(p: argparse.ArgumentParser) -> None:
        p.add_argument("--frames", type=int, required=True)
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=1)

    add_monte_carlo(add_command("simulate", _simulate, "average metrics over many frames"))
    p = add_command("sweep", _sweep, "throughput/PLR versus normalized load")
    p.add_argument("--g", required=True, help="load grid, START:STOP:STEP or comma list")
    add_monte_carlo(p)
    add_command("de", _de, "analytic per-round recursion")
    p = add_command("trace", _trace, "decode one frame and dump its rounds")
    p.add_argument("--frame-index", type=int, required=True)
    p = add_command("baseline", _baseline, "analytic Aloha throughput curve", config=False)
    p.add_argument("--variant", choices=["slotted", "pure"], required=True)
    p.add_argument("--g", required=True, help="load grid, START:STOP:STEP or comma list")
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse and validate the flags; no file is read."""
    args = build_parser().parse_args(argv)
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")
    if hasattr(args, "g"):
        args.g = parse_g_spec(args.g)
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        emit_csv(args.run(args), args.out)
    except (ConfigError, ValueError, OSError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = str(exc) or "allocation failed"
        print(f"error: out of memory: {detail}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
