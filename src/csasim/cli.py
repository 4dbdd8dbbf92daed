"""Command-line front end.

Subcommands:

    simulate  --config F --frames N [--seed S] [--workers W] --out F.csv
    sweep     --config F --g 0.05:1.0:0.05 --frames N [--seed S] [--workers W] --out F.csv
    de        --config F --out F.csv
    trace     --config F --frame-index J --out F.csv
    baseline  --variant slotted|pure --g GRID --out F.csv

Load grids are START:STOP:STEP (inclusive) or a comma-separated list of
ASCII numbers; integer flags take the config file's ``integer`` syntax, and
N is between 1 and sys.maxsize. The config file is read as UTF-8, a
leading byte-order mark allowed. All behaviour is controlled by flags;
environment variables, the locale too, are ignored so a command line fully
reproduces a result.

Exit status: 0 on success; 1 on bad input, an I/O error, an allocation
that does not fit in memory or a dead worker (``ChildProcessError``, with
the pool's message), as one ``error:`` line on stderr, ``--out`` left as
it was; 2 on a usage error (argparse; so is a flag's value ``--``, as in
``--seed=--``); 3 on an internal error, a bug (one ``error: internal:`` line).
"""
from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING

from . import configfile
from .configfile import parse_config
from .csvio import emit_csv
from .model import InternalError

if TYPE_CHECKING:
    from .decoder import DecodeTrace
    from .density import BaselineCurve, DETrace
    from .montecarlo import SweepResult


# largest START:STOP:STEP grid, checked before any of its points is built
MAX_GRID_POINTS = 10**6


def parse_g_spec(text: str) -> tuple[float, ...]:
    """Parse a load grid: START:STOP:STEP (inclusive) or comma list."""
    ranged = ":" in text
    tokens = text.split(":") if ranged else [t for t in text.split(",") if t.strip()]
    if not text.isascii() or "_" in text:  # float() takes both
        raise ValueError(f"bad load grid {text!r}")
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


def _run(args: argparse.Namespace) -> SweepResult | DETrace | DecodeTrace | BaselineCurve:
    """Compute the result of a parsed command line.

    Each command imports its own engine, so a command loads no module that
    only another command runs.
    """
    if args.command == "baseline":
        from .density import BaselineCurve, aloha_baseline

        curve = tuple((g, aloha_baseline(g, args.variant)) for g in args.g)
        return BaselineCurve(args.variant, curve)
    try:
        with open(args.config, encoding="utf-8-sig") as handle:
            config = parse_config(handle.read())
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.config}: not UTF-8 text ({exc.reason})") from None
    if getattr(args, "seed", None) is not None:
        config = config._replace(seed=args.seed)
    if args.command == "simulate":
        from .montecarlo import SweepResult, run_trials

        return SweepResult(config, (run_trials(config, args.frames, args.workers),))
    if args.command == "sweep":
        from .montecarlo import sweep_load

        return sweep_load(config, args.g, args.frames, args.workers)
    if args.command == "de":
        from .density import de_iterate

        return de_iterate(config)
    from .decoder import decode_frame
    from .model import place_frame

    return decode_frame(config, place_frame(config, args.frame_index))


def integer(text: str) -> int:
    """``configfile.integer`` as a flag type, so integer text too long for any
    range gets the config file's short message, not an echo of its digits."""
    try:
        return configfile.integer(text)
    except configfile.ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _OneValue(argparse.Action):
    """Stores a flag's one value. For a flag written ``--FLAG=--``, argparse
    before 3.13 hands over an empty list, neither converted by ``type`` nor
    checked against ``choices``, and 3.13 the text ``--``; either is a usage
    error here."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values in ([], "--"):
            parser.error(f"argument {option_string}: expected one argument")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csasim",
        description="Coded slotted-Aloha simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, summary: str, config: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.register("action", None, _OneValue)  # the action of every flag below
        if config:
            p.add_argument("--config", required=True, help="configuration file path")
        p.add_argument("--out", required=True, help="output CSV path")
        return p

    def add_monte_carlo(p: argparse.ArgumentParser) -> None:
        p.add_argument("--frames", type=integer, required=True)
        p.add_argument("--seed", type=integer, default=None, help="override the config seed")
        p.add_argument("--workers", type=integer, default=1)

    add_monte_carlo(add_command("simulate", "average metrics over many frames"))
    p = add_command("sweep", "throughput/PLR versus normalized load")
    p.add_argument("--g", required=True, help="load grid, START:STOP:STEP or comma list")
    add_monte_carlo(p)
    add_command("de", "analytic per-round recursion")
    p = add_command("trace", "decode one frame and dump its rounds")
    p.add_argument("--frame-index", type=integer, required=True)
    p = add_command("baseline", "analytic Aloha throughput curve", config=False)
    p.add_argument("--variant", choices=["slotted", "pure"], required=True)
    p.add_argument("--g", required=True, help="load grid, START:STOP:STEP or comma list")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run a command line (default ``sys.argv[1:]``); ``--workers`` and
    ``--g`` are checked before the config file is read."""
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        if hasattr(args, "g"):
            args.g = parse_g_spec(args.g)
        emit_csv(_run(args), args.out)
    except (ValueError, OSError) as exc:
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
