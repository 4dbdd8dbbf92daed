"""Command-line front end.

Subcommands:

    simulate  --config F --frames N [--seed S] [--workers W] --out F.csv
    sweep     --config F --g 0.05:1.0:0.05 --frames N [--seed S] [--workers W] --out F.csv
    de        --config F --out F.csv
    trace     --config F --frame-index J --out F.csv
    baseline  --variant slotted|pure --g GRID --out F.csv

Load grids are START:STOP:STEP (inclusive) or a comma-separated list. All
behaviour is controlled by flags; environment variables are ignored so a
command line fully reproduces a result.

Exit status: 0 on success, 1 on bad input, an I/O error or an allocation
that does not fit in memory (one ``error:`` line on stderr), 2 on a usage
error (argparse), 3 on an internal error, i.e. a bug (one ``error:
internal:`` line).
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace

from .configfile import ConfigError, parse_config
from .csvio import emit_csv
from .decoder import decode_frame
from .density import de_iterate
from .model import InternalError, SystemConfig, place_frame
from .montecarlo import SweepResult, baseline_curve, sweep_load, sweep_point


@dataclass(frozen=True)
class RunSpec:
    """One validated CLI invocation."""

    command: str
    out: str
    config_path: str | None = None
    seed: int | None = None
    frames: int | None = None
    g_list: tuple[float, ...] | None = None
    frame_index: int | None = None
    variant: str | None = None
    workers: int = 1


def parse_g_spec(text: str) -> tuple[float, ...]:
    """Parse a load grid: START:STOP:STEP (inclusive) or comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad load grid {text!r} (expected START:STOP:STEP)")
        start, stop, step = (float(x) for x in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"bad load grid {text!r} (need step > 0 and stop >= start)")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        values = tuple(round(start + i * step, 12) for i in range(count))
    else:
        try:
            values = tuple(float(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise ValueError(f"bad load grid {text!r}") from None
    if not values:
        raise ValueError(f"empty load grid {text!r}")
    if any(g < 0 for g in values):
        raise ValueError(f"negative load in grid {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csasim",
        description="Coded slotted-Aloha simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, config: bool = True) -> None:
        if config:
            p.add_argument("--config", required=True, help="configuration file path")
        p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("simulate", help="average metrics over many frames")
    add_common(p)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("sweep", help="throughput/PLR versus normalized load")
    add_common(p)
    p.add_argument("--g", required=True, help="load grid, START:STOP:STEP or comma list")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("de", help="analytic per-round recursion")
    add_common(p)

    p = sub.add_parser("trace", help="decode one frame and dump its rounds")
    add_common(p)
    p.add_argument("--frame-index", type=int, required=True)

    p = sub.add_parser("baseline", help="analytic Aloha throughput curve")
    add_common(p, config=False)
    p.add_argument("--variant", choices=["slotted", "pure"], required=True)
    p.add_argument("--g", required=True, help="load grid, START:STOP:STEP or comma list")
    return parser


def parse_args(argv: list[str]) -> RunSpec:
    args = build_parser().parse_args(argv)
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")
    return RunSpec(
        command=args.command,
        out=args.out,
        config_path=getattr(args, "config", None),
        seed=getattr(args, "seed", None),
        frames=getattr(args, "frames", None),
        g_list=parse_g_spec(args.g) if getattr(args, "g", None) else None,
        frame_index=getattr(args, "frame_index", None),
        variant=getattr(args, "variant", None),
        workers=workers,
    )


def _load_config(spec: RunSpec) -> SystemConfig:
    if spec.config_path is None:
        raise InternalError(f"{spec.command} reached config loading without --config")
    with open(spec.config_path) as handle:
        config = parse_config(handle.read())
    if spec.seed is not None:
        config = replace(config, seed=spec.seed)
    return config


def run(spec: RunSpec) -> None:
    if spec.command == "simulate":
        config = _load_config(spec)
        codes = [code for code, _ in config.code_groups]
        point = sweep_point(config, codes, spec.frames, spec.workers)
        emit_csv(SweepResult(points=(point,)), spec.out)
    elif spec.command == "sweep":
        config = _load_config(spec)
        result = sweep_load(
            config.code_groups,
            config.ns,
            spec.g_list,
            spec.frames,
            seed=config.seed,
            workers=spec.workers,
        )
        emit_csv(result, spec.out)
    elif spec.command == "de":
        config = _load_config(spec)
        emit_csv(de_iterate(config), spec.out)
    elif spec.command == "trace":
        config = _load_config(spec)
        if spec.frame_index < 0:
            raise ValueError(f"frame index must be >= 0, got {spec.frame_index}")
        trace = decode_frame(config, place_frame(config, spec.frame_index))
        emit_csv(trace, spec.out)
    elif spec.command == "baseline":
        emit_csv(baseline_curve(spec.g_list, spec.variant), spec.out)
    else:  # unreachable: argparse restricts choices
        raise ValueError(f"unknown command {spec.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        spec = parse_args(sys.argv[1:] if argv is None else argv)
        run(spec)
    except (ConfigError, ValueError, OSError) as exc:
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
