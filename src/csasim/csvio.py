"""Stable CSV serialization for results and traces.

Schemas (header row always present, floats printed with 6 significant
digits, rows in ascending round / load order):

    sweep     g,ns,n,k,frames,throughput,plr,t_ci95,plr_ci95,seed
    de        l,p,q,beta
    trace     l,newly_decoded,p_empirical,q_empirical
    baseline  g,throughput,variant

A sweep row's ``n`` and ``k`` are the semicolon-joined n and k of the
swept config's code groups, ``newly_decoded`` is a semicolon-joined list of
user indices, and ``l`` is the index of a ``de`` state or a ``trace`` round.
``emit_csv`` writes one result to a file path; identical inputs always
produce byte-identical files.
"""
from __future__ import annotations

import contextlib
import csv
import os
import sys
from typing import IO, TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .decoder import DecodeTrace
    from .density import BaselineCurve, DETrace
    from .montecarlo import SweepResult

SWEEP_HEADER = ["g", "ns", "n", "k", "frames", "throughput", "plr", "t_ci95", "plr_ci95", "seed"]
DE_HEADER = ["l", "p", "q", "beta"]
TRACE_HEADER = ["l", "newly_decoded", "p_empirical", "q_empirical"]
BASELINE_HEADER = ["g", "throughput", "variant"]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _is(result: object, module: str, name: str) -> bool:
    """Whether ``result`` is an instance of class ``name`` of package module
    ``module``, without importing that module: no instance of its classes
    exists before it is loaded."""
    loaded = sys.modules.get(f"{__package__}.{module}")
    return loaded is not None and isinstance(result, getattr(loaded, name))


def _rows(result: SweepResult | DETrace | DecodeTrace | BaselineCurve) -> tuple[list[str], list[list[Any]]]:
    if _is(result, "montecarlo", "SweepResult"):
        config = result.config
        n_label = ";".join(str(code.n) for code, _ in config.code_groups)
        k_label = ";".join(str(code.k) for code, _ in config.code_groups)
        rows = [
            [
                _fmt(pt.g),
                config.ns,
                n_label,
                k_label,
                pt.frames,
                _fmt(pt.t_mean),
                _fmt(pt.plr_mean),
                _fmt(pt.t_ci95),
                _fmt(pt.plr_ci95),
                config.seed,
            ]
            for pt in result.points
        ]
        return SWEEP_HEADER, rows
    if _is(result, "density", "DETrace"):
        rows = [
            [l, _fmt(state.p), _fmt(state.q), _fmt(state.beta)]
            for l, state in enumerate(result.states)
        ]
        return DE_HEADER, rows
    if _is(result, "decoder", "DecodeTrace"):
        rows = [
            [
                l,
                ";".join(str(i) for i in sorted(record.newly_decoded)),
                _fmt(record.p_empirical),
                _fmt(record.q_empirical),
            ]
            for l, record in enumerate(result.rounds)
        ]
        return TRACE_HEADER, rows
    if _is(result, "density", "BaselineCurve"):
        rows = [[_fmt(g), _fmt(t), result.variant] for g, t in result.points]
        return BASELINE_HEADER, rows
    raise TypeError(f"cannot serialize {type(result).__name__}")


def emit_csv(
    result: SweepResult | DETrace | DecodeTrace | BaselineCurve,
    path: str | os.PathLike[str],
) -> None:
    """Write a result to the file at ``path`` in its fixed schema.

    The file is written atomically: the rows go to a temporary file in the
    same directory, which then replaces the file, so a failed write leaves any
    earlier file there intact; the ``OSError`` names ``path``, not the
    temporary file. A symlink's target is replaced, not the link. A FIFO, a
    device or anything else that is not a regular file is written to
    directly, as it cannot be replaced.
    """
    header, rows = _rows(result)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="") as handle:
            _write(handle, header, rows)
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as handle:
            _write(handle, header, rows)
        os.replace(tmp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):  # name path, not the temporary file
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def _write(handle: IO[str], header: list[str], rows: list[list[Any]]) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
