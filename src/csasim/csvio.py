"""Stable CSV serialization for results and traces.

Schemas (header row always present, floats printed with 6 significant
digits, rows in ascending round / load order):

    sweep     g,ns,n,k,frames,throughput,plr,t_ci95,plr_ci95,seed
    de        l,p,q,beta
    trace     l,newly_decoded,p_empirical,q_empirical
    baseline  g,throughput,variant

A sweep row's ``n`` and ``k`` are the semicolon-joined n and k of the
result's codes, and ``newly_decoded`` is a semicolon-joined list of user
indices. Identical inputs always produce byte-identical files.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os
from typing import IO, Any

from .decoder import DecodeTrace
from .density import DETrace
from .montecarlo import BaselineCurve, SweepResult

SWEEP_HEADER = ["g", "ns", "n", "k", "frames", "throughput", "plr", "t_ci95", "plr_ci95", "seed"]
DE_HEADER = ["l", "p", "q", "beta"]
TRACE_HEADER = ["l", "newly_decoded", "p_empirical", "q_empirical"]
BASELINE_HEADER = ["g", "throughput", "variant"]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _rows(result: SweepResult | DETrace | DecodeTrace | BaselineCurve) -> tuple[list[str], list[list[Any]]]:
    if isinstance(result, SweepResult):
        n_label = ";".join(str(code.n) for code in result.codes)
        k_label = ";".join(str(code.k) for code in result.codes)
        rows = [
            [
                _fmt(pt.g),
                result.ns,
                n_label,
                k_label,
                pt.frames,
                _fmt(pt.t_mean),
                _fmt(pt.plr_mean),
                _fmt(pt.t_ci95),
                _fmt(pt.plr_ci95),
                result.seed,
            ]
            for pt in result.points
        ]
        return SWEEP_HEADER, rows
    if isinstance(result, DETrace):
        rows = [
            [state.l, _fmt(state.p), _fmt(state.q), _fmt(state.beta)]
            for state in result.states
        ]
        return DE_HEADER, rows
    if isinstance(result, DecodeTrace):
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
    if isinstance(result, BaselineCurve):
        rows = [[_fmt(g), _fmt(t), result.variant] for g, t in result.points]
        return BASELINE_HEADER, rows
    raise TypeError(f"cannot serialize {type(result).__name__}")


def emit_csv(
    result: SweepResult | DETrace | DecodeTrace | BaselineCurve,
    sink: str | os.PathLike[str] | IO[str],
) -> None:
    """Write a result to a path or text stream in its fixed schema.

    A path is written atomically: the rows go to a temporary file in the same
    directory, which then replaces the file, so a failed write leaves any
    earlier file there intact; the ``OSError`` names ``sink``, not the
    temporary file. A symlink's target is replaced, not the link. A FIFO, a
    device or anything else that is not a regular file is written to
    directly, as it cannot be replaced.
    """
    header, rows = _rows(result)
    if not isinstance(sink, (str, os.PathLike)):
        _write(sink, header, rows)
        return
    if os.path.exists(sink) and not os.path.isfile(sink):
        with open(sink, "w", newline="") as handle:
            _write(handle, header, rows)
        return
    path = os.path.realpath(sink)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as handle:
            _write(handle, header, rows)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):  # name sink, not the temporary file
            raise OSError(exc.errno, exc.strerror, os.fspath(sink)) from exc
        raise


def _write(handle: IO[str], header: list[str], rows: list[list[Any]]) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def render_csv(result: SweepResult | DETrace | DecodeTrace | BaselineCurve) -> str:
    buffer = io.StringIO()
    emit_csv(result, buffer)
    return buffer.getvalue()
