"""Monte Carlo harness: per-frame counts, trial aggregation, load sweeps.

Frames are mutually independent and derive their randomness from
(seed, frame_index) only, so trials can run on any number of workers.
Each frame reports integer counts: its decoder rounds, undecoded users and
lost payload. Workers fill disjoint index ranges of one count array; a point
derives every frame's throughput and loss ratio from it at once and reduces
them in index order, which makes aggregates bit-identical no matter how the
work was split. A load sweep takes the ``SystemConfig`` it sweeps: each
load's users mix that config's code groups, weighted by their user counts,
on its frame size and seed. Its result is one ``SweepResult``: the frame
size, user codes and seed it shares, stated once, and one ``TrialAggregate``
per realized load. The decoder's per-round curves are in ``decoder``.
"""
from __future__ import annotations

# the package loads ProcessPoolExecutor, and with it multiprocessing, on its
# first lookup, which is when a pool starts
import concurrent.futures
import logging
import math
import os
import sys
from concurrent.futures import Executor, Future
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .decoder import _peel
from .model import SystemConfig, UserCode, place_frame

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrialAggregate:
    """Averaged metrics of many independently simulated frames.

    ``t_ci95`` and ``plr_ci95`` are half-widths of normal-approximation 95%
    confidence intervals; ``mean_rounds`` is the average number of productive
    decoder rounds per frame.
    """

    frames: int
    g: float
    t_mean: float
    plr_mean: float
    t_ci95: float
    plr_ci95: float
    mean_rounds: float


@dataclass(frozen=True)
class SweepResult:
    """Trial aggregates of a load sweep, in ascending realized load.

    ``ns``, ``codes`` (the user codes that label the n and k columns) and
    ``seed`` are shared by every point; ``skipped`` lists each unrealizable
    requested load with its reason.
    """

    ns: int
    codes: tuple[UserCode, ...]
    seed: int
    points: tuple[TrialAggregate, ...]
    skipped: tuple[tuple[float, str], ...] = ()

    @classmethod
    def of(cls, config: SystemConfig, points: Sequence[TrialAggregate], skipped=()) -> SweepResult:
        """Result of ``points`` run on ``config``'s frame size and seed, labelled
        by its code groups (a light load can apportion 0 users to a code)."""
        codes = tuple(code for code, _ in config.code_groups)
        return cls(config.ns, codes, config.seed, tuple(points), tuple(skipped))

    @property
    def argmax_g(self) -> float:
        """Load of the first point with the largest mean throughput."""
        return max(self.points, key=lambda pt: pt.t_mean).g

    @property
    def t_max(self) -> float:
        return max(pt.t_mean for pt in self.points)


@dataclass(frozen=True)
class BaselineCurve:
    """Analytic Aloha throughput curve on a load grid."""

    variant: str
    points: tuple[tuple[float, float], ...]


def normalized_load(config: SystemConfig) -> float:
    """Offered decoded-payload bursts per slot, sum(k_i) / ns."""
    return config.total_payload / config.ns


def _simulate_range(config: SystemConfig, start: int, stop: int) -> np.ndarray:
    """Simulate frame indices [start, stop). Returns an int64 (3, stop - start)
    array whose rows hold each frame's productive decoder rounds, undecoded
    users and payload bursts of those users (lost payload)."""
    counts = np.empty((3, stop - start), dtype=np.int64)
    rounds, undecoded_users, lost_payload = counts
    thresholds = config.thresholds
    for j in range(stop - start):
        undecoded, _, _, rounds[j] = _peel(config, place_frame(config, start + j))
        undecoded_users[j] = np.count_nonzero(undecoded)
        lost_payload[j] = thresholds[undecoded].sum()
    return counts


def _process_count(workers: int, frames: int) -> int:
    """Processes to use: at most one per usable CPU and per frame.

    Usable CPUs are those this process may run on (its affinity set, where
    the platform reports one). The result does not depend on the count,
    since frames are keyed by index.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(workers, frames, cpus)


def _check_frames(frames: int) -> None:
    """Reject a frame count outside [1, sys.maxsize], or one whose per-frame
    results cannot be allocated, before any pool starts."""
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    if frames > sys.maxsize:
        raise ValueError(f"frames must be <= {sys.maxsize}, got {frames}")
    try:
        # the per-frame counts run_trials reduces; untouched pages cost nothing
        np.empty((3, frames), dtype=np.int64)
    except (MemoryError, ValueError):  # ValueError: more bytes than an index can address
        raise MemoryError(f"cannot hold the results of {frames} frames") from None


def _queue_chunks(
    pool: Executor, config: SystemConfig, frames: int, processes: int
) -> list[Future]:
    """Queue one point's frames on ``pool`` as ``processes`` contiguous chunks.

    The futures come back in frame-index order; the chunk bounds depend only
    on ``frames`` and ``processes``.
    """
    bounds = [frames * i // processes for i in range(processes + 1)]
    return [
        pool.submit(_simulate_range, config, start, stop)
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]


def run_trials(
    config: SystemConfig,
    frames: int,
    workers: int = 1,
    *,
    chunks: Sequence[Future] | None = None,
) -> TrialAggregate:
    """Average throughput and loss ratio over ``frames`` independent placements.

    ``chunks`` are this point's frames already queued on a sweep's pool (see
    ``sweep_load``); their results are read here. Without them, more than one
    process runs the chunks on a pool started for this call, and one process
    simulates every frame in this one.
    """
    _check_frames(frames)
    if chunks is not None:
        parts = [chunk.result() for chunk in chunks]
    elif (processes := _process_count(workers, frames)) > 1:
        with concurrent.futures.ProcessPoolExecutor(processes) as pool:
            parts = [chunk.result() for chunk in _queue_chunks(pool, config, frames, processes)]
    else:
        parts = [_simulate_range(config, 0, frames)]
    # chunks are keyed by frame index, so concatenation reproduces the
    # single-pass counts
    rounds, undecoded_users, lost_payload = np.concatenate(parts, axis=1)
    # counts below 2**53 are exact in float64, so each ratio is correctly rounded
    t = (config.total_payload - lost_payload) / config.ns
    plr = undecoded_users / config.n_users

    def half_width(x: np.ndarray) -> float:
        if frames < 2:
            return 0.0
        return 1.96 * float(np.std(x, ddof=1)) / math.sqrt(frames)

    return TrialAggregate(
        frames=frames,
        g=normalized_load(config),
        t_mean=float(np.mean(t)),
        plr_mean=float(np.mean(plr)),
        t_ci95=half_width(t),
        plr_ci95=half_width(plr),
        mean_rounds=float(np.mean(rounds)),
    )


def _apportion(weights: Sequence[int], total: int) -> list[int]:
    """Largest-remainder rounding of ``total`` into integer shares."""
    scale = sum(weights)
    quotas = [w / scale * total for w in weights]
    counts = [int(math.floor(q)) for q in quotas]
    order = sorted(range(len(weights)), key=lambda i: (counts[i] - quotas[i], i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def users_for_load(config: SystemConfig, g: float) -> tuple[UserCode, ...] | None:
    """User population realizing load g with ``config``'s mix of user codes.

    Each code of ``config.code_groups`` keeps its share of the users, weighted
    by its user count. The user count is round(ns * g / mean k); returns None
    when that count is below one, i.e. the load is not realizable at this
    frame size, and raises ValueError when it is not finite or exceeds
    ``sys.maxsize``.
    """
    k_mean = config.total_payload / config.n_users
    exact = config.ns * g / k_mean
    if not exact <= sys.maxsize:  # also catches inf and nan
        raise ValueError(f"load G={g:g} needs {exact:g} users, more than {sys.maxsize}")
    nu = round(exact)
    if nu < 1:
        return None
    counts = _apportion([count for _, count in config.code_groups], nu)
    users: list[UserCode] = []
    for (code, _), count in zip(config.code_groups, counts):
        users.extend([code] * count)
    return tuple(users)


def _realizable(
    config: SystemConfig, g_values: Sequence[float], skipped: list[tuple[float, str]]
) -> Iterator[SystemConfig]:
    """Configurations of the realizable loads, built one at a time; every
    unrealizable load is appended to ``skipped`` with its reason."""
    for g in g_values:
        users = users_for_load(config, g)
        if users is None:
            skipped.append((g, "load too small for one user"))
            logger.warning("skipping G=%g: load too small for one user", g)
            continue
        yield replace(config, users=users)


def sweep_load(
    config: SystemConfig, g_values: Sequence[float], frames: int, workers: int = 1
) -> SweepResult:
    """Run one trial aggregate per requested load and locate the throughput peak.

    Each load's users mix ``config``'s codes as ``users_for_load`` does, on
    its frame size and seed. Unrealizable loads are skipped with a warning
    record; reported loads are the realized sum(k_i) / ns, not the requested
    grid values. When more than one process is used, all points share one
    pool, and the next point's chunks are queued before the current point's
    results are read, so no worker idles between points; at most two points
    are outstanding. If a point fails, the chunks still queued are cancelled.
    """
    _check_frames(frames)
    skipped: list[tuple[float, str]] = []
    configs = _realizable(config, g_values, skipped)
    first = next(configs, None)
    if first is None:
        raise ValueError("no realizable load values in sweep")
    points: list[TrialAggregate] = []
    processes = _process_count(workers, frames)
    with (
        concurrent.futures.ProcessPoolExecutor(processes) if processes > 1 else nullcontext()
    ) as pool:

        def queue(point: SystemConfig) -> Callable[[], TrialAggregate]:
            """Queue a point's chunks now; the returned call reads its aggregate."""
            chunks = None if pool is None else _queue_chunks(pool, point, frames, processes)
            return lambda: run_trials(point, frames, workers, chunks=chunks)

        try:
            pending = queue(first)
            for point in configs:
                following = queue(point)
                points.append(pending())
                pending = following
            points.append(pending())
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
    return SweepResult.of(config, sorted(points, key=lambda pt: pt.g), skipped)


def aloha_baseline(g: float, variant: str) -> float:
    """Closed-form Aloha throughput at load g: G e^-G slotted, G e^-2G pure."""
    if g < 0:
        raise ValueError(f"load must be >= 0, got {g}")
    if variant == "slotted":
        return g * math.exp(-g)
    if variant == "pure":
        return g * math.exp(-2.0 * g)
    raise ValueError(f"unknown baseline variant {variant!r}")


def baseline_curve(g_values: Sequence[float], variant: str) -> BaselineCurve:
    return BaselineCurve(
        variant=variant,
        points=tuple((float(g), aloha_baseline(g, variant)) for g in g_values),
    )

