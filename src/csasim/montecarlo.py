"""Monte Carlo harness: frame chunks, process pools, the reduction, load sweeps.

Frames are mutually independent and derive their randomness from
(seed, frame_index) only, so trials can run on any number of workers.
Each frame reports integer counts (``decoder.frame_counts``): its decoder
rounds, undecoded users and lost payload. Each worker process simulates one
contiguous chunk of frame indices, and a point concatenates the chunks'
count arrays in frame-index order, derives every frame's throughput and
loss ratio from them at once and reduces them in index order, which makes
aggregates bit-identical no matter how the work was split. A load sweep
takes the ``SystemConfig`` it sweeps: each load's users mix that config's
code groups, weighted by their user counts, on its frame size and seed. Its
result is one ``SweepResult``: that config and one ``TrialAggregate`` per
realized load; a load too small for one user is logged as a warning and
left out. Per-round curves are in ``decoder``, analytic predictions and the
Aloha curve in ``density``.
"""
from __future__ import annotations

import logging
import math
import os
import sys
from collections import namedtuple
from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

# the benchmark traces this name (ROADMAP item 1)
from .decoder import frame_counts as _simulate_range
from .model import SystemConfig, UserCode

if TYPE_CHECKING:
    from concurrent.futures import Executor, Future

logger = logging.getLogger(__name__)


class TrialAggregate(
    namedtuple("TrialAggregate", "frames g t_mean plr_mean t_ci95 plr_ci95 mean_rounds")
):
    """Averaged metrics of many independently simulated frames.

    ``frames`` is the frame count and ``g`` the realized load; the rest are
    floats. ``t_mean`` and ``plr_mean`` are the mean throughput and loss
    ratio, ``t_ci95`` and ``plr_ci95`` half-widths of normal-approximation
    95% confidence intervals, and ``mean_rounds`` the average number of
    productive decoder rounds per frame.
    """

    __slots__ = ()


class SweepResult(namedtuple("SweepResult", "config points")):
    """The ``SystemConfig`` that was swept (or simulated) and its trial
    aggregates, a tuple of ``TrialAggregate`` in ascending realized load.

    Every point runs on ``config``'s frame size and seed, and its code groups
    label the n and k columns, including a code a light load gives no users.
    """

    __slots__ = ()

    @property
    def peak(self) -> TrialAggregate:
        """The first point with the largest mean throughput."""
        return max(self.points, key=lambda pt: pt.t_mean)


def normalized_load(config: SystemConfig) -> float:
    """Offered decoded-payload bursts per slot, sum(k_i) / ns."""
    return config.total_payload / config.ns


def _process_count(workers: int, frames: int) -> int:
    """Processes to use: at most one per usable CPU and per frame.

    Usable CPUs are those this process may run on (its affinity set, where
    the platform reports one). The result does not depend on the count,
    since frames are keyed by index. Raises ValueError for ``workers < 1``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
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


def _start_pool(processes: int) -> Executor:
    """A process pool of ``processes`` workers.

    ``concurrent.futures`` is imported here, so a run that starts no pool
    does not load it; its first ``ProcessPoolExecutor`` lookup loads
    multiprocessing.
    """
    import concurrent.futures

    return concurrent.futures.ProcessPoolExecutor(processes)


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
        with _start_pool(processes) as pool:
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
    """Largest-remainder rounding of ``total`` into integer shares, in exact
    integers; equal remainders go to the lower index."""
    scale = sum(weights)
    counts = [w * total // scale for w in weights]
    order = sorted(range(len(weights)), key=lambda i: (-(weights[i] * total % scale), i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def users_for_load(config: SystemConfig, g: float) -> tuple[tuple[UserCode, int], ...] | None:
    """User groups realizing load g with ``config``'s mix of user codes.

    Each code of ``config.code_groups`` keeps its share of the users, weighted
    by its user count, in ``(UserCode, count)`` pairs in that order, and a
    code that gets no users is left out. The user count is round(ns * g /
    mean k); returns None when that count is below one, i.e. the load is not
    realizable at this frame size, and raises ValueError for a negative g or
    a count that is not finite or exceeds ``sys.maxsize``.
    """
    if g < 0:
        raise ValueError(f"load must be >= 0, got {g}")
    k_mean = config.total_payload / config.n_users
    exact = config.ns * g / k_mean
    if not exact <= sys.maxsize:  # also catches inf and nan
        raise ValueError(f"load G={g:g} needs {exact:g} users, more than {sys.maxsize}")
    nu = round(exact)
    if nu < 1:
        return None
    counts = _apportion([count for _, count in config.code_groups], nu)
    return tuple((code, count) for (code, _), count in zip(config.code_groups, counts) if count)


def _realizable(config: SystemConfig, g_values: Sequence[float]) -> Iterator[SystemConfig]:
    """Configurations of the realizable loads, built one at a time; each
    unrealizable load is logged as a warning and skipped."""
    for g in g_values:
        groups = users_for_load(config, g)
        if groups is None:
            logger.warning("skipping G=%g: load too small for one user", g)
            continue
        yield config._replace(groups=groups)


def sweep_load(
    config: SystemConfig, g_values: Sequence[float], frames: int, workers: int = 1
) -> SweepResult:
    """Run one trial aggregate per requested load and locate the throughput peak.

    Each load's users mix ``config``'s codes as ``users_for_load`` does, on
    its frame size and seed. Unrealizable loads are skipped with a warning on
    the ``csasim.montecarlo`` logger; reported loads are the realized
    sum(k_i) / ns, not the requested grid values. When more than one process
    is used, all points share one pool, and the next point's chunks are
    queued before the current point's results are read, so no worker idles
    between points; at most two points are outstanding. If a point fails, the
    chunks still queued are cancelled.
    """
    _check_frames(frames)
    configs = _realizable(config, g_values)
    first = next(configs, None)
    if first is None:
        raise ValueError("no realizable load values in sweep")
    points: list[TrialAggregate] = []
    processes = _process_count(workers, frames)
    with (_start_pool(processes) if processes > 1 else nullcontext()) as pool:

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
    return SweepResult(config, tuple(sorted(points, key=lambda pt: pt.g)))
