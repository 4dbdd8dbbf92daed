"""Monte Carlo harness: frame blocks, process pools, the reductions, load sweeps.

Frames are mutually independent and derive their randomness from (seed,
frame_index) only, so trials can run on any number of workers. Each frame
reports integer counts (``decoder.frame_counts``): its decoder rounds,
undecoded users and lost payload. A point's frames run in blocks of
``BLOCK_FRAMES`` indices, whose bounds do not depend on the worker count; a
point concatenates the blocks' count arrays in frame-index order, derives
every frame's throughput and loss ratio from them at once and reduces them
in index order, which makes aggregates bit-identical on any worker count. A
worker process that dies ends the run as ``ChildProcessError`` (an
``OSError``), with the pool's message. A load sweep takes the
``SystemConfig`` it sweeps: each load's users mix that config's code groups,
weighted by their user counts, on its frame size and seed, and every load is
resolved before the first frame runs. Its result is one ``SweepResult``:
that config and one ``TrialAggregate`` per realized load; a load too small
for one user is logged as a warning and left out. Per-round curves stream
blocks of ``decoder.round_stats``; the analytic ones are in ``density``.
"""
from __future__ import annotations

import logging
import math
import os
import sys
from collections import deque, namedtuple
from contextlib import closing
from itertools import islice, starmap
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# the benchmark traces this name (ROADMAP item 1)
from .decoder import frame_counts as _simulate_range, round_stats
from .model import SystemConfig, UserCode

logger = logging.getLogger(__name__)

# frames per block of counts or of round curves: a constant, so block bounds
# never depend on the worker count; small, so a short point spreads over workers
BLOCK_FRAMES = 64


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


def _process_count(workers: int, blocks: int) -> int:
    """Processes to use: at most one per usable CPU and per block the run
    streams, so a run of one block starts no pool.

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
    return min(workers, blocks, cpus)


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


def _stream(
    block: Callable[..., np.ndarray], configs: Iterable[SystemConfig], frames: int, processes: int
) -> Iterator[np.ndarray]:
    """``block(config, start, stop)`` of each point's blocks, point after point,
    in index order. One process runs them here; more run them on one pool that
    keeps at most ``2 * processes`` blocks queued across points, so no worker
    idles between them; if a block fails, the queued ones are cancelled, and the
    pool's ``BrokenExecutor`` leaves as ``ChildProcessError``, chained to it.
    """
    blocks = (
        (config, start, min(start + BLOCK_FRAMES, frames))
        for config in configs
        for start in range(0, frames, BLOCK_FRAMES)
    )
    if processes == 1:
        yield from starmap(block, blocks)
        return
    import concurrent.futures  # here, so a run that starts no pool does not load it

    pool, queued = concurrent.futures.ProcessPoolExecutor(processes), deque()
    try:
        for bounds in blocks:
            queued.append(pool.submit(block, *bounds))
            if len(queued) == 2 * processes:
                yield queued.popleft().result()
        while queued:
            yield queued.popleft().result()
    except concurrent.futures.BrokenExecutor as exc:  # a worker process died
        raise ChildProcessError(str(exc)) from exc
    finally:
        pool.shutdown(cancel_futures=True)  # waits for the workers to exit


def run_trials(
    config: SystemConfig,
    frames: int,
    workers: int = 1,
    *,
    chunks: Iterable[np.ndarray] | None = None,
) -> TrialAggregate:
    """Average throughput and loss ratio over ``frames`` independent placements.

    ``chunks`` are this point's block count arrays, taken from a sweep's
    stream (see ``sweep_load``); a frame total other than ``frames`` raises
    ValueError. Without them, the point streams its own blocks, on up to
    ``workers`` processes (see ``_process_count``).
    """
    _check_frames(frames)
    processes = _process_count(workers, -(-frames // BLOCK_FRAMES))
    if chunks is None:
        chunks = _stream(_simulate_range, [config], frames, processes)
    # blocks are keyed by frame index, so concatenation gives the one-pass counts
    rounds, undecoded_users, lost_payload = np.concatenate([*chunks], axis=1)
    if rounds.size != frames:
        raise ValueError(f"chunks hold {rounds.size} frames, not {frames}")
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
    if not g >= 0:  # also catches nan
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


def sweep_load(
    config: SystemConfig, g_values: Sequence[float], frames: int, workers: int = 1
) -> SweepResult:
    """Run one trial aggregate per requested load and locate the throughput peak.

    Each load's users mix ``config``'s codes as ``users_for_load`` does, on
    its frame size and seed. Every load is resolved, in grid order, before
    the first frame runs: a negative, NaN or too large load anywhere raises
    first, and unrealizable loads are skipped with a warning on the
    ``csasim.montecarlo`` logger. Reported loads are the realized sum(k_i) /
    ns, not the requested grid values. Every point's blocks come from one
    stream, so when more than one process is used, all points share one
    pool, and the next point's blocks are queued while the current point's
    are read; if a block fails, the blocks still queued are cancelled.
    """
    _check_frames(frames)
    realized = []
    for g in g_values:
        groups = users_for_load(config, g)
        if groups is None:
            logger.warning("skipping G=%g: load too small for one user", g)
        else:
            realized.append(groups)
    if not realized:
        raise ValueError("no realizable load values in sweep")
    blocks = -(-frames // BLOCK_FRAMES)
    # built lazily, so a point's cached placement arrays go with its blocks
    configs = (config._replace(groups=groups) for groups in realized)
    processes = _process_count(workers, len(realized) * blocks)
    with closing(_stream(_simulate_range, configs, frames, processes)) as stream:
        points = [
            run_trials(config._replace(groups=groups), frames, chunks=islice(stream, blocks))
            for groups in realized
        ]
    return SweepResult(config, tuple(sorted(points, key=lambda pt: pt.g)))


def empirical_round_curves(
    config: SystemConfig, frames: int, num_rounds: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-round means of the decoder's (p, q) over frames 0 .. frames - 1; a
    frame adds its fixpoint values to the rounds after its last one, as a
    decoder that keeps iterating without progress would."""
    if frames < 1 or num_rounds < 0:
        raise ValueError(f"need frames >= 1 and num_rounds >= 0, got {frames} and {num_rounds}")
    sums = np.zeros((2, num_rounds))
    for stats in _stream(round_stats, [config], frames, 1):
        # rounds past the fixpoint read its column; frames add in index order
        for frame_stats in stats.swapaxes(0, 1):
            sums += frame_stats[:, np.minimum(np.arange(num_rounds), stats.shape[2] - 1)]
    return sums[0] / frames, sums[1] / frames
