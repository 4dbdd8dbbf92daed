import concurrent.futures
import math
import os
import random
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from csasim import (
    SystemConfig,
    UserCode,
    aloha_baseline,
    baseline_curve,
    decode_frame,
    empirical_round_curves,
    normalized_load,
    place_frame,
    render_csv,
    run_trials,
    sweep_load,
    users_for_load,
)
from csasim import montecarlo
from csasim.decoder import _peel
from csasim.montecarlo import _apportion
from helpers import homogeneous, make_placement, random_instance, set_usable_cpus


def two_to_three(ns, seed=0):
    """(4,2) and (2,1) users in a 2:3 ratio."""
    return SystemConfig(ns=ns, users=(UserCode(4, 2),) * 2 + (UserCode(2, 1),) * 3, seed=seed)


class LazyChunk:
    """Future of a recording pool: the chunk runs when its result is read."""

    def __init__(self, pool, fn, args, fails):
        self.pool, self.fn, self.args, self.fails = pool, fn, args, fails

    def result(self):
        config, start, _ = self.args
        self.pool.log.append(("read", normalized_load(config), int(start)))
        if self.fails:
            raise MemoryError("chunk too large")
        return self.fn(*self.args)


class RecordingPool:
    """In-process stand-in for ProcessPoolExecutor.

    Class-level lists record each pool built (its worker count), each
    context exit (the exception type or None), each shutdown (its
    ``cancel_futures``), and the order in which chunks are queued and read.
    Reading the chunk queued ``failing_chunk``-th (from 1) raises.
    """

    built, closed, shutdowns, log = [], [], [], []
    failing_chunk = None

    def __init__(self, max_workers):
        self.built.append(max_workers)
        self.submits = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.closed.append(exc[0])
        return False

    def submit(self, fn, *args):
        assert fn is montecarlo._simulate_range  # looked up at call time
        self.submits += 1
        config, start, _ = args
        self.log.append(("queue", normalized_load(config), int(start)))
        return LazyChunk(self, fn, args, self.submits == self.failing_chunk)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append(cancel_futures)


@pytest.fixture
def recording_pool(monkeypatch):
    """Patch ProcessPoolExecutor with a fresh RecordingPool class."""
    pool = type("Pool", (RecordingPool,), {"built": [], "closed": [], "shutdowns": [], "log": []})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return pool


class TestNormalizedLoad:
    def test_reference_operating_points(self):
        assert normalized_load(homogeneous(400, 4, 2, 126)) == pytest.approx(0.63)
        assert normalized_load(homogeneous(400, 3, 1, 302)) == pytest.approx(0.755)

    def test_heterogeneous(self):
        config = SystemConfig(ns=10, users=(UserCode(2, 1), UserCode(4, 2)))
        assert normalized_load(config) == pytest.approx(0.3)


def one_frame(monkeypatch, config, placement):
    """Aggregate of a one-frame run_trials whose frame is ``placement``."""
    monkeypatch.setattr(montecarlo, "place_frame", lambda config, frame_index: placement)
    return run_trials(config, frames=1)


class TestFrameMetrics:
    def test_all_decoded(self, monkeypatch):
        config = homogeneous(100, 3, 2, 10)
        placement = make_placement(100, [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(10)])
        agg = one_frame(monkeypatch, config, placement)
        assert agg.t_mean == pytest.approx(0.2)
        assert agg.plr_mean == 0.0

    def test_total_deadlock(self, monkeypatch):
        config = homogeneous(2, 2, 1, 2)
        agg = one_frame(monkeypatch, config, make_placement(2, [[0, 1], [0, 1]]))
        assert (agg.t_mean, agg.plr_mean) == (0.0, 1.0)

    def test_cancellation_chain_frame(self, monkeypatch):
        config = homogeneous(8, 4, 2, 3)
        placement = make_placement(8, [[0, 1, 2, 3], [2, 4, 5, 6], [3, 5, 6, 7]])
        agg = one_frame(monkeypatch, config, placement)
        assert agg.t_mean == pytest.approx(6 / 8)
        assert agg.plr_mean == 0.0


class TestSimulateRange:
    @pytest.mark.parametrize(
        "config",
        [
            # the mc-sweep benchmark mix at g=0.8, where many frames deadlock
            SystemConfig(ns=400, users=users_for_load(two_to_three(400), 0.8), seed=1),
            # dense: every n above ns/2
            SystemConfig(ns=9, users=(UserCode(5, 1), UserCode(6, 2), UserCode(7, 1)), seed=3),
        ],
        ids=["sweep-mix-g0.8", "dense"],
    )
    def test_counts_match_peel_frame_by_frame(self, config):
        start, stop = 7, 67
        counts = montecarlo._simulate_range(config, start, stop)
        assert counts.dtype == np.int64 and counts.shape == (3, stop - start)
        for j, column in enumerate(counts.T.tolist()):
            undecoded, _, _, n_rounds = _peel(config, place_frame(config, start + j))
            lost = [user for user, missed in zip(config.users, undecoded.tolist()) if missed]
            assert column == [n_rounds, len(lost), sum(user.k for user in lost)]
        assert counts[1].any()  # deadlocked frames are covered


class TestRunTrials:
    def test_single_user_exact(self):
        agg = run_trials(homogeneous(50, 4, 3, 1, seed=2), frames=64)
        assert agg.t_mean == pytest.approx(3 / 50, abs=0)
        assert agg.plr_mean == 0.0
        assert agg.t_ci95 == 0.0
        assert agg.plr_ci95 == 0.0
        assert agg.mean_rounds == 1.0

    def test_throughput_bounded_by_load(self):
        rng = random.Random(10)
        for _ in range(20):
            config, _ = random_instance(rng, max_users=6, max_ns=8, max_n=4)
            agg = run_trials(config, frames=50)
            assert agg.t_mean <= agg.g + 1e-12
            assert 0.0 <= agg.plr_mean <= 1.0

    def test_one_frame_has_zero_half_widths(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.std(ddof=1) of one value warns
            agg = run_trials(homogeneous(20, 3, 1, 8, seed=4), frames=1)
        assert agg.frames == 1
        assert agg.t_ci95 == agg.plr_ci95 == 0.0

    def test_reproducible_for_fixed_seed(self):
        config = homogeneous(40, 3, 1, 12, seed=77)
        a = run_trials(config, frames=300)
        b = run_trials(config, frames=300)
        assert a == b

    def test_bitwise_identical_across_worker_counts(self, monkeypatch):
        set_usable_cpus(monkeypatch, 3)  # a 3-way split on any host
        config = homogeneous(40, 3, 1, 12, seed=77)
        serial = run_trials(config, frames=240, workers=1)
        parallel = run_trials(config, frames=240, workers=3)
        assert serial == parallel

    def test_workers_capped_at_cpu_count(self, monkeypatch, recording_pool):
        set_usable_cpus(monkeypatch, 2)
        config = homogeneous(40, 3, 1, 12, seed=77)
        capped = run_trials(config, frames=64, workers=64)
        assert recording_pool.built == [2]
        assert capped == run_trials(config, frames=64, workers=1)

    def test_process_count_follows_affinity_then_cpu_count(self, monkeypatch):
        # two CPUs in the machine, one of them usable, as under `taskset -c 0`
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        set_usable_cpus(monkeypatch, 1)
        assert montecarlo._process_count(64, 64) == 1
        # a platform without an affinity call falls back on the CPU count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert montecarlo._process_count(64, 64) == 2

    def test_slotted_aloha_equivalence(self):
        # (1,1) users degenerate to classical slotted Aloha
        ns, nu = 300, 300
        config = homogeneous(ns, 1, 1, nu, seed=5)
        agg = run_trials(config, frames=1500)
        exact = (nu / ns) * (1 - 1 / ns) ** (nu - 1)
        assert abs(agg.t_mean - exact) <= 3 * agg.t_ci95

    def test_rejects_zero_frames(self):
        with pytest.raises(ValueError):
            run_trials(homogeneous(4, 1, 1, 1), frames=0)

    def test_rejects_frames_above_maxsize_before_a_pool_starts(self, monkeypatch, recording_pool):
        set_usable_cpus(monkeypatch, 2)
        frames = sys.maxsize + 1
        with pytest.raises(ValueError, match=str(frames)):
            run_trials(homogeneous(4, 1, 1, 1), frames=frames, workers=2)
        with pytest.raises(ValueError, match=str(frames)):
            sweep_load(homogeneous(4, 1, 1, 1), [0.5], frames, workers=2)
        assert recording_pool.built == []

    def test_frames_beyond_memory_name_the_count_before_a_pool_starts(
        self, monkeypatch, recording_pool
    ):
        for cpus in (1, 2):
            set_usable_cpus(monkeypatch, cpus)
            with pytest.raises(MemoryError, match=str(sys.maxsize)):
                run_trials(homogeneous(4, 1, 1, 1), frames=sys.maxsize, workers=2)
            with pytest.raises(MemoryError, match=str(sys.maxsize)):
                sweep_load(homogeneous(4, 1, 1, 1), [0.5], sys.maxsize, workers=2)
        assert recording_pool.built == []


class TestApportion:
    def test_largest_remainder(self):
        assert _apportion([2.0, 3.0], 7) == [3, 4]
        assert _apportion([1.0, 1.0, 1.0], 7) == [3, 2, 2]
        assert _apportion([5.0], 3) == [3]

    def test_users_for_load(self):
        users = users_for_load(homogeneous(400, 3, 1, 1), 0.755)
        assert len(users) == 302
        mixed = users_for_load(two_to_three(100), 0.5)
        # mean k = (2*2 + 1*3) / 5 = 1.4 so 36 users, split 14 / 22 by weight
        assert len(mixed) == 36
        assert mixed.count(UserCode(4, 2)) == 14
        assert mixed.count(UserCode(2, 1)) == 22

    def test_unrealizable_load_is_none(self):
        assert users_for_load(homogeneous(10, 4, 2, 1), 0.05) is None


class TestSweepLoad:
    def test_skips_unrealizable_and_reports_realized_g(self):
        result = sweep_load(homogeneous(20, 4, 2, 1), [0.01, 0.5], frames=30)
        assert len(result.points) == 1
        assert result.skipped and result.skipped[0][0] == 0.01
        point = result.points[0]
        assert point.g == pytest.approx(
            sum(u.k for u in users_for_load(homogeneous(20, 4, 2, 1), 0.5)) / 20
        )
        assert result.codes == (UserCode(4, 2),)

    def test_argmax_consistency(self):
        result = sweep_load(homogeneous(50, 2, 1, 1, seed=3), [0.2, 0.4, 0.6, 0.8], frames=200)
        best = max(result.points, key=lambda pt: pt.t_mean)
        assert result.t_max == best.t_mean
        assert result.argmax_g == best.g
        assert [pt.g for pt in result.points] == sorted(pt.g for pt in result.points)

    def test_low_load_decodes_everyone(self):
        result = sweep_load(homogeneous(60, 3, 1, 1), [0.05], frames=300)
        point = result.points[0]
        assert point.plr_mean <= 0.01
        assert point.t_mean == pytest.approx(point.g, abs=0.01)

    def test_all_unrealizable_raises(self):
        with pytest.raises(ValueError, match="no realizable"):
            sweep_load(homogeneous(10, 4, 2, 1), [0.01], frames=10)

    def test_one_pool_per_sweep(self, monkeypatch, recording_pool):
        built, closed = recording_pool.built, recording_pool.closed
        set_usable_cpus(monkeypatch, 2)
        loads = [0.01, 0.2, 0.4, 0.6]
        sweep = lambda workers: sweep_load(two_to_three(40, seed=5), loads, 30, workers)
        shared = sweep(2)
        assert built == [2] and closed == [None]
        assert len(shared.points) == 3
        assert shared == sweep(1)
        assert built == [2]

        # a point failing inside the pool still shuts the pool down
        recording_pool.failing_chunk = 3  # the second point's first chunk
        with pytest.raises(MemoryError):
            sweep(2)
        assert built == [2, 2] and closed == [None, MemoryError]

    SCHEDULED_LOADS = [0.2, 0.01, 0.4, 0.6, 0.8]  # 0.01 is below one user at ns=40

    def scheduled_sweep(self, workers=2):
        return sweep_load(two_to_three(40, seed=5), self.SCHEDULED_LOADS, 30, workers)

    @staticmethod
    def most_points_outstanding(log):
        """Most points with a chunk queued and not yet read at any one time."""
        unread, most = Counter(), 0
        for event, g, _ in log:
            unread[g] += 1 if event == "queue" else -1
            most = max(most, sum(1 for count in unread.values() if count))
        return most

    def test_next_point_queued_before_current_is_read(self, monkeypatch, recording_pool):
        set_usable_cpus(monkeypatch, 2)
        result = self.scheduled_sweep()
        log = recording_pool.log
        loads = [pt.g for pt in result.points]
        assert [g for event, g, _ in log if event == "read"] == [g for g in loads for _ in "ab"]
        for current, following in zip(loads, loads[1:]):
            last_queue = max(i for i, (e, g, _) in enumerate(log) if (e, g) == ("queue", following))
            first_read = min(i for i, (e, g, _) in enumerate(log) if (e, g) == ("read", current))
            assert last_queue < first_read
        # each point is read in frame-index order, on the frames * i // 2 chunk bounds
        for g in loads:
            assert [start for e, h, start in log if (e, h) == ("read", g)] == [0, 15]
        assert self.most_points_outstanding(log) == 2
        assert recording_pool.built == [2] and recording_pool.closed == [None]

    def test_failing_point_cancels_the_queued_one(self, monkeypatch, recording_pool):
        set_usable_cpus(monkeypatch, 2)
        recording_pool.failing_chunk = 3  # the second point's first chunk
        with pytest.raises(MemoryError):
            self.scheduled_sweep()
        reads = [g for event, g, _ in recording_pool.log if event == "read"]
        queued = sorted({g for event, g, _ in recording_pool.log if event == "queue"})
        # the third point was queued, then cancelled without being read
        assert len(queued) == 3 and queued[2] not in reads
        assert recording_pool.shutdowns == [True]
        assert recording_pool.closed == [MemoryError]

    def test_all_unrealizable_starts_no_pool(self, monkeypatch, recording_pool):
        set_usable_cpus(monkeypatch, 2)
        with pytest.raises(ValueError, match="no realizable"):
            sweep_load(homogeneous(10, 4, 2, 1), [0.01, 0.02], frames=10, workers=2)
        assert recording_pool.built == []

    def test_one_run_trials_call_per_realizable_point(self, monkeypatch):
        calls, chunks = [], []

        def counted(wrapped, record):
            def call(*args, **kwargs):
                record.append(args[1:3])
                return wrapped(*args, **kwargs)

            return call

        monkeypatch.setattr(montecarlo, "run_trials", counted(montecarlo.run_trials, calls))
        monkeypatch.setattr(
            montecarlo, "_simulate_range", counted(montecarlo._simulate_range, chunks)
        )
        set_usable_cpus(monkeypatch, 1)
        self.scheduled_sweep(workers=1)
        assert len(calls) == len(self.SCHEDULED_LOADS) - 1
        assert chunks == [(0, 30)] * len(calls)

    def test_csv_bytes_identical_across_usable_cpus(self, monkeypatch):
        texts = []
        for cpus in (1, 2, 3):
            set_usable_cpus(monkeypatch, cpus)
            result = self.scheduled_sweep(workers=3)
            assert len(result.points) == 4 and result.skipped[0][0] == 0.01
            texts.append(render_csv(result))
        assert texts[0] == texts[1] == texts[2]


class TestBaseline:
    def test_slotted_peak(self):
        assert aloha_baseline(1.0, "slotted") == pytest.approx(math.exp(-1), abs=1e-12)

    def test_pure_peak(self):
        assert aloha_baseline(0.5, "pure") == pytest.approx(0.5 * math.exp(-1), abs=1e-12)

    def test_zero_load(self):
        assert aloha_baseline(0.0, "slotted") == 0.0
        assert aloha_baseline(0.0, "pure") == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            aloha_baseline(-0.5, "slotted")
        with pytest.raises(ValueError):
            aloha_baseline(0.5, "csma")

    def test_curve(self):
        curve = baseline_curve([0.5, 1.0], "slotted")
        assert curve.variant == "slotted"
        assert curve.points[1] == (1.0, pytest.approx(math.exp(-1)))


class TestRoundCurves:
    def test_single_user_all_zero(self):
        p, q = empirical_round_curves(homogeneous(10, 3, 1, 1), frames=20, num_rounds=4)
        assert np.all(p == 0.0)
        assert np.all(q == 0.0)

    def test_matches_run_trials_plr_at_fixpoint(self):
        config = homogeneous(20, 3, 1, 10, seed=9)
        frames = 2000
        _, q = empirical_round_curves(config, frames=frames, num_rounds=12)
        agg = run_trials(config, frames=frames)
        assert q[-1] == pytest.approx(agg.plr_mean, abs=1e-12)

    def test_matches_decode_frame_past_the_fixpoint(self):
        config = homogeneous(20, 3, 1, 12, seed=5)
        frames, num_rounds = 300, config.n_users + 1  # above any frame's rounds
        p, q = empirical_round_curves(config, frames=frames, num_rounds=num_rounds)
        p_sum, q_sum = np.zeros(num_rounds), np.zeros(num_rounds)
        deadlocked = 0
        for j in range(frames):
            trace = decode_frame(config, place_frame(config, j))
            final_q = 1.0 - len(trace.decoded_users) / config.n_users
            p_sum += [r.p_empirical for r in trace.rounds] + [trace.final_p] * (
                num_rounds - len(trace.rounds)
            )
            q_sum += [r.q_empirical for r in trace.rounds] + [final_q] * (
                num_rounds - len(trace.rounds)
            )
            deadlocked += trace.final_p > 0
        assert 0 < deadlocked < frames
        assert np.array_equal(p, p_sum / frames)
        np.testing.assert_allclose(q, q_sum / frames, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("frames, num_rounds", [(0, 4), (-3, 4), (5, -1)])
    def test_rejects_bad_arguments(self, frames, num_rounds):
        with pytest.raises(ValueError, match=f"got {frames} and {num_rounds}"):
            empirical_round_curves(homogeneous(10, 3, 1, 2), frames=frames, num_rounds=num_rounds)
