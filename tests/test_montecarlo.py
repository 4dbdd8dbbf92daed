import concurrent.futures
import functools
import logging
import math
import multiprocessing
import os
import random
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from csasim import (
    SystemConfig,
    UserCode,
    aloha_baseline,
    decode_frame,
    emit_csv,
    empirical_round_curves,
    normalized_load,
    place_frame,
    run_trials,
    sweep_load,
    users_for_load,
)
from csasim import decoder, montecarlo
from csasim.decoder import _peel
from csasim.montecarlo import _apportion
from helpers import (
    exact_frame_means,
    exact_round_moments,
    homogeneous,
    make_placement,
    random_instance,
    set_usable_cpus,
    user_codes,
)


def two_to_three(ns, seed=0):
    """(4,2) and (2,1) users in a 2:3 ratio."""
    return SystemConfig(ns=ns, groups=((UserCode(4, 2), 2), (UserCode(2, 1), 3)), seed=seed)


# the record a sweep logs for a requested load of 0.01 that no user realizes
SKIP_WARNING = ("csasim.montecarlo", logging.WARNING, "skipping G=0.01: load too small for one user")


# the blocks of a 150-frame point: two full blocks and a partial one
BLOCKS_150 = [(0, 64), (64, 128), (128, 150)]


class LazyBlock:
    """Future of a recording pool: the block runs when its result is read."""

    def __init__(self, pool, fn, args, fails):
        self.pool, self.fn, self.args, self.fails = pool, fn, args, fails

    def result(self):
        config, start, stop = self.args
        self.pool.log.append(("read", normalized_load(config), start, stop))
        if self.fails:
            raise self.pool.failure
        return self.fn(*self.args)


class RecordingPool:
    """In-process stand-in for ProcessPoolExecutor.

    Class-level lists record each pool built (its worker count), each
    shutdown (its ``cancel_futures``), and the order in which blocks are
    queued and read, as ``(event, load, start, stop)``. Reading the block
    queued ``failing_block``-th (from 1) raises ``failure``.
    """

    built, shutdowns, log = [], [], []
    failing_block = None
    failure = MemoryError("block too large")

    def __init__(self, max_workers):
        self.built.append(max_workers)
        self.submits = 0

    def submit(self, fn, *args):
        assert fn is montecarlo._simulate_range  # looked up at call time
        self.submits += 1
        config, start, stop = args
        self.log.append(("queue", normalized_load(config), start, stop))
        return LazyBlock(self, fn, args, self.submits == self.failing_block)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append(cancel_futures)


@pytest.fixture
def recording_pool(monkeypatch):
    """Patch ProcessPoolExecutor with a fresh RecordingPool class."""
    pool = type("Pool", (RecordingPool,), {"built": [], "shutdowns": [], "log": []})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return pool


class TestNormalizedLoad:
    def test_reference_operating_points(self):
        assert normalized_load(homogeneous(400, 4, 2, 126)) == pytest.approx(0.63)
        assert normalized_load(homogeneous(400, 3, 1, 302)) == pytest.approx(0.755)

    def test_heterogeneous(self):
        config = SystemConfig(ns=10, groups=((UserCode(2, 1), 1), (UserCode(4, 2), 1)))
        assert normalized_load(config) == pytest.approx(0.3)


def one_frame(monkeypatch, config, placement):
    """Aggregate of a one-frame run_trials whose frame is ``placement``."""
    monkeypatch.setattr(decoder, "place_frame", lambda config, frame_index: placement)
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
    def test_is_the_decoder_frame_counts(self):
        # montecarlo keeps no per-frame loop; the benchmark traces this name
        assert montecarlo._simulate_range is decoder.frame_counts

    @pytest.mark.parametrize(
        "config",
        [
            # the mc-sweep benchmark mix at g=0.8, where many frames deadlock
            SystemConfig(ns=400, groups=users_for_load(two_to_three(400), 0.8), seed=1),
            # dense: every n above ns/2
            SystemConfig(ns=9, groups=[(UserCode(*c), 1) for c in [(5, 1), (6, 2), (7, 1)]], seed=3),
        ],
        ids=["sweep-mix-g0.8", "dense"],
    )
    def test_counts_match_peel_frame_by_frame(self, config):
        start, stop = 7, 67
        counts = montecarlo._simulate_range(config, start, stop)
        assert counts.dtype == np.int64 and counts.shape == (3, stop - start)
        for j, column in enumerate(counts.T.tolist()):
            undecoded, _, _, n_rounds = _peel(config, place_frame(config, start + j))
            lost = [user for user, missed in zip(user_codes(config), undecoded.tolist()) if missed]
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
        capped = run_trials(config, frames=640, workers=64)  # 10 blocks
        assert recording_pool.built == [2]
        assert capped == run_trials(config, frames=640, workers=1)

    def test_one_block_starts_no_pool(self, monkeypatch, recording_pool):
        set_usable_cpus(monkeypatch, 2)
        config = homogeneous(40, 3, 1, 12, seed=77)
        assert run_trials(config, frames=64, workers=2) == run_trials(config, frames=64, workers=1)
        assert recording_pool.built == []
        # a second block brings the pool
        assert run_trials(config, frames=65, workers=2) == run_trials(config, frames=65, workers=1)
        assert recording_pool.built == [2]

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

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers):
        # as the command line's --workers check does
        message = f"workers must be >= 1, got {workers}"
        with pytest.raises(ValueError, match=message):
            run_trials(homogeneous(4, 1, 1, 1), frames=5, workers=workers)
        with pytest.raises(ValueError, match=message):
            sweep_load(homogeneous(4, 1, 1, 1), [0.5], 5, workers=workers)

    def test_rejects_frames_above_maxsize_before_a_pool_starts(self, monkeypatch, recording_pool):
        set_usable_cpus(monkeypatch, 2)
        frames = sys.maxsize + 1
        with pytest.raises(ValueError, match=str(frames)):
            run_trials(homogeneous(4, 1, 1, 1), frames=frames, workers=2)
        with pytest.raises(ValueError, match=str(frames)):
            sweep_load(homogeneous(4, 1, 1, 1), [0.5], frames, workers=2)
        assert recording_pool.built == []

    def test_chunks_must_hold_every_frame(self):
        config = homogeneous(30, 3, 1, 8)
        five_frames = montecarlo._simulate_range(config, 0, 5)
        with pytest.raises(ValueError, match="chunks hold 5 frames, not 10"):
            run_trials(config, 10, chunks=[five_frames])

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


@pytest.mark.parametrize(
    "config",
    [
        homogeneous(6, 2, 1, 3, seed=1),  # 15**3 = 3,375 placements
        # 10 * 10 * 5 = 500 placements
        SystemConfig(ns=5, groups=[(UserCode(*c), 1) for c in [(2, 1), (3, 2), (1, 1)]], seed=1),
    ],
    ids=["ns6-3x(2,1)", "ns5-mixed"],
)
class TestUnbiasedAgainstEnumeration:
    """Monte Carlo means sit within a few standard errors of the exact means
    over every placement; frames, seed and workers are fixed up front."""

    FRAMES = 40_000
    ROUND_CURVE_FRAMES = 20_000

    def test_plr_and_throughput_means(self, config):
        exact_plr, exact_t = exact_frame_means(config)
        agg = run_trials(config, self.FRAMES, len(os.sched_getaffinity(0)))
        for mean, ci95, exact in (
            (agg.plr_mean, agg.plr_ci95, exact_plr),
            (agg.t_mean, agg.t_ci95, exact_t),
        ):
            z = (mean - float(exact)) / (ci95 / 1.96)
            assert abs(z) <= 4, (mean, float(exact), z)

    def test_round_curves(self, config):
        exact, sd = exact_round_moments(config, num_rounds=3)
        curves = empirical_round_curves(config, self.ROUND_CURVE_FRAMES, num_rounds=3)
        z = (np.array(curves) - exact) / (sd / math.sqrt(self.ROUND_CURVE_FRAMES))
        assert np.all(np.abs(z) <= 4), (curves, exact, z)


class TestApportion:
    def test_largest_remainder(self):
        assert _apportion([2, 3], 7) == [3, 4]
        assert _apportion([1, 1, 1], 7) == [3, 2, 2]
        assert _apportion([5], 3) == [3]

    @pytest.mark.parametrize(
        "weights,total,shares",
        [([147, 97], 366, [221, 145]), ([5, 7, 26], 8, [1, 2, 5])],
    )
    def test_equal_remainders_go_to_the_lower_index(self, weights, total, shares):
        # float quotas put these remainders a rounding error apart
        assert _apportion(weights, total) == shares

    def test_users_for_load(self):
        assert users_for_load(homogeneous(400, 3, 1, 1), 0.755) == ((UserCode(3, 1), 302),)
        mixed = users_for_load(two_to_three(100), 0.5)
        # mean k = (2*2 + 1*3) / 5 = 1.4 so 36 users, split 14 / 22 by weight
        assert sum(count for _, count in mixed) == 36
        assert mixed == ((UserCode(4, 2), 14), (UserCode(2, 1), 22))

    def test_unrealizable_load_is_none(self):
        assert users_for_load(homogeneous(10, 4, 2, 1), 0.05) is None


class TestSweepLoad:
    def test_skips_unrealizable_and_reports_realized_g(self, caplog):
        result = sweep_load(homogeneous(20, 4, 2, 1), [0.01, 0.5], frames=30)
        assert len(result.points) == 1
        assert caplog.record_tuples == [SKIP_WARNING]
        point = result.points[0]
        assert point.g == pytest.approx(
            sum(code.k * count for code, count in users_for_load(homogeneous(20, 4, 2, 1), 0.5)) / 20
        )

    def test_code_without_users_still_labels_its_column(self, tmp_path):
        # g=0.05 gives two_to_three(40) one user, of code (2,1)
        config = two_to_three(40)
        assert users_for_load(config, 0.05) == ((UserCode(2, 1), 1),)
        out = tmp_path / "sweep.csv"
        emit_csv(sweep_load(config, [0.05], frames=5), out)
        header, row = (line.split(",") for line in out.read_text().splitlines())
        assert (row[header.index("n")], row[header.index("k")]) == ("4;2", "2;1")

    def test_argmax_consistency(self):
        result = sweep_load(homogeneous(50, 2, 1, 1, seed=3), [0.2, 0.4, 0.6, 0.8], frames=200)
        best = max(result.points, key=lambda pt: pt.t_mean)
        assert result.peak is best
        assert [pt.g for pt in result.points] == sorted(pt.g for pt in result.points)

    def test_low_load_decodes_everyone(self):
        result = sweep_load(homogeneous(60, 3, 1, 1), [0.05], frames=300)
        point = result.points[0]
        assert point.plr_mean <= 0.01
        assert point.t_mean == pytest.approx(point.g, abs=0.01)

    def test_negative_load_raises_and_is_not_skipped(self, caplog):
        with pytest.raises(ValueError, match=r"^load must be >= 0, got -0\.5$"):
            sweep_load(homogeneous(20, 4, 2, 1), [-0.5, 0.4], frames=3)
        with pytest.raises(ValueError, match=r"^load must be >= 0, got nan$"):
            sweep_load(homogeneous(20, 4, 2, 1), [math.nan, 0.4], frames=3)
        assert caplog.record_tuples == []
        with pytest.raises(ValueError, match=r"^load must be >= 0, got -1e-09$"):
            users_for_load(homogeneous(20, 4, 2, 1), -1e-9)
        with pytest.raises(ValueError, match=r"^load must be >= 0, got nan$"):
            users_for_load(homogeneous(20, 4, 2, 1), math.nan)

    def test_all_unrealizable_raises(self):
        with pytest.raises(ValueError, match="no realizable"):
            sweep_load(homogeneous(10, 4, 2, 1), [0.01], frames=10)

    @pytest.mark.parametrize(
        "bad,message",
        [
            (-0.5, r"^load must be >= 0, got -0\.5$"),
            (math.nan, r"^load must be >= 0, got nan$"),
            (1e306, rf"^load G=1e\+306 needs 1e\+307 users, more than {sys.maxsize}$"),
        ],
        ids=["negative", "nan", "too-large"],
    )
    def test_bad_load_late_in_the_grid_raises_before_any_block(
        self, monkeypatch, recording_pool, caplog, bad, message
    ):
        ran, run_block = [], montecarlo._simulate_range

        def recorded(config, start, stop):
            ran.append((normalized_load(config), start, stop))
            return run_block(config, start, stop)

        monkeypatch.setattr(montecarlo, "_simulate_range", recorded)
        for cpus in (1, 2):
            set_usable_cpus(monkeypatch, cpus)
            caplog.clear()
            with pytest.raises(ValueError, match=message):
                sweep_load(homogeneous(20, 4, 2, 1), [0.4, 0.01, bad], frames=300, workers=2)
            # the skip before the bad load is still logged
            assert caplog.record_tuples == [SKIP_WARNING]
        assert ran == [] and recording_pool.built == []

    def test_one_pool_per_sweep(self, monkeypatch, recording_pool):
        built, shutdowns = recording_pool.built, recording_pool.shutdowns
        set_usable_cpus(monkeypatch, 2)
        loads = [0.01, 0.2, 0.4, 0.6]
        sweep = lambda workers: sweep_load(two_to_three(40, seed=5), loads, 30, workers)
        shared = sweep(2)
        assert built == [2] and shutdowns == [True]
        assert len(shared.points) == 3
        assert shared == sweep(1)
        assert built == [2]

        # a point failing inside the pool still shuts the pool down
        recording_pool.failing_block = 2  # the second point's one block
        with pytest.raises(MemoryError):
            sweep(2)
        assert built == [2, 2] and shutdowns == [True, True]

    SCHEDULED_LOADS = [0.2, 0.01, 0.4, 0.6, 0.8]  # 0.01 is below one user at ns=40

    def scheduled_sweep(self, workers=2, frames=30):
        return sweep_load(two_to_three(40, seed=5), self.SCHEDULED_LOADS, frames, workers)

    @staticmethod
    def most_blocks_queued(log):
        """Most blocks queued and not yet read at any one time."""
        unread = most = 0
        for event, *_ in log:
            unread += 1 if event == "queue" else -1
            most = max(most, unread)
        return most

    def test_next_point_queued_before_current_is_read(self, monkeypatch, recording_pool):
        set_usable_cpus(monkeypatch, 2)
        result = self.scheduled_sweep(frames=150)
        log = recording_pool.log
        loads = [pt.g for pt in result.points]
        # each point is read in frame-index order, on the range(0, frames, 64) block bounds
        reads = [entry[1:] for entry in log if entry[0] == "read"]
        assert reads == [(g, start, stop) for g in loads for start, stop in BLOCKS_150]
        for current, following in zip(loads, loads[1:]):
            first_queue = min(i for i, (e, g, *_) in enumerate(log) if (e, g) == ("queue", following))
            first_read = min(i for i, (e, g, *_) in enumerate(log) if (e, g) == ("read", current))
            assert first_queue < first_read
        # at most 2 * processes blocks are queued, across point boundaries
        assert self.most_blocks_queued(log) == 4
        assert recording_pool.built == [2] and recording_pool.shutdowns == [True]

    def test_failing_point_cancels_the_queued_one(self, monkeypatch, recording_pool):
        set_usable_cpus(monkeypatch, 2)
        recording_pool.failing_block = 4  # the second point's first block
        with pytest.raises(MemoryError):
            self.scheduled_sweep(frames=150)
        queued = [entry[1:] for entry in recording_pool.log if entry[0] == "queue"]
        reads = [entry[1:] for entry in recording_pool.log if entry[0] == "read"]
        # reading stopped at the failing block; the three queued behind it, the
        # third point's first among them, were cancelled without being read
        assert reads == queued[:4] and len(queued) == 7
        assert len({g for g, _, _ in queued}) == 3
        assert recording_pool.shutdowns == [True]

    @pytest.mark.parametrize("run", ["run_trials", "sweep_load"])
    def test_dead_worker_raises_child_process_error(self, monkeypatch, recording_pool, run):
        set_usable_cpus(monkeypatch, 2)
        message = "A process in the process pool was terminated abruptly"
        recording_pool.failing_block = 2
        recording_pool.failure = BrokenProcessPool(message)
        config = homogeneous(40, 3, 1, 12, seed=77)
        with pytest.raises(ChildProcessError) as raised:
            if run == "run_trials":
                run_trials(config, 300, workers=2)
            else:
                sweep_load(config, [0.2, 0.4], 150, workers=2)
        assert str(raised.value) == message
        assert raised.value.__cause__ is recording_pool.failure
        # the blocks queued behind the dead worker's are cancelled
        assert recording_pool.shutdowns == [True]

    def test_block_bounds_do_not_depend_on_usable_cpus(self, monkeypatch, recording_pool):
        in_process, run_block = [], montecarlo._simulate_range

        def recorded(config, start, stop):
            in_process.append((normalized_load(config), start, stop))
            return run_block(config, start, stop)

        monkeypatch.setattr(montecarlo, "_simulate_range", recorded)
        set_usable_cpus(monkeypatch, 1)
        serial = self.scheduled_sweep(workers=3, frames=150)
        sequences = [in_process.copy()]
        for cpus in (2, 3):
            set_usable_cpus(monkeypatch, cpus)
            recording_pool.log.clear()
            assert self.scheduled_sweep(workers=3, frames=150) == serial
            sequences.append([entry[1:] for entry in recording_pool.log if entry[0] == "read"])
        assert recording_pool.built == [2, 3]
        blocks = [(pt.g, start, stop) for pt in serial.points for start, stop in BLOCKS_150]
        assert sequences == [blocks] * 3

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_same_points_under_every_start_method(self, monkeypatch, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        pool = functools.partial(
            concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)
        )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        set_usable_cpus(monkeypatch, 2)
        assert self.scheduled_sweep(workers=2, frames=150) == self.scheduled_sweep(
            workers=1, frames=150
        )

    def test_one_block_point_starts_no_pool(self, monkeypatch, recording_pool):
        set_usable_cpus(monkeypatch, 2)
        config = homogeneous(40, 3, 1, 12, seed=77)
        for frames in (1, 64):
            one_point = lambda workers: sweep_load(config, [0.01, 0.3], frames, workers)
            assert one_point(2) == one_point(1)
        assert recording_pool.built == []

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

    def test_csv_bytes_identical_across_usable_cpus(self, monkeypatch, tmp_path, caplog):
        texts = []
        out = tmp_path / "sweep.csv"
        for cpus in (1, 2, 3):
            set_usable_cpus(monkeypatch, cpus)
            caplog.clear()
            result = self.scheduled_sweep(workers=3)
            assert len(result.points) == 4 and caplog.record_tuples == [SKIP_WARNING]
            emit_csv(result, out)
            texts.append(out.read_bytes())
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
        # not numbers a load can be: each message names the load, as users_for_load's do
        with pytest.raises(ValueError, match=r"^load must be >= 0, got nan$"):
            aloha_baseline(math.nan, "slotted")
        with pytest.raises(ValueError, match=r"^load must be finite, got inf$"):
            aloha_baseline(math.inf, "pure")


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
