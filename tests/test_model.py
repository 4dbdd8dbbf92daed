import math
import pickle
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from csasim import (
    SystemConfig,
    UserCode,
    expected_initial_histogram,
    initial_erasure_probability,
    place_frame,
)
from helpers import exact_degree_law, slots_by_user

# absolute bound on each law entry and on P_0 against the exact rationals;
# float64 laws of up to ~60 users sit a few ulps from them
LAW_TOLERANCE = 1e-13


@st.composite
def code_mixtures(draw):
    """Up to 4 code groups of up to 15 users each on a frame of up to 40 slots."""
    ns = draw(st.integers(1, 40))
    users = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, ns))
        users += [UserCode(n, draw(st.integers(1, n)))] * draw(st.integers(1, 15))
    return SystemConfig(ns=ns, users=tuple(users))


@st.composite
def small_configs(draw):
    ns = draw(st.integers(1, 10))
    n_users = draw(st.integers(1, 5))
    users = []
    for _ in range(n_users):
        n = draw(st.integers(1, ns))
        k = draw(st.integers(1, n))
        users.append(UserCode(n=n, k=k))
    seed = draw(st.integers(0, 2**32))
    return SystemConfig(ns=ns, users=tuple(users), seed=seed)


class TestValidation:
    def test_user_code_bounds(self):
        with pytest.raises(ValueError):
            UserCode(n=0, k=0)
        with pytest.raises(ValueError):
            UserCode(n=2, k=3)
        with pytest.raises(ValueError):
            UserCode(n=2, k=0)

    def test_rejects_n_exceeding_frame(self):
        with pytest.raises(ValueError, match="exceeds frame size"):
            SystemConfig(ns=4, users=(UserCode(5, 1),))

    def test_rejects_nonpositive_frame(self):
        for ns in (0, -1):
            with pytest.raises(ValueError, match="frame size ns must be >= 1"):
                SystemConfig(ns=ns, users=(UserCode(1, 1),))

    def test_rejects_frame_above_maxsize(self):
        with pytest.raises(ValueError, match="frame size ns must be <="):
            SystemConfig(ns=sys.maxsize + 1, users=(UserCode(1, 1),))

    def test_rejects_empty_users(self):
        with pytest.raises(ValueError, match="empty"):
            SystemConfig(ns=4, users=())

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SystemConfig(ns=4, users=(UserCode(1, 1),), seed=-1)
        with pytest.raises(ValueError, match="seed"):
            SystemConfig(ns=4, users=(UserCode(1, 1),), seed=2**64)


class TestCodeGroups:
    def test_first_occurrence_order_and_counts(self):
        a, b, c = UserCode(3, 1), UserCode(2, 1), UserCode(3, 2)
        config = SystemConfig(ns=5, users=(b, a, b, c, a, b))
        assert config.code_groups == ((b, 3), (a, 2), (c, 1))

    def test_cached_and_not_part_of_identity(self):
        config = SystemConfig(ns=5, users=(UserCode(2, 1),) * 3)
        assert config.code_groups is config.code_groups
        assert config == SystemConfig(ns=5, users=(UserCode(2, 1),) * 3)
        assert replace(config, seed=2).code_groups == ((UserCode(2, 1), 3),)
        assert pickle.loads(pickle.dumps(config)) == config


class TestBurstArrays:
    def test_cached_read_only_and_aligned(self):
        config = SystemConfig(ns=6, users=(UserCode(3, 1), UserCode(1, 1), UserCode(2, 2)))
        assert config.thresholds.tolist() == [1, 1, 2]
        assert config.user_of_burst.tolist() == [0, 0, 0, 1, 2, 2]
        for name in ("thresholds", "user_of_burst"):
            array = getattr(config, name)
            assert array is getattr(config, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 7
            # a pickled config (as sent to pool workers) rebuilds them read-only
            assert not getattr(pickle.loads(pickle.dumps(config)), name).flags.writeable
        placement = place_frame(config, 0)
        assert placement.slot_of_burst.size == config.total_bursts == 6
        # placement groups: ascending n, one read-only row per user
        groups = config.placement_groups
        assert groups is config.placement_groups
        assert [g.tolist() for g in groups] == [[[3]], [[4, 5]], [[0, 1, 2]]]
        for group in groups:
            assert not group.flags.writeable
            n_of_position = np.array([3, 1, 2])[config.user_of_burst[group]]
            assert (n_of_position == group.shape[1]).all()
        covered = np.sort(np.concatenate([g.ravel() for g in groups]))
        assert covered.tolist() == list(range(config.total_bursts))
        assert set(config.__getstate__()) == {"ns", "users", "seed"}
        copy = pickle.loads(pickle.dumps(config))
        assert all(not g.flags.writeable for g in copy.placement_groups)


class TestPlaceFrame:
    def test_single_user_filling_frame(self):
        config = SystemConfig(ns=4, users=(UserCode(4, 1),), seed=3)
        placement = place_frame(config, 0)
        assert slots_by_user(config, placement)[0].tolist() == [0, 1, 2, 3]
        assert placement.degree_of_slot.tolist() == [1, 1, 1, 1]

    def test_forced_two_user_overlap(self):
        config = SystemConfig(ns=2, users=(UserCode(2, 2), UserCode(2, 2)), seed=5)
        placement = place_frame(config, 0)
        for slots in slots_by_user(config, placement):
            assert slots.tolist() == [0, 1]
        assert placement.degree_of_slot.tolist() == [2, 2]

    def test_degree_two_fraction_matches_enumeration(self):
        # two (1,1) users on two slots: of the 4 equiprobable placements,
        # two give a degree-2 slot, so E[fraction of degree-2 slots] = 1/4
        config = SystemConfig(ns=2, users=(UserCode(1, 1), UserCode(1, 1)), seed=11)
        frames = 20000
        fractions = np.empty(frames)
        for j in range(frames):
            degree = place_frame(config, j).degree_of_slot
            fractions[j] = (degree == 2).sum() / config.ns
        se = fractions.std(ddof=1) / np.sqrt(frames)
        assert abs(fractions.mean() - 0.25) <= 3 * se

    def test_deterministic_per_frame_index(self):
        config = SystemConfig(ns=20, users=(UserCode(3, 1),) * 5, seed=42)
        a = place_frame(config, 7)
        b = place_frame(config, 7)
        for x, y in zip(slots_by_user(config, a), slots_by_user(config, b)):
            assert np.array_equal(x, y)
        c = place_frame(config, 8)
        assert any(
            not np.array_equal(x, y)
            for x, y in zip(slots_by_user(config, a), slots_by_user(config, c))
        )

    def test_slot_usage_uniform_across_frames_chi_square(self):
        config = SystemConfig(ns=20, users=(UserCode(1, 1),), seed=9)
        frames = 10_000
        counts = np.zeros(20)
        for j in range(frames):
            counts[slots_by_user(config, place_frame(config, j))[0][0]] += 1
        result = chisquare(counts)
        assert result.pvalue > 0.001

    def test_single_user_slot_frequency(self):
        config = SystemConfig(ns=10, users=(UserCode(3, 2),), seed=13)
        frames = 100_000
        counts = np.zeros(10)
        for j in range(frames):
            counts[slots_by_user(config, place_frame(config, j))[0]] += 1
        freq = counts / frames
        se = np.sqrt(0.3 * 0.7 / frames)
        assert np.all(np.abs(freq - 0.3) <= 3 * se)

    @given(small_configs(), st.integers(0, 50))
    @settings(max_examples=150, deadline=None)
    def test_burst_conservation_and_distinctness(self, config, frame_index):
        placement = place_frame(config, frame_index)
        assert int(placement.degree_of_slot.sum()) == config.total_bursts
        for user, slots in zip(config.users, slots_by_user(config, placement)):
            assert slots.size == user.n
            assert np.unique(slots).size == user.n
            assert slots.min() >= 0 and slots.max() < config.ns
        recounted = np.zeros(config.ns, dtype=int)
        for slots in slots_by_user(config, placement):
            recounted[slots] += 1
        assert np.array_equal(recounted, placement.degree_of_slot)


def degree_law(placement):
    """Measured slot-degree law of a placement: fraction of slots per degree."""
    return np.bincount(placement.degree_of_slot) / placement.ns


def nonzero(law):
    return {d: a for d, a in enumerate(law.tolist()) if a}


class TestDegreeHistogram:
    def test_forced_placement(self):
        config = SystemConfig(ns=2, users=(UserCode(2, 2), UserCode(2, 2)), seed=5)
        assert nonzero(degree_law(place_frame(config, 0))) == {2: 1.0}

    def test_single_user_full_frame(self):
        config = SystemConfig(ns=4, users=(UserCode(4, 1),), seed=3)
        assert nonzero(degree_law(place_frame(config, 0))) == {1: 1.0}

    @given(small_configs(), st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_burst_mass_identity(self, config, frame_index):
        law = degree_law(place_frame(config, frame_index))
        mass = sum(d * a for d, a in enumerate(law)) * config.ns
        assert mass == pytest.approx(config.total_bursts, abs=1e-9)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)


class TestExpectedInitialHistogram:
    def test_two_singleton_users_is_binomial(self):
        config = SystemConfig(ns=2, users=(UserCode(1, 1), UserCode(1, 1)))
        hist = expected_initial_histogram(config)
        assert hist[0] == pytest.approx(0.25, abs=1e-15)
        assert hist[1] == pytest.approx(0.5, abs=1e-15)
        assert hist[2] == pytest.approx(0.25, abs=1e-15)

    def test_single_user_two_point(self):
        config = SystemConfig(ns=10, users=(UserCode(3, 1),))
        hist = expected_initial_histogram(config)
        assert hist[0] == pytest.approx(0.7, abs=1e-15)
        assert hist[1] == pytest.approx(0.3, abs=1e-15)
        assert set(nonzero(np.array(hist))) == {0, 1}

    @given(small_configs())
    @settings(max_examples=100, deadline=None)
    def test_normalized(self, config):
        hist = expected_initial_histogram(config)
        assert all(type(h) is float for h in hist) and len(hist) == config.n_users + 1
        assert math.fsum(hist) == pytest.approx(1.0, abs=1e-12)

    @given(code_mixtures())
    @example(SystemConfig(ns=1, users=(UserCode(1, 1),)))
    @example(SystemConfig(ns=1, users=(UserCode(1, 1),) * 7))
    @example(SystemConfig(ns=9, users=(UserCode(4, 3),)))
    @example(SystemConfig(ns=5, users=(UserCode(5, 2),) * 3 + (UserCode(2, 1),) * 20))
    @example(SystemConfig(ns=4, users=(UserCode(2, 1),) * 100))  # tails cut below 1e-19 of the mode
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_rational_law(self, config):
        hist = expected_initial_histogram(config)
        exact = exact_degree_law(config)
        assert len(hist) == len(exact)
        assert max(abs(float(h - e)) for h, e in zip(hist, exact)) <= LAW_TOLERANCE
        collided = sum(d * exact[d] for d in range(2, len(exact)))
        p0 = collided * config.ns / config.total_bursts
        assert abs(float(initial_erasure_probability(config) - p0)) <= LAW_TOLERANCE

    def test_matches_empirical_average(self):
        config = SystemConfig(
            ns=6,
            users=(UserCode(2, 1), UserCode(3, 2), UserCode(1, 1)),
            seed=21,
        )
        expected = expected_initial_histogram(config)
        frames = 100_000
        samples = np.zeros((frames, config.n_users + 1))
        for j in range(frames):
            counts = np.bincount(
                place_frame(config, j).degree_of_slot, minlength=config.n_users + 1
            )
            samples[j] = counts / config.ns
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(frames)
        assert np.all(np.abs(mean - expected) <= 3 * se + 1e-12)
