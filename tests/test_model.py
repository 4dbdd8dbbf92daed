import hashlib
import math
import pickle
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from csasim import (
    FramePlacement,
    SystemConfig,
    UserCode,
    initial_erasure_probability,
    parse_config,
    place_frame,
    render_config,
)
from helpers import exact_degree_law, padded_degree_law, slots_by_user, user_codes

# absolute bound on each law entry and on P_0 against the exact rationals;
# float64 laws of up to ~60 users sit a few ulps from them
LAW_TOLERANCE = 1e-13


@st.composite
def code_mixtures(draw):
    """Up to 4 code groups of up to 15 users each on a frame of up to 40 slots."""
    ns = draw(st.integers(1, 40))
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, ns))
        groups.append((UserCode(n, draw(st.integers(1, n))), draw(st.integers(1, 15))))
    return SystemConfig(ns=ns, groups=groups)


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
    return SystemConfig(ns=ns, groups=[(u, 1) for u in users], seed=seed)


class TestValidation:
    def test_user_code_bounds(self):
        with pytest.raises(ValueError):
            UserCode(n=0, k=0)
        with pytest.raises(ValueError):
            UserCode(n=2, k=3)
        with pytest.raises(ValueError):
            UserCode(n=2, k=0)

    def test_user_code_replace_is_checked(self):
        assert UserCode(3, 1)._replace(k=3) == UserCode(3, 3)
        with pytest.raises(ValueError, match="1 <= k <= n"):
            UserCode(3, 1)._replace(k=4)

    def test_rejects_n_exceeding_frame(self):
        with pytest.raises(ValueError, match="exceeds frame size"):
            SystemConfig(ns=4, groups=((UserCode(5, 1), 1),))
        # the first too-long code is named, after valid users and before a later one
        groups = [(UserCode(*c), 1) for c in [(2, 1), (4, 1), (6, 2), (2, 1), (5, 1)]]
        with pytest.raises(ValueError, match="n=6 exceeds frame size ns=4"):
            SystemConfig(ns=4, groups=groups)

    def test_config_replace_is_checked(self):
        config = SystemConfig(ns=5, groups=((UserCode(2, 1), 3),), seed=1)
        assert config._replace(seed=2) == SystemConfig(5, config.groups, 2)
        with pytest.raises(ValueError, match="frame size ns must be >= 1"):
            config._replace(ns=0)
        with pytest.raises(ValueError, match="n=9 exceeds frame size ns=5"):
            config._replace(groups=((UserCode(9, 1), 1),))

    def test_rejects_nonpositive_frame(self):
        for ns in (0, -1):
            with pytest.raises(ValueError, match="frame size ns must be >= 1"):
                SystemConfig(ns=ns, groups=((UserCode(1, 1), 1),))

    def test_rejects_frame_above_maxsize(self):
        with pytest.raises(ValueError, match="frame size ns must be <="):
            SystemConfig(ns=sys.maxsize + 1, groups=((UserCode(1, 1), 1),))

    def test_rejects_bad_group_counts(self):
        with pytest.raises(ValueError, match="user group count must be >= 1, got 0"):
            SystemConfig(4, [(UserCode(1, 1), 2), (UserCode(2, 1), 0)])
        half = sys.maxsize // 2 + 1
        with pytest.raises(ValueError, match="user group count must be <="):
            SystemConfig(sys.maxsize, [(UserCode(1, 1), half), (UserCode(1, 1), half)])

    def test_rejects_empty_users(self):
        with pytest.raises(ValueError, match="empty"):
            SystemConfig(ns=4, groups=())

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SystemConfig(ns=4, groups=((UserCode(1, 1), 1),), seed=-1)
        with pytest.raises(ValueError, match="seed"):
            SystemConfig(ns=4, groups=((UserCode(1, 1), 1),), seed=2**64)


class TestCodeGroups:
    def test_first_occurrence_order_and_counts(self):
        a, b, c = UserCode(3, 1), UserCode(2, 1), UserCode(3, 2)
        config = SystemConfig(ns=5, groups=((b, 1), (a, 1), (b, 1), (c, 1), (a, 1), (b, 1)))
        assert config.code_groups == ((b, 3), (a, 2), (c, 1))

    def test_cached_and_not_part_of_identity(self):
        config = SystemConfig(ns=5, groups=((UserCode(2, 1), 3),))
        assert SystemConfig._fields == ("ns", "groups", "seed") and not hasattr(config, "users")
        assert config.code_groups is config.code_groups
        assert config == SystemConfig(ns=5, groups=((UserCode(2, 1), 3),))
        assert config._replace(seed=2).code_groups == ((UserCode(2, 1), 3),)
        assert pickle.loads(pickle.dumps(config)) == config

    def test_fields_are_read_only(self):
        config = SystemConfig(ns=5, groups=((UserCode(2, 1), 3),))
        placement = place_frame(config, 0)
        for record, name in [
            (UserCode(2, 1), "n"),
            (UserCode(2, 1), "k"),
            (config, "ns"),
            (config, "groups"),
            (config, "seed"),
            # derived values, each cached by the read before the write
            (config, "code_groups"),
            (config, "n_users"),
            (config, "total_bursts"),
            (config, "thresholds"),
            (placement, "ns"),
            (placement, "slot_of_burst"),
            (placement, "degree_of_slot"),
        ]:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            config.code_groups = ((UserCode(5, 1), 9),)
        assert config.total_bursts == 6
        assert config == SystemConfig(ns=5, groups=((UserCode(2, 1), 3),))
        copy = pickle.loads(pickle.dumps(placement))
        assert copy.ns == 5 and copy.degree_of_slot.tolist() == placement.degree_of_slot.tolist()

    def test_pickle_carries_no_cached_array(self):
        config = SystemConfig(ns=6, groups=((UserCode(3, 1), 1), (UserCode(2, 2), 1)), seed=4)
        assert config.thresholds.tolist() == [1, 2]
        assert config.user_of_burst.tolist() == [0, 0, 0, 1, 1]
        data = pickle.dumps(config)
        assert b"numpy" not in data
        copy = pickle.loads(data)
        assert not {"thresholds", "user_of_burst"} & set(vars(copy))
        assert copy == config and hash(copy) == hash(config)
        assert copy.user_of_burst.tolist() == [0, 0, 0, 1, 1]


@st.composite
def group_lists(draw):
    """Up to 6 groups of up to 4 users on a frame of up to 6 slots, their codes
    drawn from 3, so that a code often repeats, next to itself or not."""
    ns = draw(st.integers(1, 6))
    codes = []
    for _ in range(3):
        n = draw(st.integers(1, ns))
        codes.append(UserCode(n, draw(st.integers(1, n))))
    group = st.tuples(st.sampled_from(codes), st.integers(1, 4))
    groups = draw(st.lists(group, min_size=1, max_size=6))
    return SystemConfig(ns, groups, draw(st.integers(0, 2**64 - 1)))


class TestDerivedValues:
    """What a config derives from its groups equals what its users give,
    one code per user in user order, and its text reads back equal."""

    @given(group_lists())
    @example(SystemConfig(4, [(UserCode(2, 1), 1), (UserCode(2, 1), 2), (UserCode(3, 2), 1)]))
    @example(SystemConfig(4, [(UserCode(2, 1), 2), (UserCode(3, 2), 1), (UserCode(2, 1), 1)]))
    @settings(max_examples=200, deadline=None)
    def test_match_the_per_user_list(self, config):
        users = user_codes(config)
        assert config.n_users == len(users)
        assert config.code_groups == tuple(Counter(users).items())
        assert config.total_bursts == sum(u.n for u in users)
        assert config.total_payload == sum(u.k for u in users)
        assert config.thresholds.tolist() == [u.k for u in users]
        owners = [i for i, u in enumerate(users) for _ in range(u.n)]
        assert config.user_of_burst.tolist() == owners
        first = [owners.index(i) for i in range(len(users))]
        assert [g.tolist() for g in config.placement_groups] == [
            [list(range(first[i], first[i] + n)) for i, u in enumerate(users) if u.n == n]
            for n in sorted({u.n for u in users})
        ]
        assert parse_config(render_config(config)) == config


class TestBurstArrays:
    def test_cached_read_only_and_aligned(self):
        config = SystemConfig(ns=6, groups=[(UserCode(*c), 1) for c in [(3, 1), (1, 1), (2, 2)]])
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
        # a config pickled after its arrays were read carries none of them
        copy = pickle.loads(pickle.dumps(config))
        assert copy == config and hash(copy) == hash(config)
        assert not {"thresholds", "user_of_burst", "placement_groups"} & set(vars(copy))
        assert all(not g.flags.writeable for g in copy.placement_groups)


class TestFramePlacement:
    def test_replace_derives_the_degree_again(self):
        placement = FramePlacement(4, np.array([0, 1, 1]))
        moved = placement._replace(slot_of_burst=np.array([3, 3, 3, 2]))
        assert moved.ns == 4
        assert moved.degree_of_slot.tolist() == [0, 0, 1, 3]
        with pytest.raises(ValueError, match="slots must lie in"):
            placement._replace(slot_of_burst=np.array([4]))

    def test_frame_too_large_to_hold_is_out_of_memory(self):
        ns = 2**62
        with pytest.raises(MemoryError, match=f"slot degrees of a frame of {ns} slots"):
            FramePlacement(ns, np.array([0]))
        # a negative slot is still a bad slot, whatever the frame size
        with pytest.raises(ValueError, match=re.escape(f"slots must lie in [0, {ns})")):
            FramePlacement(ns, np.array([0, -1]))

    def test_compares_by_identity(self):
        a = FramePlacement(3, np.array([0, 2]))
        b = FramePlacement(3, np.array([0, 2]))
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)


class TestPlaceFrame:
    def test_single_user_filling_frame(self):
        config = SystemConfig(ns=4, groups=((UserCode(4, 1), 1),), seed=3)
        placement = place_frame(config, 0)
        assert slots_by_user(config, placement)[0].tolist() == [0, 1, 2, 3]
        assert placement.degree_of_slot.tolist() == [1, 1, 1, 1]

    def test_forced_two_user_overlap(self):
        config = SystemConfig(ns=2, groups=((UserCode(2, 2), 2),), seed=5)
        placement = place_frame(config, 0)
        for slots in slots_by_user(config, placement):
            assert slots.tolist() == [0, 1]
        assert placement.degree_of_slot.tolist() == [2, 2]

    def test_degree_two_fraction_matches_enumeration(self):
        # two (1,1) users on two slots: of the 4 equiprobable placements,
        # two give a degree-2 slot, so E[fraction of degree-2 slots] = 1/4
        config = SystemConfig(ns=2, groups=((UserCode(1, 1), 2),), seed=11)
        frames = 20000
        fractions = np.empty(frames)
        for j in range(frames):
            degree = place_frame(config, j).degree_of_slot
            fractions[j] = (degree == 2).sum() / config.ns
        se = fractions.std(ddof=1) / np.sqrt(frames)
        assert abs(fractions.mean() - 0.25) <= 3 * se

    def test_bad_frame_index_is_named(self):
        config = SystemConfig(ns=20, groups=((UserCode(3, 1), 5),), seed=42)
        with pytest.raises(ValueError, match=r"^frame_index must be >= 0, got -1$"):
            place_frame(config, -1)
        with pytest.raises(TypeError, match=r"^frame_index must be an integer, got 2\.0$"):
            place_frame(config, 2.0)
        # a NumPy integer is an integer, and places the same frame
        assert np.array_equal(
            place_frame(config, np.int64(2)).slot_of_burst, place_frame(config, 2).slot_of_burst
        )

    def test_deterministic_per_frame_index(self):
        config = SystemConfig(ns=20, groups=((UserCode(3, 1), 5),), seed=42)
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
        config = SystemConfig(ns=20, groups=((UserCode(1, 1), 1),), seed=9)
        frames = 10_000
        counts = np.zeros(20)
        for j in range(frames):
            counts[slots_by_user(config, place_frame(config, j))[0][0]] += 1
        result = chisquare(counts)
        assert result.pvalue > 0.001

    def test_single_user_slot_frequency(self):
        config = SystemConfig(ns=10, groups=((UserCode(3, 2), 1),), seed=13)
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
        for user, slots in zip(user_codes(config), slots_by_user(config, placement)):
            assert slots.size == user.n
            assert np.unique(slots).size == user.n
            assert slots.min() >= 0 and slots.max() < config.ns
        recounted = np.zeros(config.ns, dtype=int)
        for slots in slots_by_user(config, placement):
            recounted[slots] += 1
        assert np.array_equal(recounted, placement.degree_of_slot)

    @pytest.mark.parametrize(
        ("text", "digest"),
        [
            # the sparse branch, with rows redrawn in most frames
            (
                "ns=400\nusers=302x(3,1)\nseed=1\n",
                "aee063533fc6f5c039cc031c8a8ba7530c232aa171118351d920498b9e091123",
            ),
            # the dense branch: n = 8 and n = 12 exceed ns // 2
            (
                "ns=12\nusers=2x(8,3) 3x(2,1) 1x(12,1)\nseed=5\n",
                "1ef7d8a32db702c27a39f14d58b87008dc2cf2608fcb78e0c43e9cb3d45a8800",
            ),
            # one burst count in groups that other groups split apart
            (
                "ns=12\nusers=1x(3,1) 2x(3,2) 1x(2,1) 1x(3,1)\nseed=5\n",
                "c760a8082ef0d58699fc839da366b551c7e3dfa4975e0c5be8c8bf27b767ccb4",
            ),
            # n = ns // 2 stays sparse: 4 to 16 redraw passes a frame, which
            # pins the order of the passes
            (
                "ns=8\nusers=30x(4,1)\nseed=2\n",
                "414bf0d5f92597fdbe06775b19f8ebd68c4bf731d2bc3f6b60384ddecb9704f3",
            ),
        ],
    )
    def test_placement_bits_pinned(self, text, digest):
        # sha256 of slot_of_burst over frames 0-199; a change to how rows are
        # drawn, redrawn, sorted or scattered moves it
        config = parse_config(text)
        h = hashlib.sha256()
        for j in range(200):
            h.update(place_frame(config, j).slot_of_burst.tobytes())
        assert h.hexdigest() == digest


def degree_law(placement):
    """Measured slot-degree law of a placement: fraction of slots per degree."""
    return np.bincount(placement.degree_of_slot) / placement.ns


def nonzero(law):
    return {d: a for d, a in enumerate(law.tolist()) if a}


class TestDegreeHistogram:
    def test_forced_placement(self):
        config = SystemConfig(ns=2, groups=((UserCode(2, 2), 2),), seed=5)
        assert nonzero(degree_law(place_frame(config, 0))) == {2: 1.0}

    def test_single_user_full_frame(self):
        config = SystemConfig(ns=4, groups=((UserCode(4, 1), 1),), seed=3)
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
        config = SystemConfig(ns=2, groups=((UserCode(1, 1), 2),))
        hist = padded_degree_law(config)
        assert hist[0] == pytest.approx(0.25, abs=1e-15)
        assert hist[1] == pytest.approx(0.5, abs=1e-15)
        assert hist[2] == pytest.approx(0.25, abs=1e-15)

    def test_single_user_two_point(self):
        config = SystemConfig(ns=10, groups=((UserCode(3, 1), 1),))
        hist = padded_degree_law(config)
        assert hist[0] == pytest.approx(0.7, abs=1e-15)
        assert hist[1] == pytest.approx(0.3, abs=1e-15)
        assert set(nonzero(np.array(hist))) == {0, 1}

    @given(small_configs())
    @settings(max_examples=100, deadline=None)
    def test_normalized(self, config):
        hist = padded_degree_law(config)  # checks the window inside degrees 0..n_users
        assert all(type(h) is float for h in hist)
        assert math.fsum(hist) == pytest.approx(1.0, abs=1e-12)

    @given(code_mixtures())
    @example(SystemConfig(ns=1, groups=((UserCode(1, 1), 1),)))
    @example(SystemConfig(ns=1, groups=((UserCode(1, 1), 7),)))
    @example(SystemConfig(ns=9, groups=((UserCode(4, 3), 1),)))
    @example(SystemConfig(ns=5, groups=((UserCode(5, 2), 3), (UserCode(2, 1), 20))))
    @example(SystemConfig(ns=4, groups=((UserCode(2, 1), 100),)))  # tails cut below 1e-19 of the mode
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_rational_law(self, config):
        hist = padded_degree_law(config)
        exact = exact_degree_law(config)
        assert len(hist) == len(exact)
        assert max(abs(float(h - e)) for h, e in zip(hist, exact)) <= LAW_TOLERANCE
        collided = sum(d * exact[d] for d in range(2, len(exact)))
        p0 = collided * config.ns / config.total_bursts
        assert abs(float(initial_erasure_probability(config) - p0)) <= LAW_TOLERANCE

    def test_matches_empirical_average(self):
        config = SystemConfig(
            ns=6,
            groups=((UserCode(2, 1), 1), (UserCode(3, 2), 1), (UserCode(1, 1), 1)),
            seed=21,
        )
        expected = padded_degree_law(config)
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
