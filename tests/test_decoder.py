import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csasim import (
    FramePlacement,
    SystemConfig,
    UserCode,
    decode_frame,
    place_frame,
)
from csasim import decoder
from csasim.decoder import _peel, _rounds, frame_counts
from helpers import (
    collided_share,
    make_placement,
    peel_oracle,
    random_instance,
    replica_sic_oracle,
    synchronous_rounds_oracle,
    user_codes,
)


def config_for(ns, codes, seed=0):
    return SystemConfig(ns=ns, groups=[(UserCode(*c), 1) for c in codes], seed=seed)


class TestDecodeFrame:
    def test_single_user_decodes_immediately(self):
        config = config_for(8, [(3, 2)])
        trace = decode_frame(config, place_frame(config, 0))
        assert trace.decoded_users == frozenset({0})
        assert len(trace.rounds) == 1
        record = trace.rounds[0]
        assert record.newly_decoded == frozenset({0})
        assert record.p_empirical == 0.0
        assert record.q_empirical == 0.0
        assert trace.final_p == 0.0

    def test_symmetric_stopping_set(self):
        # two users sharing both slots: no clean slot ever appears
        config = config_for(2, [(2, 1), (2, 1)])
        placement = make_placement(2, [[0, 1], [0, 1]])
        trace = decode_frame(config, placement)
        assert trace.decoded_users == frozenset()
        assert trace.rounds == ()
        assert trace.final_p == 1.0

    def test_cancellation_chain_unlocks_blocked_users(self):
        # only user 0 starts with 2 clean slots; its subtraction hands the
        # second clean slot to both others. A strict one-user-per-round chain
        # is impossible for three (4,2) users, see test below.
        config = config_for(8, [(4, 2), (4, 2), (4, 2)])
        placement = make_placement(8, [[0, 1, 2, 3], [2, 4, 5, 6], [3, 5, 6, 7]])
        trace = decode_frame(config, placement)
        assert [set(r.newly_decoded) for r in trace.rounds] == [{0}, {1, 2}]
        assert trace.final_p == 0.0
        assert trace.rounds[0].p_empirical == pytest.approx(8 / 12)
        assert trace.rounds[1].p_empirical == pytest.approx(4 / 8)
        assert trace.rounds[1].q_empirical == 0.0

    def test_strict_three_round_chain_with_mixed_codes(self):
        config = config_for(7, [(4, 2), (4, 2), (2, 2)])
        placement = make_placement(7, [[0, 1, 2, 3], [2, 4, 5, 6], [5, 6]])
        trace = decode_frame(config, placement)
        assert [set(r.newly_decoded) for r in trace.rounds] == [{0}, {1}, {2}]
        assert trace.final_p == 0.0

    def test_no_singleton_chain_exists_for_three_4_2_users(self):
        # sanity companion to the chain test: with three (4,2) users the last
        # user would need three slots blocked by the middle one, which only
        # has two to spare after its own unlock slots
        rng = random.Random(4)
        config = config_for(10, [(4, 2)] * 3)
        for _ in range(5000):
            slots = [sorted(rng.sample(range(10), 4)) for _ in range(3)]
            trace = decode_frame(config, make_placement(10, slots))
            singles = [len(r.newly_decoded) for r in trace.rounds]
            assert not (len(singles) == 3 and singles == [1, 1, 1])

    def test_matches_rescan_oracle_on_random_instances(self):
        rng = random.Random(1234)
        for _ in range(10_000):
            config, slots = random_instance(rng)
            placement = make_placement(config.ns, slots)
            trace = decode_frame(config, placement)
            expected = peel_oracle(config.ns, user_codes(config), slots)
            assert set(trace.decoded_users) == expected

    def test_rounds_match_synchronous_oracle(self):
        rng = random.Random(2718)
        # both of _peel's round rules: all k = 1 and any k > 1
        seen = {"all k = 1": 0, "k > 1": 0, "n > ns/2": 0, "ns = 1": 0, "3+ rounds": 0}
        for index in range(10_000):
            sizes = {} if index % 2 else {"max_users": 8, "max_ns": 10, "max_n": 5}
            config, slots = random_instance(rng, **sizes)
            placement = make_placement(config.ns, slots)
            rounds, undecoded, final_p = synchronous_rounds_oracle(
                config.ns, user_codes(config), slots
            )
            mask, _, _, n_rounds = _peel(config, placement)
            assert n_rounds == len(rounds)
            assert set(np.flatnonzero(mask).tolist()) == undecoded
            trace = decode_frame(config, placement)
            assert trace.final_p == final_p
            assert [
                (set(r.newly_decoded), r.p_empirical, r.q_empirical)
                for r in trace.rounds
            ] == rounds
            seen["all k = 1"] += all(u.k == 1 for u in user_codes(config))
            seen["k > 1"] += any(u.k > 1 for u in user_codes(config))
            seen["n > ns/2"] += any(2 * u.n > config.ns for u in user_codes(config))
            seen["ns = 1"] += config.ns == 1
            seen["3+ rounds"] += n_rounds >= 3
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize(
        "slots, rounds",
        [
            # users 1 and 2 decode in round 0, and each hands user 0 a fresh
            # slot in it, so round 0 names user 0 twice
            ([[0, 1], [0, 2], [1, 3]], [{1, 2}, {0}]),
            # every slot holds two bursts: no user ever has a clean one
            ([[0, 1], [0, 1], [2, 3], [2, 3]], []),
        ],
        ids=["duplicate-fresh-owner", "no-clean-burst"],
    )
    def test_replica_rounds_match_synchronous_oracle(self, slots, rounds):
        config = config_for(4, [(2, 1)] * len(slots))
        placement = make_placement(4, slots)
        oracle_rounds, oracle_undecoded, final_p = synchronous_rounds_oracle(
            4, user_codes(config), slots
        )
        assert [newly for newly, _, _ in oracle_rounds] == rounds
        undecoded, by_round, degree, n_rounds = _peel(config, placement)
        assert [set(np.flatnonzero(mask).tolist()) for mask in by_round] == rounds
        assert n_rounds == len(rounds)
        assert set(np.flatnonzero(undecoded).tolist()) == oracle_undecoded
        assert degree.sum() == 2 * len(oracle_undecoded)
        trace = decode_frame(config, placement)
        assert [
            (set(r.newly_decoded), r.p_empirical, r.q_empirical) for r in trace.rounds
        ] == oracle_rounds
        assert trace.final_p == final_p

    def test_matches_rescan_oracle_exhaustively(self):
        from itertools import combinations, product

        cases = [
            (3, [(2, 1), (2, 2)]),
            (4, [(2, 1), (3, 2)]),
            (3, [(1, 1), (2, 1), (2, 2)]),
        ]
        for ns, codes in cases:
            config = config_for(ns, codes)
            pools = [list(combinations(range(ns), n)) for n, _ in codes]
            for choice in product(*pools):
                slots = [list(c) for c in choice]
                trace = decode_frame(config, make_placement(ns, slots))
                expected = peel_oracle(ns, user_codes(config), slots)
                assert set(trace.decoded_users) == expected

    def test_order_invariance_smoke(self):
        rng = random.Random(99)
        for _ in range(200):
            config, slots = random_instance(rng)
            trace = decode_frame(config, make_placement(config.ns, slots))
            for perm in range(20):
                oracle = peel_oracle(
                    config.ns, user_codes(config), slots, rng=random.Random(perm)
                )
                assert set(trace.decoded_users) == oracle

    def test_unit_threshold_matches_replica_sic(self):
        # with k=1 everywhere the scheme is replica-based cancellation
        rng = random.Random(7)
        for _ in range(2000):
            config, slots = random_instance(rng)
            groups = [(UserCode(code.n, 1), count) for code, count in config.groups]
            config = SystemConfig(ns=config.ns, groups=groups, seed=0)
            trace = decode_frame(config, make_placement(config.ns, slots))
            assert set(trace.decoded_users) == replica_sic_oracle(config.ns, slots)

    def test_monotone_statistics_and_termination(self):
        rng = random.Random(31)
        for _ in range(500):
            config, slots = random_instance(rng, max_users=6, max_ns=8, max_n=4)
            trace = decode_frame(config, make_placement(config.ns, slots))
            assert len(trace.rounds) <= config.n_users
            # p_empirical need not be monotone: decoding collision-free users
            # shrinks its denominator while collided bursts stay put
            q_values = [r.q_empirical for r in trace.rounds]
            assert all(b <= a + 1e-12 for a, b in zip(q_values, q_values[1:]))
            seen = set()
            for r in trace.rounds:
                assert r.newly_decoded
                assert not (r.newly_decoded & seen)
                seen |= r.newly_decoded
            assert seen == set(trace.decoded_users)
            assert (trace.final_p > 0) == (len(seen) < config.n_users)

    def test_subtraction_conserves_burst_counts(self):
        rng = random.Random(55)
        for _ in range(500):
            config, slots = random_instance(rng, max_users=5, max_ns=8, max_n=4)
            placement = make_placement(config.ns, slots)
            trace = decode_frame(config, placement)
            users = user_codes(config)
            removed = sum(users[i].n for i in trace.decoded_users)
            # residual degree mass is the bursts of undecoded users
            assert int(placement.degree_of_slot.sum()) - removed == sum(
                users[i].n
                for i in range(config.n_users)
                if i not in trace.decoded_users
            )

    def test_rejects_slots_outside_the_frame(self):
        config = config_for(10, [(3, 1)] * 3)
        slots = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        for bad in (12, -1):
            with pytest.raises(ValueError, match=r"\[0, 10\)"):
                decode_frame(config, make_placement(10, slots[:2] + [[6, 7, bad]]))
        # the slot degrees are derived, so they cannot disagree with the slots
        flat = np.concatenate(slots)
        with pytest.raises(TypeError):
            FramePlacement(10, flat, degree_of_slot=np.full(10, 2))
        assert FramePlacement(10, flat).degree_of_slot.tolist() == [1] * 9 + [0]

    def test_rejects_a_user_repeating_a_slot(self):
        config = config_for(10, [(3, 2)])
        with pytest.raises(ValueError, match="distinct slots"):
            decode_frame(config, make_placement(10, [[3, 3, 5]]))
        # only repetition is a fault: distinct slots in any order decode
        unsorted = FramePlacement(10, np.array([5, 4, 3]))
        assert decode_frame(config, unsorted).decoded_users == {0}

    def test_rejects_mismatched_placement(self):
        config = config_for(4, [(2, 1)])
        placement = make_placement(5, [[0, 1]])
        with pytest.raises(ValueError, match="does not match"):
            decode_frame(config, placement)


@st.composite
def small_mixtures(draw):
    """Up to 3 code groups of up to 3 users each on a frame of up to 10 slots;
    a code may repeat after another."""
    ns = draw(st.integers(1, 10))
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, ns))
        groups.append((UserCode(n, draw(st.integers(1, n))), draw(st.integers(1, 3))))
    return SystemConfig(ns=ns, groups=groups, seed=draw(st.integers(0, 2**32)))


class TestFramesSideBySide:
    @given(small_mixtures(), st.integers(0, 50), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    # each of _peel's round rules, whatever share of mixtures draws it:
    # all (n,1) users with two burst counts, and mixed k
    @example(
        SystemConfig(ns=10, groups=[(UserCode(3, 1), 3), (UserCode(2, 1), 3)], seed=4), 0, 5
    )
    @example(
        SystemConfig(ns=10, groups=[(UserCode(4, 2), 2), (UserCode(2, 1), 3)], seed=4), 0, 5
    )
    def test_peel_as_each_frame_alone(self, config, start, frames):
        # frames laid side by side share no slot, so one peel of the wide
        # frame is each frame's own peel, round by round
        nu = config.n_users
        placements = [place_frame(config, start + j) for j in range(frames)]
        by_round, _ = _rounds(config, placements)
        # a user is undecoded when no round's mask decodes it
        undecoded = ~np.logical_or.reduce([np.zeros(frames * nu, dtype=bool), *by_round])
        counts = frame_counts(config, start, start + frames)
        for j, placement in enumerate(placements):
            alone, alone_by_round, _, alone_rounds = _peel(config, placement)
            own = slice(j * nu, (j + 1) * nu)
            assert np.array_equal(undecoded[own], alone)
            masks = [mask[own] for mask in by_round]
            assert sum(mask.any() for mask in masks) == alone_rounds
            assert all(map(np.array_equal, masks, alone_by_round))
            assert not any(mask.any() for mask in masks[alone_rounds:])
            lost = config.thresholds[undecoded[own]].sum()
            assert counts[:, j].tolist() == [alone_rounds, np.count_nonzero(undecoded[own]), lost]
        assert len(by_round) == max(counts[0])


# an all-(n,1) config and a mixed-k one: each of _peel's round rules
@pytest.mark.parametrize(
    "groups",
    [[(UserCode(3, 1), 30), (UserCode(2, 1), 10)], [(UserCode(4, 2), 8), (UserCode(2, 1), 12)]],
)
class TestPlacementUntouched:
    def test_peel(self, groups):
        config = SystemConfig(ns=60, groups=groups, seed=7)
        for j in range(20):
            placement = place_frame(config, j)
            slots, degree = placement.slot_of_burst.copy(), placement.degree_of_slot.copy()
            _peel(config, placement)
            assert np.array_equal(placement.slot_of_burst, slots)
            assert np.array_equal(placement.degree_of_slot, degree)

    def test_frame_counts(self, groups, monkeypatch):
        config = SystemConfig(ns=60, groups=groups, seed=7)
        placed = []

        def place_and_snapshot(config, frame_index):
            placement = place_frame(config, frame_index)
            placed.append((placement, placement.slot_of_burst.copy(), placement.degree_of_slot.copy()))
            return placement

        monkeypatch.setattr(decoder, "place_frame", place_and_snapshot)
        frame_counts(config, 0, 20)
        assert len(placed) == 20
        for placement, slots, degree in placed:
            assert np.array_equal(placement.slot_of_burst, slots)
            assert np.array_equal(placement.degree_of_slot, degree)


def empirical_p0(config, placement):
    """A fresh placement's collided fraction, as ``decode_frame`` reports it:
    its first round's ``p_empirical``, or ``final_p`` if no round decodes."""
    trace = decode_frame(config, placement)
    return trace.rounds[0].p_empirical if trace.rounds else trace.final_p


class TestEmpiricalP0:
    def test_forced_placement_fully_collided(self):
        placement = make_placement(2, [[0, 1], [0, 1]])
        assert empirical_p0(config_for(2, [(2, 1)] * 2), placement) == 1.0

    def test_single_user_collision_free(self):
        placement = make_placement(6, [[0, 2, 4]])
        assert empirical_p0(config_for(6, [(3, 1)]), placement) == 0.0

    def test_enumeration_average_two_singleton_users(self):
        # placements (0,0) and (1,1) give p0=1, the rest 0, so the mean is 1/2
        config = config_for(2, [(1, 1)] * 2)
        values = [
            empirical_p0(config, make_placement(2, [[a], [b]]))
            for a in range(2)
            for b in range(2)
        ]
        assert sum(values) / 4 == pytest.approx(0.5, abs=1e-15)

    def test_first_round_record_matches(self):
        config = config_for(12, [(3, 1)] * 6, seed=8)
        placement = place_frame(config, 4)
        trace = decode_frame(config, placement)
        reference = collided_share(placement.slot_of_burst.tolist())
        if trace.rounds:
            assert trace.rounds[0].p_empirical == reference
        else:
            assert trace.final_p == reference
