import math
import random
from itertools import accumulate, combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from csasim import (
    SystemConfig,
    UserCode,
    de_iterate,
    decode_probability,
    initial_erasure_probability,
    parse_config,
    run_trials,
)
from csasim import density
from csasim.density import _collided_mass
from helpers import (
    binomial_tail_by_enumeration,
    collided_mass_by_thinning,
    collided_share,
    exact_binomial_tail,
    homogeneous,
    padded_degree_law,
)


class TestDecodeProbability:
    def test_zero_erasure_always_decodes(self):
        assert decode_probability(UserCode(5, 3), 0.0) == 1.0

    def test_total_erasure_never_decodes(self):
        assert decode_probability(UserCode(5, 3), 1.0) == 0.0

    def test_two_of_one_half(self):
        # 4 equiprobable patterns, 3 leave at least one burst clean
        assert decode_probability(UserCode(2, 1), 0.5) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_exhaustive_enumeration_all_thresholds(self, n):
        for k in range(1, n + 1):
            for p in (0.0, 0.1, 0.3, 0.5, 0.77, 0.9, 1.0):
                expected = binomial_tail_by_enumeration(n, k, p)
                got = decode_probability(UserCode(n, k), p)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_complementary_binomial_cdf(self):
        for n, k, p in [(6, 2, 0.3), (10, 10, 0.8), (64, 30, 0.45)]:
            assert decode_probability(UserCode(n, k), p) == pytest.approx(
                float(binom.sf(k - 1, n, 1.0 - p)), rel=1e-10
            )

    @given(
        st.integers(1, 200).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    @example((200, 1), 0.5)
    @example((200, 100), 0.5)
    @example((200, 200), 1e-3)
    @example((199, 3), 0.98)
    @example((13, 7), 5e-324)
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_rational_tail(self, code, p):
        n, k = code
        want = exact_binomial_tail(n, k, p)
        assert decode_probability(UserCode(n, k), p) == pytest.approx(want, rel=0, abs=1e-12)

    @given(
        st.integers(1, 20),
        st.data(),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_non_increasing_in_p(self, n, data, p1, p2):
        k = data.draw(st.integers(1, n))
        lo, hi = min(p1, p2), max(p1, p2)
        code = UserCode(n, k)
        assert decode_probability(code, hi) <= decode_probability(code, lo) + 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            decode_probability(UserCode(2, 1), -0.1)
        with pytest.raises(ValueError):
            decode_probability(UserCode(2, 1), 1.1)


class TestInitialErasureProbability:
    def test_two_singleton_users(self):
        # degrees 0/1/2 with probability 1/4, 1/2, 1/4: half the bursts collide
        config = homogeneous(2, 1, 1, 2)
        assert initial_erasure_probability(config) == 0.5

    @pytest.mark.parametrize(
        "ns, codes", [(3, [(2, 1), (1, 1), (1, 1)]), (4, [(2, 1), (3, 2), (1, 1)])]
    )
    def test_is_mean_of_empirical_p0_over_all_placements(self, ns, codes):
        config = SystemConfig(ns=ns, groups=[(UserCode(*c), 1) for c in codes])
        pools = [list(combinations(range(ns), n)) for n, _ in codes]
        values = [
            collided_share([s for c in choice for s in c])
            for choice in product(*pools)
        ]
        mean = sum(values) / len(values)
        assert initial_erasure_probability(config) == pytest.approx(mean, abs=1e-12)

    @given(
        st.integers(1, 30).flatmap(
            lambda ns: st.tuples(
                st.just(ns), st.lists(st.integers(1, ns), min_size=1, max_size=12)
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_closed_form_collided_mass(self, frame):
        ns, lengths = frame
        config = SystemConfig(ns=ns, groups=[(UserCode(n, 1), 1) for n in lengths])
        want = _collided_mass(config, 1.0) * ns / config.total_bursts
        assert initial_erasure_probability(config) == pytest.approx(want, abs=1e-12)


class TestCollidedMass:
    """Closed-form collided mass against a dense thinned degree law."""

    @given(
        st.integers(1, 30).flatmap(
            lambda ns: st.tuples(
                st.just(ns),
                st.lists(
                    st.tuples(st.integers(1, ns), st.integers(1, 6)),
                    min_size=1,
                    max_size=4,
                ),
            )
        ),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    @example((5, [(5, 3)]), 1.0)  # every user fills the frame: q = 1
    @example((5, [(5, 1), (2, 2)]), 1.0)  # one full-frame user among others
    @example((5, [(5, 2), (3, 4)]), 0.0)
    @example((9, [(7, 3), (5, 2), (9, 1)]), 0.37)  # dense n > ns / 2
    @example((1, [(1, 1)]), 1.0)
    @settings(max_examples=300, deadline=None)
    def test_matches_thinned_poisson_binomial(self, frame, survival):
        ns, groups = frame
        config = SystemConfig(ns=ns, groups=[(UserCode(n, 1), count) for n, count in groups])
        want = collided_mass_by_thinning(config, survival)
        assert _collided_mass(config, survival) == pytest.approx(want, rel=0, abs=1e-12)

    def test_no_survivors_no_collisions(self):
        config = homogeneous(4, 4, 1, 3)
        assert _collided_mass(config, 0.0) == 0.0
        assert _collided_mass(config, 1.0) == 3.0


def fuzzed_mixtures(test):
    """Run ``test(self, frame)`` on fuzzed ``(ns, [((n, k), count), ...])`` mixtures."""
    test = settings(max_examples=300, deadline=None)(test)
    for frame in [
        (20, [((15, 4), 3), ((13, 13), 2)]),  # n >= 13 and n > ns / 2
        (40, [((13, 2), 8), ((3, 1), 8)]),  # n >= 13 below ns / 2
        (30, [((30, 1), 2), ((2, 1), 8), ((16, 9), 1)]),  # a code fills the frame
        (1, [((1, 1), 8)]),
    ]:
        test = example(frame)(test)
    return given(
        st.integers(1, 64).flatmap(
            lambda ns: st.tuples(
                st.just(ns),
                st.lists(
                    st.tuples(
                        st.integers(1, ns).flatmap(
                            lambda n: st.tuples(st.just(n), st.integers(1, n))
                        ),
                        st.integers(1, 8),
                    ),
                    min_size=1,
                    max_size=4,
                ),
            )
        )
    )(test)


class TestDeIterate:
    def test_single_user(self):
        trace = de_iterate(homogeneous(10, 4, 2, 1))
        assert len(trace.states) == 1
        state = trace.states[0]
        assert state.p == 0.0
        assert state.q == 0.0

    def test_forced_total_collision(self):
        trace = de_iterate(homogeneous(2, 2, 2, 2))
        assert trace.states[0].p == 1.0
        assert trace.states[-1].q == 1.0
        assert de_iterate(homogeneous(2, 2, 2, 2)).states[-1].q == 1.0

    def test_states_in_range_and_q_monotone(self):
        rng = random.Random(77)
        for _ in range(800):
            nu = rng.randint(1, 12)
            ns = rng.randint(1, 25)
            users = []
            for _ in range(nu):
                n = rng.randint(1, ns)
                users.append(UserCode(n, rng.randint(1, n)))
            trace = de_iterate(SystemConfig(ns=ns, groups=[(u, 1) for u in users]))
            assert 1 <= len(trace.states) <= nu
            qs = [s.q for s in trace.states]
            for state in trace.states:
                assert 0.0 <= state.p <= 1.0
                assert 0.0 <= state.q <= 1.0
                assert 0.0 <= state.beta <= 1.0
            assert all(b <= a + 1e-12 for a, b in zip(qs, qs[1:]))

    @fuzzed_mixtures
    def test_fuzzed_mixtures_in_range_and_q_monotone(self, frame):
        ns, groups = frame
        config = SystemConfig(ns=ns, groups=[(UserCode(n, k), count) for (n, k), count in groups])
        trace = de_iterate(config)
        assert 1 <= len(trace.states) <= config.n_users
        for state in trace.states:
            assert 0.0 <= state.p <= 1.0
            assert 0.0 <= state.q <= 1.0
            assert 0.0 <= state.beta <= 1.0
        qs = [s.q for s in trace.states]
        assert all(b <= a + 1e-12 for a, b in zip(qs, qs[1:]))

    @fuzzed_mixtures
    def test_q_is_population_average_non_decode_probability(self, frame):
        ns, groups = frame
        config = SystemConfig(ns=ns, groups=[(UserCode(n, k), count) for (n, k), count in groups])
        for state in de_iterate(config).states:
            decoded = sum(
                count * decode_probability(code, state.p)
                for code, count in config.code_groups
            )
            assert state.q == pytest.approx(1.0 - decoded / config.n_users, rel=0, abs=1e-12)

    def test_large_population_law_and_recursion(self):
        # 100,000 users: one binomial law, where a DP over users takes over a minute
        config = SystemConfig(ns=133_334, groups=((UserCode(3, 1), 100_000),))
        hist = padded_degree_law(config)  # checks the window inside degrees 0..100,000
        assert math.fsum(hist) == pytest.approx(1.0, rel=0, abs=1e-12)
        mean = math.fsum(d * h for d, h in enumerate(hist))
        assert mean == pytest.approx(config.total_bursts / config.ns, rel=0, abs=1e-9)
        trace = de_iterate(config)
        for state in trace.states:
            assert 0.0 <= state.p <= 1.0
            assert 0.0 <= state.q <= 1.0
            assert 0.0 <= state.beta <= 1.0
        qs = [s.q for s in trace.states]
        assert all(b <= a + 1e-12 for a, b in zip(qs, qs[1:]))

    def test_log_factorial_table_built_once_per_code_length(self, monkeypatch):
        built = []

        def counting_accumulate(values, *args, **kwargs):  # one call per table of n
            built.append(len(values))
            return accumulate(values, *args, **kwargs)

        monkeypatch.setattr(density, "accumulate", counting_accumulate)
        density._log_factorials.cache_clear()
        config = parse_config("ns=6000\nusers=2x(2667,1000) 1500x(3,1)\n")
        traces = [de_iterate(config) for _ in range(2)]
        assert [len(trace.states) for trace in traces] == [7, 7]
        assert sorted(built) == [3, 2667]

    def test_light_load_converges_heavy_load_does_not(self):
        light = de_iterate(homogeneous(100, 3, 1, 10))
        assert light.states[-1].q < density.EPSILON
        heavy = de_iterate(homogeneous(10, 3, 1, 30))
        assert heavy.states[-1].q > 0.5

    def test_predicted_plr_near_monte_carlo(self):
        # light version of the acceptance comparison
        config = homogeneous(100, 5, 2, 10, seed=3)
        predicted = de_iterate(config).states[-1].q
        simulated = run_trials(config, 20_000).plr_mean
        assert abs(predicted - simulated) <= 0.05

    def test_dense_frame_breaks_independence_assumption(self):
        # 80 bursts on 100 slots: the node-independence assumption fails and
        # the recursion visibly underestimates the per-round erasure curve
        from csasim import empirical_round_curves

        config = homogeneous(100, 4, 2, 20, seed=3)
        trace = de_iterate(config)
        p_mc, _ = empirical_round_curves(
            config, frames=10_000, num_rounds=len(trace.states)
        )
        p_de = np.array([s.p for s in trace.states])
        assert np.max(np.abs(p_de - p_mc)) > 0.05
