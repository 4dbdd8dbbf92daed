"""Acceptance suite: pinned end-to-end checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The Monte Carlo checks
use 2000 frames per load point (the analytic-agreement check uses 100k
frames of a small system); the whole suite completes in a few minutes.
"""
import math
import os
import random

import numpy as np
import pytest

from csasim import (
    SystemConfig,
    UserCode,
    aloha_baseline,
    de_iterate,
    decode_frame,
    decode_probability,
    empirical_round_curves,
    place_frame,
    run_trials,
    sweep_load,
    users_for_load,
)
from helpers import (
    binomial_tail_by_enumeration,
    make_placement,
    peel_oracle,
    random_instance,
    set_usable_cpus,
    user_codes,
)

G_GRID = [round(0.05 * i, 2) for i in range(1, 21)]
FRAMES = 2000
SEED = 7
# output bytes do not depend on the worker count, so the Monte Carlo checks
# use every usable CPU
WORKERS = len(os.sched_getaffinity(0))


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def sweep(n, k):
    config = SystemConfig(ns=400, groups=((UserCode(n, k), 1),), seed=SEED)
    return sweep_load(config, G_GRID, FRAMES, WORKERS)


@pytest.fixture(scope="module")
def sweep_3_1():
    return sweep(3, 1)


@pytest.fixture(scope="module")
def sweep_4_2():
    return sweep(4, 2)


@pytest.fixture(scope="module")
def sweep_5_2():
    return sweep(5, 2)


def test_ac1_throughput_peak(sweep_3_1):
    peak = sweep_3_1.peak
    t_ok = abs(peak.t_mean - 0.7433) <= 0.02
    g_ok = abs(peak.g - 0.755) <= 0.05
    report(
        "AC-1",
        t_ok and g_ok,
        f"(3,1) Ns=400 peak T={peak.t_mean:.4f} (target 0.7433+-0.02) "
        f"at G={peak.g:.4f} (target 0.755+-0.05)",
    )


def test_ac2_code_ordering(sweep_3_1, sweep_4_2, sweep_5_2):
    peak_3_1, peak_4_2, peak_5_2 = sweep_3_1.peak, sweep_4_2.peak, sweep_5_2.peak
    margin_4_2 = peak_3_1.t_mean - peak_4_2.t_mean - (peak_3_1.t_ci95 + peak_4_2.t_ci95)
    margin_5_2 = peak_3_1.t_mean - peak_5_2.t_mean - (peak_3_1.t_ci95 + peak_5_2.t_ci95)
    report(
        "AC-2",
        margin_4_2 > 0 and margin_5_2 > 0,
        f"peaks at Ns=400: (3,1)={peak_3_1.t_mean:.4f} > "
        f"(5,2)={peak_5_2.t_mean:.4f} > (4,2)={peak_4_2.t_mean:.4f}, "
        f"CI-adjusted margins {margin_4_2:.4f} / {margin_5_2:.4f}",
    )


def test_ac3_operating_point_and_frame_size():
    def point(ns):
        groups = users_for_load(SystemConfig(ns=ns, groups=((UserCode(4, 2), 1),)), 0.63)
        config = SystemConfig(ns=ns, groups=groups, seed=SEED)
        return run_trials(config, FRAMES, WORKERS)

    large = point(700)
    small = point(100)
    t_ok = large.t_mean >= 0.59
    plr_ok = large.plr_mean <= 0.04
    mono_ok = large.plr_mean - small.plr_mean <= 2 * (large.plr_ci95 + small.plr_ci95)
    report(
        "AC-3",
        t_ok and plr_ok and mono_ok,
        f"(4,2) G=0.63: Ns=700 T={large.t_mean:.4f} (>=0.59, reference 0.6155), "
        f"PLR={large.plr_mean:.4f} (<=0.04, reference 0.0264); "
        f"Ns=100 PLR={small.plr_mean:.4f} >= Ns=700 PLR within 2 CIs",
    )


def test_ac4_analytic_recursion_agreement():
    config = SystemConfig(ns=100, groups=((UserCode(5, 2), 10),), seed=SEED)
    trace = de_iterate(config)
    rounds = len(trace.states)
    p_mc, q_mc = empirical_round_curves(config, frames=100_000, num_rounds=rounds)
    p_de = np.array([s.p for s in trace.states])
    q_de = np.array([s.q for s in trace.states])
    print("  l   P_pred   P_sim    Q_pred   Q_sim")
    for l in range(rounds):
        print(
            f"  {l}   {p_de[l]:.4f}   {p_mc[l]:.4f}   {q_de[l]:.4f}   {q_mc[l]:.4f}"
        )
    gap_p = float(np.max(np.abs(p_de - p_mc)))
    gap_q = float(np.max(np.abs(q_de - q_mc)))
    report(
        "AC-4",
        gap_p <= 0.05 and gap_q <= 0.05,
        f"10x(5,2) Ns=100 over 100k frames: max|dP|={gap_p:.4f}, "
        f"max|dQ|={gap_q:.4f} (tight target 0.05, hard bound 0.10)",
    )


def test_ac5_slotted_aloha_baseline():
    groups = users_for_load(SystemConfig(ns=1000, groups=((UserCode(1, 1), 1),)), 1.0)
    config = SystemConfig(ns=1000, groups=groups, seed=SEED)
    agg = run_trials(config, FRAMES, WORKERS)
    exact = 1.0 * (1 - 1 / 1000) ** (config.n_users - 1)
    mc_ok = abs(agg.t_mean - exact) <= 3 * agg.t_ci95

    grid = [round(0.05 * i, 2) for i in range(1, 31)]
    curve = [(g, aloha_baseline(g, "slotted")) for g in grid]
    peak_g, peak_t = max(curve, key=lambda x: x[1])
    curve_ok = peak_g == 1.0 and abs(peak_t - 0.3679) <= 1e-4
    report(
        "AC-5",
        mc_ok and curve_ok,
        f"(1,1) Ns=1000 G=1: T={agg.t_mean:.4f} vs exact {exact:.4f} "
        f"(|diff|<=3 CI={3 * agg.t_ci95:.4f}); slotted curve peaks at "
        f"{peak_t:.4f} at G={peak_g}",
    )


def test_ac6_property_suite(monkeypatch):
    checks = []

    # peeling-fixpoint order invariance, >=1000 instances x >=100 orders
    rng = random.Random(606)
    invariant = True
    for _ in range(1000):
        config, slots = random_instance(rng)
        decoded = set(decode_frame(config, make_placement(config.ns, slots)).decoded_users)
        for perm in range(100):
            if peel_oracle(config.ns, user_codes(config), slots, rng=random.Random(perm)) != decoded:
                invariant = False
                break
        if not invariant:
            break
    checks.append(("order invariance 1000x100", invariant))

    # brute-force oracle equivalence: exhaustive small configs + 10^4 random
    from itertools import combinations, product

    equal = True
    for ns, codes in [(3, [(2, 1), (2, 2)]), (4, [(2, 1), (3, 2)]), (4, [(1, 1), (2, 2), (2, 1)])]:
        config = SystemConfig(ns=ns, groups=[(UserCode(*c), 1) for c in codes])
        pools = [list(combinations(range(ns), c[0])) for c in codes]
        for choice in product(*pools):
            slots = [list(c) for c in choice]
            got = set(decode_frame(config, make_placement(ns, slots)).decoded_users)
            if got != peel_oracle(ns, user_codes(config), slots):
                equal = False
    rng = random.Random(607)
    for _ in range(10_000):
        config, slots = random_instance(rng)
        got = set(decode_frame(config, make_placement(config.ns, slots)).decoded_users)
        if got != peel_oracle(config.ns, user_codes(config), slots):
            equal = False
            break
    checks.append(("brute-force oracle equivalence", equal))

    # burst conservation on generated placements
    rng = random.Random(608)
    conserved = True
    for _ in range(2000):
        ns = rng.randint(1, 20)
        users = []
        for _ in range(rng.randint(1, 8)):
            n = rng.randint(1, ns)
            users.append(UserCode(n, rng.randint(1, n)))
        config = SystemConfig(ns=ns, groups=[(u, 1) for u in users], seed=rng.randrange(2**32))
        placement = place_frame(config, rng.randrange(1000))
        if int(placement.degree_of_slot.sum()) != config.total_bursts:
            conserved = False
            break
    checks.append(("burst conservation", conserved))

    # analytic recursion keeps every probability in [0,1] on 10^4 configs
    # (de_iterate itself raises if any pre-clamp value strays beyond 1e-9)
    rng = random.Random(609)
    in_range = True
    for _ in range(10_000):
        nu = rng.randint(1, 12)
        ns = rng.randint(1, 25)
        users = []
        for _ in range(nu):
            n = rng.randint(1, ns)
            users.append(UserCode(n, rng.randint(1, n)))
        trace = de_iterate(SystemConfig(ns=ns, groups=[(u, 1) for u in users]))
        for state in trace.states:
            if not (0 <= state.p <= 1 and 0 <= state.q <= 1 and 0 <= state.beta <= 1):
                in_range = False
        if len(trace.states) > nu:
            in_range = False
    checks.append(("analytic probabilities in [0,1]", in_range))

    # decode probability vs exhaustive pattern enumeration, n <= 10
    exact = True
    for n in range(1, 11):
        for k in range(1, n + 1):
            for p in (0.0, 0.2, 0.5, 0.9, 1.0):
                want = binomial_tail_by_enumeration(n, k, p)
                if abs(decode_probability(UserCode(n, k), p) - want) > 1e-12:
                    exact = False
    checks.append(("decode probability exact to 1e-12", exact))

    # bitwise reproducibility across worker counts, split 4 ways on any host
    set_usable_cpus(monkeypatch, 4)
    config = SystemConfig(ns=60, groups=((UserCode(3, 1), 20),), seed=SEED)
    serial = run_trials(config, 400, workers=1)
    repro = serial == run_trials(config, 400, workers=2) == run_trials(config, 400, workers=4)
    checks.append(("bitwise reproducibility across workers", repro))

    detail = "; ".join(f"{name}: {'ok' if ok else 'FAILED'}" for name, ok in checks)
    report("AC-6", all(ok for _, ok in checks), detail)
