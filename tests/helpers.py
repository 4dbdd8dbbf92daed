"""Shared test utilities: independent oracles and instance generators.

Everything here recomputes results from first principles (scans, full
enumeration, direct probability sums) so the package code under test never
checks itself.
"""
from __future__ import annotations

import itertools
import math
import os
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from csasim import FramePlacement, SystemConfig, UserCode, expected_initial_histogram


def set_usable_cpus(monkeypatch, count: int) -> None:
    """Make the package see ``count`` usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def homogeneous(ns: int, n: int, k: int, count: int, seed: int = 0) -> SystemConfig:
    """``count`` users of one (n, k) code on ``ns`` slots."""
    return SystemConfig(ns=ns, groups=((UserCode(n, k), count),), seed=seed)


def user_codes(config: SystemConfig) -> list[UserCode]:
    """Each user's code, in user order: a group's code once per user of it."""
    return [code for code, count in config.groups for _ in range(count)]


def make_placement(ns: int, slots: list[list[int]]) -> FramePlacement:
    """Hand-built placement from explicit per-user slot lists."""
    flat = np.concatenate([np.array(sorted(s), dtype=np.int64) for s in slots])
    return FramePlacement(ns=ns, slot_of_burst=flat)


def collided_share(slots: list[int]) -> float:
    """Share of the bursts, one slot each in ``slots``, whose slot holds another burst."""
    counts = Counter(slots)
    return sum(counts[s] >= 2 for s in slots) / len(slots) if slots else 0.0


def slots_by_user(config: SystemConfig, placement: FramePlacement) -> list[np.ndarray]:
    """Split a placement's flat burst array into one slot array per user."""
    return np.split(placement.slot_of_burst, np.cumsum([u.n for u in user_codes(config)])[:-1])


def peel_oracle(
    ns: int,
    users: list[UserCode],
    slots: list[list[int]],
    rng: random.Random | None = None,
) -> set[int]:
    """Naive peeling: rescan every user from scratch after each removal.

    With ``rng`` given, the scan order is shuffled before each pass, which
    exercises arbitrary one-user-at-a-time decoding orders.
    """
    degree = [0] * ns
    for user_slots in slots:
        for s in user_slots:
            degree[s] += 1
    undecoded = set(range(len(users)))
    while True:
        scan = sorted(undecoded)
        if rng is not None:
            rng.shuffle(scan)
        for i in scan:
            clean = sum(1 for s in slots[i] if degree[s] == 1)
            if clean >= users[i].k:
                for s in slots[i]:
                    degree[s] -= 1
                undecoded.remove(i)
                break
        else:
            return set(range(len(users))) - undecoded


def synchronous_rounds_oracle(
    ns: int, users: list[UserCode], slots: list[list[int]]
) -> tuple[list[tuple[set[int], float, float]], set[int], float]:
    """Synchronous peeling, rescanning every burst in every round.

    Each round removes at once every undecoded user with at least k clean
    bursts. Returns one (newly decoded, p over remaining bursts, q) tuple per
    productive round, the undecoded users, and the collided fraction of the
    remaining bursts at the fixpoint.
    """
    undecoded = set(range(len(users)))
    rounds = []
    while True:
        degree = [0] * ns
        for i in undecoded:
            for s in slots[i]:
                degree[s] += 1
        remaining = sum(len(slots[i]) for i in undecoded)
        collided = sum(1 for i in undecoded for s in slots[i] if degree[s] >= 2)
        p = collided / remaining if remaining else 0.0
        newly = {
            i
            for i in undecoded
            if sum(1 for s in slots[i] if degree[s] == 1) >= users[i].k
        }
        if not newly:
            return rounds, undecoded, p
        undecoded -= newly
        rounds.append((newly, p, len(undecoded) / len(users)))


def replica_sic_oracle(ns: int, slots: list[list[int]]) -> set[int]:
    """Replica-based interference cancellation (one-clean-burst decode rule).

    Works slot-first: any slot holding a single remaining burst reveals its
    user; all that user's replicas are then cancelled.
    """
    slot_users: list[set[int]] = [set() for _ in range(ns)]
    for i, user_slots in enumerate(slots):
        for s in user_slots:
            slot_users[s].add(i)
    decoded: set[int] = set()
    while True:
        target = next((s for s in range(ns) if len(slot_users[s]) == 1), None)
        if target is None:
            return decoded
        user = next(iter(slot_users[target]))
        decoded.add(user)
        for s in slots[user]:
            slot_users[s].discard(user)


def binomial_tail_by_enumeration(n: int, k: int, p: float) -> float:
    """P(at least k of n survive) by summing all 2^n erasure patterns."""
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=n):
        survivors = sum(pattern)
        if survivors >= k:
            total += (1.0 - p) ** survivors * p ** (n - survivors)
    return total


def exact_binomial_tail(n: int, k: int, p: float) -> float:
    """P(at least k of n survive erasure rate p), summed in exact rationals.

    With p = erased / scale, every term is an integer over scale ** n.
    """
    erased, scale = Fraction(p).as_integer_ratio()
    kept = scale - erased
    tail = sum(math.comb(n, i) * kept**i * erased ** (n - i) for i in range(k, n + 1))
    return float(Fraction(tail, scale**n))


def exact_degree_law(config: SystemConfig) -> list[Fraction]:
    """Exact expected slot-degree law, in rationals.

    Multiplies out the generating polynomial one user's Bernoulli(n / ns)
    factor at a time, so no grouping of users is assumed.
    """
    law = [Fraction(1)]
    for user in user_codes(config):
        pr = Fraction(user.n, config.ns)
        grown = [Fraction(0)] * (len(law) + 1)
        for d, mass in enumerate(law):
            grown[d] += mass * (1 - pr)
            grown[d + 1] += mass * pr
        law = grown
    return law


def padded_degree_law(config: SystemConfig) -> list[float]:
    """``expected_initial_histogram``'s law at every degree 0..n_users.

    Checks the window it returns, ``(lo, pmf)``: it lies inside degrees
    0..n_users and holds no zero entry, and the degrees outside it are
    padded with zeros.
    """
    lo, pmf = expected_initial_histogram(config)
    assert 0 <= lo and lo + len(pmf) <= config.n_users + 1
    assert all(x > 0 for x in pmf)
    return [0.0] * lo + pmf + [0.0] * (config.n_users + 1 - lo - len(pmf))


def collided_mass_by_thinning(config: SystemConfig, survival: float) -> float:
    """Collided bursts per slot after each burst survives w.p. ``survival``.

    Thins the exact slot-degree law with explicit binomial sums and sums
    d * P(D = d) over d >= 2.
    """
    dist = [float(mass) for mass in exact_degree_law(config)]
    thinned = [
        sum(
            dist[d] * math.comb(d, e) * survival**e * (1.0 - survival) ** (d - e)
            for d in range(e, len(dist))
        )
        for e in range(len(dist))
    ]
    return sum(e * mass for e, mass in enumerate(thinned) if e >= 2)


def random_instance(
    rng: random.Random,
    max_users: int = 4,
    max_ns: int = 6,
    max_n: int = 3,
) -> tuple[SystemConfig, list[list[int]]]:
    """Small random config plus an explicit random placement."""
    ns = rng.randint(1, max_ns)
    n_users = rng.randint(1, max_users)
    users = []
    slots = []
    for _ in range(n_users):
        n = rng.randint(1, min(max_n, ns))
        k = rng.randint(1, n)
        users.append(UserCode(n=n, k=k))
        slots.append(sorted(rng.sample(range(ns), n)))
    return SystemConfig(ns=ns, groups=[(u, 1) for u in users], seed=0), slots


def all_subsets(ns: int, n: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(ns), n))


def exact_frame_means(config: SystemConfig) -> tuple[Fraction, Fraction]:
    """Exact E[PLR] and E[T] of one frame, by peeling every placement.

    Each user's slot set is uniform over the n-subsets of the frame and
    independent of the others, so every placement is equally likely. T is
    the sum of k over decoded users, divided by ns.
    """
    users = user_codes(config)
    placements = undecoded = payload = 0
    for slots in itertools.product(*(all_subsets(config.ns, u.n) for u in users)):
        decoded = peel_oracle(config.ns, users, list(slots))
        placements += 1
        undecoded += len(users) - len(decoded)
        payload += sum(users[i].k for i in decoded)
    return Fraction(undecoded, placements * len(users)), Fraction(payload, placements * config.ns)


def exact_round_moments(config: SystemConfig, num_rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-round mean and standard deviation of the decoder's (p, q),
    by running synchronous peeling on every placement.

    Both are (2, num_rounds) arrays, p in row 0 and q in row 1: p is the
    collided share of the remaining bursts before a round and q the undecoded
    share of the users after it. A placement whose peeling stops before a
    round contributes its fixpoint values there.
    """
    users = user_codes(config)
    values = []
    for slots in itertools.product(*(all_subsets(config.ns, u.n) for u in users)):
        rounds, undecoded, final_p = synchronous_rounds_oracle(config.ns, users, list(slots))
        fixpoint = (final_p, len(undecoded) / len(users))
        curve = [(p, q) for _, p, q in rounds] + [fixpoint] * num_rounds
        values.append(curve[:num_rounds])
    per_round = np.array(values).transpose(2, 1, 0)  # (p or q, round, placement)
    return per_round.mean(axis=2), per_round.std(axis=2)
