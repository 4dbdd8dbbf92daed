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
from fractions import Fraction

import numpy as np

from csasim import FramePlacement, SystemConfig, UserCode


def set_usable_cpus(monkeypatch, count: int) -> None:
    """Make the package see ``count`` usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def homogeneous(ns: int, n: int, k: int, count: int, seed: int = 0) -> SystemConfig:
    """``count`` users of one (n, k) code on ``ns`` slots."""
    return SystemConfig(ns=ns, users=(UserCode(n, k),) * count, seed=seed)


def make_placement(ns: int, slots: list[list[int]]) -> FramePlacement:
    """Hand-built placement from explicit per-user slot lists."""
    flat = np.concatenate([np.array(sorted(s), dtype=np.int64) for s in slots])
    return FramePlacement(ns=ns, slot_of_burst=flat)


def slots_by_user(config: SystemConfig, placement: FramePlacement) -> list[np.ndarray]:
    """Split a placement's flat burst array into one slot array per user."""
    return np.split(placement.slot_of_burst, np.cumsum([u.n for u in config.users])[:-1])


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


def collided_mass_by_thinning(
    ns: int, users: list[UserCode], survival: float
) -> float:
    """Collided bursts per slot after each burst survives w.p. ``survival``.

    Builds the slot-degree law by a Poisson-binomial DP over users, thins it
    with explicit binomial sums, and sums d * P(D = d) over d >= 2.
    """
    dist = [1.0]
    for user in users:
        pr = user.n / ns
        grown = [0.0] * (len(dist) + 1)
        for d, mass in enumerate(dist):
            grown[d] += mass * (1.0 - pr)
            grown[d + 1] += mass * pr
        dist = grown
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
    return SystemConfig(ns=ns, users=tuple(users), seed=0), slots


def all_subsets(ns: int, n: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(ns), n))
