"""Slotted-frame system model: user codes, random burst placement, slot occupancy.

A frame is a block of ``ns`` time slots. Each user cuts its payload into ``n``
bursts and transmits them on ``n`` distinct, uniformly chosen slots of the
frame. A slot holding two or more bursts is a collision and every burst in it
is lost; a user is recoverable once at least ``k`` of its bursts sit alone in
their slots (possibly after interference cancellation, see ``decoder``).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_MAX_SEED = 2**64


class InternalError(RuntimeError):
    """A package invariant failed: a bug in csasim, not a bad input."""


@dataclass(frozen=True)
class UserCode:
    """Access-code parameters of one user.

    ``n`` is the number of bursts sent per frame, ``k`` the number of clean
    (collision-free) bursts needed to recover the whole payload.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"burst count n must be >= 1, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got (n={self.n}, k={self.k})")


@dataclass(frozen=True)
class SystemConfig:
    """One experiment setup: frame size, user population, and RNG seed."""

    ns: int
    users: tuple[UserCode, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "users", tuple(self.users))
        if self.ns < 1:
            raise ValueError(f"frame size ns must be >= 1, got {self.ns}")
        if not self.users:
            raise ValueError("user list is empty")
        for u in self.users:
            if u.n > self.ns:
                raise ValueError(
                    f"burst count n={u.n} exceeds frame size ns={self.ns}"
                )
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    def __getstate__(self) -> dict:
        # fields only: the cached arrays are rebuilt, read-only, where used
        return {"ns": self.ns, "users": self.users, "seed": self.seed}

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def total_bursts(self) -> int:
        """Bursts transmitted per frame, summed over users."""
        return sum(u.n for u in self.users)

    @property
    def total_payload(self) -> int:
        """Decoded-payload bursts per frame when every user is recovered."""
        return sum(u.k for u in self.users)

    @cached_property
    def code_groups(self) -> tuple[tuple[UserCode, int], ...]:
        """Distinct user codes with their user counts, in first-occurrence order."""
        return tuple(Counter(self.users).items())

    @cached_property
    def burst_counts(self) -> np.ndarray:
        """Bursts n_i of each user, in user order (read-only)."""
        return _read_only(np.array([u.n for u in self.users], dtype=np.int64))

    @cached_property
    def thresholds(self) -> np.ndarray:
        """Clean bursts k_i each user needs, in user order (read-only)."""
        return _read_only(np.array([u.k for u in self.users], dtype=np.int64))

    @cached_property
    def user_of_burst(self) -> np.ndarray:
        """Owner of each position of ``FramePlacement.slot_of_burst`` (read-only)."""
        return _read_only(np.repeat(np.arange(self.n_users), self.burst_counts))

    @cached_property
    def placement_groups(self) -> tuple[np.ndarray, ...]:
        """Burst positions of the users sharing each distinct n, one row per user.

        Groups are in ascending n, the order in which ``place_frame`` draws
        them, and each group is read-only with shape (users with n, n).
        """
        n_of_burst = self.burst_counts[self.user_of_burst]
        return tuple(
            _read_only(np.flatnonzero(n_of_burst == n).reshape(-1, n))
            for n in np.unique(self.burst_counts).tolist()
        )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class FramePlacement:
    """Assignment of every burst of one frame to a slot.

    ``slot_of_burst`` lists the slots of all bursts, user after user in config
    order: user ``i``'s n_i bursts follow the n_0 + ... + n_(i-1) bursts of the
    users before it, in distinct slots sorted ascending. ``degree_of_slot[s]``
    counts the bursts in slot ``s``, derived on construction. Nothing in this
    package mutates a placement after construction.
    """

    ns: int
    slot_of_burst: np.ndarray
    degree_of_slot: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            degree = np.bincount(self.slot_of_burst, minlength=self.ns)
        except ValueError:  # a negative slot
            degree = None
        if degree is None or degree.size > self.ns:  # or a slot at or above ns
            raise ValueError(f"slots must lie in [0, {self.ns})")
        object.__setattr__(self, "degree_of_slot", degree)

    @property
    def total_bursts(self) -> int:
        return int(self.slot_of_burst.size)


def frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    """Random stream for one frame, a pure function of (seed, frame_index).

    Streams for distinct frame indices are independent, so frames can be
    generated in any order or on any number of workers without changing the
    result.
    """
    if frame_index < 0:
        raise ValueError(f"frame_index must be >= 0, got {frame_index}")
    return np.random.default_rng([seed, frame_index])


def place_frame(config: SystemConfig, frame_index: int) -> FramePlacement:
    """Draw every user's burst slots for one frame.

    Each user independently occupies a uniformly random n-subset of the ns
    slots. Users with equal n are sampled in one batched draw; rows with a
    repeated slot are redrawn, which leaves the subset distribution uniform.
    """
    ns = config.ns
    rng = frame_rng(config.seed, frame_index)
    slot_of_burst = np.empty(config.user_of_burst.size, dtype=np.int64)
    for at in config.placement_groups:
        n = at.shape[1]
        if n > ns // 2:
            # dense occupancy: partial-shuffle draw beats rejection
            for row in at:
                slot_of_burst[row] = np.sort(rng.choice(ns, size=n, replace=False))
            continue
        rows = np.sort(rng.integers(0, ns, size=at.shape), axis=1)
        # only a row just redrawn can hold a repeat, so each pass tests those
        bad = np.flatnonzero((rows[:, 1:] == rows[:, :-1]).any(axis=1))
        while bad.size:
            drawn = np.sort(rng.integers(0, ns, size=(bad.size, n)), axis=1)
            rows[bad] = drawn
            bad = bad[(drawn[:, 1:] == drawn[:, :-1]).any(axis=1)]
        slot_of_burst[at] = rows
    return FramePlacement(ns=ns, slot_of_burst=slot_of_burst)


def expected_initial_histogram(config: SystemConfig) -> np.ndarray:
    """Exact expected slot-degree law under the placement model.

    Entry d of the returned float64 vector (length ``n_users + 1``) is the
    probability that a slot holds d bursts. A slot's degree is a sum of
    independent Bernoulli(n_i / ns) indicators, one per user, i.e.
    Poisson-binomial; the law is built by dynamic programming over users.
    The measured law of a placement is
    ``np.bincount(placement.degree_of_slot) / placement.ns``.
    """
    dist = np.zeros(config.n_users + 1)
    dist[0] = 1.0
    for u in config.users:
        pr = u.n / config.ns
        dist[1:] = dist[1:] * (1.0 - pr) + dist[:-1] * pr
        dist[0] *= 1.0 - pr
    return dist
