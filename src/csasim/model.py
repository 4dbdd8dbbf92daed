"""Slotted-frame system model: user codes, random burst placement, slot occupancy.

A frame is a block of ``ns`` time slots. Each user cuts its payload into ``n``
bursts and transmits them on ``n`` distinct, uniformly chosen slots of the
frame. A slot holding two or more bursts is a collision and every burst in it
is lost; a user is recoverable once at least ``k`` of its bursts sit alone in
their slots (possibly after interference cancellation, see ``decoder``).
"""
from __future__ import annotations

import math
import sys
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
        if self.n > sys.maxsize:  # no frame can hold it, nor can de's factorial table
            raise ValueError(f"burst count n must be <= {sys.maxsize}, got {self.n}")
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
        if self.ns > sys.maxsize:  # no frame of that many slots can be placed
            raise ValueError(f"frame size ns must be <= {sys.maxsize}, got {self.ns}")
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
    def thresholds(self) -> np.ndarray:
        """Clean bursts k_i each user needs, in user order (read-only)."""
        return _read_only(np.array([u.k for u in self.users], dtype=np.int64))

    @cached_property
    def user_of_burst(self) -> np.ndarray:
        """Owner of each position of ``FramePlacement.slot_of_burst`` (read-only)."""
        return _read_only(np.repeat(np.arange(self.n_users), [u.n for u in self.users]))

    @cached_property
    def placement_groups(self) -> tuple[np.ndarray, ...]:
        """Burst positions of the users sharing each distinct n, one row per user.

        Groups are in ascending n, the order in which ``place_frame`` draws
        them, and each group is read-only with shape (users with n, n).
        """
        burst_counts = np.array([u.n for u in self.users])
        n_of_burst = burst_counts[self.user_of_burst]
        return tuple(
            _read_only(np.flatnonzero(n_of_burst == n).reshape(-1, n))
            for n in np.unique(burst_counts).tolist()
        )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class FramePlacement:
    """Assignment of every burst of one frame to a slot.

    ``slot_of_burst`` lists the slots of all bursts, user after user in config
    order: user ``i``'s n_i bursts follow the n_0 + ... + n_(i-1) bursts of the
    users before it, in distinct slots sorted ascending, so a placement of a
    config holds ``slot_of_burst.size == config.total_bursts`` bursts.
    ``degree_of_slot[s]`` counts the bursts in slot ``s``, derived on
    construction. Nothing in this package mutates a placement after
    construction.
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


def place_frame(config: SystemConfig, frame_index: int) -> FramePlacement:
    """Draw every user's burst slots for one frame.

    Each user independently occupies a uniformly random n-subset of the ns
    slots. Users with equal n are sampled in one batched draw; rows with a
    repeated slot are redrawn, which leaves the subset distribution uniform.
    The random stream is a pure function of (config.seed, frame_index), and
    streams for distinct frame indices are independent, so frames can be
    placed in any order or on any number of workers without changing the
    result. A negative ``frame_index`` raises ``ValueError``.
    """
    if frame_index < 0:
        raise ValueError(f"frame_index must be >= 0, got {frame_index}")
    ns = config.ns
    rng = np.random.default_rng([config.seed, frame_index])
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


def _binomial_pmf(count: int, p: float) -> np.ndarray:
    """Binomial(count, p) law as a float64 vector of length ``count + 1``.

    Log-probabilities are cumulative sums of log(pmf[d] / pmf[d - 1]) =
    log((count - d + 1) / d) + log(p / (1 - p)), taken outward from the mode
    so that the entries holding the mass carry little rounding, then
    exponentiated and normalised: O(count) work. p = 1 is a point mass at
    ``count``.
    """
    if p == 1.0:
        pmf = np.zeros(count + 1)
        pmf[count] = 1.0
        return pmf
    d = np.arange(1, count + 1)
    step = np.log((count - d + 1) / d) + (math.log(p) - math.log1p(-p))
    mode = min(int((count + 1) * p), count)
    below = -np.cumsum(step[:mode][::-1])[::-1]
    pmf = np.exp(np.concatenate((below, [0.0], np.cumsum(step[mode:]))))
    return pmf / pmf.sum()


def expected_initial_histogram(config: SystemConfig) -> np.ndarray:
    """Exact expected slot-degree law under the placement model.

    Entry d of the returned float64 vector (length ``n_users + 1``) is the
    probability that a slot holds d bursts. A slot's degree is a sum of
    independent Bernoulli(n_i / ns) indicators, one per user, i.e.
    Poisson-binomial. Users of one burst count n share one probability, so
    the c users with that n contribute a Binomial(c, n / ns) law, and these
    laws are convolved. Each law's underflowed upper tail is dropped before
    the convolution, so a population whose mean slot degree is a few costs
    time linear in users. The measured law of a placement is
    ``np.bincount(placement.degree_of_slot) / placement.ns``.
    """
    users_with_n: Counter[int] = Counter()
    for code, count in config.code_groups:
        users_with_n[code.n] += count
    dist = np.ones(1)
    for n, count in users_with_n.items():
        pmf = _binomial_pmf(count, n / config.ns)
        dist = np.convolve(dist, np.trim_zeros(pmf, "b"))
    law = np.zeros(config.n_users + 1)
    law[: dist.size] = dist
    return law
