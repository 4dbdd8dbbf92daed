"""Slotted-frame system model: user codes, random burst placement, slot occupancy.

A frame is a block of ``ns`` time slots. Each user cuts its payload into ``n``
bursts and transmits them on ``n`` distinct, uniformly chosen slots of the
frame. A slot holding two or more bursts is a collision and every burst in it
is lost; a user is recoverable once at least ``k`` of its bursts sit alone in
their slots (possibly after interference cancellation, see ``decoder``).

Only the members that place frames use NumPy (``place_frame``,
``FramePlacement`` and the placement arrays of ``SystemConfig``), and each
imports it where it runs, so parsing a config or computing the expected
slot-degree law loads no NumPy.
"""
from __future__ import annotations

import math
import operator
import sys
from collections import Counter, namedtuple
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterable

    import numpy as np

_MAX_SEED = 2**64


class InternalError(RuntimeError):
    """A package invariant failed: a bug in csasim, not a bad input."""


class UserCode(namedtuple("UserCode", "n k")):
    """Access-code parameters of one user.

    ``n`` is the number of bursts sent per frame, ``k`` the number of clean
    (collision-free) bursts needed to recover the whole payload.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int) -> UserCode:
        if n < 1:
            raise ValueError(f"burst count n must be >= 1, got {n}")
        if n > sys.maxsize:  # no frame can hold it, nor can de's factorial table
            raise ValueError(f"burst count n must be <= {sys.maxsize}, got {n}")
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got (n={n}, k={k})")
        return super().__new__(cls, n, k)

    @classmethod
    def _make(cls, iterable) -> UserCode:
        # ``_replace`` builds through ``_make``, so it is checked too
        return cls(*iterable)


class SystemConfig(namedtuple("SystemConfig", "ns groups seed")):
    """One experiment setup: frame size, user population, and RNG seed.

    ``groups`` holds ``(UserCode, count)`` pairs in user order, each pair's
    users after those of the pairs before it, and pairs of one code apart.
    The fields alone make a config's identity (equality, hash, repr, pickled
    state); what is derived from them is cached on first read, and no
    attribute can be assigned or deleted.
    """

    def __new__(cls, ns: int, groups: Iterable[tuple[UserCode, int]], seed: int = 0) -> SystemConfig:
        if ns < 1:
            raise ValueError(f"frame size ns must be >= 1, got {ns}")
        if ns > sys.maxsize:  # no frame of that many slots can be placed
            raise ValueError(f"frame size ns must be <= {sys.maxsize}, got {ns}")
        self = super().__new__(cls, ns, tuple((code, count) for code, count in groups), seed)
        if not self.groups:
            raise ValueError("user list is empty")
        for code, count in self.groups:
            if count < 1:
                raise ValueError(f"user group count must be >= 1, got {count}")
            if code.n > ns:
                raise ValueError(f"burst count n={code.n} exceeds frame size ns={ns}")
        # user indices, like any index of a sequence or an array, stay below sys.maxsize
        if self.n_users >= sys.maxsize:
            raise ValueError(
                f"user group count must be <= {sys.maxsize - 1} in total, got {self.n_users}"
            )
        if not 0 <= seed < _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        return self

    @classmethod
    def _make(cls, iterable) -> SystemConfig:
        # ``_replace`` builds through ``_make``, so it is checked too
        return cls(*iterable)

    def __getstate__(self) -> None:
        # the fields pickle as the constructor's arguments; what is cached is
        # derived again where it is read, the arrays read-only
        return None

    # ``cached_property`` writes the instance ``__dict__`` directly
    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"SystemConfig attribute {name!r} is read-only")

    __delattr__ = __setattr__

    @cached_property
    def n_users(self) -> int:
        return sum(count for _, count in self.groups)

    @cached_property
    def total_bursts(self) -> int:
        """Bursts transmitted per frame, summed over users."""
        return sum(code.n * count for code, count in self.groups)

    @cached_property
    def total_payload(self) -> int:
        """Decoded-payload bursts per frame when every user is recovered."""
        return sum(code.k * count for code, count in self.groups)

    @cached_property
    def code_groups(self) -> tuple[tuple[UserCode, int], ...]:
        """Distinct user codes with their user counts, in first-occurrence order."""
        users_with_code: Counter[UserCode] = Counter()
        for code, count in self.groups:
            users_with_code[code] += count
        return tuple(users_with_code.items())

    def _per_user(self, field: str) -> np.ndarray:
        """A code field (``"n"`` or ``"k"``) of each user, in user order."""
        import numpy as np

        values = np.array([getattr(code, field) for code, _ in self.groups], dtype=np.int64)
        return self._repeat(values, [count for _, count in self.groups])

    def _repeat(self, values: np.ndarray, counts: Iterable[int]) -> np.ndarray:
        """``values.repeat(counts)``; an array too large to allocate raises ``MemoryError``."""
        try:
            return values.repeat(counts)
        except (MemoryError, ValueError):  # ValueError: more bytes than an index can address
            raise MemoryError(f"cannot hold the placement arrays of {self.n_users} users") from None

    @cached_property
    def thresholds(self) -> np.ndarray:
        """Clean bursts k_i each user needs, in user order (read-only)."""
        return _read_only(self._per_user("k"))

    @cached_property
    def user_of_burst(self) -> np.ndarray:
        """Owner of each position of ``FramePlacement.slot_of_burst`` (read-only)."""
        import numpy as np

        bursts_of_user = self._per_user("n")  # first: if it fits, so do n_users indices
        return _read_only(self._repeat(np.arange(self.n_users), bursts_of_user))

    @cached_property
    def placement_groups(self) -> tuple[np.ndarray, ...]:
        """Burst positions of the users sharing each distinct n, one row per user.

        Groups are in ascending n, the order in which ``place_frame`` draws
        them, and each group is read-only with shape (users with n, n).
        """
        import numpy as np

        n_of_burst = self._per_user("n")[self.user_of_burst]
        return tuple(
            _read_only(np.flatnonzero(n_of_burst == n).reshape(-1, n))
            for n in sorted({code.n for code, _ in self.groups})
        )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class FramePlacement(namedtuple("FramePlacement", "ns slot_of_burst degree_of_slot")):
    """Assignment of every burst of one frame to a slot.

    ``slot_of_burst`` lists the slots of all bursts, user after user in config
    order: user ``i``'s n_i bursts follow the n_0 + ... + n_(i-1) bursts of the
    users before it, in distinct slots sorted ascending, so a placement of a
    config holds ``slot_of_burst.size == config.total_bursts`` bursts.
    ``degree_of_slot[s]`` counts the bursts in slot ``s``, derived on
    construction. Nothing in this package mutates the arrays after
    construction, and placements compare by identity.
    """

    __slots__ = ()

    def __new__(cls, ns: int, slot_of_burst: np.ndarray) -> FramePlacement:
        import numpy as np

        try:
            degree = np.bincount(slot_of_burst, minlength=ns)
        except ValueError:  # a negative slot
            degree = None
        if degree is None or degree.size > ns:  # or a slot at or above ns
            raise ValueError(f"slots must lie in [0, {ns})")
        return super().__new__(cls, ns, slot_of_burst, degree)

    @classmethod
    def _make(cls, iterable) -> FramePlacement:
        # ``_replace`` builds through ``_make``: the degree is derived again
        ns, slot_of_burst, _ = iterable
        return cls(ns, slot_of_burst)

    def __getnewargs__(self) -> tuple[int, np.ndarray]:
        return self.ns, self.slot_of_burst

    # a tuple's comparison would compare arrays, which have no single truth value
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


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
    import numpy as np

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


# a binomial law keeps the entries whose log-ratio to its mode is at least
# -44: e^-44 ~ 7.8e-20 of the mode, below the rounding of the entries that
# hold the mass
_LOG_CUTOFF = 44.0


def _binomial_window(count: int, p: float) -> tuple[int, list[float]]:
    """Binomial(count, p) law cut to the entries within e^-44 of its mode.

    Returns ``(lo, pmf)``, where ``pmf[j]`` is the probability of
    ``lo + j``. Log-probabilities relative to the mode are running sums of
    log(pmf[d] / pmf[d - 1]) = log((count - d + 1) / d) + log(p / (1 - p)),
    taken outward from the mode, so that the entries holding the mass carry
    little rounding, until they fall below -44; the law is log-concave, so
    no entry beyond is larger. They are then exponentiated and normalised:
    O(sqrt(count p (1 - p))) work. p = 1 is a point mass at ``count``.
    """
    if p == 1.0:
        return count, [1.0]
    log_odds = math.log(p) - math.log1p(-p)
    mode = min(int((count + 1) * p), count)

    def outward(steps: range, sign: float) -> list[float]:
        """Log-ratios to the mode, ``sign`` times the running sums of the
        steps of ``steps``, until one falls below the cut."""
        ratios: list[float] = []
        log_ratio = 0.0
        for d in steps:
            log_ratio += math.log((count - d + 1) / d) + log_odds
            if sign * log_ratio < -_LOG_CUTOFF:
                break
            ratios.append(sign * log_ratio)
        return ratios

    below = outward(range(mode, 0, -1), -1.0)  # degrees mode - 1, mode - 2, ...
    above = outward(range(mode + 1, count + 1), 1.0)  # degrees mode + 1, ...
    pmf = [math.exp(x) for x in [*reversed(below), 0.0, *above]]
    total = math.fsum(pmf)
    return mode - len(below), [x / total for x in pmf]


def _convolve(a: list[float], b: list[float]) -> list[float]:
    """Law of the sum of two independent variables with laws ``a`` and ``b``;
    each entry is the exactly rounded sum of its products."""
    b_reversed = b[::-1]
    out = []
    for d in range(len(a) + len(b) - 1):
        i = max(0, d - len(b) + 1)  # a[i], a[i + 1], ... meet b[d - i], b[d - i - 1], ...
        out.append(math.fsum(map(operator.mul, a[i : d + 1], b_reversed[len(b) - 1 - d + i :])))
    return out


def expected_initial_histogram(config: SystemConfig) -> tuple[int, list[float]]:
    """Exact expected slot-degree law under the placement model.

    Returns ``(lo, pmf)``: ``pmf[j]`` is the probability that a slot holds
    ``lo + j`` bursts, and every degree outside the window has probability 0.
    A slot's degree is Poisson-binomial, a sum of one independent
    Bernoulli(n_i / ns) indicator per user. The c users of one burst count n
    contribute a Binomial(c, n / ns) law, and these laws are convolved, each
    cut below about 1e-19 of its mode first, so the law costs time and
    memory in its standard deviation, not in c. The measured law of a
    placement is ``np.bincount(placement.degree_of_slot) / placement.ns``.
    """
    users_with_n: Counter[int] = Counter()
    for code, count in config.code_groups:
        users_with_n[code.n] += count
    lo, dist = 0, [1.0]
    for n, count in users_with_n.items():
        offset, pmf = _binomial_window(count, n / config.ns)
        dist = _convolve(dist, pmf)
        # the sum is log-concave too, and is cut as each law is
        floor = max(dist) * math.exp(-_LOG_CUTOFF)
        kept = [d for d, x in enumerate(dist) if x >= floor]
        lo += offset + kept[0]
        dist = dist[kept[0] : kept[-1] + 1]
    return lo, dist
