"""Iterative interference-cancellation decoding: per-frame and per-block work.

The receiver peels the user/slot graph in synchronous rounds: every user that
currently has at least k clean bursts is decoded, all n of its bursts are
subtracted from their slots, and the round counter advances. Subtraction can
turn collided slots into clean ones, so decoding cascades until a fixpoint.
The fixpoint does not depend on processing order (peeling is confluent), so
synchronous rounds give the same decoded set as any one-user-at-a-time order.

Rounds are incremental, as in the linear-time peeling of Luby et al.
("Efficient erasure correcting codes", IEEE Trans. IT 2001): each slot keeps
its degree and the sum of the user indices still in it, so a slot of degree
1 names its owner. A round subtracts only the bursts of the users it decodes
and credits one clean burst to the owner of each slot whose degree just fell
to 1; no round rescans every burst of the frame. When every k is 1 (CRDSA's
replicas), a user decodes on its first clean burst, so the undecoded users
holding one after a round are exactly the owners of the slots whose degree
fell to 1 in it: a slot of degree 1 before the round named a user that the
round decoded. Such rounds take the next round's users from those slots and
keep no clean-burst counts, with the same masks.

Traces and round statistics peel frames side by side, as one frame: they
share no slot, and peeling acts on each connected component alone, so each
round of it is that round of every frame. Replaying the per-round masks, a
round's collided fraction is a frame's bursts left less its slots of degree
1, over those bursts, and at the fixpoint it is above 0 exactly when the
frame deadlocked. At these sizes a round costs what its number of NumPy calls
costs, so each of its steps is one C-level call. Monte Carlo counts
(``frame_counts``) still peel frame by frame, because the benchmark's tracer
counts ``_peel`` calls as frames (ROADMAP item 1).
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .model import FramePlacement, InternalError, SystemConfig, place_frame


class RoundRecord(namedtuple("RoundRecord", "newly_decoded p_empirical q_empirical")):
    """Statistics of one productive decoding round: ``newly_decoded``, the
    frozenset of the user indices it decodes, ``p_empirical``, the fraction
    of the not-yet-decoded users' bursts in collided slots before its
    subtractions, and ``q_empirical``, the fraction of users undecoded after."""

    __slots__ = ()


class DecodeTrace(namedtuple("DecodeTrace", "rounds final_p")):
    """Outcome of decoding one frame.

    ``rounds`` is a tuple of the ``RoundRecord``s of the productive rounds
    only, round l at index l; a round that decodes nobody is the fixpoint and
    is not recorded. ``final_p`` is the residual erasure fraction at the
    fixpoint, i.e. what ``p_empirical`` would read one round past the last
    recorded one. It is above 0 exactly when a user stays undecoded (a
    deadlock): such a user has fewer than k clean bursts, so it keeps at
    least n - k + 1 of them in collided slots.
    """

    __slots__ = ()

    @property
    def decoded_users(self) -> frozenset[int]:
        return frozenset().union(*(r.newly_decoded for r in self.rounds))


def _peel(
    config: SystemConfig, placement: FramePlacement
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, int]:
    """Core peeling loop; returns (undecoded mask, each productive round's
    mask of the users it decodes, residual slot degree, n_rounds).

    ``owner`` holds, per slot, the sum of the user indices whose bursts are
    still in it, so a slot of degree 1 names its owner. The sums are float64
    (``np.bincount`` weights) and exact while they stay below 2**53, far
    beyond any frame this package can hold in memory.
    """
    nu = config.n_users
    k_arr = config.thresholds
    user_of_burst = config.user_of_burst
    slot_of_burst = placement.slot_of_burst
    ns = config.ns
    degree = placement.degree_of_slot.copy()
    weights = user_of_burst.astype(np.float64)  # converted once, not by every bincount
    owner = np.bincount(slot_of_burst, weights=weights, minlength=ns)
    clean_counts = np.bincount(user_of_burst[degree[slot_of_burst] == 1], minlength=nu)
    undecoded = np.ones(nu, dtype=bool)
    decodable = clean_counts >= k_arr
    replicas_only = config.total_payload == nu  # every user has k = 1

    decoded_by_round: list[np.ndarray] = []
    while np.count_nonzero(decodable):  # one C call; ndarray.any goes through Python
        hit = decodable[user_of_burst].nonzero()[0]  # the decoded users' burst positions
        hit_slots = slot_of_burst[hit]
        removed = np.bincount(hit_slots, minlength=ns)
        degree -= removed
        owner -= np.bincount(hit_slots, weights=weights[hit], minlength=ns)
        undecoded ^= decodable
        decoded_by_round.append(decodable)
        if len(decoded_by_round) > nu:
            raise InternalError(f"peeling ran {len(decoded_by_round)} rounds for {nu} users")
        if replicas_only:  # the owners of the slots whose degree just fell to 1
            decodable = np.zeros(nu, dtype=bool)
            decodable[owner[hit_slots[degree[hit_slots] == 1]].astype(np.int64)] = True
        else:  # slots whose degree just fell to 1 give their owner one clean burst
            fresh = owner[(removed > 0) & (degree == 1)].astype(np.int64)
            clean_counts += np.bincount(fresh, minlength=nu)
            decodable = undecoded & (clean_counts >= k_arr)
    return undecoded, decoded_by_round, degree, len(decoded_by_round)


def _rounds(config: SystemConfig, placements: list[FramePlacement]) -> tuple[list, np.ndarray]:
    """Peel frames side by side and replay the rounds; returns each productive
    round's mask of the users it decodes, frame after frame, and a (2, frames,
    rounds + 1) array of each frame's collided fraction before each round and
    undecoded fraction after it, which from its fixpoint on holds both there."""
    frames, ns = len(placements), config.ns
    wide = config._replace(ns=frames * ns, groups=config.groups * frames)
    slots = np.stack([p.slot_of_burst for p in placements]) + ns * np.arange(frames)[:, None]
    placement = FramePlacement(frames * ns, slots.ravel())
    decoded_by_round = _peel(wide, placement)[1]
    degree, undecoded = placement.degree_of_slot.reshape(frames, ns).copy(), np.full(frames, config.n_users)
    stats = np.empty((2, frames, len(decoded_by_round) + 1))
    for l, decoded in enumerate([*decoded_by_round, None]):
        remaining = degree.sum(axis=1)  # bursts of each frame's undecoded users
        # a slot of degree 1 holds the one clean burst of its owner
        stats[0, :, l] = (remaining - (degree == 1).sum(axis=1)) / np.maximum(remaining, 1)
        if decoded is not None:
            hit_slots = placement.slot_of_burst[decoded[wide.user_of_burst]]
            degree -= np.bincount(hit_slots, minlength=frames * ns).reshape(frames, ns)
            undecoded -= decoded.reshape(frames, -1).sum(axis=1)
        stats[1, :, l] = undecoded / config.n_users
    return decoded_by_round, stats


def frame_counts(config: SystemConfig, start: int, stop: int) -> np.ndarray:
    """Simulate frame indices [start, stop). Returns an int64 (3, stop - start)
    array whose rows hold each frame's productive decoder rounds, undecoded
    users and payload bursts of those users (lost payload)."""
    counts = np.empty((3, stop - start), dtype=np.int64)
    rounds, undecoded_users, lost_payload = counts
    thresholds = config.thresholds
    for j in range(stop - start):
        undecoded, _, _, rounds[j] = _peel(config, place_frame(config, start + j))
        undecoded_users[j] = np.count_nonzero(undecoded)
        lost_payload[j] = thresholds[undecoded].sum()
    return counts


def round_stats(config: SystemConfig, start: int, stop: int) -> np.ndarray:
    """Frames [start, stop), placed and peeled side by side: their ``_rounds`` stats."""
    return _rounds(config, [place_frame(config, j) for j in range(start, stop)])[1]


def decode_frame(config: SystemConfig, placement: FramePlacement) -> DecodeTrace:
    """Peel one frame to its fixpoint and record per-round statistics."""
    if placement.ns != config.ns or placement.slot_of_burst.size != config.total_bursts:
        raise ValueError("placement does not match config")
    if np.unique(config.user_of_burst * config.ns + placement.slot_of_burst).size < config.total_bursts:
        raise ValueError("a user's bursts must lie in distinct slots")
    decoded_by_round, stats = _rounds(config, [placement])
    p, q = stats[:, 0].tolist()
    newly_decoded = [frozenset(np.flatnonzero(d).tolist()) for d in decoded_by_round]
    # map stops at the last round, before the fixpoint column
    return DecodeTrace(tuple(map(RoundRecord, newly_decoded, p, q)), final_p=p[-1])
