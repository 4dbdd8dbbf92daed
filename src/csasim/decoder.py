"""Iterative interference-cancellation decoding of one frame.

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
to 1; no round rescans every burst of the frame.

Traces replay the per-round masks of decoded users that peeling returns; the
fixpoint's erasure fraction is above 0 exactly when the frame deadlocked.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FramePlacement, InternalError, SystemConfig, place_frame


@dataclass(frozen=True)
class RoundRecord:
    """Statistics of one productive decoding round: ``p_empirical``, the
    fraction of the not-yet-decoded users' bursts in collided slots before its
    subtractions, and ``q_empirical``, the fraction of users undecoded after."""

    newly_decoded: frozenset[int]
    p_empirical: float
    q_empirical: float


@dataclass(frozen=True)
class DecodeTrace:
    """Outcome of decoding one frame.

    ``rounds`` records productive rounds only, round l at index l; a round
    that decodes nobody is the fixpoint and is not recorded. ``final_p`` is
    the residual erasure fraction at the fixpoint, i.e. what ``p_empirical``
    would read one round past the last recorded one. It is above 0 exactly
    when a user stays undecoded (a deadlock): such a user has fewer than k
    clean bursts, so it keeps at least n - k + 1 of them in collided slots.
    """

    rounds: tuple[RoundRecord, ...]
    final_p: float

    @property
    def decoded_users(self) -> frozenset[int]:
        return frozenset().union(*(r.newly_decoded for r in self.rounds))


def _collided_fraction(degree: np.ndarray) -> float:
    """Fraction of the bursts in ``degree`` that sit in collided slots."""
    remaining = int(degree.sum())
    return int(degree[degree >= 2].sum()) / remaining if remaining else 0.0


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
    owner = np.bincount(slot_of_burst, weights=user_of_burst, minlength=ns)
    clean_counts = np.bincount(user_of_burst[degree[slot_of_burst] == 1], minlength=nu)
    undecoded = np.ones(nu, dtype=bool)
    decodable = clean_counts >= k_arr

    decoded_by_round: list[np.ndarray] = []
    while decodable.any():
        hit = decodable[user_of_burst]
        hit_slots = slot_of_burst[hit]
        removed = np.bincount(hit_slots, minlength=ns)
        degree -= removed
        owner -= np.bincount(hit_slots, weights=user_of_burst[hit], minlength=ns)
        # slots whose degree just fell to 1 give their owner one clean burst
        fresh = owner[(removed > 0) & (degree == 1)].astype(np.int64)
        clean_counts += np.bincount(fresh, minlength=nu)
        undecoded ^= decodable
        decoded_by_round.append(decodable)
        if len(decoded_by_round) > nu:
            raise InternalError(f"peeling ran {len(decoded_by_round)} rounds for {nu} users")
        decodable = undecoded & (clean_counts >= k_arr)
    return undecoded, decoded_by_round, degree, len(decoded_by_round)


def _round_statistics(
    config: SystemConfig, placement: FramePlacement, decoded_by_round: list[np.ndarray]
) -> np.ndarray:
    """Each round's (p, q) replayed from a frame's decoded masks, as a (2,
    rounds + 1) array: the collided fraction before the round, the undecoded
    fraction after it; the last column holds both at the fixpoint."""
    degree = placement.degree_of_slot.copy()
    undecoded = config.n_users
    stats = np.empty((2, len(decoded_by_round) + 1))
    for l, decoded in enumerate(decoded_by_round):
        stats[0, l] = _collided_fraction(degree)
        hit_slots = placement.slot_of_burst[decoded[config.user_of_burst]]
        degree -= np.bincount(hit_slots, minlength=config.ns)
        undecoded -= np.count_nonzero(decoded)
        stats[1, l] = undecoded / config.n_users
    stats[:, -1] = _collided_fraction(degree), undecoded / config.n_users
    return stats


def decode_frame(config: SystemConfig, placement: FramePlacement) -> DecodeTrace:
    """Peel one frame to its fixpoint and record per-round statistics."""
    if placement.ns != config.ns or placement.total_bursts != config.total_bursts:
        raise ValueError("placement does not match config")
    _, decoded_by_round, _, _ = _peel(config, placement)
    p, q = _round_statistics(config, placement, decoded_by_round).tolist()
    newly_decoded = [frozenset(np.flatnonzero(d).tolist()) for d in decoded_by_round]
    # map stops at the last round, before the fixpoint column
    return DecodeTrace(tuple(map(RoundRecord, newly_decoded, p, q)), final_p=p[-1])


def empirical_round_curves(
    config: SystemConfig, frames: int, num_rounds: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-round means of the decoder's (p, q) over frames 0 .. frames - 1; a
    frame adds its fixpoint values to the rounds after its last one, as a
    decoder that keeps iterating without progress would."""
    if frames < 1 or num_rounds < 0:
        raise ValueError(f"need frames >= 1 and num_rounds >= 0, got {frames} and {num_rounds}")
    sums = np.zeros((2, num_rounds))
    for frame_index in range(frames):
        placement = place_frame(config, frame_index)
        stats = _round_statistics(config, placement, _peel(config, placement)[1])
        # rounds past the fixpoint read its column
        sums += stats[:, np.minimum(np.arange(num_rounds), stats.shape[1] - 1)]
    return sums[0] / frames, sums[1] / frames


def empirical_p0(placement: FramePlacement) -> float:
    """Fraction of bursts lying in collided slots of a fresh placement."""
    return _collided_fraction(placement.degree_of_slot)
