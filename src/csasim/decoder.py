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

A frame's trace keeps each productive round and the residual erasure
fraction at the fixpoint, which is above 0 exactly when the frame deadlocked.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FramePlacement, InternalError, SystemConfig


@dataclass(frozen=True)
class RoundRecord:
    """Statistics of one productive decoding round.

    ``p_empirical`` is the fraction of the not-yet-decoded users' bursts that
    sit in collided slots, measured before this round's subtractions;
    ``q_empirical`` is the fraction of all users still undecoded after this
    round.
    """

    round_index: int
    newly_decoded: frozenset[int]
    p_empirical: float
    q_empirical: float


@dataclass(frozen=True)
class DecodeTrace:
    """Outcome of decoding one frame.

    ``rounds`` records productive rounds only; a round that decodes nobody is
    the fixpoint and is not recorded. ``final_p`` is the residual erasure
    fraction at the fixpoint, i.e. what ``p_empirical`` would read one round
    past the last recorded one. It is above 0 exactly when a user stays
    undecoded (a deadlock): such a user has fewer than k clean bursts, so it
    keeps at least n - k + 1 of them in collided slots.
    """

    rounds: tuple[RoundRecord, ...]
    decoded_users: frozenset[int]
    final_p: float


def _check_consistent(config: SystemConfig, placement: FramePlacement) -> None:
    if placement.ns != config.ns or placement.total_bursts != config.total_bursts:
        raise ValueError("placement does not match config")


def _collided_fraction(degree: np.ndarray) -> float:
    """Fraction of the bursts in ``degree`` that sit in collided slots."""
    remaining = int(degree.sum())
    return int(degree[degree >= 2].sum()) / remaining if remaining else 0.0


def _peel(
    config: SystemConfig, placement: FramePlacement, record: bool
) -> tuple[np.ndarray, list[RoundRecord], np.ndarray, int]:
    """Core peeling loop; returns (undecoded mask, rounds, residual slot
    degree, n_rounds).

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

    rounds: list[RoundRecord] = []
    n_rounds = 0
    while decodable.any():
        if record:
            p_emp = _collided_fraction(degree)
        hit = decodable[user_of_burst]
        hit_slots = slot_of_burst[hit]
        removed = np.bincount(hit_slots, minlength=ns)
        degree -= removed
        owner -= np.bincount(hit_slots, weights=user_of_burst[hit], minlength=ns)
        # slots whose degree just fell to 1 give their owner one clean burst
        fresh = owner[(removed > 0) & (degree == 1)].astype(np.int64)
        clean_counts += np.bincount(fresh, minlength=nu)
        undecoded ^= decodable
        if record:
            rounds.append(
                RoundRecord(
                    round_index=n_rounds,
                    newly_decoded=frozenset(np.flatnonzero(decodable).tolist()),
                    p_empirical=p_emp,
                    q_empirical=int(undecoded.sum()) / nu,
                )
            )
        n_rounds += 1
        if n_rounds > nu:
            raise InternalError(f"peeling ran {n_rounds} rounds for {nu} users")
        decodable = undecoded & (clean_counts >= k_arr)
    return undecoded, rounds, degree, n_rounds


def decode_frame(config: SystemConfig, placement: FramePlacement) -> DecodeTrace:
    """Peel one frame to its fixpoint and record per-round statistics."""
    _check_consistent(config, placement)
    undecoded, rounds, degree, _ = _peel(config, placement, record=True)
    return DecodeTrace(
        rounds=tuple(rounds),
        decoded_users=frozenset(np.flatnonzero(~undecoded).tolist()),
        final_p=_collided_fraction(degree),
    )


def empirical_p0(placement: FramePlacement) -> float:
    """Fraction of bursts lying in collided slots of a fresh placement."""
    return _collided_fraction(placement.degree_of_slot)
