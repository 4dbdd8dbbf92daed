"""Iterative interference-cancellation decoding of one frame.

The receiver peels the user/slot graph in synchronous rounds: every user that
currently has at least k clean bursts is decoded, all n of its bursts are
subtracted from their slots, and the round counter advances. Subtraction can
turn collided slots into clean ones, so decoding cascades until a fixpoint.
The fixpoint does not depend on processing order (peeling is confluent), so
synchronous rounds give the same decoded set as any one-user-at-a-time order.
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
    ``p_all_bursts`` is the same count divided by all bursts of the frame
    (both denominators are exposed because either may be wanted when
    comparing against the analytic recursion). ``q_empirical`` is the
    fraction of all users still undecoded after this round.
    """

    round_index: int
    newly_decoded: frozenset[int]
    p_empirical: float
    q_empirical: float
    p_all_bursts: float


@dataclass(frozen=True)
class DecodeTrace:
    """Outcome of decoding one frame.

    ``rounds`` records productive rounds only; a round that decodes nobody is
    the fixpoint and is not recorded. ``final_p`` is the residual erasure
    fraction at the fixpoint (0.0 when every user was decoded), i.e. what
    ``p_empirical`` would read one round past the last recorded one.
    """

    rounds: tuple[RoundRecord, ...]
    decoded_users: frozenset[int]
    deadlock: bool
    final_p: float


def _check_consistent(config: SystemConfig, placement: FramePlacement) -> None:
    if placement.ns != config.ns or placement.total_bursts != config.total_bursts:
        raise ValueError("placement does not match config")


def _peel(
    config: SystemConfig, placement: FramePlacement, record: bool
) -> tuple[np.ndarray, list[RoundRecord], float, int]:
    """Core peeling loop; returns (undecoded mask, rounds, final_p, n_rounds)."""
    nu = config.n_users
    k_arr = config.thresholds
    user_of_burst = config.user_of_burst
    slot_of_burst = placement.slot_of_burst
    total = slot_of_burst.size
    degree = placement.degree_of_slot.copy()
    undecoded = np.ones(nu, dtype=bool)
    active = np.ones(total, dtype=bool)

    rounds: list[RoundRecord] = []
    n_rounds = 0
    while True:
        active_slots = slot_of_burst[active]
        collided = int((degree[active_slots] >= 2).sum())
        remaining = active_slots.size
        p_emp = collided / remaining if remaining else 0.0
        clean = (degree[slot_of_burst] == 1) & active
        clean_counts = np.bincount(user_of_burst[clean], minlength=nu)
        decodable = undecoded & (clean_counts >= k_arr)
        if not decodable.any():
            return undecoded, rounds, p_emp, n_rounds
        hit = active & decodable[user_of_burst]
        degree -= np.bincount(slot_of_burst[hit], minlength=config.ns)
        active &= ~hit
        undecoded &= ~decodable
        if record:
            rounds.append(
                RoundRecord(
                    round_index=n_rounds,
                    newly_decoded=frozenset(np.flatnonzero(decodable).tolist()),
                    p_empirical=p_emp,
                    q_empirical=int(undecoded.sum()) / nu,
                    p_all_bursts=collided / total,
                )
            )
        n_rounds += 1
        if n_rounds > nu:
            raise InternalError(f"peeling ran {n_rounds} rounds for {nu} users")


def decode_frame(config: SystemConfig, placement: FramePlacement) -> DecodeTrace:
    """Peel one frame to its fixpoint and record per-round statistics."""
    _check_consistent(config, placement)
    undecoded, rounds, final_p, _ = _peel(config, placement, record=True)
    decoded = frozenset(np.flatnonzero(~undecoded).tolist())
    return DecodeTrace(
        rounds=tuple(rounds),
        decoded_users=decoded,
        deadlock=len(decoded) < config.n_users,
        final_p=final_p,
    )


def empirical_p0(placement: FramePlacement) -> float:
    """Fraction of bursts lying in collided slots of a fresh placement."""
    degree = placement.degree_of_slot
    total = int(degree.sum())
    if total == 0:
        return 0.0
    return int(degree[degree >= 2].sum()) / total
