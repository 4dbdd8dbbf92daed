"""Analytic per-round recursion for erasure and non-decode probabilities.

The decoder behaves like iterative erasure decoding on a bipartite graph
(slots as message nodes, users as check nodes), so its mean behaviour can be
tracked by a recursion under an independence assumption:

* ``P_l``  - probability that a remaining burst is erased (collided) at
  round l; ``P_0`` is the collided fraction of the expected initial
  slot-degree distribution.
* ``Q_l``  - probability that a user is still undecodable at round l, an
  average of complementary binomial tails over the user population.
* ``beta_l`` - conditional probability that a still-undecoded user decodes
  at round l, taken as the relative drop of Q.
* A slot's degree is Poisson-binomial: a user of code (n, k) occupies it
  with probability n / ns. Removing each burst independently with the
  fraction ``rho_l`` of remaining bursts decoded in round l keeps it
  Poisson-binomial, with every occupancy probability scaled by the survival
  factor ``s_l = prod(1 - rho_l)``. The product telescopes to the
  burst-weighted undecoded share sum_g n_g c_g (1 - D_g(P_l)) / total bursts,
  the burst-weighted counterpart of Q_l (equal to it for a single code), so
  the recursion computes ``s_l`` directly and takes the collided mass of the
  thinned degree in closed form (``_collided_mass``).
  The next erasure probability blends the resulting collided fraction with
  the previous one, weighted by beta and re-normalised by the linear
  remaining-burst factor (1 - l / n_users).

The recursion halts once Q reaches (numerical) zero, once P stops making
progress (a deadlock fixpoint), or after n_users rounds; the Q of its last
state is the predicted packet loss ratio. Progress-halting keeps every
recorded probability in [0, 1] and Q non-increasing; the raw update could
otherwise drift upward in saturated regimes where the linear remaining-burst
factor undershoots the actual remaining population.

Each binomial tail takes log C(n, i) from an exact log-factorial table that
a process builds once per distinct n.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from itertools import accumulate

import numpy as np

from .model import InternalError, SystemConfig, UserCode, expected_initial_histogram

EPSILON = 1e-9
_BAND = 1e-9  # tolerance for float dust around [0, 1] before clamping


@dataclass(frozen=True)
class DEState:
    """Recursion state at one round; state l is ``DETrace.states[l]``."""

    p: float
    q: float
    beta: float


@dataclass(frozen=True)
class DETrace:
    """Full recursion history; the q of the last state is the predicted PLR."""

    states: tuple[DEState, ...]


@cache
def _log_factorials(n: int) -> np.ndarray:
    """Table of log i! for i = 0..n, each i! an exact integer product.

    For i <= 12 the entry has the same bits as cephes' log-gamma at i + 1
    (scipy.special.gammaln), which math.lgamma does not; above that the two
    may differ in the last bits. The table costs O(n^2) big-integer work, a
    few ms at n in the thousands, so a process builds it once per n.
    """
    factorials = accumulate(range(1, n + 1), operator.mul, initial=1)
    return np.array([math.log(f) for f in factorials])


def _clamp_unit(value: float, what: str) -> float:
    """Clamp float dust into [0, 1]; anything beyond dust is a genuine bug."""
    if not -_BAND <= value <= 1.0 + _BAND:
        raise InternalError(f"{what} = {value!r} outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


def decode_probability(code: UserCode, p: float) -> float:
    """Probability that at least k of the n bursts survive erasure rate p.

    Computed as the binomial tail sum_{i=k}^{n} C(n,i) (1-p)^i p^(n-i) in
    log space.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {p}")
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    n = code.n
    i = np.arange(code.k, n + 1)
    log_fact = _log_factorials(n)
    log_binom = log_fact[n] - log_fact[i] - log_fact[n - i]
    log_terms = log_binom + i * np.log1p(-p) + (n - i) * np.log(p)
    return _clamp_unit(float(np.exp(log_terms).sum()), "decode probability")


def initial_erasure_probability(config: SystemConfig) -> float:
    """P_0: expected fraction of bursts in collided slots of a fresh frame.

    The collided mass sum_{d >= 2} d * pmf[d] of the expected slot-degree
    law is summed in ascending d, then scaled by ns / total bursts.
    """
    pmf = expected_initial_histogram(config).tolist()
    collided_mass = sum(d * pmf[d] for d in range(2, len(pmf)))
    return _clamp_unit(
        collided_mass * config.ns / config.total_bursts,
        "initial erasure probability",
    )


def _collided_mass(config: SystemConfig, survival: float) -> float:
    """Expected bursts per slot in collided slots once each burst survives
    independently with probability ``survival``.

    A user of code group g (``c_g`` users of n_g bursts) occupies a slot with
    ``q_g = (n_g / ns) * survival``, and its burst there collides unless every
    other user leaves the slot empty:

        sum_g c_g q_g (1 - prod_h (1 - q_h) ** (c_h - [h = g]))

    The leave-one-out product never divides by 1 - q_g, which is zero when a
    code spans the whole frame (n = ns).
    """
    codes = config.code_groups
    counts = np.array([count for _, count in codes], dtype=float)
    q = np.array([code.n for code, _ in codes], dtype=float) / config.ns * survival
    others = counts - np.eye(counts.size)  # row g holds c_h - [h = g]
    with np.errstate(divide="ignore", invalid="ignore"):  # log1p(-1) = -inf
        log_empty = np.where(others > 0, others * np.log1p(-q), 0.0).sum(axis=1)
    return float((counts * q * -np.expm1(log_empty)).sum())


def de_iterate(config: SystemConfig) -> DETrace:
    """Run the per-round recursion: one state per round l = 0 .. n_users - 1
    (so at least one), stopping early once q < ``EPSILON`` or P stalls. A
    trace that does not converge ends with a q above ``EPSILON``; no error.
    """
    nu = config.n_users
    ns = config.ns
    total = config.total_bursts
    codes = config.code_groups
    count_vec = np.array([count for _, count in codes], dtype=float)
    bursts_vec = np.array([code.n for code, _ in codes], dtype=float) * count_vec

    p = initial_erasure_probability(config)
    q_prev = 1.0
    states: list[DEState] = []
    for l in range(nu):
        qbar = np.array([decode_probability(code, p) for code, _ in codes])
        q = _clamp_unit(1.0 - float((qbar * count_vec).sum()) / nu, "q")
        if q > q_prev + _BAND:
            raise InternalError(f"q increased from {q_prev!r} to {q!r}")
        # q_prev is 1 or a q that did not stop the loop, so q_prev >= EPSILON;
        # the numerator is floored so float dust in q cannot leak into beta
        beta = max(q_prev - q, 0.0) / q_prev
        states.append(DEState(p=p, q=q, beta=beta))
        if q < EPSILON:
            break

        # burst-weighted undecoded share: the product of (1 - rho_l) telescopes
        survival = float((bursts_vec * (1.0 - qbar)).sum()) / total
        bracket = _collided_mass(config, survival) * ns / (total * (1.0 - l / nu))
        p_raw = bracket * beta + p * (1.0 - beta)
        if p_raw >= p - EPSILON:
            break  # no progress: the recursion reached its fixpoint
        p = _clamp_unit(p_raw, "p")
        q_prev = q

    return DETrace(states=tuple(states))
