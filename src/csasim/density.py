"""Analytic predictions: the per-round decoder recursion and the Aloha curve.

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
a process builds once per distinct n. The module computes in Python floats
with ``math``, every sum an exactly rounded ``math.fsum``, so neither ``de``
nor ``baseline`` loads NumPy.
"""
from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import cache
from itertools import accumulate

from .model import InternalError, SystemConfig, UserCode, expected_initial_histogram

EPSILON = 1e-9
_BAND = 1e-9  # tolerance for float dust around [0, 1] before clamping


class DEState(namedtuple("DEState", "p q beta")):
    """Recursion state at one round, floats ``p``, ``q`` and ``beta``; state
    l is ``DETrace.states[l]``."""

    __slots__ = ()


class DETrace(namedtuple("DETrace", "states")):
    """Full recursion history, a tuple of ``DEState``; the q of the last
    state is the predicted PLR."""

    __slots__ = ()


class BaselineCurve(namedtuple("BaselineCurve", "variant points")):
    """Analytic Aloha throughput curve on a load grid: the ``variant`` name
    and its ``points``, a tuple of (load, throughput) pairs."""

    __slots__ = ()


@cache
def _log_factorials(n: int) -> tuple[float, ...]:
    """Table of log i! for i = 0..n, each i! an exact integer product.

    For i <= 12 the entry has the same bits as cephes' log-gamma at i + 1
    (scipy.special.gammaln), which math.lgamma does not; above that the two
    may differ in the last bits. The table costs O(n^2) big-integer work, a
    few ms at n in the thousands, so a process builds it once per n.
    """
    factorials = accumulate(range(1, n + 1), operator.mul, initial=1)
    return tuple(math.log(f) for f in factorials)


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
    log_fact = _log_factorials(n)
    log_q, log_p = math.log1p(-p), math.log(p)
    terms = (
        math.exp(log_fact[n] - log_fact[i] - log_fact[n - i] + i * log_q + (n - i) * log_p)
        for i in range(code.k, n + 1)
    )
    return _clamp_unit(math.fsum(terms), "decode probability")


def initial_erasure_probability(config: SystemConfig) -> float:
    """P_0: expected fraction of bursts in collided slots of a fresh frame,
    the exactly rounded collided mass sum_{d >= 2} d P(d) of the expected
    slot-degree law times ns / total bursts."""
    lo, pmf = expected_initial_histogram(config)
    collided = math.fsum(d * x for d, x in enumerate(pmf, lo) if d >= 2)
    return _clamp_unit(collided * config.ns / config.total_bursts, "initial erasure probability")


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
    q = [code.n / config.ns * survival for code, _ in codes]
    empty = [_log_all_empty(count, q_h) for (_, count), q_h in zip(codes, q)]
    mass = []
    for g, ((_, count), q_g) in enumerate(zip(codes, q)):
        others = empty.copy()
        others[g] = _log_all_empty(count - 1, q_g)
        mass.append(count * q_g * -math.expm1(math.fsum(others)))
    return math.fsum(mass)


def _log_all_empty(users: int, q: float) -> float:
    """log (1 - q) ** users: the log-chance that ``users`` users, each in a
    slot with probability ``q``, all leave it empty (0 for no users)."""
    if users == 0:
        return 0.0
    return users * math.log1p(-q) if q < 1.0 else -math.inf


def de_iterate(config: SystemConfig) -> DETrace:
    """Run the per-round recursion: one state per round l = 0 .. n_users - 1
    (so at least one), stopping early once q < ``EPSILON`` or P stalls. A
    trace that does not converge ends with a q above ``EPSILON``; no error.
    """
    nu = config.n_users
    ns = config.ns
    total = config.total_bursts
    codes = config.code_groups
    counts = [count for _, count in codes]
    bursts = [code.n * count for code, count in codes]

    p = initial_erasure_probability(config)
    q_prev = 1.0
    states: list[DEState] = []
    for l in range(nu):
        qbar = [decode_probability(code, p) for code, _ in codes]
        q = _clamp_unit(1.0 - math.fsum(d * c for d, c in zip(qbar, counts)) / nu, "q")
        if q > q_prev + _BAND:
            raise InternalError(f"q increased from {q_prev!r} to {q!r}")
        # q_prev is 1 or a q that did not stop the loop, so q_prev >= EPSILON;
        # the numerator is floored so float dust in q cannot leak into beta
        beta = max(q_prev - q, 0.0) / q_prev
        states.append(DEState(p=p, q=q, beta=beta))
        if q < EPSILON:
            break

        # burst-weighted undecoded share: the product of (1 - rho_l) telescopes
        survival = math.fsum(b * (1.0 - d) for b, d in zip(bursts, qbar)) / total
        bracket = _collided_mass(config, survival) * ns / (total * (1.0 - l / nu))
        p_raw = bracket * beta + p * (1.0 - beta)
        if p_raw >= p - EPSILON:
            break  # no progress: the recursion reached its fixpoint
        p = _clamp_unit(p_raw, "p")
        q_prev = q

    return DETrace(states=tuple(states))


def aloha_baseline(g: float, variant: str) -> float:
    """Closed-form Aloha throughput at load g: G e^-G slotted, G e^-2G pure."""
    if not g >= 0:  # also catches nan
        raise ValueError(f"load must be >= 0, got {g}")
    if g == math.inf:
        raise ValueError(f"load must be finite, got {g}")
    if variant == "slotted":
        return g * math.exp(-g)
    if variant == "pure":
        return g * math.exp(-2.0 * g)
    raise ValueError(f"unknown baseline variant {variant!r}")
