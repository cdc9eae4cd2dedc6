"""Continuous-time Markov chains for single nodes.

Two chains matter here.  The three-state blocking node

    empty (0,0) --lambda--> serving (1,0)

    serving --mu*(1-Pb)--> empty
    serving --mu*Pb------> blocked (0,1)
    blocked --mu_b-------> empty

models a capacity-one station whose finished job is blocked with probability
Pb because its target is full, clearing at the unblock rate.  The finite
M/M/1/K queue supplies the probability that a neighbor is full, which is
where Pb comes from in the first place.

Steady states are solved from the global balance equations with LAPACK
(``np.linalg.solve``); the blocking node also has a closed form, kept
separate so the two can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import InputError, NumericsError

RHO_ONE_TOL = 1e-9
STEADY_RESIDUAL_TOL = 1e-10

EMPTY = (0, 0)
SERVING = (1, 0)
BLOCKED = (0, 1)


@dataclass(frozen=True)
class StateSpace:
    """Ordered, unique state labels."""

    labels: tuple[Hashable, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("state labels must be unique")

    @cached_property
    def _index(self) -> dict:
        return {label: k for k, label in enumerate(self.labels)}

    def index(self, label) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise InputError(f"state {label!r} is not in the state space") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label) -> bool:
        return label in self._index


BLOCKING_STATES = StateSpace((EMPTY, SERVING, BLOCKED))


@dataclass(frozen=True, eq=False)
class Generator:
    """Infinitesimal generator: nonnegative off-diagonal, rows sum to zero."""

    states: StateSpace
    rates: np.ndarray

    def __post_init__(self):
        q = np.array(self.rates, dtype=float)
        n = len(self.states)
        if q.shape != (n, n):
            raise ValueError(f"generator shape {q.shape} does not match {n} states")
        off = q.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0):
            raise ValueError("off-diagonal generator entries must be nonnegative")
        if np.max(np.abs(q.sum(axis=1))) > 1e-12:
            raise ValueError("generator rows must sum to zero")
        q.setflags(write=False)
        object.__setattr__(self, "rates", q)


@dataclass(frozen=True)
class MarginalDistribution:
    """Probability distribution over a state space."""

    states: StateSpace
    probabilities: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probabilities)
        if len(probs) != len(self.states):
            raise ValueError("one probability per state required")
        if min(probs) < -1e-9:
            raise ValueError(f"negative probability {min(probs)!r}")
        probs = tuple(0.0 if p < 0 else p for p in probs)
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(probs)!r}, not 1")
        object.__setattr__(self, "probabilities", probs)

    def probability(self, label) -> float:
        return self.probabilities[self.states.index(label)]

    def as_dict(self) -> dict:
        return dict(zip(self.states.labels, self.probabilities))


def build_generator(
    states: StateSpace,
    transitions: Iterable[tuple[Hashable, Hashable, float]],
) -> Generator:
    """Assemble a generator from (from_label, to_label, rate) triples.

    Duplicate triples for the same pair sum.  Diagonal entries are filled in
    so that every row sums to zero.

    Raises:
        InputError: a label is not in ``states``, or a negative transition
            rate.
        ValueError: an explicit self-transition.
    """
    n = len(states)
    q = np.zeros((n, n))
    for a, b, r in transitions:
        ia = states.index(a)
        ib = states.index(b)
        if ia == ib:
            raise ValueError(f"self-transition on {a!r}; diagonals are implicit")
        if r < 0:
            raise InputError(f"transition {a!r}->{b!r} must be nonnegative, got {r!r}")
        q[ia, ib] += r
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return Generator(states, q)


def _reach_sets(q: np.ndarray) -> list[set[int]]:
    n = q.shape[0]
    adj = [[j for j in range(n) if j != i and q[i, j] > 0] for i in range(n)]
    sets = []
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        sets.append(seen)
    return sets


def closed_class_count(gen: Generator) -> int:
    """Number of closed communicating classes of the jump graph."""
    reach = _reach_sets(gen.rates)
    n = len(reach)
    recurrent = [s for s in range(n) if all(s in reach[t] for t in reach[s])]
    count = 0
    assigned: set[int] = set()
    for s in recurrent:
        if s in assigned:
            continue
        count += 1
        for t in recurrent:
            if t in reach[s] and s in reach[t]:
                assigned.add(t)
    return count


def is_irreducible(gen: Generator) -> bool:
    """True when every state reaches every other state."""
    reach = _reach_sets(gen.rates)
    n = len(reach)
    return all(len(r) == n for r in reach)


def steady_state(gen: Generator) -> MarginalDistribution:
    """Stationary distribution: pi Q = 0, sum(pi) = 1.

    The chain must have exactly one closed communicating class; transient
    states are allowed and receive probability zero.  The balance equation
    for the state with the largest diagonal magnitude is replaced by the
    normalization row before solving.

    Raises:
        NumericsError: zero or several closed classes, a singular solve, a
            non-finite solution, or a residual above 1e-10.
    """
    classes = closed_class_count(gen)
    if classes != 1:
        raise NumericsError(
            f"chain has {classes} closed communicating classes, need exactly 1"
        )
    q = gen.rates
    n = q.shape[0]
    a = q.T.copy()
    drop = int(np.argmax(np.abs(np.diag(q))))
    a[drop, :] = 1.0
    b = np.zeros(n)
    b[drop] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as e:
        raise NumericsError(f"steady-state solve failed: {e}") from e
    if not np.all(np.isfinite(pi)):
        raise NumericsError("steady-state solution is not finite")
    if np.min(pi) < -1e-9:
        raise NumericsError(f"steady-state solution has negative mass {np.min(pi)!r}")
    pi = np.maximum(pi, 0.0)
    residual = float(np.max(np.abs(pi @ q)))
    if residual > STEADY_RESIDUAL_TOL:
        raise NumericsError(
            f"balance residual {residual:.3e} exceeds {STEADY_RESIDUAL_TOL:.0e}"
        )
    return MarginalDistribution(gen.states, tuple(pi))


def _positive(name: str, value: float) -> float:
    if value < 0:
        raise InputError(f"{name} must be nonnegative, got {value!r}")
    if value == 0:
        raise ValueError(f"{name} must be positive")
    return float(value)


def _check_blocking_node(arrival_rate, service_rate, unblock_rate, blocking_probability):
    lam = _positive("arrival rate", arrival_rate)
    mu = _positive("service rate", service_rate)
    mu_b = _positive("unblock rate", unblock_rate)
    pb = blocking_probability
    if not 0.0 <= pb <= 1.0:
        raise InputError(f"blocking probability: probability {pb!r} outside [0, 1]")
    return lam, mu, mu_b, pb


def blocking_node_chain(
    arrival_rate: float,
    service_rate: float,
    unblock_rate: float,
    blocking_probability: float,
) -> Generator:
    """Generator of the three-state blocking node (see module docstring)."""
    lam, mu, mu_b, pb = _check_blocking_node(
        arrival_rate, service_rate, unblock_rate, blocking_probability)
    return build_generator(BLOCKING_STATES, [
        (EMPTY, SERVING, lam),
        (SERVING, EMPTY, mu * (1.0 - pb)),
        (SERVING, BLOCKED, mu * pb),
        (BLOCKED, EMPTY, mu_b),
    ])


def blocking_node_closed_form(
    arrival_rate: float,
    service_rate: float,
    unblock_rate: float,
    blocking_probability: float,
) -> MarginalDistribution:
    """Stationary distribution of the blocking node, in closed form.

    Independent of :func:`steady_state`; the two must agree to solver
    precision, which the test suite checks on random draws.
    """
    lam, mu, mu_b, pb = _check_blocking_node(
        arrival_rate, service_rate, unblock_rate, blocking_probability)
    serving_weight = lam / mu
    blocked_weight = lam * pb / mu_b
    denom = 1.0 + serving_weight + blocked_weight
    return MarginalDistribution(BLOCKING_STATES, (
        1.0 / denom,
        serving_weight / denom,
        blocked_weight / denom,
    ))


def _check_mm1k(rho: float, capacity: int):
    if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
        raise ValueError(f"capacity must be a positive integer, got {capacity!r}")
    if rho < 0:
        raise InputError(f"utilization must be nonnegative, got {rho!r}")


def _mm1k_term(rho: float, capacity: int, n: int) -> float:
    """Probability of n jobs in an M/M/1/K queue with utilization rho."""
    if abs(rho - 1.0) <= RHO_ONE_TOL:
        return 1.0 / (capacity + 1)
    if rho > 1.0:
        # Reciprocal form; algebraically identical, no overflow in rho**K.
        r = 1.0 / rho
        return r ** (capacity - n) * (1.0 - r) / (1.0 - r ** (capacity + 1))
    return rho ** n * (1.0 - rho) / (1.0 - rho ** (capacity + 1))


def mm1k_full_probability(rho: float, capacity: int) -> float:
    """Probability that an M/M/1/K queue with utilization rho is full.

        rho^K * (1 - rho) / (1 - rho^(K+1)),  ->  1/(K+1) as rho -> 1

    The limit branch is taken when ``|rho - 1| <= 1e-9``.

    Raises:
        InputError: rho < 0.
        ValueError: capacity below 1.
    """
    _check_mm1k(rho, capacity)
    return _mm1k_term(rho, capacity, capacity)


def mm1k_distribution(rho: float, capacity: int) -> MarginalDistribution:
    """Full occupancy distribution of an M/M/1/K queue (labels 0..K).

    The last entry is computed by the same expression as
    :func:`mm1k_full_probability`, so the two agree bit for bit.
    """
    _check_mm1k(rho, capacity)
    levels = range(capacity + 1)
    return MarginalDistribution(StateSpace(tuple(levels)),
                                tuple(_mm1k_term(rho, capacity, n) for n in levels))
