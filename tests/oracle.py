"""Reference implementations the tests compare the package against.

Nothing in ``qnswap`` calls these; they exist to cross-check it:

- a general CTMC toolkit (state spaces, generators, a balance-equation
  solver) against the blocking-node and M/M/1/K closed forms;
- a single-chain trajectory sampler against the same closed forms;
- a damped fixed-point iteration against the block traffic solve;
- the product of node marginals, for product-form normalization.

They import package internals where that makes them draw or compute the
same numbers the package would: the sampler uses the simulator's seeded
draw streams, and the fixed-point solver the traffic solve's sparse system
and residual check.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

import numpy as np

from qnswap import (
    ArrivalRates,
    InputError,
    NodeMarginal,
    NumericsError,
    SimConfig,
    ctmc,
    mm1k_full_probability,
    traffic,
)
from qnswap.sim import _Draws, _rep_rng

STEADY_RESIDUAL_TOL = 1e-10

EMPTY = (0, 0)
SERVING = (1, 0)
BLOCKED = (0, 1)


# -- general CTMC toolkit -----------------------------------------------------

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


def blocking_node_chain(
    arrival_rate: float,
    service_rate: float,
    unblock_rate: float,
    blocking_probability: float,
) -> Generator:
    """Generator of the three-state blocking node (see ``qnswap.ctmc``)."""
    lam, mu, mu_b, pb = ctmc._check_blocking_node(
        arrival_rate, service_rate, unblock_rate, blocking_probability)
    return build_generator(BLOCKING_STATES, [
        (EMPTY, SERVING, lam),
        (SERVING, EMPTY, mu * (1.0 - pb)),
        (SERVING, BLOCKED, mu * pb),
        (BLOCKED, EMPTY, mu_b),
    ])


def _mm1k_level(rho: float, capacity: int, n: int) -> float:
    """Probability of n jobs in an M/M/1/K queue with utilization rho."""
    if abs(rho - 1.0) <= ctmc.RHO_ONE_TOL:
        return 1.0 / (capacity + 1)
    if rho > 1.0:
        # Reciprocal form; algebraically identical, no overflow in rho**K.
        r = 1.0 / rho
        return r ** (capacity - n) * (1.0 - r) / (1.0 - r ** (capacity + 1))
    return rho ** n * (1.0 - rho) / (1.0 - rho ** (capacity + 1))


def mm1k_distribution(rho: float, capacity: int) -> MarginalDistribution:
    """Full occupancy distribution of an M/M/1/K queue (labels 0..K).

    Level K is :func:`qnswap.ctmc.mm1k_full_probability` itself, so the two
    agree bit for bit.
    """
    full = mm1k_full_probability(rho, capacity)  # checks rho and capacity
    levels = tuple(_mm1k_level(rho, capacity, n) for n in range(capacity))
    return MarginalDistribution(StateSpace(tuple(range(capacity + 1))),
                                levels + (full,))


def joint_probability(
    marginals: Sequence[MarginalDistribution | NodeMarginal],
    joint_state: Sequence,
) -> float:
    """Probability of a joint state as the product of node marginals.

    A ``NodeMarginal`` is read over ``BLOCKING_STATES``.

    Raises:
        InputError: the label count differs from the marginal count, or a
            label is missing from its node's state space.
    """
    if len(marginals) != len(joint_state):
        raise InputError(
            f"expected {len(marginals)} state labels, got {len(joint_state)}")
    p = 1.0
    for marginal, label in zip(marginals, joint_state):
        if isinstance(marginal, NodeMarginal):
            marginal = MarginalDistribution(BLOCKING_STATES, marginal)
        p *= marginal.probability(label)
    return p


# -- single-chain trajectories ------------------------------------------------

@dataclass(frozen=True)
class ChainRun:
    """Empirical state occupancy of a simulated chain, merged over replications."""

    events: int
    duration: float
    replications: int
    states: tuple
    occupancy: tuple[float, ...]


def _ctmc_rep(gen: Generator, rng, unit: str, horizon: float,
              warmup: float) -> tuple[list[float], float, int]:
    q = gen.rates
    n = q.shape[0]
    hold = [float(1.0 / -q[l, l]) for l in range(n)]  # mean holding times
    cum_rows: list[list[float]] = []
    tgt_rows: list[list[int]] = []
    for l in range(n):
        targets = [m for m in range(n) if m != l and q[l, m] > 0]
        acc, cums = 0.0, []
        for m in targets:
            acc += float(q[l, m] / -q[l, l])
            cums.append(acc)
        cum_rows.append(cums)
        tgt_rows.append(targets)
    draws = _Draws(rng)

    occ = [0.0] * n
    state = 0
    window = 0.0
    events = 0
    if unit == "events":
        budget = int(round(horizon))
        if budget < 1:
            raise InputError(f"simulation horizon must be positive, got {horizon!r}")
        warm = int(budget * warmup)
        for k in range(budget):
            dt = draws.exponential(1.0) * hold[state]
            if k >= warm:
                occ[state] += dt
                window += dt
            u = draws.uniform()
            cum = cum_rows[state]
            pos = bisect_right(cum, u)
            if pos >= len(cum):
                pos = len(cum) - 1
            state = tgt_rows[state][pos]
        events = budget
    else:
        total = horizon
        t_warm = warmup * total
        t = 0.0
        while t < total:
            dt = draws.exponential(1.0) * hold[state]
            t_next = t + dt
            lo = t_warm if t_warm > t else t
            hi = total if total < t_next else t_next
            if hi > lo:
                occ[state] += hi - lo
            if t_next > total:
                break
            t = t_next
            events += 1
            u = draws.uniform()
            cum = cum_rows[state]
            pos = bisect_right(cum, u)
            if pos >= len(cum):
                pos = len(cum) - 1
            state = tgt_rows[state][pos]
        window = total - t_warm
    return occ, window, events


def simulate_ctmc(gen: Generator, config: SimConfig) -> ChainRun:
    """Empirical state occupancy of an irreducible chain.

    Replication r draws from the same seeded stream as replication r of the
    network simulator.

    Raises:
        NumericsError: the chain is not irreducible.
    """
    n = len(gen.states)
    if n == 1:
        duration = config.horizon * (1 - config.warmup_fraction) \
            if config.unit == "time" else 0.0
        return ChainRun(events=0, duration=duration,
                        replications=config.replications,
                        states=gen.states.labels, occupancy=(1.0,))
    if not is_irreducible(gen):
        raise NumericsError("trajectory simulation needs an irreducible chain")

    occ_total = np.zeros(n)
    window_total = 0.0
    events_total = 0
    for rep in range(config.replications):
        rng = _rep_rng(config.seed, rep)
        occ, window, events = _ctmc_rep(
            gen, rng, config.unit, config.horizon, config.warmup_fraction)
        occ_total += occ
        window_total += window
        events_total += events
    return ChainRun(
        events=events_total,
        duration=float(window_total),
        replications=config.replications,
        states=gen.states.labels,
        occupancy=tuple(float(x) for x in occ_total / window_total),
    )


# -- traffic equations --------------------------------------------------------

def fixed_point_traffic(spec, tol: float = 1e-12, max_iter: int = 100_000,
                        damping: float = 0.9) -> ArrivalRates:
    """Traffic rates by damped iteration of lambda = lambda0 + P^T lambda.

    Independent of the block elimination in ``qnswap.traffic``; pinned
    rates are held at their given values, and the result passes the same
    residual check.

    Args:
        tol: step-size stopping threshold.
        max_iter: iteration cap.
        damping: relaxation weight on the update, in (0, 1].

    Raises:
        NumericsError: no convergence within ``max_iter`` steps (a closed
            subnetwork never drains), or the residual check fails.
    """
    ids, index, lam0 = traffic._external(spec)
    rows, cols, probs = spec.routing_triplets
    n = len(ids)
    known = dict(spec.known_arrival_rates or {})
    pinned = np.zeros(n, dtype=bool)
    pinned[[index[i] for i in known]] = True

    lam = lam0.copy()
    for i, r in known.items():
        lam[index[i]] = r
    step = np.inf
    for _ in range(max_iter):
        nxt = lam0 + traffic._inflow(rows, cols, probs, lam, n)
        for i, r in known.items():
            nxt[index[i]] = r
        nxt = (1.0 - damping) * lam + damping * nxt
        step = float(np.max(np.abs(nxt - lam)))
        lam = nxt
        if step <= tol:
            break
    else:
        raise NumericsError(
            f"fixed-point iteration did not converge after {max_iter} steps"
            f" (residual {step:.3e})"
        )

    lam = np.where((lam < 0) & (lam > -1e-12), 0.0, lam)
    traffic._check_residual(lam, lam0, rows, cols, probs, pinned, known)
    return ArrivalRates(
        rates={i: float(lam[index[i]]) for i in ids},
        total_external=traffic.total_external_rate(spec),
    )
