"""Reference implementations the tests compare the package against.

Nothing in ``qnswap`` calls these; they exist to cross-check it:

- a general CTMC toolkit (state spaces, generators, a balance-equation
  solver) against the blocking-node and M/M/1/K closed forms;
- a single-chain trajectory sampler against the same closed forms;
- a damped fixed-point iteration against the block traffic solve;
- the product of node marginals, for product-form normalization;
- an item-by-item document parser and spec check against the column
  checks of ``parse_network`` and ``NetworkSpec``;
- per-node scalar references, read from ``spec.nodes`` and
  ``spec.routing``, for the spec's columns and the analysis columns,
  with the M/M/1/K full probability as one scalar formula per call
  against the elementwise kernel in ``qnswap.ctmc``;
- the builtin ``sum`` of Python 3.12 and later, which compensates floats,
  for the tests that the package's float totals do not depend on it;
- the reference ``analyze`` and network documents, built as plain dicts
  and lists, that the fixed-schema JSON writers (the CLI's and
  ``serialize_network``) must print byte for byte as ``json.dumps`` does.

They import package internals where that makes them compute the same
numbers the package would: the fixed-point solver uses the traffic solve's
sparse system and residual check.  The sampler keeps its own buffered draw
streams, seeded per replication like the simulator's.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

import numpy as np

from qnswap import (
    InputError,
    NodeKind,
    NodeMarginal,
    NodeSpec,
    NumericsError,
    ParseError,
    SchemaError,
    blocking_node_closed_form,
    ctmc,
    mm1k_full_probability,
    solve_traffic,
    traffic,
)
from qnswap.model import ROW_SUM_TOL, _finite, _shown

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
    args = (arrival_rate, service_rate, unblock_rate, blocking_probability)
    blocking_node_closed_form(*args)  # raises for the inputs it rejects
    lam, mu, mu_b, pb = map(float, args)
    return build_generator(BLOCKING_STATES, [
        (EMPTY, SERVING, lam),
        (SERVING, EMPTY, mu * (1.0 - pb)),
        (SERVING, BLOCKED, mu * pb),
        (BLOCKED, EMPTY, mu_b),
    ])


def scalar_mm1k_full_probability(rho: float, capacity: int) -> float:
    """P_full of an M/M/1/K queue for one utilization and one capacity.

    The reference for ``qnswap.ctmc.mm1k_full_probability`` and, element by
    element, for the kernel ``ctmc._mm1k_full`` that ``analyze_network`` runs:
    the same checks and error texts, and the formula in Python floats and
    ints, so K + 1 cannot overflow and each power is Python's.
    """
    if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
        raise InputError(f"capacity must be a positive integer, got {_shown(capacity)}")
    if capacity >= 2**63:
        raise InputError("capacity must be below 2**63")
    if rho != math.inf:
        rho = _finite(rho, "utilization", ctmc.UTILIZATION)
    if abs(rho - 1.0) <= ctmc.RHO_ONE_TOL:
        return 1.0 / (capacity + 1)
    if rho > 1.0:
        # Reciprocal form; algebraically identical, no overflow in rho**K.
        r = 1.0 / rho
        return (1.0 - r) / (1.0 - r ** (capacity + 1))
    return rho ** capacity * (1.0 - rho) / (1.0 - rho ** (capacity + 1))


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
class ChainConfig:
    """Run parameters of the trajectory sampler.

    ``horizon`` counts model time, or events when ``unit`` is "events"; the
    leading ``warmup_fraction`` of it is left out of the occupancy.
    Replication r draws from the substream (seed, r).
    """

    seed: int
    horizon: float
    unit: str = "time"
    replications: int = 1
    warmup_fraction: float = 0.2


@dataclass(frozen=True)
class ChainRun:
    """Empirical state occupancy of a simulated chain, merged over replications."""

    events: int
    duration: float
    replications: int
    states: tuple
    occupancy: tuple[float, ...]


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


class _Draws:
    """Buffered scalar draws; consumption order is part of the contract."""

    def __init__(self, rng: np.random.Generator, chunk: int = 8192):
        self._rng = rng
        self._chunk = chunk
        self._exp = rng.exponential(size=chunk)
        self._ei = 0
        self._uni = rng.random(size=chunk)
        self._ui = 0

    def exponential(self, rate: float) -> float:
        if self._ei == self._chunk:
            self._exp = self._rng.exponential(size=self._chunk)
            self._ei = 0
        v = float(self._exp[self._ei])
        self._ei += 1
        return v / rate

    def uniform(self) -> float:
        if self._ui == self._chunk:
            self._uni = self._rng.random(size=self._chunk)
            self._ui = 0
        v = float(self._uni[self._ui])
        self._ui += 1
        return v


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


def simulate_ctmc(gen: Generator, config: ChainConfig) -> ChainRun:
    """Empirical state occupancy of an irreducible chain.

    Replication r draws from the substream (seed, r), as replication r of the
    network simulator does.

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
                        damping: float = 0.9) -> np.ndarray:
    """Traffic rates by damped iteration of lambda = lambda0 + P^T lambda.

    Returns the rate column, entry k for node ``spec.columns.id[k]``, as
    ``solve_traffic`` does.

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
    ids = [node.id for node in spec.nodes]
    index = {i: k for k, i in enumerate(ids)}
    n = len(ids)
    lam0 = np.zeros(n)
    for i, r in spec.external_arrivals.items():
        lam0[index[i]] = r
    rows, cols, probs = spec.routing_triplets
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
    traffic._check_residual(lam, lam0, rows, cols, probs, pinned)
    return lam


# -- per-node scalar references -------------------------------------------------

def row_sums(spec) -> dict[int, float]:
    """Each node's routing row sum, added left to right over its targets in id order."""
    sums = {node.id: 0.0 for node in spec.nodes}
    for (i, _), p in spec.routing.items():
        sums[i] += p
    return sums


def reference_columns(spec, assumptions):
    """The analysis columns computed node by node with the scalar closed forms."""
    rate = dict(zip(spec.columns.id.tolist(), solve_traffic(spec).tolist()))
    by_id = {node.id: node for node in spec.nodes}
    cols = {k: [] for k in ("nodes", "arrival_rate", "blocking_probability", "pi00",
                            "pi10", "pi01", "rho", "kbar", "tbar")}
    for node in spec.nodes:
        if node.kind is not NodeKind.INTERMEDIATE:
            continue
        lam = rate[node.id]
        pb = assumptions.blocking_probability_override
        if pb is None:
            pb = 0.0
            for (i, j), p in spec.routing.items():
                if i == node.id and p > 0.0:
                    target = by_id[j]
                    rho = 1.0 if assumptions.rho_one else rate[j] / target.service_rate
                    pb += p * scalar_mm1k_full_probability(rho, target.capacity)
        pi = blocking_node_closed_form(lam, node.service_rate, node.unblock_rate, pb)
        kbar = pi.pi10 + pi.pi01
        for k, v in zip(cols, (node.id, lam, pb, *pi, 1.0 - pi.pi00, kbar, kbar / lam)):
            cols[k].append(v)
    total = 0.0
    for k in cols["kbar"]:
        total += k
    return cols, total


# -- reference analyze document -------------------------------------------------

def analyze_document(analysis, net=None) -> dict:
    """The ``analyze --format json`` document of an analysis, as plain data.

    One object per analyzed node, in id order, and the network aggregates
    of ``net`` (default: ``analysis.network``).  The CLI prints
    ``json.dumps(doc, sort_keys=True, indent=2)`` of it, floats rounded
    first under ``--round``.
    """
    net = analysis.network if net is None else net
    keys = ("nodes", "arrival_rate", "blocking_probability", "pi00", "pi10", "pi01",
            "rho", "kbar", "tbar")
    columns = [getattr(analysis, key).tolist() for key in keys]
    nodes = [dict(zip(("node",) + keys[1:], row)) for row in zip(*columns)]
    return {
        "assumptions": {
            "rho_one": analysis.assumptions.rho_one,
            "blocking_probability_override":
                analysis.assumptions.blocking_probability_override,
            # an open network's product form is normalized as it stands
            "normalization_constant": 1.0,
        },
        "nodes": nodes,
        "network": {
            "mean_jobs": net.mean_jobs,
            "mean_response_time": net.mean_response_time,
            "external_rate": net.external_rate,
            "total_jobs": net.total_jobs,
            "nodes": list(net.nodes),
        },
    }


# -- item-by-item document parser ----------------------------------------------

def _scalar_check_keys(obj: dict, path: str, allowed: tuple, required: tuple):
    for k in obj:
        if k not in allowed:
            raise SchemaError(f"{path}.{k}", "unknown key")
    # Schema order.  The parser this copies looped over a set here, so which
    # of several missing keys it named depended on the hash seed.
    for k in required:
        if k not in obj:
            raise SchemaError(path, f"missing required key {k!r}")


def _scalar_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, "must be an object")
    return value


def _scalar_array(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, "must be an array")
    return value


def _scalar_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, "must be an integer")
    return value


def _scalar_rate(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SchemaError(path, "must be a number or decimal string")
    try:
        x = float(value)
    except ValueError:  # a string that is no number
        raise SchemaError(path, f"not a decimal number: {value!r}") from None
    except OverflowError:  # an integer too large for a float
        raise SchemaError(path, "must be finite") from None
    if not math.isfinite(x):
        raise SchemaError(path, "must be finite")
    return x


def _scalar_number(value, name: str, text: bool) -> float:
    """``value`` as a float, one value at a time: a bool, a value that is no
    number (a string or bytes is one only with ``text``) and an int too large
    for a float raise.  NaN and inf pass, for the caller to name."""
    if isinstance(value, (bool, np.bool_)) or not text and isinstance(value, (str, bytes)):
        raise InputError(f"{name}: value {_shown(value)} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise InputError(
            f"{name} must be finite, got an integer too large for a float") from None
    except (TypeError, ValueError):
        raise InputError(f"{name}: value {_shown(value)} is not a number") from None


def _scalar_check_rate(rate, name: str) -> None:
    x = _scalar_number(rate, name, text=False)
    if x < 0:
        raise InputError(f"{name} must be nonnegative, got {_shown(rate)}")
    if not math.isfinite(x):
        raise InputError(f"{name} must be finite, got {_shown(rate)}")


def _scalar_node_key(key, pair: bool):
    """A mapping key as a node id (``pair``: a (from, to) pair of them), or
    None where it is none: a bool, or a value ``int()`` rejects or changes."""
    ends = key if pair else (key,)
    try:
        node = tuple(map(int, ends))
    except (TypeError, ValueError, OverflowError):
        return None
    if len(node) != len(ends) or len(node) != 1 + pair or node != tuple(ends):
        return None
    if any(isinstance(end, (bool, np.bool_)) for end in ends):
        return None
    return node if pair else node[0]


def _scalar_mapping(entries, what: str, pair: bool) -> dict:
    """A rate mapping (``pair``: the routing) with node-id keys in order and
    float values.  The first entry, in the given order, whose key is no node
    id or whose value is no number raises; a float, even NaN, passes."""
    shape = "a (from, to) pair of integer node ids" if pair else "an integer node id"
    table = {}
    for key, value in entries.items():
        node, name = _scalar_node_key(key, pair), f"{what} {_shown(key)}"
        if node is None:
            raise InputError(f"{name}: key must be {shape}")
        if not isinstance(value, float) and not math.isfinite(
                _scalar_number(value, name, text=True)):
            raise InputError(f"{name} must be finite, got {_shown(value)}")
        table[node] = float(value)
    return dict(sorted(table.items()))


def _left_sum(values) -> float:
    """A plain left-to-right sum; ``sum`` of floats compensates from Python 3.12."""
    total = 0.0
    for x in values:
        total += x
    return total


def sum_312(iterable, /, start=0):
    """The builtin ``sum`` of CPython 3.12 and later, on ints and floats.

    Once the total is a float, float items are added with Neumaier's
    compensation and the correction is added at the end, so a float total
    can differ in its last bits from the left-to-right ``sum`` of 3.10 and
    3.11.  An int item of 64 bits or fewer is added as a float, without
    compensation; any other item ends the fast path, as in CPython.
    """
    items, end = iter(iterable), object()
    total = start
    while type(total) is int:  # the int fast path, until the first other item
        item = next(items, end)
        if item is end:
            return total
        total = total + item
    if type(total) is float:
        c = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
            elif isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
            else:
                total = (total + c if c and math.isfinite(c) else total) + item
                break
        else:
            return total + c if c and math.isfinite(c) else total
    for item in items:
        total = total + item
    return total


def scalar_parse_network(text: str) -> tuple:
    """Parse and check a network document one item at a time.

    The reference for ``qnswap.parse_network``, which checks columns: the
    document rules of the parser and then every ``NetworkSpec`` rule, each a
    loop over items in the order the package applies them, raising the same
    family and message at the first fault.  Returns the canonical spec
    fields ``(nodes sorted by id, routing entries sorted by (from, to),
    external rates, known rates or None)`` without building a spec, so the
    package's own checks cannot stand in for these.
    """
    try:
        doc = json.loads(text, parse_constant=_scalar_nonfinite)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno) from None

    doc = _scalar_object(doc, "$")
    _scalar_check_keys(doc, "$",
                       ("nodes", "routing", "external_arrivals", "known_arrival_rates"),
                       ("nodes", "routing", "external_arrivals"))

    node_keys = ("id", "kind", "capacity", "mu", "mu_b", "servers")
    nodes = []
    raw_nodes = _scalar_array(doc["nodes"], "$.nodes")
    if not raw_nodes:
        raise SchemaError("$.nodes", "must contain at least one node")
    for k, item in enumerate(raw_nodes):
        path = f"$.nodes[{k}]"
        obj = _scalar_object(item, path)
        _scalar_check_keys(obj, path, node_keys, node_keys[:4])
        kind_raw = obj["kind"]
        if not isinstance(kind_raw, str):
            raise SchemaError(f"{path}.kind", "must be a string")
        try:
            kind = NodeKind(kind_raw)
        except ValueError:
            raise SchemaError(
                f"{path}.kind",
                f"must be one of {sorted(k.value for k in NodeKind)}, got {kind_raw!r}",
            ) from None
        node_id = _scalar_int(obj["id"], f"{path}.id")
        servers = obj.get("servers", 1)
        if type(servers) is not int or servers != 1:
            raise InputError(f"node {node_id}: this model is single-server only")
        nodes.append(NodeSpec(
            id=node_id,
            kind=kind,
            capacity=_scalar_int(obj["capacity"], f"{path}.capacity"),
            service_rate=_scalar_rate(obj["mu"], f"{path}.mu"),
            unblock_rate=_scalar_rate(obj["mu_b"], f"{path}.mu_b") if "mu_b" in obj else 0.0,
        ))

    entries = {}
    for k, item in enumerate(_scalar_array(doc["routing"], "$.routing")):
        path = f"$.routing[{k}]"
        obj = _scalar_object(item, path)
        _scalar_check_keys(obj, path, ("from", "to", "p"), ("from", "to", "p"))
        i = _scalar_int(obj["from"], f"{path}.from")
        j = _scalar_int(obj["to"], f"{path}.to")
        if (i, j) in entries:
            raise SchemaError(path, f"duplicate routing entry {i}->{j}")
        entries[(i, j)] = _scalar_rate(obj["p"], f"{path}.p")

    external = {}
    for k, item in enumerate(_scalar_array(doc["external_arrivals"], "$.external_arrivals")):
        path = f"$.external_arrivals[{k}]"
        obj = _scalar_object(item, path)
        _scalar_check_keys(obj, path, ("node", "lambda0"), ("node", "lambda0"))
        i = _scalar_int(obj["node"], f"{path}.node")
        if i in external:
            raise SchemaError(path, f"duplicate external arrival for node {i}")
        external[i] = _scalar_rate(obj["lambda0"], f"{path}.lambda0")

    known = None
    if "known_arrival_rates" in doc:
        known = {}
        for k, item in enumerate(_scalar_array(doc["known_arrival_rates"],
                                               "$.known_arrival_rates")):
            path = f"$.known_arrival_rates[{k}]"
            obj = _scalar_object(item, path)
            _scalar_check_keys(obj, path, ("node", "lambda"), ("node", "lambda"))
            i = _scalar_int(obj["node"], f"{path}.node")
            if i in known:
                raise SchemaError(path, f"duplicate known arrival rate for node {i}")
            known[i] = _scalar_rate(obj["lambda"], f"{path}.lambda")

    return _scalar_spec(nodes, entries, external, known)


def _scalar_nonfinite(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed")


def _scalar_spec(nodes, entries, external, known) -> tuple:
    """The NetworkSpec rules, one node or entry at a time, in package order."""
    for n in nodes:
        if isinstance(n.id, bool) or not isinstance(n.id, int) or n.id <= 0:
            raise InputError(f"node id {n.id!r} must be a positive integer")
        if n.id >= 2**63:
            raise InputError(f"node id {n.id!r} must be below 2**63")
    nodes = tuple(sorted(nodes, key=lambda n: n.id))
    entries = _scalar_mapping(entries, "routing entry", True)
    external = _scalar_mapping(external, "external arrival", False)
    if known is not None:
        known = _scalar_mapping(known, "known arrival rate", False)

    if not nodes:
        raise InputError("network has no nodes")

    by_id = {}
    for n in nodes:
        if n.id in by_id:
            raise InputError(f"duplicate node id {n.id}")
        by_id[n.id] = n
        if type(n.kind) is not NodeKind:
            raise InputError(f"node {n.id}: kind {n.kind!r} is not a NodeKind")
        if (isinstance(n.capacity, bool) or not isinstance(n.capacity, int)
                or n.capacity < 1):
            raise InputError(f"node {n.id}: capacity must be a positive integer")
        if n.capacity >= 2**63:
            raise InputError(f"node {n.id}: capacity must be below 2**63")
        _scalar_check_rate(n.service_rate, f"node {n.id} service rate")
        _scalar_check_rate(n.unblock_rate, f"node {n.id} unblock rate")
        if n.kind is NodeKind.INTERMEDIATE:
            if n.capacity != 1:
                raise InputError(f"node {n.id}: intermediate nodes hold exactly one job")
            if n.unblock_rate <= 0:
                raise InputError(f"node {n.id} needs a positive unblock rate")

    rows = {}
    for (i, j), p in entries.items():
        if i not in by_id:
            raise InputError(f"routing entry {i}->{j} references unknown node {i}")
        if j not in by_id:
            raise InputError(f"routing entry {i}->{j} references unknown node {j}")
        if not 0.0 <= p <= 1.0:
            raise InputError(f"routing {i}->{j}: probability {p!r} outside [0, 1]")
        if p > 0.0 and by_id[i].kind is NodeKind.SINK:
            raise InputError(f"sink node {i} cannot route onward")
        rows.setdefault(i, []).append(p)

    for i in by_id:
        total = _left_sum(rows.get(i, []))
        if total > 1.0 + ROW_SUM_TOL:
            raise InputError(f"routing probabilities out of node {i} sum to {total!r} > 1")

    for i, rate in external.items():
        if i not in by_id:
            raise InputError(f"external arrival references unknown node {i}")
        _scalar_check_rate(rate, f"external arrival rate at node {i}")
        if by_id[i].kind is NodeKind.SINK:
            raise InputError(f"external arrivals cannot target sink node {i}")

    if known is not None:
        for i, rate in known.items():
            if i not in by_id:
                raise InputError(f"known arrival rate references unknown node {i}")
            _scalar_check_rate(rate, f"known arrival rate at node {i}")
        missing = [n.id for n in nodes
                   if n.kind is NodeKind.INTERMEDIATE and n.id not in known]
        if missing:
            raise InputError(
                f"known arrival rates must cover every intermediate node; missing {missing}")

    incoming = {j for (i, j), p in entries.items() if p > 0.0}
    for n in nodes:
        receives = n.id in incoming or external.get(n.id, 0.0) > 0.0
        if receives and n.service_rate <= 0:
            raise InputError(f"node {n.id} receives jobs but has no positive service rate")

    if not any(r > 0 for r in external.values()):
        raise InputError("no node has a positive external arrival rate")
    if not any(1.0 - _left_sum(rows.get(i, [])) > 0 for i in by_id):
        raise InputError("no node has a positive exit probability")
    return nodes, entries, external, known


def network_document(spec) -> str:
    """The network document as a dict through ``json.dumps(doc, indent=2)``.

    The reference for ``qnswap.serialize_network``, which writes the same
    bytes from fixed templates.
    """
    def dec(x) -> str:
        return repr(float(x))

    doc: dict = {
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind.value,
                "capacity": n.capacity,
                "mu": dec(n.service_rate),
                "mu_b": dec(n.unblock_rate),
                "servers": 1,
            }
            for n in spec.nodes
        ],
        "routing": [
            {"from": i, "to": j, "p": dec(p)}
            for (i, j), p in sorted(spec.routing.items())
        ],
        "external_arrivals": [
            {"node": i, "lambda0": dec(r)}
            for i, r in sorted(spec.external_arrivals.items())
        ],
    }
    if spec.known_arrival_rates is not None:
        doc["known_arrival_rates"] = [
            {"node": i, "lambda": dec(r)}
            for i, r in sorted(spec.known_arrival_rates.items())
        ]
    return json.dumps(doc, indent=2) + "\n"
