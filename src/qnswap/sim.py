"""Discrete-event simulation of the blocking network.

``simulate_blocking_network`` runs the whole network with
blocking-after-service semantics and reports per-node occupancy, blocking,
drops, and source-to-sink response times.

Blocking semantics: a job finishing service samples its destination from the
routing row.  If the sampled target is full but another routable target has
room, the job diverts to the lowest-id free target.  If every routable
target is full the job stays on its server, which blocks, until any target
frees a slot; contending blocked jobs release in the order they blocked
(ties broken by lower node id), and releases cascade until no blocked job
can move.  External arrivals to a full node are dropped and counted.

Determinism: every replication draws from its own stream derived from
``SeedSequence(seed).spawn``-style keys, events are ordered by
``(time, insertion sequence)``, and all iteration orders are fixed, so a
given (spec, config) pair reproduces results bit for bit.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericsError
from .model import NetworkSpec

_ARRIVAL = 0
_COMPLETE = 1

# job record layout
_ENTRY = 0
_HOPS = 1
_IN_WINDOW = 2


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    Args:
        seed: root seed; replication r uses the substream (seed, r).
        horizon: run length, in model time units or in events depending on
            ``unit``; positive and finite.
        unit: "time" or "events".
        replications: independent replications to merge.
        warmup_fraction: leading fraction of the horizon excluded from all
            time-averaged statistics.
    """

    seed: int
    horizon: float
    unit: str = "time"
    replications: int = 1
    warmup_fraction: float = 0.2

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not 0 < self.horizon < math.inf:  # also rejects NaN
            raise InputError(
                f"simulation horizon must be positive and finite, got {self.horizon!r}")
        if self.unit not in ("time", "events"):
            raise ValueError(f"unit must be 'time' or 'events', got {self.unit!r}")
        if not isinstance(self.replications, int) or self.replications < 1:
            raise ValueError(f"replications must be a positive integer, got {self.replications!r}")
        if not 0.0 <= self.warmup_fraction <= 0.5:
            raise ValueError(f"warmup_fraction must be in [0, 0.5], got {self.warmup_fraction!r}")


@dataclass(frozen=True)
class NodeStats:
    """Windowed per-node statistics from a network run."""

    node: int
    occupancy: tuple[float, ...]
    blocked_fraction: float
    mean_jobs: float


@dataclass(frozen=True)
class SimResult:
    """Merged statistics of one network simulation.

    ``duration`` is the total measured (post-warmup) time across
    replications; the whole-run job counters satisfy
    arrivals == completed + dropped + in_flight exactly.
    """

    events: int
    duration: float
    replications: int
    nodes: tuple[NodeStats, ...]
    mean_jobs: float
    arrivals: int
    completed: int
    dropped: int
    in_flight: int
    drop_fraction: float | None
    response_mean: float | None
    response_stderr: float | None
    mean_hops: float | None

    def to_jsonable(self) -> dict:
        return {
            "mode": "network",  # part of the document format
            "events": self.events,
            "duration": self.duration,
            "replications": self.replications,
            "nodes": [
                {
                    "node": ns.node,
                    "occupancy": list(ns.occupancy),
                    "blocked_fraction": ns.blocked_fraction,
                    "mean_jobs": ns.mean_jobs,
                }
                for ns in self.nodes
            ],
            "mean_jobs": self.mean_jobs,
            "arrivals": self.arrivals,
            "completed": self.completed,
            "dropped": self.dropped,
            "in_flight": self.in_flight,
            "drop_fraction": self.drop_fraction,
            "response_mean": self.response_mean,
            "response_stderr": self.response_stderr,
            "mean_hops": self.mean_hops,
        }


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


# -- full network -------------------------------------------------------------

class _NetworkRun:
    """One replication of the blocking network.

    The run stops at its event budget (event units) or at the first event
    past its stop time (time units); the other bound is infinite.  An event
    at ``time >= t_warm`` falls in the measuring window.  In event units
    ``t_warm`` is the time of the first event past the warm-up share of the
    budget, or 0 when that share is no event.  ``run`` leaves its totals on
    the run.
    """

    def __init__(self, spec: NetworkSpec, rng, unit: str, horizon: float,
                 warmup: float):
        self.draws = _Draws(rng)

        columns = spec.columns
        n = len(columns.id)
        self.cap = columns.capacity.tolist()
        self.mu = columns.service_rate.tolist()
        self.arrival_rate = columns.external_rate.tolist()
        # Routing rows keep their targets in id order; add.accumulate sums
        # left to right, so the cumulative probabilities are exact prefix sums.
        rows, cols, probs = spec.routing_triplets
        used = probs > 0.0
        cols, probs = cols[used], probs[used]
        bounds = np.searchsorted(rows[used], np.arange(n + 1)).tolist()
        self.tgt = [cols[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
        self.cum = [np.add.accumulate(probs[a:b]).tolist()
                    for a, b in zip(bounds, bounds[1:])]

        self.queue: list[deque] = [deque() for _ in range(n)]
        self.srv_job: list[list | None] = [None] * n
        self.srv_blocked = [False] * n
        self.block_time = [0.0] * n
        self.blocked_set: set[int] = set()

        self.occ_time = [[0.0] * (self.cap[k] + 1) for k in range(n)]
        self.blocked_t = [0.0] * n
        self.last = [0.0] * n

        self.t = 0.0
        self.seq = 0
        self.heap: list = []
        self.arrivals = self.completed = self.dropped = 0
        self.arrivals_w = self.dropped_w = 0
        self.resp_n = 0
        self.resp_sum = self.resp_sq = 0.0
        self.hop_sum = 0

        if unit == "events":
            self.budget, self.stop = int(round(horizon)), math.inf
            if self.budget < 1:
                raise InputError(f"simulation horizon must be positive, got {horizon!r}")
            # the loop sets t_warm when it reaches event number warm_events;
            # -1 is never reached, so a window open from the start stays at 0
            warm = int(self.budget * warmup)
            self.warm_events, self.t_warm = (warm, math.inf) if warm else (-1, 0.0)
        else:
            self.budget, self.stop = math.inf, horizon
            self.warm_events, self.t_warm = -1, warmup * horizon

    # -- plumbing --

    def _push(self, time: float, kind: int, node: int):
        heapq.heappush(self.heap, (time, self.seq, kind, node))
        self.seq += 1

    def _count(self, k: int) -> int:
        return len(self.queue[k]) + (1 if self.srv_job[k] is not None else 0)

    def _has_room(self, k: int) -> bool:
        return self._count(k) < self.cap[k]

    def _first_free(self, k: int) -> int | None:
        """Node k's first routing target, in id order, with room; None if all are full."""
        return next((d for d in self.tgt[k] if self._has_room(d)), None)

    def _close(self, k: int):
        lo = self.last[k]
        if self.t_warm > lo:
            lo = self.t_warm
        if self.t > lo:
            self.occ_time[k][self._count(k)] += self.t - lo
            if self.srv_blocked[k]:
                self.blocked_t[k] += self.t - lo
        self.last[k] = self.t

    def _try_start(self, k: int):
        if self.srv_job[k] is None and self.queue[k]:
            self.srv_job[k] = self.queue[k].popleft()
            self._push(self.t + self.draws.exponential(self.mu[k]), _COMPLETE, k)

    def _transfer(self, k: int, j: int):
        """Move the job on node k's server into node j's buffer."""
        job = self.srv_job[k]
        self._close(k)
        self._close(j)
        self.srv_job[k] = None
        if self.srv_blocked[k]:
            self.srv_blocked[k] = False
            self.blocked_set.discard(k)
        job[_HOPS] += 1
        self.queue[j].append(job)
        self._try_start(j)
        self._try_start(k)

    def _depart(self, k: int, job: list):
        self._close(k)
        self.srv_job[k] = None
        self.completed += 1
        if job[_IN_WINDOW]:
            r = self.t - job[_ENTRY]
            self.resp_n += 1
            self.resp_sum += r
            self.resp_sq += r * r
            self.hop_sum += job[_HOPS]
        self._try_start(k)

    def _cascade(self):
        """Release blocked jobs, oldest block first, until nothing moves."""
        while self.blocked_set:
            # (block time, id) keys are distinct: the scan order does not matter
            best = None
            for m in self.blocked_set:
                dest = self._first_free(m)
                if dest is None:
                    continue
                key = (self.block_time[m], m)
                if best is None or key < best[0]:
                    best = (key, m, dest)
            if best is None:
                return
            _, m, dest = best
            self._transfer(m, dest)

    # -- event handlers --

    def _on_arrival(self, k: int, in_window: bool):
        self.arrivals += 1
        if in_window:
            self.arrivals_w += 1
        if self._has_room(k):
            self._close(k)
            self.queue[k].append([self.t, 0, in_window])
            self._try_start(k)
        else:
            self.dropped += 1
            if in_window:
                self.dropped_w += 1

    def _on_complete(self, k: int):
        job = self.srv_job[k]
        u = self.draws.uniform()
        cum = self.cum[k]
        if cum and u < cum[-1]:
            j = self.tgt[k][bisect_right(cum, u)]
            if not self._has_room(j):
                j = self._first_free(k)
                if j is None:
                    self._close(k)
                    self.srv_blocked[k] = True
                    self.block_time[k] = self.t
                    self.blocked_set.add(k)
                    return  # nothing freed, nothing to cascade
            self._transfer(k, j)
        else:
            self._depart(k, job)
        self._cascade()

    # -- main loop --

    def run(self) -> None:
        for k, rate in enumerate(self.arrival_rate):
            if rate > 0:
                self._push(self.draws.exponential(rate), _ARRIVAL, k)

        heap, budget, stop, warm = self.heap, self.budget, self.stop, self.warm_events
        events = 0
        while events < budget:
            time, _, kind, node = heap[0]
            if time > stop:
                break
            heapq.heappop(heap)
            if events == warm:
                self.t_warm = time
            self.t = time
            in_window = time >= self.t_warm
            if kind == _ARRIVAL:
                self._on_arrival(node, in_window)
                self._push(time + self.draws.exponential(self.arrival_rate[node]),
                           _ARRIVAL, node)
            else:
                self._on_complete(node)
            events += 1
        self.events = events

        if self.stop < math.inf:  # a time-unit run ends at its horizon
            self.t = self.stop
        for k in range(len(self.cap)):
            self._close(k)
        self.window = self.t - min(self.t_warm, self.t)

        self.in_flight = sum(self._count(k) for k in range(len(self.cap)))
        if self.in_flight != self.arrivals - self.completed - self.dropped:
            raise NumericsError(
                f"flow not conserved: {self.in_flight} jobs in flight, but"
                f" {self.arrivals} arrivals - {self.completed} completed"
                f" - {self.dropped} dropped")


def simulate_blocking_network(spec: NetworkSpec, config: SimConfig) -> SimResult:
    """Simulate the network under blocking-after-service semantics.

    See the module docstring for the blocking, diversion, and drop rules.  Identical (spec, config) pairs
    produce identical results.
    """
    runs = []
    for rep in range(config.replications):
        run = _NetworkRun(spec, _rep_rng(config.seed, rep), config.unit,
                          config.horizon, config.warmup_fraction)
        run.run()
        runs.append(run)

    def total(name: str):
        return sum(getattr(r, name) for r in runs)

    window = total("window")
    if window <= 0:
        raise InputError(
            f"simulation horizon must be positive, got {config.horizon!r}")

    nodes = []
    mean_jobs_total = 0.0
    for k, (i, cap) in enumerate(zip(spec.columns.id.tolist(),
                                     spec.columns.capacity.tolist())):
        fractions = tuple(sum(r.occ_time[k][n_jobs] for r in runs) / window
                          for n_jobs in range(cap + 1))
        mean_jobs = sum(n_jobs * f for n_jobs, f in enumerate(fractions))
        mean_jobs_total += mean_jobs
        nodes.append(NodeStats(
            node=i,
            occupancy=fractions,
            blocked_fraction=sum(r.blocked_t[k] for r in runs) / window,
            mean_jobs=mean_jobs,
        ))

    resp_n, resp_sum, resp_sq = total("resp_n"), total("resp_sum"), total("resp_sq")
    response_mean = resp_sum / resp_n if resp_n else None
    response_stderr = None
    if resp_n > 1:
        var = max(0.0, (resp_sq - resp_n * (resp_sum / resp_n) ** 2) / (resp_n - 1))
        response_stderr = math.sqrt(var / resp_n)
    arrivals_w = total("arrivals_w")

    return SimResult(
        events=total("events"),
        duration=window,
        replications=config.replications,
        nodes=tuple(nodes),
        mean_jobs=mean_jobs_total,
        arrivals=total("arrivals"),
        completed=total("completed"),
        dropped=total("dropped"),
        in_flight=total("in_flight"),
        drop_fraction=total("dropped_w") / arrivals_w if arrivals_w else None,
        response_mean=response_mean,
        response_stderr=response_stderr,
        mean_hops=total("hop_sum") / resp_n if resp_n else None,
    )
