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

What it does not model: the simulator runs the routing as given.  It ignores
``known_arrival_rates`` (the pins the analytic pipeline substitutes for
solved rates) and each node's unblock rate ``mu_b`` (a blocked job leaves
when a target frees a slot, not at rate ``mu_b``).  On a spec with pins,
such as ``munoz15``, it therefore simulates a different network from the
one ``analyze_network`` solves.

Deadlock: when a job blocks and every node reachable from its node along
the routing has a blocked server, no node in that set can ever free a slot
again.  The run then raises ``NumericsError`` (exit 3 from the CLI) naming
the simulated time and the nodes, instead of returning numbers from a
network that has stopped.

Determinism: every replication draws from its own stream derived from
``SeedSequence(seed).spawn``-style keys, events are ordered by
``(time, insertion sequence)``, and all iteration orders are fixed, so a
given (spec, config) pair reproduces results bit for bit.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InputError, NumericsError
from .model import NetworkSpec

_ARRIVAL = 0
_COMPLETE = 1


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


_CHUNK = 8192  # draws per refill; the chunk size is part of the draw order


def _chunks(draw, first: array):
    """``first``, then fresh ``draw(size=_CHUNK)`` chunks as ``array('d')``.

    An array makes each Python float only when it is read, so a chunk costs
    64 KiB and no float objects; nothing here keeps a yielded chunk, so the
    consumer holds one at a time.
    """
    yield first
    del first
    while True:
        yield array("d", draw(size=_CHUNK).tobytes())


def _check_conservation(in_flight: int, arrivals: int, completed: int,
                        dropped: int) -> None:
    """Raise NumericsError unless every arrival is completed, dropped or held."""
    if in_flight != arrivals - completed - dropped:
        raise NumericsError(
            f"flow not conserved: {in_flight} jobs in flight, but"
            f" {arrivals} arrivals - {completed} completed"
            f" - {dropped} dropped")


def _stuck_nodes(k: int, tgt: list, blocked: list) -> list[int] | None:
    """Nodes reachable from blocked node k if every one has a blocked server.

    A blocked server waits for room at one of its targets, and after each
    cascade every blocked node's targets are full.  So when all the nodes
    reachable from k are blocked, none of them can free a slot again: the
    run is deadlocked.  Returns None when some reachable node is not blocked.
    """
    seen = {k}
    stack = [k]
    while stack:
        for d in tgt[stack.pop()]:
            if d not in seen:
                if not blocked[d]:
                    return None
                seen.add(d)
                stack.append(d)
    return sorted(seen)


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
        # the first exponential chunk is drawn before the first uniform one
        self.exp_chunks = _chunks(rng.exponential,
                                  array("d", rng.exponential(size=_CHUNK).tobytes()))
        self.uni_chunks = _chunks(rng.random, array("d", rng.random(size=_CHUNK).tobytes()))

        columns = spec.columns
        n = len(columns.id)
        self.ids = columns.id.tolist()
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

    def run(self) -> None:
        """Run the event loop; every handler is inlined on flat per-node lists.

        A node's state: ``queue`` (jobs waiting, a deque), ``srv`` (the job on
        the server or None), ``cnt`` (jobs held, queue plus server), ``blk``
        (server blocked), ``btime`` (when it blocked).  Statistics: ``occ``
        (time at each job count), ``blocked_t`` and ``last`` (time of the last
        change).  A job is ``[entry time, hops, in window]``.  An idle server
        always has an empty queue, so a job reaching an idle node starts at
        once.  Every time a node's count or blocked flag changes, its time
        since ``last`` is first added to its statistics ("closing" it).

        Draw order is part of the contract: an arrival starts service before
        it schedules the next arrival, and a transfer starts the target's
        server before the source's.
        """
        cap, mu, tgt, cum = self.cap, self.mu, self.tgt, self.cum
        rate = self.arrival_rate
        n = len(cap)
        cut = [c[-1] if c else 0.0 for c in cum]  # P(route onward)
        queue = [deque() for _ in range(n)]
        srv: list = [None] * n
        cnt = [0] * n
        blk = [False] * n
        btime = [0.0] * n
        blocked: list[int] = []  # blocked nodes by (block time, id)
        occ = [[0.0] * (c + 1) for c in cap]
        blocked_t = [0.0] * n
        last = [0.0] * n

        exp = chain.from_iterable(self.exp_chunks).__next__
        uni = chain.from_iterable(self.uni_chunks).__next__
        heap: list = []
        push, pop, bisect = heapq.heappush, heapq.heappop, bisect_right
        ARRIVAL, COMPLETE = _ARRIVAL, _COMPLETE
        seq = 0
        for k, r in enumerate(rate):
            if r > 0:
                push(heap, (exp() / r, seq, ARRIVAL, k))
                seq += 1

        budget, stop, warm, t_warm = self.budget, self.stop, self.warm_events, self.t_warm
        arrivals = completed = dropped = arrivals_w = dropped_w = 0
        resp_n = hop_sum = 0
        resp_sum = resp_sq = 0.0
        events = 0
        time = 0.0
        while events < budget:
            time, _, kind, k = pop(heap)
            if time > stop:
                break
            if events == warm:
                t_warm = time
            events += 1

            if kind == ARRIVAL:
                in_window = time >= t_warm
                arrivals += 1
                if in_window:
                    arrivals_w += 1
                c = cnt[k]
                if c < cap[k]:
                    lo = last[k]
                    if t_warm > lo:
                        lo = t_warm
                    if time > lo:
                        occ[k][c] += time - lo
                        if blk[k]:
                            blocked_t[k] += time - lo
                    last[k] = time
                    cnt[k] = c + 1
                    job = [time, 0, in_window]
                    if srv[k] is None:
                        srv[k] = job
                        push(heap, (time + exp() / mu[k], seq, COMPLETE, k))
                        seq += 1
                    else:
                        queue[k].append(job)
                else:
                    dropped += 1
                    if in_window:
                        dropped_w += 1
                push(heap, (time + exp() / rate[k], seq, ARRIVAL, k))
                seq += 1
                continue

            # a completion at k; close k first: every outcome changes it
            lo = last[k]
            if t_warm > lo:
                lo = t_warm
            if time > lo:
                occ[k][cnt[k]] += time - lo
            last[k] = time
            u = uni()
            if u < cut[k]:
                dests = tgt[k]
                d = dests[bisect(cum[k], u)]
                if cnt[d] >= cap[d]:
                    for d in dests:  # divert to the first target with room
                        if cnt[d] < cap[d]:
                            break
                    else:
                        blk[k] = True
                        btime[k] = time
                        i = len(blocked)
                        while i and btime[blocked[i - 1]] == time and blocked[i - 1] > k:
                            i -= 1
                        blocked.insert(i, k)
                        stuck = _stuck_nodes(k, tgt, blk)
                        if stuck is not None:
                            ids = self.ids
                            raise NumericsError(
                                f"deadlock at simulated time {time!r}: every server"
                                f" among nodes {[ids[m] for m in stuck]} is blocked,"
                                " waiting for room only these nodes can free")
                        continue  # nothing freed, nothing to cascade
            else:
                job = srv[k]
                cnt[k] -= 1
                completed += 1
                if job[2]:
                    r = time - job[0]
                    resp_n += 1
                    resp_sum += r
                    resp_sq += r * r
                    hop_sum += job[1]
                q = queue[k]
                if q:
                    srv[k] = q.popleft()
                    push(heap, (time + exp() / mu[k], seq, COMPLETE, k))
                    seq += 1
                else:
                    srv[k] = None
                if not blocked:
                    continue
                d = -1

            # Move k's job to d (when d >= 0), then release blocked jobs,
            # oldest block first, until nothing moves.  k is already closed.
            while True:
                if d >= 0:
                    if d != k:
                        lo = last[d]
                        if t_warm > lo:
                            lo = t_warm
                        if time > lo:
                            occ[d][cnt[d]] += time - lo
                            if blk[d]:
                                blocked_t[d] += time - lo
                        last[d] = time
                    if blk[k]:
                        blk[k] = False
                        blocked.remove(k)
                    job = srv[k]
                    job[1] += 1
                    cnt[k] -= 1
                    cnt[d] += 1
                    q = queue[k]
                    if d == k:  # a self-loop re-queues behind its own buffer
                        q.append(job)
                        srv[k] = q.popleft()
                        push(heap, (time + exp() / mu[k], seq, COMPLETE, k))
                        seq += 1
                    else:
                        if srv[d] is None:
                            srv[d] = job
                            push(heap, (time + exp() / mu[d], seq, COMPLETE, d))
                            seq += 1
                        else:
                            queue[d].append(job)
                        if q:
                            srv[k] = q.popleft()
                            push(heap, (time + exp() / mu[k], seq, COMPLETE, k))
                            seq += 1
                        else:
                            srv[k] = None
                d = -1
                for k in blocked:
                    for d in tgt[k]:
                        if cnt[d] < cap[d]:
                            break
                    else:
                        d = -1
                    if d >= 0:
                        break
                if d < 0:
                    break
                lo = last[k]  # close the released node
                if t_warm > lo:
                    lo = t_warm
                if time > lo:
                    occ[k][cnt[k]] += time - lo
                    blocked_t[k] += time - lo
                last[k] = time
        self.events = events

        if stop < math.inf:  # a time-unit run ends at its horizon
            time = stop
        for k in range(n):
            lo = last[k]
            if t_warm > lo:
                lo = t_warm
            if time > lo:
                occ[k][cnt[k]] += time - lo
                if blk[k]:
                    blocked_t[k] += time - lo
        self.window = time - min(t_warm, time)
        self.occ_time, self.blocked_t = occ, blocked_t
        self.arrivals, self.completed, self.dropped = arrivals, completed, dropped
        self.arrivals_w, self.dropped_w = arrivals_w, dropped_w
        self.resp_n, self.resp_sum, self.resp_sq, self.hop_sum = (
            resp_n, resp_sum, resp_sq, hop_sum)

        self.in_flight = sum(map(len, queue)) + n - srv.count(None)
        _check_conservation(self.in_flight, arrivals, completed, dropped)


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
