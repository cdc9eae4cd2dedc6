"""Discrete-event simulation of the blocking network.

``simulate_blocking_network`` runs the whole network with
blocking-after-service semantics and reports per-node occupancy, blocking,
drops, and source-to-sink response times.  It builds the node and routing
tables once per call; each replication is one ``_replicate`` call over
them that returns its totals, and the totals are added up in replication
order.

Blocking semantics: a job finishing service samples its destination from the
routing row.  If the sampled target is full but another routable target has
room, the job diverts to the lowest-id free target.  If every routable
target is full the job stays on its server, which blocks, until any target
frees a slot; contending blocked jobs release in the order they blocked
(ties broken by lower node id), and releases cascade until no blocked job
can move.  External arrivals to a full node are dropped and counted.

Release rule: each node keeps a waiting list of the blocked nodes that
route to it, in (block time, id) order.  After every cascade each blocked
node's targets are all full, so a freed slot can only go to the head of
its node's list, the job a scan of every blocked job in block order would
pick; that job moves into the slot, and the cascade goes on from its own.

State and window: each node holds its jobs in one first-in-first-out
deque whose head is the job on the server, so a node is idle exactly when
its deque is empty.  A run lasts ``horizon`` units of model time.
Statistics cover the measuring window that follows a warm-up of
``WARMUP_FRACTION`` of the horizon.  The event loop runs the warm-up and
the window as two passes of one loop body and restarts the statistics
once between them; response times count only jobs that entered in the
window.

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
``SeedSequence(seed).spawn``-style keys, all iteration orders are fixed,
and events are keyed by ``(time, code)``: a node has at most one pending
completion and a source one pending arrival, so the code is unique, and at
equal times arrivals run before completions, each in node id order.  A
given (spec, config) pair thus reproduces results bit for bit.
"""

from __future__ import annotations

import heapq
import math
import sys
from array import array
from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain
from numbers import Real
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericsError
from .model import NetworkSpec, _csr, _finite, _shown, _sum_in_order

# Range rule for ``model._finite``; NaN fails it.
HORIZON = (lambda x: 0.0 < x < math.inf, " must be positive and finite, got {}")
WARMUP_FRACTION = 0.2  # leading share of the horizon left out of every statistic


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    Args:
        seed: root seed; replication r uses the substream (seed, r).
        horizon: run length in model time units; positive and finite.
        replications: independent replications to merge.

    Raises:
        InputError: any field of the wrong type or out of its range; the
            horizon goes through ``model._finite``.
    """

    seed: int
    horizon: float
    replications: int = 1

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise InputError(f"seed must be a nonnegative integer, got {_shown(self.seed)}")
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, Real):
            raise InputError(f"simulation horizon must be a number, got {_shown(self.horizon)}")
        _finite(self.horizon, "simulation horizon", HORIZON)
        if (isinstance(self.replications, bool) or not isinstance(self.replications, int)
                or self.replications < 1):
            raise InputError(
                f"replications must be a positive integer, got {_shown(self.replications)}")


class NodeStats(NamedTuple):
    """Windowed per-node statistics from a network run."""

    node: int
    occupancy: tuple[float, ...]
    blocked_fraction: float
    mean_jobs: float


class SimResult(NamedTuple):
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
        # "mode" is part of the document format
        return {"mode": "network", **self._asdict(), "nodes": [ns._asdict() for ns in self.nodes]}


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

def _replicate(ids: list, cap: list, mu: list, rate: list, tgt: list, cum: list,
               rng, stop: float, t_warm: float) -> tuple:
    """One replication of the blocking network; returns its totals.

    ``ids``, ``cap``, ``mu`` and ``rate`` hold the node columns, ``tgt`` and
    ``cum`` each node's routing targets in id order and their cumulative
    probabilities.  The run ends at time ``stop``, before its first event
    past it.  The measuring window is ``[t_warm, stop]``: it opens before
    the first event at ``time >= t_warm``.

    The event loop has every handler inlined on flat per-node lists and
    runs in two passes: the warm-up, then the window.  Between them the
    statistics restart: ``occ`` and ``blocked_t`` are zeroed, every node's
    ``last`` is set to the window start, and the windowed arrival and drop
    counts are taken as differences of the whole-run counters.  A node's
    state: ``queue`` (a deque of the jobs it holds; the head is on the
    server), ``cnt`` (their number), ``blk`` (server blocked), ``waiting``
    (the ``(block time, id)`` entries of the nodes blocked on it, sorted; a
    blocked node's entry is in the list of each of its targets until it is
    released).  Every target of a blocked node is full, so a slot freed at
    k goes to the head of ``waiting[k]``.  Statistics: ``occ`` (time at
    each job count), ``blocked_t`` and ``last`` (time of the last change).
    A job is ``[entry time, hops, entered in the window]``.  Every time a
    node's count or blocked flag changes, its time since ``last`` is first
    added to its statistics ("closing" it).

    An event is ``(time, code)`` with ``code`` ``k - n`` for an arrival at
    node k and ``k`` for a completion.  Node k has at most one pending event
    of each kind, so the key is unique; at equal times the negative arrival
    codes run first, each kind in node order.  A handler holds back the last
    event it schedules in ``ev``, and the next event comes from one
    ``heappushpop`` of it, or from a ``heappop`` when there is none.

    Draw order is part of the contract: an arrival starts service before
    it schedules the next arrival, and a transfer starts the target's
    server before the source's.

    Returns the totals as one tuple, in the order of the ``return``; the
    two count differences and the ``resp_``/``hop_`` sums cover the window
    only.
    """
    # the first exponential chunk is drawn before the first uniform one
    exp_chunks = _chunks(rng.exponential, array("d", rng.exponential(size=_CHUNK).tobytes()))
    uni_chunks = _chunks(rng.random, array("d", rng.random(size=_CHUNK).tobytes()))
    n = len(cap)
    cut = [c[-1] if c else 0.0 for c in cum]  # P(route onward)
    queue = [deque() for _ in range(n)]
    cnt = [0] * n
    blk = [False] * n
    waiting = [[] for _ in range(n)]  # (block time, id) of the nodes blocked on each node
    occ = [[0.0] * (c + 1) for c in cap]
    blocked_t = [0.0] * n
    last = [0.0] * n

    exp = chain.from_iterable(exp_chunks).__next__
    uni = chain.from_iterable(uni_chunks).__next__
    heap: list = []
    push, pop, pushpop, bisect = heapq.heappush, heapq.heappop, heapq.heappushpop, bisect_right
    for k, r in enumerate(rate):
        if r > 0:
            push(heap, (exp() / r, k - n))

    arrivals = completed = dropped = 0
    resp_n = hop_sum = 0
    resp_sum = resp_sq = 0.0
    events = 0
    ev = None
    # the warm-up pass ends before the first event at time >= t_warm
    for t_lim, win in ((math.nextafter(t_warm, -math.inf), False), (stop, True)):
        if win:  # open the window at t_warm
            occ = [[0.0] * (c + 1) for c in cap]
            blocked_t = [0.0] * n
            last = [t_warm] * n
            arrivals_0, dropped_0 = arrivals, dropped
        for events in range(events, sys.maxsize):  # events handled so far
            time, code = ev = pushpop(heap, ev) if ev else pop(heap)
            if time > t_lim:
                break  # ev holds the event for the next pass

            if code < 0:  # an arrival at k
                k = code + n
                arrivals += 1
                c = cnt[k]
                if c < cap[k]:
                    dt = time - last[k]
                    occ[k][c] += dt
                    if blk[k]:
                        blocked_t[k] += dt
                    last[k] = time
                    cnt[k] = c + 1
                    queue[k].append([time, 0, win])
                    if not c:
                        push(heap, (time + exp() / mu[k], k))
                else:
                    dropped += 1
                ev = (time + exp() / rate[k], code)
                continue

            # a completion at k; close k first: every outcome changes it
            k = code
            ck = cnt[k]
            occ[k][ck] += time - last[k]
            last[k] = time
            ev = None
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
                        entry = (time, k)
                        for d in dests:
                            insort(waiting[d], entry)
                        stuck = all(map(blk.__getitem__, dests)) and _stuck_nodes(k, tgt, blk)
                        if stuck:
                            raise NumericsError(
                                f"deadlock at simulated time {time!r}: every server"
                                f" among nodes {[ids[m] for m in stuck]} is blocked,"
                                " waiting for room only these nodes can free")
                        continue  # nothing freed, nothing to cascade
                dt = time - last[d]  # close d, which gains k's job
                occ[d][cnt[d]] += dt
                if blk[d]:
                    blocked_t[d] += dt
                last[d] = time
            else:
                q = queue[k]
                job = q.popleft()
                cnt[k] = ck - 1
                completed += 1
                if job[2]:
                    r = time - job[0]
                    resp_n += 1
                    resp_sum += r
                    resp_sq += r * r
                    hop_sum += job[1]
                if q:
                    ev = (time + exp() / mu[k], k)
                d = -1

            # Move k's job to d (when d >= 0); k now has a free slot, which
            # goes to the job that blocked on k first, and so on from the
            # slot that job frees.  k and d are already closed; ck is k's count.
            while True:
                if d >= 0:
                    q = queue[k]
                    job = q.popleft()
                    job[1] += 1
                    if d == k:  # a self-loop re-queues behind its own buffer, frees no slot
                        q.append(job)
                        ev = (time + exp() / mu[k], k)
                        break
                    c = cnt[d]
                    cnt[d] = c + 1
                    cnt[k] = ck - 1
                    queue[d].append(job)
                    if not c:
                        if ev:
                            push(heap, ev)
                        ev = (time + exp() / mu[d], d)
                    if q:
                        if ev:
                            push(heap, ev)
                        ev = (time + exp() / mu[k], k)
                if not waiting[k]:
                    break  # no blocked job can move
                entry = waiting[k][0]
                d, k = k, entry[1]
                for j in tgt[k]:
                    waiting[j].remove(entry)
                blk[k] = False
                dt = time - last[k]  # close the released node
                ck = cnt[k]
                occ[k][ck] += dt
                blocked_t[k] += dt
                last[k] = time

    for k in range(n):
        dt = stop - last[k]
        occ[k][cnt[k]] += dt
        if blk[k]:
            blocked_t[k] += dt
    in_flight = sum(map(len, queue))
    _check_conservation(in_flight, arrivals, completed, dropped)
    return (events, stop - t_warm, occ, blocked_t, arrivals, completed, dropped, in_flight,
            arrivals - arrivals_0, dropped - dropped_0, resp_n, resp_sum, resp_sq, hop_sum)


def simulate_blocking_network(spec: NetworkSpec, config: SimConfig) -> SimResult:
    """Simulate the network under blocking-after-service semantics.

    See the module docstring for the blocking, diversion, and drop rules.
    Identical (spec, config) pairs produce identical results.
    """
    columns = spec.columns
    n = len(columns.id)
    ids = columns.id.tolist()
    caps = columns.capacity.tolist()
    mu = columns.service_rate.tolist()
    rate = columns.external_rate.tolist()
    # triplets run in (row, id) order: _csr groups slice them; accumulate adds left to right
    rows, cols, probs = spec.routing_triplets
    targets, begins, ends = _csr(n, rows, cols)
    tgt = [targets[a:b] for a, b in zip(begins, ends)]
    cum = [list(accumulate(probs[a:b].tolist())) for a, b in zip(begins, ends)]

    stop = config.horizon
    t_warm = WARMUP_FRACTION * stop
    runs = [_replicate(ids, caps, mu, rate, tgt, cum, _rep_rng(config.seed, rep), stop, t_warm)
            for rep in range(config.replications)]
    (events, windows, occ_time, blocked_t, arrivals, completed, dropped, in_flight,
     arrivals_w, dropped_w, resp_n, resp_sum, resp_sq, hop_sum) = zip(*runs)

    window = _sum_in_order(windows)  # positive: the warm-up is a fraction of a positive horizon
    nodes = []
    mean_jobs_total = 0.0
    for k, (i, cap) in enumerate(zip(ids, caps)):
        fractions = tuple(_sum_in_order(occ[k][n_jobs] for occ in occ_time) / window
                          for n_jobs in range(cap + 1))
        mean_jobs = _sum_in_order(n_jobs * f for n_jobs, f in enumerate(fractions))
        mean_jobs_total += mean_jobs
        nodes.append(NodeStats(
            node=i,
            occupancy=fractions,
            blocked_fraction=_sum_in_order(b[k] for b in blocked_t) / window,
            mean_jobs=mean_jobs,
        ))

    resp_n, resp_sum, resp_sq = sum(resp_n), _sum_in_order(resp_sum), _sum_in_order(resp_sq)
    response_mean = resp_sum / resp_n if resp_n else None
    response_stderr = None
    if resp_n > 1:
        var = max(0.0, (resp_sq - resp_n * (resp_sum / resp_n) ** 2) / (resp_n - 1))
        response_stderr = math.sqrt(var / resp_n)
    arrivals_w = sum(arrivals_w)

    return SimResult(
        events=sum(events),
        duration=window,
        replications=config.replications,
        nodes=tuple(nodes),
        mean_jobs=mean_jobs_total,
        arrivals=sum(arrivals),
        completed=sum(completed),
        dropped=sum(dropped),
        in_flight=sum(in_flight),
        drop_fraction=sum(dropped_w) / arrivals_w if arrivals_w else None,
        response_mean=response_mean,
        response_stderr=response_stderr,
        mean_hops=sum(hop_sum) / resp_n if resp_n else None,
    )
