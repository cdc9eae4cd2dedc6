"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same operation can take 50% longer from one minute to
the next, because other tenants load the cores and the memory system.  The
harness runs this kernel around every round and scales the round's times by
it: the scaled time follows changes in the program, and much less changes
in the host.  Host times are printed next to the scaled ones.

A pass is Python interpreter work of the kind the simulator and the CLI
do: an event heap, method calls, deques, a sorted set and JSON text.  With
``dense`` it also does rank-one updates of a dense matrix, like the traffic
elimination that dominates the 40x40 analyze.  On sweeps of ten seeds the
plain pass tracked the simulator and the CLI best, and the pass with dense
updates tracked the 40x40 analyze best; neither tracked the other well.
Kernel sizes are fixed, and they never call qnswap.
"""

from __future__ import annotations

import heapq
import json
import statistics
from collections import deque
from time import perf_counter

import numpy as np

# Seconds one pass takes on the reference host (2-core x86_64, Python 3.11,
# numpy 2.4) in its usual state, without and with the dense updates.
# Normalised times are host times scaled by REFERENCE_PASS_S / (pass time
# measured around them).
REFERENCE_PASS_S = {False: 0.01, True: 0.025}

_SIDE = 400  # 1.3 MB, small next to qnswap's own memory, so peak RSS stays its


class _Station:
    __slots__ = ("jobs", "served")

    def __init__(self):
        self.jobs = deque()
        self.served = 0

    def has_room(self) -> bool:
        return len(self.jobs) < 2


def _event_loop() -> float:
    """A small event loop: a heap of timed events moving jobs between
    stations, with method calls, deques and a sorted blocked set."""
    stations = [_Station() for _ in range(40)]
    heap: list = []
    blocked: set = set()
    x, seq, acc = 12345, 0, 0.0
    for k in range(40):
        heapq.heappush(heap, (k * 0.1, k, k))
    for _ in range(3000):
        t, _, k = heapq.heappop(heap)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x % 40
        st, target = stations[k], stations[j]
        if target.has_room():
            target.jobs.append(t)
            if st.jobs:
                acc += t - st.jobs.popleft()
            st.served += 1
            blocked.discard(k)
        else:
            blocked.add(k)
            for m in sorted(blocked):
                if stations[m].has_room():
                    break
        seq += 1
        heapq.heappush(heap, (t + (x % 1000) / 500.0, seq, j))
    text = json.dumps([{"node": i, "served": s.served} for i, s in enumerate(stations)])
    return acc + len(json.loads(text))


def _dense_updates() -> float:
    a = np.ones((_SIDE, _SIDE))
    for k in range(20):
        a[k + 1:, k:] -= np.outer(a[k + 1:, k] * 1e-3, a[k, k:])
    return float(a[-1, -1])


def measure(dense: bool, reps: int = 3) -> float:
    """Seconds for one pass of the kernel: the median of ``reps`` passes."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        _event_loop()
        if dense:
            _dense_updates()
        times.append(perf_counter() - start)
    return statistics.median(times)
