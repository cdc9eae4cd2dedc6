"""Network performance metrics.

The per-node columns come from :func:`qnswap.pfqn.analyze_network`: a
capacity-one blocking node's utilization is ``1 - pi00``, its mean job count
``kbar = pi10 + pi01``, and Little's law gives ``tbar = kbar / lambda =
pi00 * (1/mu + Pb/mu_b)``, which is no time per visit (below ``1/mu`` on all 11
munoz15 intermediates).  The network's ``mean_response_time`` is the mean
``kbar`` over the chosen nodes divided by the external rate lambda0, and no
source-to-sink time (ROADMAP.md, items 3 and 5); ``total_jobs`` is their sum.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import _finite, _finite_column, _node_keys, _shown


@dataclass(frozen=True)
class NetworkMetrics:
    mean_jobs: float
    mean_response_time: float
    external_rate: float
    total_jobs: float
    nodes: tuple[int, ...]


def network_metrics(nodes: Sequence[int], mean_jobs: Sequence[float],
                    external_rate: float,
                    subset: Iterable[int] | None = None) -> NetworkMetrics:
    """Aggregate per-node mean job counts over a subset (default: every node).

    ``nodes`` and ``mean_jobs`` are matching columns.  The sum runs left to
    right in node-id order, so the result does not depend on the order of
    the columns.  Raises InputError when a node is no node id (a bool or a
    non-integer), a mean job count is no finite number or the columns differ
    in length; when the subset holds a value that is no node id (an unknown
    id is skipped) or selects no node; or when ``external_rate`` is no finite
    positive number.
    """
    # analyze_network's int64 and float columns are checked as arrays
    if not (isinstance(nodes, np.ndarray) and nodes.dtype.kind == "i" and nodes.ndim == 1):
        nodes = nodes.tolist() if isinstance(nodes, np.ndarray) else list(nodes)
        keys = _node_keys(nodes, pair=False)
        if keys is None:
            raise InputError(f"metric nodes {_shown(nodes)} hold a value that is no node id")
        nodes = np.array(keys, dtype=object)  # Python ints: any id sorts exactly
    if isinstance(mean_jobs, np.ndarray) and mean_jobs.dtype.kind == "f" and mean_jobs.ndim == 1:
        jobs = mean_jobs
    else:
        mean_jobs = mean_jobs.tolist() if isinstance(mean_jobs, np.ndarray) else list(mean_jobs)
        jobs = np.array(_finite_column(mean_jobs))  # NaN marks a value _finite rejects
    if len(nodes) != len(jobs):
        raise InputError(f"metric columns differ in length: {len(nodes)} node ids, "
                         f"{len(jobs)} mean job counts")
    finite = np.isfinite(jobs)
    if np.count_nonzero(finite) < len(jobs):
        k = int(np.argmin(finite))
        value = mean_jobs[k] if type(mean_jobs) is list else float(jobs[k])
        _finite(value, f"mean jobs of node {_shown(int(nodes[k]))}")  # raises
    chosen = np.argsort(nodes, kind="stable")
    if subset is not None:
        subset = list(subset)
        wanted = _node_keys(subset, pair=False)
        if wanted is None:
            raise InputError(f"metric subset {_shown(subset)} holds a value that is no node id")
        wanted = set(wanted)
        chosen = chosen[[i in wanted for i in nodes[chosen].tolist()]]
    if not chosen.size:
        raise InputError("metric subset contains no nodes")
    external_rate = _finite(external_rate, "external rate")
    if external_rate <= 0:
        raise InputError("subset has zero arrival rate; per-job metrics undefined")
    # accumulate adds in order; np.sum adds pairwise, which changes the last digits
    total = float(np.add.accumulate(jobs[chosen])[-1])
    mean = total / chosen.size
    return NetworkMetrics(
        mean_jobs=mean,
        mean_response_time=mean / external_rate,
        external_rate=external_rate,
        total_jobs=total,
        nodes=tuple(nodes[chosen].tolist()),
    )
