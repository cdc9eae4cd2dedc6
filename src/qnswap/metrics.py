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
from .model import _finite, _node_keys, _shown


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
    the columns.  Raises InputError when the subset holds a value that is no
    node id (a bool or a non-integer; an unknown id is skipped) or selects
    no node, or when ``external_rate`` is no finite positive number.
    """
    nodes = np.asarray(nodes, dtype=np.intp)
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
    total = float(np.add.accumulate(np.asarray(mean_jobs, dtype=float)[chosen])[-1])
    mean = total / chosen.size
    return NetworkMetrics(
        mean_jobs=mean,
        mean_response_time=mean / external_rate,
        external_rate=external_rate,
        total_jobs=total,
        nodes=tuple(nodes[chosen].tolist()),
    )
