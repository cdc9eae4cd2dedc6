"""Network performance metrics.

The per-node columns come from :func:`qnswap.pfqn.analyze_network`:
utilization of a capacity-one blocking node is the probability of not being
empty, its mean job count is serving + blocked mass, and mean response time
follows from Little's law.  The network-level mean job count is the
*average* of the per-node means over the chosen subset (matching the
per-hop reading of the response-time prediction), while the conventional
population sum is carried separately as ``total_jobs``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError
from .model import _finite, _node_keys, _shown

# Range rule for ``model._finite``; NaN and inf fail it.
AT_LEAST_ONE = (lambda x: 1.0 <= x < math.inf, " must be at least 1 and finite, got {}")


@dataclass(frozen=True)
class NetworkMetrics:
    mean_jobs: float
    mean_response_time: float
    external_rate: float
    total_jobs: float
    nodes: tuple[int, ...]


@dataclass(frozen=True)
class SwapDepthReport:
    predicted_response_time: float
    observed_depth: float
    absolute_gap: float
    relative_gap: float
    hop_bounds: tuple[int, int]
    within_hop_bounds: bool

    def to_jsonable(self) -> dict:
        return {**asdict(self), "hop_bounds": list(self.hop_bounds)}


def network_metrics(nodes: Sequence[int], mean_jobs: Sequence[float],
                    external_rate: float,
                    subset: Iterable[int] | None = None) -> NetworkMetrics:
    """Aggregate per-node mean job counts over a subset (default: every node).

    ``nodes`` and ``mean_jobs`` are matching columns.  The sum runs left to
    right in node-id order, so the result does not depend on the order of
    the columns.  Raises InputError when the subset holds a value that is no
    node id (a bool or a non-integer; an unknown id is skipped) or selects
    no node, or when ``external_rate`` is not positive.
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


def swap_depth_report(net: NetworkMetrics, observed_depth: float,
                      hop_bounds: Sequence[int]) -> SwapDepthReport:
    """Compare the predicted mean response time against an observed depth.

    ``hop_bounds`` is the (shortest, longest) route length pair; the report
    flags whether the prediction lands inside it.

    Raises:
        InputError: hop bounds that are no pair of integers by the node-id rule
            of ``model._node_keys`` (a bool is none) or are out of order, or a
            depth below 1 or that ``model._finite`` rejects.
    """
    bounds = _node_keys(list(hop_bounds), pair=False) if isinstance(hop_bounds, Iterable) else None
    if bounds is None or len(bounds) != 2:
        raise InputError(f"hop bounds must be a pair of integers, got {_shown(hop_bounds)}")
    lo, hi = bounds
    if lo > hi:
        raise InputError(f"hop bounds out of order: {lo} > {hi}")
    depth = _finite(observed_depth, "observed depth", AT_LEAST_ONE)
    predicted = net.mean_response_time
    gap = depth - predicted
    return SwapDepthReport(
        predicted_response_time=predicted,
        observed_depth=depth,
        absolute_gap=gap,
        relative_gap=gap / depth,
        hop_bounds=(lo, hi),
        within_hop_bounds=lo <= predicted <= hi,
    )
