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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class NetworkMetrics:
    mean_jobs: float
    mean_response_time: float
    external_rate: float
    total_jobs: float
    nodes: tuple[int, ...]

    def to_jsonable(self) -> dict:
        return {
            "mean_jobs": self.mean_jobs,
            "mean_response_time": self.mean_response_time,
            "external_rate": self.external_rate,
            "total_jobs": self.total_jobs,
            "nodes": list(self.nodes),
        }


@dataclass(frozen=True)
class SwapDepthReport:
    predicted_response_time: float
    observed_depth: float
    absolute_gap: float
    relative_gap: float
    hop_bounds: tuple[int, int]
    within_hop_bounds: bool

    def to_jsonable(self) -> dict:
        return {
            "predicted_response_time": self.predicted_response_time,
            "observed_depth": self.observed_depth,
            "absolute_gap": self.absolute_gap,
            "relative_gap": self.relative_gap,
            "hop_bounds": list(self.hop_bounds),
            "within_hop_bounds": self.within_hop_bounds,
        }


def network_metrics(nodes: Sequence[int], mean_jobs: Sequence[float],
                    external_rate: float,
                    subset: Iterable[int] | None = None) -> NetworkMetrics:
    """Aggregate per-node mean job counts over a subset (default: every node).

    ``nodes`` and ``mean_jobs`` are matching columns.  The sum runs left to
    right in node-id order, so the result does not depend on the order of
    the columns.  Raises InputError when the subset selects no node or
    ``external_rate`` is not positive.
    """
    nodes = np.asarray(nodes, dtype=np.intp)
    chosen = np.argsort(nodes, kind="stable")
    if subset is not None:
        wanted = set(subset)
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
    """
    lo, hi = hop_bounds
    if lo > hi:
        raise ValueError(f"hop bounds out of order: {lo} > {hi}")
    if observed_depth < 1:
        raise ValueError(f"observed depth must be at least 1, got {observed_depth!r}")
    predicted = net.mean_response_time
    gap = observed_depth - predicted
    return SwapDepthReport(
        predicted_response_time=predicted,
        observed_depth=float(observed_depth),
        absolute_gap=gap,
        relative_gap=gap / observed_depth,
        hop_bounds=(int(lo), int(hi)),
        within_hop_bounds=lo <= predicted <= hi,
    )
