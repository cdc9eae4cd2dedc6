"""Per-node and network performance metrics.

Conventions: utilization of a capacity-one blocking node is the probability
of not being empty, its mean job count is serving + blocked mass, and mean
response time follows from Little's law.  The network-level mean job count
is the *average* of the per-node means over the chosen subset (matching the
per-hop reading of the response-time prediction), while the conventional
population sum is carried separately as ``total_jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .ctmc import NodeMarginal
from .errors import InputError


@dataclass(frozen=True)
class NodeMetrics:
    node: int
    utilization: float
    mean_jobs: float
    mean_response_time: float


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


def node_metrics(marginal: NodeMarginal, arrival_rate: float,
                 node: int = 0) -> NodeMetrics:
    """Utilization, mean jobs, and mean response time of one blocking node.

    Raises InputError when ``arrival_rate`` is not positive, since per-job
    time is undefined for a node that never receives work.
    """
    if arrival_rate <= 0:
        raise InputError(f"node {node} has zero arrival rate; per-job metrics undefined")
    rho = 1.0 - marginal.pi00
    kbar = marginal.pi10 + marginal.pi01
    return NodeMetrics(
        node=node,
        utilization=rho,
        mean_jobs=kbar,
        mean_response_time=kbar / arrival_rate,
    )


def network_metrics(per_node: Iterable[NodeMetrics], external_rate: float,
                    subset: Iterable[int] | None = None) -> NetworkMetrics:
    """Aggregate node metrics over a subset (default: everything given).

    Summation runs in node-id order, so the result does not depend on the
    order of ``per_node``.  Raises InputError when the subset selects no
    node or ``external_rate`` is not positive.
    """
    wanted = None if subset is None else set(subset)
    chosen = sorted(
        (m for m in per_node if wanted is None or m.node in wanted),
        key=lambda m: m.node,
    )
    if not chosen:
        raise InputError("metric subset contains no nodes")
    if external_rate <= 0:
        raise InputError("subset has zero arrival rate; per-job metrics undefined")
    total = 0.0
    for m in chosen:
        total += m.mean_jobs
    mean_jobs = total / len(chosen)
    return NetworkMetrics(
        mean_jobs=mean_jobs,
        mean_response_time=mean_jobs / external_rate,
        external_rate=external_rate,
        total_jobs=total,
        nodes=tuple(m.node for m in chosen),
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
