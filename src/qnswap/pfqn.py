"""Product-form analysis of the open blocking network.

Each intermediate node is analyzed as an independent three-state blocking
chain fed by its solved arrival rate; the joint stationary distribution is
the plain product of the marginals (open network, normalization constant 1).
The blocking probability seen by a node is the chance its routing target is
full.  Under the worst-case assumption every neighbor is driven at full
utilization, so a capacity-one neighbor is full half the time; an explicit
override can replace the computed value wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .ctmc import NodeMarginal, blocking_node_closed_form, mm1k_full_probability
from .errors import InputError
from .metrics import NetworkMetrics, NodeMetrics, network_metrics, node_metrics
from .model import NetworkSpec, NodeKind
from .traffic import ArrivalRates, solve_traffic


@dataclass(frozen=True)
class AnalysisAssumptions:
    """Knobs for the analytic model.

    Args:
        rho_one: treat every routing target as fully utilized when deriving
            blocking probabilities (the worst case).  When False, target
            utilizations come from the solved arrival rates.
        blocking_probability_override: if set, use this value verbatim for
            every node instead of computing anything.
    """

    rho_one: bool = True
    blocking_probability_override: float | None = None

    def __post_init__(self):
        pb = self.blocking_probability_override
        if pb is not None and not 0.0 <= pb <= 1.0:
            raise InputError(
                f"blocking probability override: probability {pb!r} outside [0, 1]")


DEFAULT_ASSUMPTIONS = AnalysisAssumptions()


@dataclass(frozen=True)
class NetworkAnalysis:
    """Everything the analytic pipeline produces for one network."""

    assumptions: AnalysisAssumptions
    arrival_rates: ArrivalRates
    marginals: Mapping[int, NodeMarginal]
    blocking_probabilities: Mapping[int, float]
    node_metrics: Mapping[int, NodeMetrics]
    network: NetworkMetrics

    def rows(self) -> list[dict]:
        """One row per analyzed node, in id order, ready for tabulation."""
        out = []
        for i in sorted(self.marginals):
            m = self.marginals[i]
            nm = self.node_metrics[i]
            out.append({
                "node": i,
                "pi00": m.pi00,
                "pi10": m.pi10,
                "pi01": m.pi01,
                "rho": nm.utilization,
                "kbar": nm.mean_jobs,
                "tbar": nm.mean_response_time,
            })
        return out

    def to_jsonable(self) -> dict:
        nodes = []
        for row, i in zip(self.rows(), sorted(self.marginals)):
            row = dict(row)
            row["arrival_rate"] = self.arrival_rates.rates[i]
            row["blocking_probability"] = self.blocking_probabilities[i]
            nodes.append(row)
        return {
            "assumptions": {
                "rho_one": self.assumptions.rho_one,
                "blocking_probability_override":
                    self.assumptions.blocking_probability_override,
                # an open network's product form is normalized as it stands
                "normalization_constant": 1.0,
            },
            "nodes": nodes,
            "network": self.network.to_jsonable(),
        }


def worst_case_blocking_probability(
    spec: NetworkSpec,
    node_id: int,
    assumptions: AnalysisAssumptions = DEFAULT_ASSUMPTIONS,
    rates: ArrivalRates | None = None,
) -> float:
    """Blocking probability for one intermediate node.

    The routing-weighted chance that the node's target is full:
    ``sum_j p_ij * P_full(target j)``, with target utilization 1 under the
    worst-case assumption.  An override in ``assumptions`` wins outright.

    Raises:
        InputError: the node is a source or sink.
    """
    node = spec.node(node_id)
    if node.kind is not NodeKind.INTERMEDIATE:
        raise InputError(f"node {node_id} is not an intermediate node")
    if assumptions.blocking_probability_override is not None:
        return assumptions.blocking_probability_override

    row = spec.routing.row(node_id)
    if not assumptions.rho_one and rates is None:
        rates = solve_traffic(spec)
    total = 0.0
    for j, p in sorted(row.items()):
        if p <= 0.0:
            continue
        target = spec.node(j)
        if assumptions.rho_one:
            rho_j = 1.0
        else:
            rho_j = rates.rates[j] / target.service_rate
        total += p * mm1k_full_probability(rho_j, target.capacity)
    return total


def analyze_network(
    spec: NetworkSpec,
    assumptions: AnalysisAssumptions = DEFAULT_ASSUMPTIONS,
) -> NetworkAnalysis:
    """Run the full analytic pipeline on a network.

    Solves the traffic equations, builds the three-state marginal for every
    intermediate node from its closed form, and aggregates node and network
    metrics.  Boundary (source/sink) nodes get no marginal; they only shape
    the blocking probabilities and the traffic solution.

    Raises:
        InputError: an intermediate node whose solved arrival rate is not
            positive.
    """
    rates = solve_traffic(spec)

    marginals: dict[int, NodeMarginal] = {}
    blocking: dict[int, float] = {}
    per_node: dict[int, NodeMetrics] = {}
    for node in spec.intermediates():
        lam = rates.rates[node.id]
        if lam <= 0:
            raise InputError(
                f"node {node.id} has zero arrival rate; per-job metrics undefined")
        pb = worst_case_blocking_probability(spec, node.id, assumptions, rates)
        marginal = blocking_node_closed_form(
            lam, node.service_rate, node.unblock_rate, pb)
        marginals[node.id] = marginal
        blocking[node.id] = pb
        per_node[node.id] = node_metrics(marginal, lam, node=node.id)

    network = network_metrics(per_node.values(), rates.total_external)
    return NetworkAnalysis(
        assumptions=assumptions,
        arrival_rates=rates,
        marginals=marginals,
        blocking_probabilities=blocking,
        node_metrics=per_node,
        network=network,
    )
