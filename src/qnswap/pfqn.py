"""Product-form analysis of the open blocking network.

Each intermediate node is analyzed as an independent three-state blocking
chain fed by its solved arrival rate; the joint stationary distribution is
the plain product of the marginals (open network, normalization constant 1).
The blocking probability seen by a node is the routing-weighted chance
that its target is full, ``sum_j p_ij * P_full(target j)``.  Under the
worst-case assumption every neighbor is driven at full utilization, so a
capacity-one neighbor is full half the time; otherwise target utilizations
come from the solved rates, and an explicit override can replace the
computed value wholesale.

The analysis is one pass of array operations over the intermediate nodes in
id order, with one column per per-node field: P_full once per routing
target, the blocking probabilities as one ``np.bincount`` over the routing
triplets, the closed form elementwise, and ``rho``/``kbar``/``tbar`` from
the marginals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctmc import blocking_node_closed_form, mm1k_full_probability
from .errors import InputError
from .metrics import NetworkMetrics, network_metrics
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


@dataclass(frozen=True, eq=False)
class NetworkAnalysis:
    """Everything the analytic pipeline produces for one network.

    The per-node fields are columns over the intermediate nodes in id order:
    entry k of each belongs to node ``nodes[k]``.
    """

    nodes: np.ndarray
    blocking_probability: np.ndarray
    pi00: np.ndarray
    pi10: np.ndarray
    pi01: np.ndarray
    rho: np.ndarray
    kbar: np.ndarray
    tbar: np.ndarray
    assumptions: AnalysisAssumptions
    arrival_rates: ArrivalRates
    network: NetworkMetrics

    def rows(self) -> list[dict]:
        """One row per analyzed node, in id order, ready for tabulation."""
        keys = ("node", "pi00", "pi10", "pi01", "rho", "kbar", "tbar")
        columns = (self.nodes, self.pi00, self.pi10, self.pi01, self.rho, self.kbar, self.tbar)
        return [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))]

    def to_jsonable(self) -> dict:
        nodes = self.rows()
        for row, pb in zip(nodes, self.blocking_probability.tolist()):
            row["arrival_rate"] = self.arrival_rates.rates[row["node"]]
            row["blocking_probability"] = pb
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


def analyze_network(
    spec: NetworkSpec,
    assumptions: AnalysisAssumptions = DEFAULT_ASSUMPTIONS,
) -> NetworkAnalysis:
    """Run the full analytic pipeline on a network (see module docstring).

    Solves the traffic equations, then computes the per-node columns.
    Boundary (source/sink) nodes get no marginal; they only shape the
    blocking probabilities and the traffic solution.

    Raises:
        InputError: an intermediate node whose solved arrival rate or whose
            service rate is not positive; the first such node in id order
            is named.
        NumericsError: a node's marginal is not a distribution.
    """
    rates = solve_traffic(spec)
    nodes = spec.nodes
    inner = np.array([n.kind is NodeKind.INTERMEDIATE for n in nodes], dtype=bool)
    ids = np.array(spec.ids(), dtype=np.intp)[inner]
    mu = np.array([n.service_rate for n in nodes], dtype=float)[inner]
    mu_b = np.array([n.unblock_rate for n in nodes], dtype=float)[inner]
    lam = np.fromiter(rates.rates.values(), dtype=float, count=len(nodes))[inner]

    override = assumptions.blocking_probability_override
    if override is not None:
        pb = np.full(len(ids), override, dtype=float)
    else:
        rows, cols, probs = spec.routing_triplets
        used = (probs > 0.0) & inner[rows]
        rows, cols, probs = rows[used], cols[used], probs[used]
        targets = np.flatnonzero(np.bincount(cols, minlength=len(nodes))).tolist()
        full = np.zeros(len(nodes))
        full[targets] = [
            mm1k_full_probability(
                1.0 if assumptions.rho_one
                else rates.rates[nodes[t].id] / nodes[t].service_rate,
                nodes[t].capacity)
            for t in targets
        ]
        # bincount adds in triplet order, (from, to), so each sum runs over
        # the targets in id order
        pb = np.bincount(rows, weights=probs * full[cols], minlength=len(nodes))[inner]

    zero = np.flatnonzero(lam <= 0)
    good = int(zero[0]) if zero.size else len(ids)  # nodes before the first zero rate
    marginal = blocking_node_closed_form(lam[:good], mu[:good], mu_b[:good], pb[:good])
    if good < len(ids):
        raise InputError(
            f"node {ids[good]} has zero arrival rate; per-job metrics undefined")
    kbar = marginal.pi10 + marginal.pi01
    return NetworkAnalysis(
        nodes=ids,
        blocking_probability=pb,
        pi00=marginal.pi00,
        pi10=marginal.pi10,
        pi01=marginal.pi01,
        rho=1.0 - marginal.pi00,
        kbar=kbar,
        tbar=kbar / lam,
        assumptions=assumptions,
        arrival_rates=rates,
        network=network_metrics(ids, kbar, rates.total_external),
    )
