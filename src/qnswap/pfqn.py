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
from .model import KIND_CODES, PROBABILITY, NetworkSpec, NodeKind, _finite
from .traffic import solve_traffic, total_external_rate


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
        if self.blocking_probability_override is not None:
            _finite(self.blocking_probability_override, "blocking probability override",
                    PROBABILITY)


DEFAULT_ASSUMPTIONS = AnalysisAssumptions()


@dataclass(frozen=True, eq=False)
class NetworkAnalysis:
    """Everything the analytic pipeline produces for one network.

    The per-node fields, from ``arrival_rate`` (the solved traffic rate) to
    ``tbar``, are columns over the intermediate nodes in id order: entry k
    of each belongs to node ``nodes[k]``.  Every writer reads these columns.
    """

    nodes: np.ndarray
    arrival_rate: np.ndarray
    blocking_probability: np.ndarray
    pi00: np.ndarray
    pi10: np.ndarray
    pi01: np.ndarray
    rho: np.ndarray
    kbar: np.ndarray
    tbar: np.ndarray
    assumptions: AnalysisAssumptions
    network: NetworkMetrics


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
    lam_all = solve_traffic(spec)
    col = spec.columns
    inner = col.kind == KIND_CODES[NodeKind.INTERMEDIATE]
    ids = col.id[inner]
    lam, mu, mu_b = lam_all[inner], col.service_rate[inner], col.unblock_rate[inner]

    override = assumptions.blocking_probability_override
    if override is not None:
        pb = np.full(len(ids), override, dtype=float)
    else:
        rows, cols, probs = spec.routing_triplets
        used = inner[rows]
        rows, cols, probs = rows[used], cols[used], probs[used]
        targets = np.flatnonzero(np.bincount(cols, minlength=len(inner)))
        rho = (np.ones(len(targets)) if assumptions.rho_one
               else lam_all[targets] / col.service_rate[targets])
        full = np.zeros(len(inner))
        full[targets] = list(map(mm1k_full_probability, rho.tolist(),
                                 col.capacity[targets].tolist()))
        # bincount adds in triplet order, (from, to), so each sum runs over
        # the targets in id order
        pb = np.bincount(rows, weights=probs * full[cols], minlength=len(inner))[inner]

    zero = np.flatnonzero(lam <= 0)
    good = int(zero[0]) if zero.size else len(ids)  # nodes before the first zero rate
    marginal = blocking_node_closed_form(lam[:good], mu[:good], mu_b[:good], pb[:good])
    if good < len(ids):
        raise InputError(
            f"node {ids[good]} has zero arrival rate; per-job metrics undefined")
    kbar = marginal.pi10 + marginal.pi01
    return NetworkAnalysis(
        nodes=ids,
        arrival_rate=lam,
        blocking_probability=pb,
        pi00=marginal.pi00,
        pi10=marginal.pi10,
        pi01=marginal.pi01,
        rho=1.0 - marginal.pi00,
        kbar=kbar,
        tbar=kbar / lam,
        assumptions=assumptions,
        network=network_metrics(ids, kbar, total_external_rate(spec)),
    )
