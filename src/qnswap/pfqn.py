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

The analysis is one pass of array operations over every station in id
order: the utilization, P_full as one elementwise call and the blocking
probabilities as one ``np.bincount`` over the routing triplets.  The closed
form then runs elementwise over the intermediate nodes, and
``rho``/``kbar``/``tbar`` come from the marginals.  The closed forms run as
unchecked ``ctmc`` kernels under one fault check: the first intermediate node
that fails it raises through the checked function on that node's values, and
the message names the node.

A capacity-one blocking node's utilization is ``1 - pi00``, its mean job count
``kbar = pi10 + pi01``, and Little's law gives ``tbar = kbar / lambda =
pi00 * (1/mu + Pb/mu_b)``, which is no time per visit (below ``1/mu`` on all 11
munoz15 intermediates).  A node no job reaches (lambda = 0) is idle, no fault:
pi00 = 1, ``rho`` = ``kbar`` = 0 and ``tbar`` = ``1/mu + Pb/mu_b`` (the above at
pi00 = 1, and the lambda -> 0 limit of ``kbar / lambda``).  The network's
``mean_response_time`` is the mean ``kbar`` over the chosen nodes divided by the
external rate lambda0, and no source-to-sink time (ROADMAP.md, items 3 and 5);
``total_jobs`` is their sum.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ctmc import SUM_TOL, _closed_form, _mm1k_full, blocking_node_closed_form
from .errors import InputError, NumericsError
from .model import KIND_CODES, PROBABILITY, NetworkSpec, NodeKind, _finite, _node_keys, _shown
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


class NetworkMetrics(NamedTuple):
    """The network aggregates over a set of analyzed nodes (see module docstring)."""

    mean_jobs: float
    mean_response_time: float
    external_rate: float
    total_jobs: float
    nodes: tuple[int, ...]

    @classmethod
    def _over(cls, nodes: np.ndarray, kbar: np.ndarray,
              external_rate: float) -> NetworkMetrics:
        """The aggregates of id-ordered ``nodes`` and ``kbar`` columns."""
        # accumulate adds in order; np.sum adds pairwise, which changes the last digits
        total = float(np.add.accumulate(kbar)[-1])
        mean = total / len(kbar)
        return cls(mean_jobs=mean, mean_response_time=mean / external_rate,
                   external_rate=external_rate, total_jobs=total, nodes=tuple(nodes.tolist()))


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

    def network_over(self, subset: Iterable[int]) -> NetworkMetrics:
        """The network aggregates over the analyzed nodes whose ids are in ``subset``.

        An id of no analyzed node is skipped.  Raises InputError when the subset
        holds a value that is no node id (a bool or a non-integer) or selects no node.
        """
        subset = list(subset)
        wanted = _node_keys(subset, pair=False)
        if wanted is None:
            raise InputError(f"metric subset {_shown(subset)} holds a value that is no node id")
        wanted = set(wanted)
        chosen = [i in wanted for i in self.nodes.tolist()]
        if not any(chosen):
            raise InputError("metric subset contains no nodes")
        return NetworkMetrics._over(self.nodes[chosen], self.kbar[chosen],
                                    self.network.external_rate)


def analyze_network(
    spec: NetworkSpec,
    assumptions: AnalysisAssumptions = DEFAULT_ASSUMPTIONS,
) -> NetworkAnalysis:
    """Run the full analytic pipeline on a network (see module docstring).

    Solves the traffic equations, then computes P_full and the blocking
    probabilities for every station and the marginal columns for the
    intermediates.  Boundary (source/sink) nodes get no marginal; they only
    shape the blocking probabilities and the traffic solution.

    Raises:
        InputError: the network has no intermediate node, or an intermediate
            node's service rate is not positive (an idle node's included) or
            its blocking probability exceeds 1, or the external rates sum to inf.
        NumericsError: a node's marginal is not a distribution.
        Of several such nodes, the first in id order raises, named in the message.
    """
    lam_all = solve_traffic(spec)
    col = spec.columns
    inner = col.kind == KIND_CODES[NodeKind.INTERMEDIATE]
    if not np.count_nonzero(inner):
        raise InputError("network has no intermediate node to analyze")
    ids = col.id[inner]
    lam, mu, mu_b = lam_all[inner], col.service_rate[inner], col.unblock_rate[inner]
    override = assumptions.blocking_probability_override
    # overflow and zero rates leave inf and NaN, which ``ok`` flags or ``np.where`` drops
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if override is not None:
            pb = np.full(len(ids), override, dtype=float)
        else:
            rho = np.ones(len(lam_all)) if assumptions.rho_one else lam_all / col.service_rate
            full = _mm1k_full(rho, col.capacity)
            rows, cols, probs = spec.routing_triplets
            # bincount adds in triplet order, (from, to), so each sum runs over
            # the targets in id order
            pb = np.bincount(rows, weights=probs * full[cols], minlength=len(lam_all))[inner]
        pi00, pi10, pi01 = _closed_form(lam, mu, mu_b, pb)
        # a routing row may sum to 1 + ROW_SUM_TOL, so pb may exceed 1
        ok = (abs(pi00 + pi10 + pi01 - 1.0) <= SUM_TOL) & (pb <= 1.0)
        kbar = pi10 + pi01
        tbar = np.where(lam > 0.0, kbar / lam, 1.0 / mu + pb / mu_b)  # idle: the lambda -> 0 limit
    if np.count_nonzero(ok) < len(ids):
        k = int(np.argmin(ok))  # the first failing node
        try:  # an idle node is checked at a unit rate: its zero rate is no fault
            blocking_node_closed_form(float(lam[k]) or 1.0, *(float(c[k]) for c in (mu, mu_b, pb)))
        except (InputError, NumericsError) as fault:  # the checked call raises
            raise type(fault)(f"node {ids[k]}: {fault}") from None
    return NetworkAnalysis(
        nodes=ids,
        arrival_rate=lam,
        blocking_probability=pb,
        pi00=pi00, pi10=pi10, pi01=pi01, rho=1.0 - pi00, kbar=kbar, tbar=tbar,
        assumptions=assumptions,
        network=NetworkMetrics._over(ids, kbar,
                                     _finite(total_external_rate(spec), "external rate")),
    )
