"""Per-node arrival rates for an open network.

In steady state the rate into node i is the external rate plus everything
routed there from other nodes:

    lambda_i = lambda0_i + sum_j p_ji * lambda_j

which is the linear system ``(I - P^T) lambda = lambda0``.  The direct
solver (LAPACK, through ``np.linalg.solve``) is the production path; a damped
fixed-point iteration is kept alongside it as an independent cross-check.
Nodes listed in ``known_arrival_rates`` are pinned to their given values and
excluded from the residual check.

The system is singular when some unpinned node has no routing path that
leaves the network or reaches a pinned node: jobs that enter such a closed
subnetwork never leave.  An exit probability within ``ROW_SUM_TOL`` of zero
counts as no exit, since it is rounding in the routing row, not a real leak.
The direct solver finds those nodes from the routing graph before solving, so
the error names them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    NonConvergentError,
    NumericalFailureError,
    SingularRoutingError,
)
from .model import ROW_SUM_TOL, NetworkSpec

# Largest accepted residual, relative to the largest input rate.
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ArrivalRates:
    """Solved arrival rates, one entry per node, plus the external total."""

    rates: Mapping[int, float]
    total_external: float

    def __post_init__(self):
        object.__setattr__(self, "rates",
                           {int(k): float(v) for k, v in sorted(self.rates.items())})

    def rate(self, node_id: int) -> float:
        return self.rates[node_id]


def total_external_rate(spec: NetworkSpec) -> float:
    """Sum of all external arrival rates; 0 if there are none."""
    return float(sum(spec.external_arrivals.values()))


def _system(spec: NetworkSpec):
    ids = spec.ids()
    index = {i: k for k, i in enumerate(ids)}
    n = len(ids)
    p = np.zeros((n, n))
    for (i, j), prob in spec.routing.entries.items():
        p[index[i], index[j]] = prob
    lam0 = np.zeros(n)
    for i, r in spec.external_arrivals.items():
        lam0[index[i]] = r
    return ids, index, p, lam0


def _undrained(spec: NetworkSpec, pinned: Mapping[int, float]) -> list[int]:
    """Unpinned nodes with no routing path out of the network or to a pinned node.

    A node drains if its exit probability exceeds ``ROW_SUM_TOL``, if it is
    pinned, or if it routes with positive probability to a node that
    drains.  One reverse search from the draining nodes, O(nodes + edges).
    """
    preds: dict[int, list[int]] = {i: [] for i in spec.ids()}
    for (i, j), prob in spec.routing.entries.items():
        if prob > 0.0:
            preds[j].append(i)
    drains = set(pinned) | {i for i in preds if spec.exit_probability(i) > ROW_SUM_TOL}
    stack = list(drains)
    while stack:
        for i in preds[stack.pop()]:
            if i not in drains:
                drains.add(i)
                stack.append(i)
    return [i for i in preds if i not in drains]


def solve_traffic(
    spec: NetworkSpec,
    method: str = "direct",
    tol: float = 1e-12,
    max_iter: int = 100_000,
    damping: float = 0.9,
) -> ArrivalRates:
    """Solve the traffic equations.

    Args:
        spec: network description.
        method: "direct" (LAPACK solve) or "fixed_point" (damped
            iteration, kept as an independent cross-check).
        tol: step-size stopping threshold for the fixed-point method.
        max_iter: iteration cap for the fixed-point method.
        damping: relaxation weight on the fixed-point update, in (0, 1].

    Returns:
        ArrivalRates with one nonnegative rate per node.  Nodes covered by
        ``known_arrival_rates`` are returned verbatim.

    Raises:
        SingularRoutingError: the direct method found nodes with no path to
            an exit or a pinned node (a closed subnetwork), so the linear
            system has no unique solution.
        NonConvergentError: the fixed-point method hit ``max_iter``.
        NumericalFailureError: the solution is not finite, or its residual
            exceeds ``RESIDUAL_TOL`` times the largest external or pinned
            rate.
    """
    ids, index, p, lam0 = _system(spec)
    n = len(ids)
    known = dict(spec.known_arrival_rates or {})
    known_rows = {index[i] for i in known}

    if method == "direct":
        closed = _undrained(spec, known)
        if closed:
            raise SingularRoutingError(
                f"nodes {closed} have no routing path to an exit or a pinned rate")
        a = np.eye(n) - p.T
        b = lam0.copy()
        for i, r in known.items():
            k = index[i]
            a[k, :] = 0.0
            a[k, k] = 1.0
            b[k] = r
        try:
            lam = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as e:
            raise SingularRoutingError(str(e)) from e
    elif method == "fixed_point":
        lam = lam0.copy()
        for i, r in known.items():
            lam[index[i]] = r
        pt = p.T
        step = np.inf
        for _ in range(max_iter):
            nxt = lam0 + pt @ lam
            for i, r in known.items():
                nxt[index[i]] = r
            nxt = (1.0 - damping) * lam + damping * nxt
            step = float(np.max(np.abs(nxt - lam)))
            lam = nxt
            if step <= tol:
                break
        else:
            raise NonConvergentError(max_iter, step)
    else:
        raise ValueError(f"unknown method {method!r}")

    # Rounding in the solve can leave rates a hair below zero.
    lam = np.where((lam < 0) & (lam > -1e-12), 0.0, lam)

    residual = lam - (lam0 + p.T @ lam)
    free = [k for k in range(n) if k not in known_rows]
    if free:
        scale = max(float(np.max(lam0)), max(known.values(), default=0.0))
        worst = float(np.max(np.abs(residual[free])))
        if not worst <= RESIDUAL_TOL * scale:  # also rejects NaN
            raise NumericalFailureError(
                f"traffic solution residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e}"
                f" x largest input rate {scale:.3e}"
            )

    return ArrivalRates(
        rates={i: float(lam[index[i]]) for i in ids},
        total_external=total_external_rate(spec),
    )
