"""Per-node arrival rates for an open network.

In steady state the rate into node i is the external rate plus everything
routed there from other nodes:

    lambda_i = lambda0_i + sum_j p_ji * lambda_j

which is the linear system ``(I - P^T) lambda = lambda0``.  The routing is
kept sparse, as (row, column, probability) triplets, and every product
``P^T lambda`` is one ``np.bincount``; no n x n matrix is formed.

Nodes listed in ``known_arrival_rates`` are pinned to their given values:
they move to the right-hand side as inputs to the free nodes and are
excluded from the residual check.  The free nodes get levels, their BFS
depth within their component of the routing graph (edges taken as
undirected), so every routing entry links levels at most one apart and
``I - P^T`` over the free nodes is block-tridiagonal.  Block Gaussian
elimination runs down the levels, each diagonal block solved by LAPACK
(``np.linalg.solve``, partial pivoting), and back-substitution runs up.  No
pivoting across blocks is needed: the free block of ``I - P^T`` is a
nonsingular M-matrix (each column sums to at least that node's exit
probability, and every free node drains), and Schur complements of such a
matrix are nonsingular M-matrices too.  When no routing entry links two free
nodes the free system is the identity and the rates are the right-hand side.

The system is singular when some unpinned node has no routing path that
leaves the network or reaches a pinned node: jobs that enter such a closed
subnetwork never leave.  An exit probability within ``ROW_SUM_TOL`` of zero
counts as no exit, since it is rounding in the routing row, not a real leak.
The solver finds those nodes from the routing graph before solving, so the
error names them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NumericsError
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


def _external(spec: NetworkSpec):
    """Node ids, their positions, and the external rates lam0 by position."""
    ids = spec.ids()
    index = {i: k for k, i in enumerate(ids)}
    lam0 = np.zeros(len(ids))
    for i, r in spec.external_arrivals.items():
        lam0[index[i]] = r
    return ids, index, lam0


def _inflow(rows, cols, probs, lam, n: int) -> np.ndarray:
    """``P^T lam``: the rate routed into each of the n nodes."""
    return np.bincount(cols, weights=probs * lam[rows], minlength=n)


def _levels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """BFS depth of each node within its component, edges taken as undirected.

    Every component starts at level 0, so an edge links levels that differ
    by at most 1.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in zip(src.tolist(), dst.tolist()):
        adj[i].append(j)
        adj[j].append(i)
    level = [-1] * n
    for root in range(n):
        if level[root] >= 0:
            continue
        level[root] = 0
        frontier, depth = [root], 0
        while frontier:
            depth += 1
            reached = []
            for u in frontier:
                for v in adj[u]:
                    if level[v] < 0:
                        level[v] = depth
                        reached.append(v)
            frontier = reached
    return np.array(level, dtype=np.intp)


def _solve_levels(src, dst, probs, rhs) -> np.ndarray:
    """Solve ``x_j - sum_i p_ij x_i = rhs_j`` over ``len(rhs)`` nodes by level blocks.

    The routing entries (src -> dst, probs) all link two of those nodes.
    Ordered by ``_levels``, the matrix is block-tridiagonal; see the module
    docstring for the elimination and why it needs no pivoting across blocks.
    """
    n = len(rhs)
    level = _levels(n, src, dst)
    order = np.argsort(level, kind="stable")
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    starts = np.searchsorted(level[order], np.arange(level[order[-1]] + 2))
    n_levels = len(starts) - 1

    # Triplets of I - P^T in level order: equation of dst, unknown of src.
    diag = np.arange(n)
    eq = pos[np.concatenate((diag, dst))]
    var = pos[np.concatenate((diag, src))]
    val = np.concatenate((np.ones(n), -probs))
    by_eq = np.argsort(eq, kind="stable")
    eq, var, val = eq[by_eq], var[by_eq], val[by_eq]
    cut = np.searchsorted(eq, starts)

    coupling, partial = [], []
    for lv in range(n_levels):
        lo = starts[max(lv - 1, 0)]
        s0, s1 = starts[lv], starts[lv + 1]
        hi = starts[min(lv + 2, n_levels)]
        size, width = s1 - s0, hi - lo
        k = slice(cut[lv], cut[lv + 1])
        strip = np.bincount((eq[k] - s0) * width + (var[k] - lo), weights=val[k],
                            minlength=size * width).reshape(size, width)
        lower = strip[:, :s0 - lo]
        block = strip[:, s0 - lo:s1 - lo]
        b = rhs[order[s0:s1]]
        if lv > 0:
            block = block - lower @ coupling[-1]
            b = b - lower @ partial[-1]
        sol = np.linalg.solve(block, np.column_stack((strip[:, s1 - lo:], b)))
        coupling.append(sol[:, :-1])
        partial.append(sol[:, -1])

    x = np.empty(n)
    x_next = np.zeros(0)
    for lv in range(n_levels - 1, -1, -1):
        x_next = partial[lv] - coupling[lv] @ x_next
        x[order[starts[lv]:starts[lv + 1]]] = x_next
    return x


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


def _check_residual(lam, lam0, rows, cols, probs, pinned, known) -> None:
    """Raise unless ``lam`` balances every unpinned node.

    The residual may be at most ``RESIDUAL_TOL`` times the largest external
    or pinned rate; a NaN residual fails too.
    """
    residual = (lam - (lam0 + _inflow(rows, cols, probs, lam, len(lam))))[~pinned]
    if residual.size:
        scale = max(float(np.max(lam0)), max(known.values(), default=0.0))
        worst = float(np.max(np.abs(residual)))
        if not worst <= RESIDUAL_TOL * scale:  # also rejects NaN
            raise NumericsError(
                f"traffic solution residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e}"
                f" x largest input rate {scale:.3e}"
            )


def solve_traffic(spec: NetworkSpec) -> ArrivalRates:
    """Solve the traffic equations.

    Block elimination over BFS levels of the routing graph, LAPACK on each
    diagonal block; see the module docstring.

    Returns:
        ArrivalRates with one nonnegative rate per node.  Nodes covered by
        ``known_arrival_rates`` are returned verbatim.

    Raises:
        NumericsError: some nodes have no path to an exit or a pinned node
            (a closed subnetwork), so the linear system has no unique
            solution ("traffic equations are singular"); or the solution is
            not finite, or its residual exceeds ``RESIDUAL_TOL`` times the
            largest external or pinned rate.
    """
    ids, index, lam0 = _external(spec)
    rows, cols, probs = spec.routing_triplets
    n = len(ids)
    known = dict(spec.known_arrival_rates or {})
    pinned = np.zeros(n, dtype=bool)
    pinned[[index[i] for i in known]] = True

    closed = _undrained(spec, known)
    if closed:
        raise NumericsError(
            f"traffic equations are singular: nodes {closed} have no routing"
            " path to an exit or a pinned rate")
    lam = np.zeros(n)
    for i, r in known.items():
        lam[index[i]] = r
    # Pinned rates are inputs: they reach the free nodes as right-hand side.
    free = np.flatnonzero(~pinned)
    rhs = (lam0 + _inflow(rows, cols, probs, lam, n))[free]
    linked = ~pinned[rows] & ~pinned[cols]
    if linked.any():
        local = np.empty(n, dtype=np.intp)
        local[free] = np.arange(len(free))
        try:
            lam[free] = _solve_levels(local[rows[linked]], local[cols[linked]],
                                      probs[linked], rhs)
        except np.linalg.LinAlgError as e:
            raise NumericsError(f"traffic equations are singular: {e}") from e
    else:
        # no entry links two free nodes: the free system is the identity
        lam[free] = rhs

    # Rounding in the solve can leave rates a hair below zero.
    lam = np.where((lam < 0) & (lam > -1e-12), 0.0, lam)
    _check_residual(lam, lam0, rows, cols, probs, pinned, known)
    return ArrivalRates(
        rates={i: float(lam[index[i]]) for i in ids},
        total_external=total_external_rate(spec),
    )
