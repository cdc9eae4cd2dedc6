"""Per-node arrival rates for an open network.

In steady state the rate into node i is the external rate plus everything
routed there from other nodes:

    lambda_i = lambda0_i + sum_j p_ji * lambda_j

which is the linear system ``(I - P^T) lambda = lambda0``.  Its solution
is one read-only column over the nodes, aligned with ``spec.columns.id``.
The routing is kept sparse, as (row, column, probability) triplets, and
every product ``P^T lambda`` is one ``np.bincount``; no n x n matrix is
formed.

Nodes listed in ``known_arrival_rates`` are pinned to their given values:
they move to the right-hand side as inputs to the free nodes and are
excluded from the residual check.  The free nodes get levels, their BFS
depth within their component of the routing graph (edges taken as
undirected; ``model._bfs_levels``, the search shared with ``layout``), so
every routing entry links levels at most one apart and ``I - P^T`` over the
free nodes is block-tridiagonal.  Block Gaussian elimination runs down the
levels, each diagonal block solved by LAPACK (``np.linalg.solve``, partial
pivoting), and back-substitution runs up.  No pivoting across blocks is
needed: the free block of ``I - P^T`` is a nonsingular M-matrix (each
column sums to at least that node's exit probability, and every free node
drains), and Schur complements of such a matrix are nonsingular M-matrices
too.  When no routing entry links two free nodes the free system is the
identity and the rates are the right-hand side.

The system is singular when some unpinned node has no routing path that
leaves the network or reaches a pinned node: jobs that enter such a closed
subnetwork never leave.  An exit probability within ``ROW_SUM_TOL`` of zero
counts as no exit, since it is rounding in the routing row, not a real leak.
The solver finds those nodes before solving, so the error names them: one
search over the free nodes' reversed entries, which the level search reuses,
from the free nodes that exit or route into a pinned node, unless all do.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError
from .model import ROW_SUM_TOL, NetworkSpec, _adjacency, _bfs_levels, _sum_in_order

# Largest accepted residual, relative to the largest input rate.
RESIDUAL_TOL = 1e-10


def total_external_rate(spec: NetworkSpec) -> float:
    """Sum of all external arrival rates, added left to right in id order."""
    return float(_sum_in_order(spec.columns.external_rate.tolist()))


def _inflow(rows, cols, probs, lam, n: int) -> np.ndarray:
    """``P^T lam``: the rate routed into each of the n nodes."""
    return np.bincount(cols, weights=probs * lam[rows], minlength=n)


def _solve_levels(src, dst, probs, rhs, back) -> np.ndarray:
    """Solve ``x_j - sum_i p_ij x_i = rhs_j`` over ``len(rhs)`` nodes by level blocks.

    The routing entries (src -> dst, probs; reversed lists ``back``) link those nodes.
    Ordered by ``_bfs_levels`` depth over both entry directions, the matrix
    is block-tridiagonal; see the module docstring for the levels, the
    elimination and why it needs no pivoting across blocks.
    """
    n = len(rhs)
    both = _adjacency(n, src, dst)
    for ahead, behind in zip(both, back):
        ahead += behind
    level = np.array(_bfs_levels(both, range(n)), dtype=np.intp)
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


def _check_residual(lam, lam0, rows, cols, probs, pinned) -> None:
    """Raise unless ``lam`` balances every unpinned node.

    The residual may be at most ``RESIDUAL_TOL`` times the largest external
    or pinned rate (``lam`` holds the pinned rates); a NaN residual fails too.
    """
    residual = (lam - (lam0 + _inflow(rows, cols, probs, lam, len(lam))))[~pinned]
    if residual.size:
        scale = max(float(lam0.max()), float(lam[pinned].max(initial=0.0)))
        worst = float(abs(residual).max())
        if not worst <= RESIDUAL_TOL * scale:  # also rejects NaN
            raise NumericsError(
                f"traffic solution residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e}"
                f" x largest input rate {scale:.3e}"
            )


def solve_traffic(spec: NetworkSpec) -> np.ndarray:
    """Solve the traffic equations.

    Block elimination over BFS levels of the routing graph, LAPACK on each
    diagonal block; see the module docstring.

    Returns:
        A read-only float64 column of nonnegative arrival rates: entry k is
        the rate into node ``spec.columns.id[k]``.  Nodes covered by
        ``known_arrival_rates`` get their pinned rate verbatim.

    Raises:
        NumericsError: some nodes have no path to an exit or a pinned node
            (a closed subnetwork), so the linear system has no unique
            solution ("traffic equations are singular"); or the solution is
            not finite, or its residual exceeds ``RESIDUAL_TOL`` times the
            largest external or pinned rate.
    """
    lam0, known = spec.columns.external_rate, spec.columns.known_rate
    rows, cols, probs = spec.routing_triplets
    n = len(lam0)
    pinned = ~np.isnan(known)
    lam = np.where(pinned, known, 0.0)
    # Pinned rates are inputs: they reach the free nodes as right-hand side.
    free = np.flatnonzero(~pinned)
    rhs = (lam0 + _inflow(rows, cols, probs, lam, n))[free]
    linked = ~pinned[rows] & ~pinned[cols]
    if np.count_nonzero(linked):
        local = np.empty(n, dtype=np.intp)
        local[free] = np.arange(len(free))
        src, dst = local[rows[linked]], local[cols[linked]]
        back = _adjacency(len(free), dst, src)
        # roots: free nodes that exit or route into a pinned node
        drains = spec.columns.exit_probability[free] > ROW_SUM_TOL
        drains[local[rows[~pinned[rows] & pinned[cols]]]] = True
        if np.count_nonzero(drains) < len(free):
            level = _bfs_levels(back, np.flatnonzero(drains).tolist())
            closed = [i for i, depth in zip(spec.columns.id[free].tolist(), level) if depth < 0]
            if closed:
                raise NumericsError(
                    f"traffic equations are singular: nodes {closed} have no routing"
                    " path to an exit or a pinned rate")
        try:
            lam[free] = _solve_levels(src, dst, probs[linked], rhs, back)
        except np.linalg.LinAlgError as e:
            raise NumericsError(f"traffic equations are singular: {e}") from e
    else:
        # no entry links two free nodes: the free system is the identity
        lam[free] = rhs

    # Rounding in the solve can leave rates a hair below zero.
    lam = np.where((lam < 0) & (lam > -1e-12), 0.0, lam)
    _check_residual(lam, lam0, rows, cols, probs, pinned)
    lam.flags.writeable = False
    return lam
