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
free nodes is block-tridiagonal.  One ``np.bincount`` scatters every level's
strip (its equations over the unknowns of its own and the adjacent levels,
then the right-hand side) into one buffer.  Block Gaussian elimination runs
down the levels, one Schur update and one LAPACK solve of the diagonal block
each (``np.linalg.solve``, partial pivoting), and back-substitution runs up.
No pivoting across blocks is needed: the free block of ``I - P^T`` is a
nonsingular M-matrix (each column sums to at least that node's exit
probability, and every free node drains), and Schur complements of such a
matrix are nonsingular M-matrices too.  When no routing entry links two free
nodes the free system is the identity and the rates are the right-hand side.
It takes no residual check: a free node's inflow terms all come from pinned
nodes, so its residual adds the right-hand side's terms in their order: 0.0.

The system is singular when some unpinned node has no routing path that
leaves the network or reaches a pinned node: jobs that enter such a closed
subnetwork never leave.  An exit probability within ``ROW_SUM_TOL`` of zero
counts as no exit, since it is rounding in the routing row, not a real leak.
The solver finds those nodes before solving, so the error names them: one
search over the free nodes' reversed entries, from the free nodes that exit
or route into a pinned node, unless all do.
"""

from __future__ import annotations

from operator import add

import numpy as np

from .errors import NumericsError
from .model import ROW_SUM_TOL, NetworkSpec, _bfs_levels, _csr, _sum_in_order

# Largest accepted residual, relative to the largest input rate.
RESIDUAL_TOL = 1e-10


def total_external_rate(spec: NetworkSpec) -> float:
    """Sum of all external arrival rates, added left to right in id order."""
    return float(_sum_in_order(spec.columns.external_rate.tolist()))


def _inflow(rows, cols, probs, lam, n: int) -> np.ndarray:
    """``P^T lam``: the rate routed into each of the n nodes."""
    return np.bincount(cols, weights=probs * lam[rows], minlength=n)


def _solve_levels(src, dst, probs, rhs, both) -> np.ndarray:
    """Solve ``x_j - sum_i p_ij x_i = rhs_j`` over ``len(rhs)`` nodes by level blocks.

    The routing entries (src -> dst, probs; ``both``, each node's neighbours in
    either direction as ``model._csr`` groups) link those nodes.  Ordered by
    ``_bfs_levels`` depth over ``both``, the matrix is block-tridiagonal; see the
    module docstring for the levels, the strips, the elimination and why it needs
    no pivoting across blocks.
    """
    n = len(rhs)
    level = np.array(_bfs_levels(*both, range(n)), dtype=np.intp)
    order = np.argsort(level, kind="stable")
    pos = np.argsort(order)  # each node's place in level order
    starts = np.searchsorted(level[order], np.arange(level[order[-1]] + 2))
    size = np.diff(starts)

    # Level lv's strip: a row per equation of the level, holding the coefficients
    # of the unknowns of levels lv - 1 to lv + 1, then the right-hand side.
    lv = np.arange(len(size))
    lo = starts[np.maximum(lv - 1, 0)]
    width = starts[np.minimum(lv + 2, len(size))] - lo + 1
    offset = np.concatenate(([0], np.cumsum(size * width)))
    at = np.repeat(lv, size)  # the level of each equation, in level order
    row = offset[at] + (np.arange(n) - starts[at]) * width[at]
    # Triplets of I - P^T in level order (equation of dst, unknown of src), then
    # the right-hand side; bincount adds each entry's terms in that order.
    eq, var = np.concatenate((pos, pos[dst])), np.concatenate((pos, pos[src]))
    strips = np.bincount(np.concatenate((row[eq] + var - lo[at[eq]], row + width[at] - 1)),
                         weights=np.concatenate((np.ones(n), -probs, rhs[order])),
                         minlength=offset[-1])

    solved = []  # per level: its unknowns' coupling to the next level, then the partial solution
    for s0, s1, first, w, o in zip(starts.tolist(), starts[1:].tolist(), lo.tolist(),
                                   width.tolist(), offset.tolist()):
        strip = strips[o:o + (s1 - s0) * w].reshape(s1 - s0, w)
        block = strip[:, s0 - first:s1 - first]
        if solved:  # Schur update: eliminate the previous level's unknowns
            lower = strip[:, :s0 - first]
            block -= lower @ solved[-1][:, :-1]
            strip[:, -1] -= lower @ solved[-1][:, -1]
        solved.append(np.linalg.solve(block, strip[:, s1 - first:]))

    x = [np.zeros(0)]  # back-substitution, last level first
    for sol in reversed(solved):
        x.insert(0, sol[:, -1] - sol[:, :-1] @ x[0])
    return np.concatenate(x)[pos]


def _check_residual(lam, lam0, rows, cols, probs, pinned) -> None:
    """Raise unless ``lam`` balances every unpinned node.

    The residual may be at most ``RESIDUAL_TOL`` times the largest external
    or pinned rate (``lam`` holds the pinned rates); a NaN residual fails too.
    """
    residual = (lam - (lam0 + _inflow(rows, cols, probs, lam, len(lam))))[~pinned]
    scale = max(np.maximum.reduce(lam0), np.maximum.reduce(lam[pinned], initial=0.0))
    worst = np.maximum.reduce(abs(residual), initial=0.0)  # NaN stays NaN
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
            solution ("traffic equations are singular"); a solved rate that
            overflows (the first inf is named, else the first NaN); or a
            residual over ``RESIDUAL_TOL`` times the largest external or pinned rate.
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
    if coupled := np.count_nonzero(linked):  # entries that link two free nodes
        local = np.cumsum(~pinned) - 1  # a free node's place among the free nodes
        src, dst = local[rows[linked]], local[cols[linked]]
        # each free node's targets, then its sources, in entry order
        both = _csr(len(free), np.concatenate((src, dst)), np.concatenate((dst, src)))
        # roots: free nodes that exit or route into a pinned node
        drains = spec.columns.exit_probability[free] > ROW_SUM_TOL
        drains[local[rows[~pinned[rows] & pinned[cols]]]] = True
        if np.count_nonzero(drains) < len(free):  # search the sources back from the roots
            sources = list(map(add, both[1], np.bincount(src, minlength=len(free)).tolist()))
            level = _bfs_levels(both[0], sources, both[2], np.flatnonzero(drains).tolist())
            closed = [i for i, depth in zip(spec.columns.id[free].tolist(), level) if depth < 0]
            if closed:
                raise NumericsError(
                    f"traffic equations are singular: nodes {closed} have no routing"
                    " path to an exit or a pinned rate")
        try:
            with np.errstate(all="ignore"):  # an overflow leaves rates that are not finite
                lam[free] = _solve_levels(src, dst, probs[linked], rhs, both)
        except np.linalg.LinAlgError as e:
            raise NumericsError(f"traffic equations are singular: {e}") from e
        lam = np.where((lam < 0) & (lam > -1e-12), 0.0, lam)  # rounding: a hair below zero
    else:  # no entry links two free nodes: the free system is the identity (module docstring)
        lam[free] = rhs

    bad = np.flatnonzero(~np.isfinite(lam))  # every input is finite, so only an overflow
    if len(bad):  # a NaN is 0 * inf from the back-substitution: name the first inf
        k = bad[np.argmax(np.isinf(lam[bad]))]  # argmax: the first True, else bad[0]
        raise NumericsError(f"node {spec.columns.id[k]}: solved arrival rate {lam[k]}"
                            " is not finite; the traffic solution overflows")
    if coupled:  # the identity branch's residual is 0.0 exactly (module docstring)
        _check_residual(lam, lam0, rows, cols, probs, pinned)
    lam.flags.writeable = False
    return lam
