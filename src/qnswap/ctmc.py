"""Closed forms for single nodes.

The three-state blocking node

    empty (0,0) --lambda--> serving (1,0)

    serving --mu*(1-Pb)--> empty
    serving --mu*Pb------> blocked (0,1)
    blocked --mu_b-------> empty

models a capacity-one station whose finished job is blocked with probability
Pb because its target is full, clearing at the unblock rate.  The finite
M/M/1/K queue supplies the probability that a neighbor is full, which is
where Pb comes from in the first place.

Each public function takes one station's values, checks them and runs an
unchecked kernel, the one copy of its formula; ``pfqn`` runs the kernels
elementwise on checked columns.  Tests compare them with a balance-equation
solver, a trajectory sampler and a scalar P_full in ``tests/oracle.py``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericsError
from .model import INT64_MAX, NONNEGATIVE, PROBABILITY, _finite, _shown

RHO_ONE_TOL = 1e-9
SUM_TOL = 1e-12  # largest |pi00 + pi10 + pi01 - 1| of a marginal
# NaN fails this test, so the rule names it as out of range
UTILIZATION = (lambda x: x >= 0.0, " must be nonnegative, got {}")


class NodeMarginal(NamedTuple):
    """Stationary distribution of the blocking node over its three states."""

    pi00: float  # empty
    pi10: float  # serving
    pi01: float  # blocked


def _closed_form(lam, mu, mu_b, pb) -> tuple:
    """(pi00, pi10, pi01) of the blocking node for float arguments, elementwise."""
    serving_weight = lam / mu
    blocked_weight = lam * pb / mu_b
    denom = 1.0 + serving_weight + blocked_weight
    return 1.0 / denom, serving_weight / denom, blocked_weight / denom


def blocking_node_closed_form(arrival_rate: float, service_rate: float, unblock_rate: float,
                              blocking_probability: float) -> NodeMarginal:
    """Stationary distribution of one blocking node (see module docstring).

    Raises:
        InputError: the first argument, in order, that ``model._finite``
            rejects (a decimal string is a number here, an array is not), a
            non-positive rate, or a blocking probability outside [0, 1].
        NumericsError: the result is not a distribution, as when finite
            rates overflow ``lambda / mu``.
    """
    rates = []
    for name, rate in zip(("arrival rate", "service rate", "unblock rate"),
                          (arrival_rate, service_rate, unblock_rate)):
        rates.append(_finite(rate, name, NONNEGATIVE, text=True))
        if rates[-1] == 0.0:
            raise InputError(f"{name} must be positive")
    pb = _finite(blocking_probability, "blocking probability", PROBABILITY, text=True)
    # finite rates may overflow to inf and NaN, which fail the sum test
    probs = _closed_form(*rates, pb)
    if not abs(probs[0] + probs[1] + probs[2] - 1.0) <= SUM_TOL:
        raise NumericsError(f"blocking-node marginal {probs!r} is not a distribution")
    return NodeMarginal(*probs)


def _mm1k_full(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """P_full for float rho ``x`` (inf: full) and int64 or Python int capacities ``k``."""
    full = np.asarray(1.0 / ((k.astype(np.uint64) if k.dtype.kind == "i" else k) + 1), float)
    far = abs(x - 1.0) > RHO_ONE_TOL  # elsewhere, full holds the limit
    if np.count_nonzero(far):  # head: rho^K, or 1.0 above 1, where the form in 1/rho has none
        ks, x = k[far].tolist(), x[far]
        head = np.array(list(map(pow, np.minimum(x, 1.0).tolist(), ks)))
        r = np.minimum(x, 1.0 / np.maximum(x, 1.0))  # rho, or 1/rho above 1
        tail = np.array(list(map(pow, r.tolist(), [c + 1 for c in ks])))
        full[far] = head * (1.0 - r) / (1.0 - tail)
    return full


def mm1k_full_probability(rho: float, capacity: int) -> float:
    """Probability that an M/M/1/K queue with utilization rho is full.

        rho^K * (1 - rho) / (1 - rho^(K+1)),  ->  1/(K+1) as rho -> 1

    The limit branch is taken when ``|rho - 1| <= 1e-9``, the overflow-free form
    in ``1/rho`` above 1; an infinite rho is always full (1.0).  K + 1 is exact
    and each power is Python's.

    Raises:
        InputError: a capacity that is a bool, no int, below 1 or past
            2**63 - 1, the range of a ``NetworkSpec`` capacity; rho that
            ``model._finite`` rejects, NaN reported as out of range; an
            infinite rho passes.
    """
    if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
        raise InputError(f"capacity must be a positive integer, got {_shown(capacity)}")
    if capacity > INT64_MAX:
        raise InputError("capacity must be below 2**63")
    always_full = not getattr(rho, "ndim", 0) and rho == math.inf  # no fault
    x = math.inf if always_full else _finite(rho, "utilization", UTILIZATION)
    return float(_mm1k_full(np.array(x), np.array(capacity, dtype=object)))  # K + 1 as an int
