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

Both are closed forms that take scalars or arrays, elementwise.  Each public
function checks around an unchecked kernel, the one copy of its formula, that
``pfqn`` calls on checked columns.  Tests compare them with a balance-equation
solver, a trajectory sampler and a scalar P_full in ``tests/oracle.py``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericsError
from .model import NONNEGATIVE, PROBABILITY, _finite, _finite_column, _shown

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


def blocking_node_closed_form(
    arrival_rate: float | np.ndarray,
    service_rate: float | np.ndarray,
    unblock_rate: float | np.ndarray,
    blocking_probability: float | np.ndarray,
) -> NodeMarginal:
    """Stationary distribution of the blocking node (see module docstring).

    Works elementwise: array arguments (broadcast together) give a
    ``NodeMarginal`` of arrays, all-scalar arguments one of Python floats.
    The first bad element, in order, raises the error that a scalar call on
    that element raises.

    Raises:
        InputError: an element that ``model._finite`` rejects (a decimal
            string is a number here), a non-positive rate, or a blocking
            probability outside [0, 1].
        NumericsError: the result is not a distribution, as when finite
            rates overflow ``lambda / mu``.
    """
    args = (arrival_rate, service_rate, unblock_rate, blocking_probability)
    # NaN marks each element _finite rejects, in whichever argument
    lam, mu, mu_b, pb = (np.asarray(_finite_column(a, text=True)) for a in args)
    # Bad inputs and overflow leave zero divisions, inf and NaN here; every
    # such element fails ``ok`` and is reported below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        probs = _closed_form(lam, mu, mu_b, pb)
        # true exactly where the element checks below pass; the comparisons
        # are False for NaN, so NaN fails them too
        inputs_ok = (0.0 < lam) & (0.0 < mu) & (0.0 < mu_b) & (0.0 <= pb) & (pb <= 1.0)
        # With good inputs each weight over denom lies in [0, 1] unless it is
        # NaN (inf / inf after an overflow), which fails the sum test.
        ok = inputs_ok & (abs(probs[0] + probs[1] + probs[2] - 1.0) <= SUM_TOL)
    if np.count_nonzero(ok) < ok.size:
        k = int(np.argmin(ok.ravel()))
        if not inputs_ok.ravel()[k]:  # the element as given, in order, names the fault
            *rates, pb = (np.broadcast_to(np.asarray(a, dtype=object), ok.shape).ravel()[k]
                          for a in args)
            for name, rate in zip(("arrival rate", "service rate", "unblock rate"), rates):
                if _finite(rate, name, NONNEGATIVE, text=True) == 0.0:
                    raise InputError(f"{name} must be positive")
            _finite(pb, "blocking probability", PROBABILITY, text=True)
        bad = tuple(p.ravel()[k].item() for p in probs)
        raise NumericsError(f"blocking-node marginal {bad!r} is not a distribution")
    if ok.ndim == 0:
        return NodeMarginal(*(float(p) for p in probs))
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


def mm1k_full_probability(rho: float | np.ndarray,
                          capacity: int | np.ndarray) -> float | np.ndarray:
    """Probability that an M/M/1/K queue with utilization rho is full.

        rho^K * (1 - rho) / (1 - rho^(K+1)),  ->  1/(K+1) as rho -> 1

    The limit branch is taken when ``|rho - 1| <= 1e-9``, the overflow-free form
    in ``1/rho`` above 1; an infinite rho is always full (1.0).  Elementwise, as
    ``blocking_node_closed_form``, with a scalar call's bits: K + 1 exact, Python's pow.

    Raises:
        InputError: a capacity that is a bool, no int, or below 1; rho that
            ``model._finite`` rejects, NaN reported as out of range; an
            infinite rho passes.
    """
    exact = isinstance(capacity, np.ndarray) and capacity.dtype.kind == "i"  # K + 1 in uint64
    k = capacity if exact else np.asarray(capacity, dtype=object)
    x = np.asarray(_finite_column(rho))  # NaN marks each rho _finite rejects
    x[np.asarray(rho, dtype=object) == math.inf] = math.inf  # no fault: always full
    plain = exact or set(map(type, k.flat)) <= {int}  # another type flags every element
    ok = (k >= 1 if plain else np.zeros(k.shape, bool)) & (x >= 0.0)
    for j in [] if np.count_nonzero(ok) == ok.size else np.flatnonzero(~ok).tolist():  # in order
        r, c = (np.broadcast_to(np.asarray(a, dtype=object), ok.shape).ravel()[j]
                for a in (rho, capacity))
        if isinstance(c, bool) or not isinstance(c, int) or c < 1:
            raise InputError(f"capacity must be a positive integer, got {_shown(c)}")
        if r != math.inf:
            _finite(r, "utilization", UTILIZATION)
    full = _mm1k_full(*(np.broadcast_arrays(x, k) if x.shape != k.shape else (x, k)))
    return float(full) if full.ndim == 0 else full
