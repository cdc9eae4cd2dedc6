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

Both are closed forms.  The test suite checks them against a general
balance-equation solver and a trajectory sampler, reference implementations
kept in ``tests/oracle.py``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericsError
from .model import _check_rate

RHO_ONE_TOL = 1e-9


class NodeMarginal(NamedTuple):
    """Stationary distribution of the blocking node over its three states."""

    pi00: float  # empty
    pi10: float  # serving
    pi01: float  # blocked


def _positive(name: str, value: float) -> float:
    _check_rate(value, name)
    if value == 0:
        raise InputError(f"{name} must be positive")
    return float(value)


def _check_blocking_node(arrival_rate, service_rate, unblock_rate, blocking_probability):
    lam = _positive("arrival rate", arrival_rate)
    mu = _positive("service rate", service_rate)
    mu_b = _positive("unblock rate", unblock_rate)
    pb = blocking_probability
    if not 0.0 <= pb <= 1.0:
        raise InputError(f"blocking probability: probability {pb!r} outside [0, 1]")
    return lam, mu, mu_b, pb


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
        InputError: a non-positive or non-finite rate, or a blocking
            probability outside [0, 1].
        NumericsError: the result is not a distribution, as when finite
            rates overflow ``lambda / mu``.
    """
    args = (arrival_rate, service_rate, unblock_rate, blocking_probability)
    try:
        lam, mu, mu_b, pb = (np.asarray(a, dtype=float) for a in args)
    except OverflowError:  # an int too large for a float: the scalar checks name it
        _check_blocking_node(*args)
        raise
    # Bad inputs and overflow leave zero divisions, inf and NaN here; every
    # such element fails ``ok`` and is reported below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        serving_weight = lam / mu
        blocked_weight = lam * pb / mu_b
        denom = 1.0 + serving_weight + blocked_weight
        probs = (1.0 / denom, serving_weight / denom, blocked_weight / denom)
        # true exactly where the checks in _check_blocking_node pass; the
        # comparisons are False for NaN, so NaN fails them too
        inputs_ok = ((0.0 < lam) & (lam < math.inf) & (0.0 < mu) & (mu < math.inf)
                     & (0.0 < mu_b) & (mu_b < math.inf) & (0.0 <= pb) & (pb <= 1.0))
        # With good inputs each weight over denom lies in [0, 1] unless it is
        # NaN (inf / inf after an overflow), which fails the sum test.
        ok = inputs_ok & (abs(probs[0] + probs[1] + probs[2] - 1.0) <= 1e-12)
    if not ok.all():
        k = int(np.argmin(ok.ravel()))
        if not inputs_ok.ravel()[k]:
            _check_blocking_node(*(a if np.ndim(a) == 0
                                   else np.broadcast_to(x, ok.shape).ravel()[k].item()
                                   for a, x in zip(args, (lam, mu, mu_b, pb))))
        bad = tuple(p.ravel()[k].item() for p in probs)
        raise NumericsError(f"blocking-node marginal {bad!r} is not a distribution")
    if ok.ndim == 0:
        return NodeMarginal(*(float(p) for p in probs))
    return NodeMarginal(*probs)


def mm1k_full_probability(rho: float, capacity: int) -> float:
    """Probability that an M/M/1/K queue with utilization rho is full.

        rho^K * (1 - rho) / (1 - rho^(K+1)),  ->  1/(K+1) as rho -> 1

    The limit branch is taken when ``|rho - 1| <= 1e-9``.

    Raises:
        InputError: rho < 0 or NaN.
        ValueError: capacity below 1.
    """
    if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
        raise ValueError(f"capacity must be a positive integer, got {capacity!r}")
    if not rho >= 0:  # also rejects NaN
        raise InputError(f"utilization must be nonnegative, got {rho!r}")
    if abs(rho - 1.0) <= RHO_ONE_TOL:
        return 1.0 / (capacity + 1)
    if rho > 1.0:
        # Reciprocal form; algebraically identical, no overflow in rho**K.
        r = 1.0 / rho
        return (1.0 - r) / (1.0 - r ** (capacity + 1))
    return rho ** capacity * (1.0 - rho) / (1.0 - rho ** (capacity + 1))
