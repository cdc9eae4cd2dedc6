"""Traffic equations: direct solve against the fixed-point oracle."""

import builtins
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from qnswap import (
    NetworkSpec,
    NodeKind,
    NodeSpec,
    NumericsError,
    build_lattice_network,
    munoz15_fixture,
    parse_layout,
    solve_traffic,
    total_external_rate,
)
from conftest import random_open_network
from oracle import fixed_point_traffic, sum_312
import _expected


def feedback_pair():
    """Two stations with partial feedback; rates solvable by hand.

    lam1 = 1 + 0.25 lam2, lam2 = 0.5 lam1, so lam1 = 8/7 and lam2 = 4/7.
    """
    spec = NetworkSpec(
        nodes=(
            NodeSpec(id=1, kind=NodeKind.SOURCE, capacity=2, service_rate=1.0),
            NodeSpec(id=2, kind=NodeKind.SOURCE, capacity=2, service_rate=1.0),
        ),
        routing={(1, 2): 0.5, (2, 1): 0.25},
        external_arrivals={1: 1.0},
    )
    return spec


def test_hand_solved_feedback_pair():
    rates = solve_traffic(feedback_pair())
    assert rates[0] == pytest.approx(8 / 7, abs=1e-12)
    assert rates[1] == pytest.approx(4 / 7, abs=1e-12)
    assert total_external_rate(feedback_pair()) == 1.0


def test_fixed_point_agrees_on_feedback_pair():
    direct = solve_traffic(feedback_pair())
    fixed = fixed_point_traffic(feedback_pair())
    for k in (0, 1):
        assert abs(direct[k] - fixed[k]) <= 1e-9


def test_methods_agree_on_random_networks():
    rng = np.random.default_rng(42)
    for _ in range(100):
        spec = random_open_network(rng)
        direct = solve_traffic(spec)
        fixed = fixed_point_traffic(spec)
        for d, f in zip(direct.tolist(), fixed.tolist()):
            assert abs(d - f) <= 1e-9


def test_flow_conservation_on_random_networks():
    rng = np.random.default_rng(43)
    for _ in range(50):
        spec = random_open_network(rng)
        rates = solve_traffic(spec)
        leaving = sum(r * p for r, p in zip(rates.tolist(),
                                            spec.columns.exit_probability.tolist()))
        assert abs(total_external_rate(spec) - leaving) <= 1e-9


def test_linearity_in_external_rates():
    rng = np.random.default_rng(44)
    for _ in range(10):
        spec = random_open_network(rng)
        base = solve_traffic(spec)
        for c in (2.0, 1.7):
            scaled_spec = NetworkSpec(
                nodes=spec.nodes,
                routing=spec.routing,
                external_arrivals={i: c * r for i, r in spec.external_arrivals.items()},
            )
            scaled = solve_traffic(scaled_spec)
            for s, b in zip(scaled.tolist(), base.tolist()):
                if c == 2.0:
                    # doubling is exact in binary floating point
                    assert s == 2.0 * b
                else:
                    assert s == pytest.approx(c * b, rel=1e-9)


def test_known_rates_are_pinned_verbatim(fixture_spec):
    rate = dict(zip(fixture_spec.columns.id.tolist(), solve_traffic(fixture_spec).tolist()))
    for i, lam in _expected.ARRIVAL_RATE.items():
        assert rate[i] == lam


def test_pinned_rate_feeds_downstream_nodes():
    spec = NetworkSpec(
        nodes=(
            NodeSpec(id=1, kind=NodeKind.SOURCE, capacity=2, service_rate=1.0),
            NodeSpec(id=2, kind=NodeKind.SOURCE, capacity=2, service_rate=1.0),
        ),
        routing={(1, 2): 0.5},
        external_arrivals={1: 1.0},
        known_arrival_rates={1: 3.0},
    )
    rates = solve_traffic(spec)
    assert rates[0] == 3.0
    assert rates[1] == pytest.approx(1.5, abs=1e-12)


def test_total_external_rate_of_fixture(fixture_spec):
    assert total_external_rate(fixture_spec) == _expected.EXTERNAL_RATE


def test_total_external_rate_adds_left_to_right_on_every_python(monkeypatch):
    # the builtin sum compensates floats from Python 3.12, where it gives 0.6
    spec = NetworkSpec(
        nodes=tuple(NodeSpec(id=i, kind=NodeKind.SOURCE, capacity=2, service_rate=1.0)
                    for i in (1, 2, 3)),
        routing={},
        external_arrivals={1: 0.1, 2: 0.2, 3: 0.3},
    )
    monkeypatch.setattr(builtins, "sum", sum_312)
    assert total_external_rate(spec) == 0.6000000000000001


def closed_cycle_spec():
    # stations 2 and 3 trade jobs forever; input to the cycle never leaves
    spec = NetworkSpec(
        nodes=tuple(
            NodeSpec(id=i, kind=NodeKind.SOURCE, capacity=2, service_rate=1.0)
            for i in (1, 2, 3)
        ),
        routing={(2, 3): 1.0, (3, 2): 1.0},
        external_arrivals={1: 0.5, 2: 0.5},
    )
    return spec


def rounded_fan_cycle_spec():
    # 0.7 + 0.2 + 0.1 sums to 0.9999999999999999: node 2 leaks 1.1e-16,
    # below ROW_SUM_TOL, so the fan 2 -> {3, 4, 5} -> 2 is closed
    spec = NetworkSpec(
        nodes=tuple(
            NodeSpec(id=i, kind=NodeKind.SOURCE, capacity=2, service_rate=1.0)
            for i in (1, 2, 3, 4, 5)
        ),
        routing={(2, 3): 0.7, (2, 4): 0.2, (2, 5): 0.1,
                               (3, 2): 1.0, (4, 2): 1.0, (5, 2): 1.0},
        external_arrivals={1: 0.5, 2: 0.5},
    )
    return spec


def leaky_cycle_spec():
    # the 2 <-> 3 cycle leaks 1e-13 per pass, below ROW_SUM_TOL
    spec = NetworkSpec(
        nodes=tuple(
            NodeSpec(id=i, kind=NodeKind.SOURCE, capacity=2, service_rate=1.0)
            for i in (1, 2, 3)
        ),
        routing={(2, 3): 1.0, (3, 2): 1.0 - 1e-13},
        external_arrivals={1: 0.5, 2: 0.5},
    )
    return spec


def test_closed_cycle_is_singular_for_direct_solve():
    with pytest.raises(NumericsError, match="traffic equations are singular: nodes"):
        solve_traffic(closed_cycle_spec())


def test_closed_cycle_diverges_for_fixed_point():
    with pytest.raises(NumericsError,
                       match="fixed-point iteration did not converge after 2000 steps"):
        fixed_point_traffic(closed_cycle_spec(), max_iter=2000)


NEAR_CLOSED_SPECS = {
    "rounded_fan_cycle": (rounded_fan_cycle_spec, [2, 3, 4, 5]),
    "leaky_cycle": (leaky_cycle_spec, [2, 3]),
}


@pytest.mark.parametrize("name", sorted(NEAR_CLOSED_SPECS))
def test_near_closed_cycle_is_singular_for_direct_solve(name):
    build, nodes = NEAR_CLOSED_SPECS[name]
    with pytest.raises(NumericsError,
                       match=re.escape(f"traffic equations are singular: nodes {nodes}")):
        solve_traffic(build())


@pytest.mark.parametrize("name", sorted(NEAR_CLOSED_SPECS))
def test_near_closed_cycle_diverges_for_fixed_point(name):
    build, _ = NEAR_CLOSED_SPECS[name]
    with pytest.raises(NumericsError,
                       match="fixed-point iteration did not converge after 2000 steps"):
        fixed_point_traffic(build(), max_iter=2000)


def test_routing_into_a_pinned_node_drains():
    # 2, 3 and 4 never route out, but 3 feeds node 4, whose rate is pinned:
    # lam2 = 0.5 + 0.5 lam3 + 0.25 and lam3 = lam2, so both are 1.5
    spec = NetworkSpec(
        nodes=tuple(
            NodeSpec(id=i, kind=NodeKind.SOURCE, capacity=2, service_rate=1.0)
            for i in (1, 2, 3, 4)
        ),
        routing={(2, 3): 1.0, (3, 2): 0.5, (3, 4): 0.5, (4, 2): 1.0},
        external_arrivals={1: 0.5, 2: 0.5},
        known_arrival_rates={4: 0.25},
    )
    rates = solve_traffic(spec)  # nodes 1..4 at positions 0..3
    assert rates[3] == 0.25
    assert rates[1] == pytest.approx(1.5, rel=1e-12)
    assert rates[2] == pytest.approx(1.5, rel=1e-12)


def test_free_cycle_fed_by_a_pinned_node_is_singular():
    # pinned node 2 feeds the free cycle 3 <-> 4, which has no exit; free
    # node 1 routes into node 2 and node 5 exits, so only the cycle is named
    spec = sources(range(1, 6), {(1, 2): 1.0, (2, 3): 0.5, (2, 5): 0.5,
                                 (3, 4): 1.0, (4, 3): 1.0},
                   {1: 1.0}, known={2: 1.0})
    with pytest.raises(NumericsError) as caught:
        solve_traffic(spec)
    assert str(caught.value) == ("traffic equations are singular: nodes [3, 4] have no"
                                 " routing path to an exit or a pinned rate")


def test_free_node_draining_through_a_free_node_solves():
    # node 1 routes only to free node 2, which routes only into pinned node 3:
    # lam1 = 1 + 0.5 * 0.8 = lam2 and lam4 = 0.5 * 0.8
    spec = sources(range(1, 5), {(1, 2): 1.0, (2, 3): 1.0, (3, 1): 0.5, (3, 4): 0.5},
                   {1: 1.0}, known={3: 0.8})
    rates = solve_traffic(spec)
    assert rates.tolist() == pytest.approx([1.4, 1.4, 0.8, 0.4], rel=1e-12)
    np.testing.assert_allclose(rates, dense_reference(spec), rtol=1e-12, atol=0.0)


def test_overflowed_rate_names_the_first_node():
    # pinned nodes 1 and 2 feed free node 3 at 1e308 each; no entry links two
    # free nodes, so its rate is its right-hand side, which overflows to inf
    spec = sources(range(1, 5), {(1, 3): 1.0, (2, 3): 1.0}, {4: 1.0},
                   known={1: 1e308, 2: 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError) as caught:
            solve_traffic(spec)
    assert str(caught.value) == ("node 3: solved arrival rate inf is not finite;"
                                 " the traffic solution overflows")


IDENTITY_SPECS = {
    "munoz15": munoz15_fixture,
    # free source 5 routes only into pinned nodes 1 and 2, which feed free
    # node 3 and leave; node 4 is free and fed by nothing
    "free_source_into_pins": lambda: sources(
        range(1, 6), {(5, 1): 0.3, (5, 2): 0.6, (1, 3): 0.7, (2, 3): 0.1 + 0.2, (2, 4): 0.0},
        {5: 0.7, 3: 0.1}, known={1: 0.3, 2: 1.1}),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_SPECS))
def test_identity_branch_rates_balance_exactly(name):
    # no entry links two free nodes, so each free rate is lam0 + P^T lam once
    # evaluated, and the residual the solve skips is 0.0 bit for bit; an
    # overflow there still raises (test_overflowed_rate_names_the_first_node)
    spec = IDENTITY_SPECS[name]()
    rows, cols, probs = spec.routing_triplets
    free = np.isnan(spec.columns.known_rate)
    assert not np.any(free[rows] & free[cols])
    lam = solve_traffic(spec)
    balance = spec.columns.external_rate + np.bincount(cols, weights=probs * lam[rows],
                                                       minlength=len(lam))
    assert lam[free].tolist() == balance[free].tolist()
    assert np.count_nonzero(lam[free])


def grid_layout(side: int):
    sites = [f"s{r}_{c}" for r in range(side) for c in range(side)]
    edges = ([[f"s{r}_{c}", f"s{r}_{c + 1}"] for r in range(side) for c in range(side - 1)]
             + [[f"s{r}_{c}", f"s{r + 1}_{c}"] for r in range(side - 1) for c in range(side)])
    queues = [{"site": "s0_0", "role": "source", "capacity": 8},
              {"site": f"s{side - 1}_{side - 1}", "role": "sink", "capacity": 8}]
    return parse_layout(json.dumps({"sites": sites, "edges": edges, "queues": queues}))


def test_residual_check_scales_with_input_rates():
    layout = grid_layout(12)
    base = solve_traffic(build_lattice_network(layout, arrival_rate=0.1))
    large = solve_traffic(build_lattice_network(layout, arrival_rate=1e5))
    for lam, big in zip(base.tolist(), large.tolist()):
        assert big == pytest.approx(1e6 * lam, rel=1e-12)


def sources(ids, routing, external, known=None):
    # every node a source: no intermediates, so any subset may be pinned
    return NetworkSpec(
        nodes=tuple(NodeSpec(id=i, kind=NodeKind.SOURCE, capacity=2, service_rate=1.0)
                    for i in ids),
        routing=routing,
        external_arrivals=external,
        known_arrival_rates=known,
    )


DENSE_REFERENCE_SPECS = {
    "lattice_20x20": lambda: build_lattice_network(grid_layout(20)),
    "two_components": lambda: sources(
        range(1, 7),
        {(1, 2): 0.6, (2, 3): 0.5, (3, 1): 0.3, (4, 5): 0.9, (5, 6): 0.4, (6, 4): 0.2},
        {1: 1.0, 4: 0.5}),
    "pinned_mid_chain": lambda: sources(
        range(1, 6),
        {(1, 2): 0.9, (2, 3): 0.8, (3, 4): 0.7, (3, 2): 0.2, (4, 5): 0.6, (5, 4): 0.3},
        {1: 1.0}, known={3: 0.7}),
    "self_loop": lambda: sources(
        range(1, 4),
        {(1, 2): 0.8, (2, 2): 0.5, (2, 3): 0.4, (3, 1): 0.1},
        {1: 1.0}),
    # the leaves 2..9 share one BFS level and two pairs route within it
    "star": lambda: sources(
        range(1, 10),
        {**{(1, j): 0.1 for j in range(2, 10)}, **{(j, 1): 0.3 for j in range(2, 10)},
         (2, 3): 0.2, (5, 9): 0.1},
        {1: 1.0, 4: 0.25}),
    # every routing entry touches a pinned node: the free system is the identity
    "munoz15": munoz15_fixture,
}


def dense_reference(spec):
    """Rates from one dense solve of (I - P^T) lam = lam0, pinned rows replaced."""
    ids = spec.columns.id.tolist()
    index = {i: k for k, i in enumerate(ids)}
    a = np.identity(len(ids))
    b = np.zeros(len(ids))
    for (i, j), p in spec.routing.items():
        a[index[j], index[i]] -= p
    for i, r in spec.external_arrivals.items():
        b[index[i]] = r
    for i, r in (spec.known_arrival_rates or {}).items():
        a[index[i], :] = 0.0
        a[index[i], index[i]] = 1.0
        b[index[i]] = r
    return np.linalg.solve(a, b)


@pytest.mark.parametrize("name", sorted(DENSE_REFERENCE_SPECS))
def test_direct_solve_matches_dense_reference(name):
    spec = DENSE_REFERENCE_SPECS[name]()
    np.testing.assert_allclose(solve_traffic(spec), dense_reference(spec), rtol=1e-12, atol=0.0)


def test_direct_solve_allocates_no_dense_matrix():
    # one dense 4096 x 4096 float64 copy is 134 MB; allow a quarter of it
    spec = build_lattice_network(grid_layout(64))
    n = len(spec.nodes)
    tracemalloc.start()
    try:
        solve_traffic(spec)  # raises if the residual check fails
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 4

