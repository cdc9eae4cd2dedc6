import numpy as np
import pytest

from qnswap import (
    NetworkSpec,
    NodeKind,
    NodeSpec,
    RoutingMatrix,
    munoz15_fixture,
)


def random_open_network(rng: np.random.Generator, max_nodes: int = 20) -> NetworkSpec:
    """A random valid open network with strictly substochastic routing.

    Every routing row sums to at most 0.95, so every node leaks to the
    outside and the traffic equations always have a unique solution.
    """
    n = int(rng.integers(2, max_nodes + 1))
    ids = list(range(1, n + 1))
    entries = {}
    for i in ids:
        fanout = int(rng.integers(0, min(4, n - 1) + 1))
        if fanout == 0:
            continue
        others = [j for j in ids if j != i]
        targets = rng.choice(others, size=fanout, replace=False)
        weights = rng.random(fanout)
        scale = float(rng.uniform(0.3, 0.95)) / float(weights.sum())
        for j, w in zip(targets, weights):
            entries[(i, int(j))] = float(w) * scale
    external = {i: float(rng.uniform(0.05, 2.0)) for i in ids if rng.random() < 0.5}
    if not external:
        external = {ids[0]: 1.0}
    nodes = tuple(
        NodeSpec(id=i, kind=NodeKind.SOURCE, capacity=4, service_rate=1.0)
        for i in ids
    )
    spec = NetworkSpec(
        nodes=nodes,
        routing=RoutingMatrix(entries),
        external_arrivals=external,
    )
    return spec


def single_queue_spec(arrival_rate: float, capacity: int,
                      service_rate: float = 1.0) -> NetworkSpec:
    """One finite queue fed by external arrivals, departures exit directly."""
    spec = NetworkSpec(
        nodes=(NodeSpec(id=1, kind=NodeKind.SOURCE, capacity=capacity,
                        service_rate=service_rate),),
        routing=RoutingMatrix({}),
        external_arrivals={1: arrival_rate},
    )
    return spec


@pytest.fixture(scope="session")
def fixture_spec() -> NetworkSpec:
    return munoz15_fixture()
