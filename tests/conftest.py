import functools
import json

import numpy as np
import pytest

from qnswap import (
    NetworkSpec,
    NodeKind,
    NodeSpec,
    build_lattice_network,
    munoz15_fixture,
    parse_layout,
    serialize_network,
)
from qnswap import model
from qnswap.model import KIND_CODES


def ids_of_kind(spec: NetworkSpec, kind: NodeKind) -> list[int]:
    """Ids of the spec's nodes of one kind, read from its columns."""
    cols = spec.columns
    return cols.id[cols.kind == KIND_CODES[kind]].tolist()


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
        routing=entries,
        external_arrivals=external,
    )
    return spec


def single_queue_spec(arrival_rate: float, capacity: int,
                      service_rate: float = 1.0) -> NetworkSpec:
    """One finite queue fed by external arrivals, departures exit directly."""
    spec = NetworkSpec(
        nodes=(NodeSpec(id=1, kind=NodeKind.SOURCE, capacity=capacity,
                        service_rate=service_rate),),
        routing={},
        external_arrivals={1: arrival_rate},
    )
    return spec


def self_loop_spec(service_rate: float = 2.5) -> NetworkSpec:
    """Two capacity-3 stations; node 1 routes half its output back to itself.

    At the default rate the runs in ``golden/sim_self_loop.json`` block now
    and then but never deadlock; at ``service_rate=1`` node 1 is overloaded
    and the pair deadlocks early (both full, each waiting on a full target).
    """
    return NetworkSpec(
        nodes=tuple(NodeSpec(id=i, kind=NodeKind.SOURCE, capacity=3,
                             service_rate=service_rate) for i in (1, 2)),
        routing={(1, 1): 0.5, (1, 2): 0.3, (2, 1): 0.2},
        external_arrivals={1: 0.9},
    )


def two_node_cycle_spec() -> NetworkSpec:
    """Two single-slot stations that pass 90% of their jobs to each other.

    Once both hold a job that picked the other, neither can move again: the
    simulator deadlocks, although the traffic equations have a solution.
    """
    return NetworkSpec(
        nodes=tuple(NodeSpec(id=i, kind=NodeKind.INTERMEDIATE, capacity=1,
                             service_rate=1.0, unblock_rate=0.5) for i in (1, 2)),
        routing={(1, 2): 0.9, (2, 1): 0.9},
        external_arrivals={1: 0.5},
    )


def funnel_spec() -> NetworkSpec:
    """Three single-slot feeders that route only into one single-slot merge
    node, ahead of a slow two-slot sink.

    The merge node is full most of the time, so two or three feeders often
    wait on its one slot at once; ``golden/sim_funnel.json`` fixes which of
    them each freed slot releases first.
    """
    feeders = tuple(NodeSpec(id=i, kind=NodeKind.SOURCE, capacity=1, service_rate=2.0)
                    for i in (1, 2, 3))
    return NetworkSpec(
        nodes=feeders + (
            NodeSpec(id=4, kind=NodeKind.INTERMEDIATE, capacity=1, service_rate=3.0,
                     unblock_rate=1.0),
            NodeSpec(id=5, kind=NodeKind.SINK, capacity=2, service_rate=1.0)),
        routing={(1, 4): 1.0, (2, 4): 1.0, (3, 4): 1.0, (4, 5): 1.0},
        external_arrivals={1: 0.5, 2: 0.4, 3: 0.3},
    )


def _layout_document(sites, edges, sources, sinks) -> str:
    queues = ([{"site": s, "role": "source", "capacity": 8} for s in sources]
              + [{"site": s, "role": "sink", "capacity": 8} for s in sinks])
    return json.dumps({"sites": sites, "edges": edges, "queues": queues})


def grid_layout(side: int) -> str:
    """The layout document of a ``side`` x ``side`` grid chip.

    Two sources and two sinks sit on the top and bottom rows, one site in
    from the corners.
    """
    def site(r, c):
        return f"g{r:02d}_{c:02d}"

    edges = [[site(r, c), site(r, c + 1)] for r in range(side) for c in range(side - 1)]
    edges += [[site(r, c), site(r + 1, c)] for r in range(side - 1) for c in range(side)]
    return _layout_document([site(r, c) for r in range(side) for c in range(side)], edges,
                            [site(0, 1), site(side - 1, 1)],
                            [site(0, side - 2), site(side - 1, side - 2)])


def heavy_hex_layout(rows: int, cols: int) -> str:
    """The layout document of a heavy-hex chip: rows of ``cols`` sites, the
    gap below row g bridged every fourth column (from column 0 for even g,
    from column 2 for odd g) through one degree-2 bridge site each.

    Sources sit at the left ends of the two top rows, sinks at the right
    ends of the two bottom rows.
    """
    def site(r, c):
        return f"h{r}_{c:02d}"

    sites = [site(r, c) for r in range(rows) for c in range(cols)]
    edges = [[site(r, c), site(r, c + 1)] for r in range(rows) for c in range(cols - 1)]
    for g in range(rows - 1):
        for c in range(2 * (g % 2), cols, 4):
            sites.append(f"b{g}_{c:02d}")
            edges += [[site(g, c), sites[-1]], [sites[-1], site(g + 1, c)]]
    return _layout_document(sites, edges, [site(0, 0), site(1, 0)],
                            [site(rows - 2, cols - 1), site(rows - 1, cols - 1)])


@functools.lru_cache(maxsize=None)
def grid_document(side: int) -> str:
    """The network document of the ``grid_layout(side)`` chip; the sources
    take external rates 0.1 and 0.2."""
    layout = parse_layout(grid_layout(side))
    sources = [s for s, q in layout.queue_sites.items() if q.role is NodeKind.SOURCE]
    spec = build_lattice_network(layout, arrival_rate=dict(zip(sources, (0.1, 0.2))))
    return serialize_network(spec)


@pytest.fixture(scope="session")
def fixture_spec() -> NetworkSpec:
    return munoz15_fixture()


@pytest.fixture
def conversions(monkeypatch) -> list[str]:
    """What NetworkSpec converts rather than copies, in call order: "routing" or
    "rates" for each mapping whose keys go through ``model._node_keys``, and the
    name of each ``model._finite`` call on a mapping value."""
    calls, node_keys, finite = [], model._node_keys, model._finite
    names = ("routing entry", "external arrival", "known arrival rate")

    def counted_keys(keys, pair):
        calls.append("routing" if pair else "rates")
        return node_keys(keys, pair)

    def counted_finite(value, name, *args, **kwargs):
        if name.startswith(names):
            calls.append(name)
        return finite(value, name, *args, **kwargs)

    monkeypatch.setattr(model, "_node_keys", counted_keys)
    monkeypatch.setattr(model, "_finite", counted_finite)
    return calls
