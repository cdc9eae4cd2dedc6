"""Hardware layouts and the networks generated from them.

A layout is an undirected site graph; a subset of sites carry finite queues
and act as sources (injection) or sinks (extraction), every other site
becomes a capacity-one intermediate node.  ``build_lattice_network`` turns a
layout into a network with uniform nearest-neighbor routing;
``munoz15_fixture`` returns the hand-built 15-node reference network used
throughout the test suite.

Layout document shape::

    {
      "sites": ["a", "b", ...],
      "edges": [["a", "b"], ...],
      "queues": [{"site": "a", "role": "source", "capacity": 8}, ...]
    }
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import eq

import numpy as np

from .errors import InputError, SchemaError
from .model import (NetworkSpec, NodeKind, NodeSpec, _as_array, _as_object, _bfs_levels,
                    _check_keys, _csr, _load_json, _node_keys, _shown)

DEFAULT_BOUNDARY_CAPACITY = 8


@dataclass(frozen=True)
class QueueSite:
    """Role and buffer size of a boundary site."""

    role: NodeKind
    capacity: int

    def __post_init__(self):
        # by identity: a plain string equals its NodeKind, but the builder
        # picks sources and sinks by identity
        if self.role is not NodeKind.SOURCE and self.role is not NodeKind.SINK:
            raise SchemaError("queues.role", f"must be source or sink, got {self.role!r}")
        if (not isinstance(self.capacity, int) or isinstance(self.capacity, bool)
                or self.capacity < 1):
            raise SchemaError("queues.capacity", "must be a positive integer")


@dataclass(frozen=True)
class LayoutGraph:
    """Connected undirected site graph with queue-site annotations.

    Raises:
        SchemaError: a site, edge or queue of the wrong type, no sites, a
            self-edge, a duplicate site, or an edge or queue naming an unknown site.
        InputError: some sites cannot be reached from the first.
    """

    sites: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    queue_sites: Mapping[str, QueueSite]
    _neighbors: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Each rule is one pass over the whole list; only a failing list is
        # searched for the first bad entry, which names the fault.
        for name, value in (("sites", self.sites), ("edges", self.edges)):
            if isinstance(value, (str, bytes)):  # iterable, but one site per character
                raise SchemaError(name, f"{_shown(value)} is text, not a list")
            if not isinstance(value, Iterable):
                raise SchemaError(name, f"{_shown(value)} is not iterable")
        sites, edges, queues = tuple(self.sites), tuple(self.edges), self.queue_sites
        if not all(map(isinstance, sites, repeat(str))):
            s = next(s for s in sites if not isinstance(s, str))
            raise SchemaError("sites", f"{_shown(s)} is no site name")
        if not (set(map(type, edges)) <= {tuple, list} and set(map(len, edges)) <= {2}
                and all(map(isinstance, chain.from_iterable(edges), repeat(str)))):
            e = next(e for e in edges if type(e) not in (tuple, list) or len(e) != 2
                     or not all(map(isinstance, e, repeat(str))))
            raise SchemaError("edges", f"{_shown(e)} is not a pair of site names")
        if not (isinstance(queues, Mapping)
                and all(map(isinstance, queues.values(), repeat(QueueSite)))):
            raise SchemaError("queues", f"{_shown(queues)} does not map sites to QueueSites")
        ends = list(chain.from_iterable(edges))
        object.__setattr__(self, "sites", sites)
        if any(map(eq, ends[::2], ends[1::2])):
            a = next(a for a, b in edges if a == b)
            raise SchemaError("edges", f"self-edge on site {a!r}")
        object.__setattr__(self, "edges", tuple(sorted(
            {(a, b) if a <= b else (b, a) for a, b in edges})))
        known = set(sites)
        if len(known) != len(sites):
            raise SchemaError("sites", "site names must be unique")
        if not known.issuperset(ends):
            s = next(s for s in chain.from_iterable(self.edges) if s not in known)
            raise SchemaError("edges", f"unknown site {s!r}")
        for s in queues:
            if s not in known:
                raise SchemaError("queues", f"unknown site {_shown(s)}")
        object.__setattr__(self, "queue_sites", dict(sorted(queues.items())))
        # The edges are sorted, so each site's indices are its smaller
        # neighbours and then its larger ones, both in order.
        targets, begins, ends = _check_connected(self)
        object.__setattr__(self, "_neighbors", {s: tuple(map(sites.__getitem__, targets[a:b]))
                                                for s, a, b in zip(sites, begins, ends)})

    def neighbors(self, site: str) -> tuple[str, ...]:
        """Sorted adjacent sites; () for an isolated or unknown site."""
        return self._neighbors.get(site, ())


def _check_connected(layout: LayoutGraph) -> tuple[list[int], list[int], list[int]]:
    """Each site's neighbours as ``model._csr`` groups, in edge order; InputError if cut off."""
    if not layout.sites:
        raise SchemaError("sites", "layout has no sites")
    index = dict(zip(layout.sites, range(len(layout.sites))))
    # edge ends as a0, b0, a1, b1, ...; reversing each pair gives the other direction
    ends = np.fromiter(map(index.__getitem__, chain.from_iterable(layout.edges)),
                       dtype=np.intp, count=2 * len(layout.edges))
    graph = _csr(len(index), ends, ends.reshape(-1, 2)[:, ::-1].ravel())
    missing = [s for s, depth in zip(layout.sites, _bfs_levels(*graph, [0])) if depth < 0]
    if missing:
        raise InputError(f"layout is not connected; unreachable sites: {missing}")
    return graph


# Keys of a layout document and of its queue objects, every one required;
# of several missing keys the first in this order is named.
_LAYOUT_KEYS = ("sites", "edges", "queues")
_QUEUE_KEYS = ("site", "role", "capacity")


def parse_layout(text: str) -> LayoutGraph:
    """Parse a layout document (strict keys, connectivity checked)."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")
    _check_keys(doc, "$", _LAYOUT_KEYS, _LAYOUT_KEYS)
    if not isinstance(doc["sites"], list) or not set(map(type, doc["sites"])) <= {str}:
        raise SchemaError("$.sites", "must be an array of site names")
    if not doc["sites"]:
        raise SchemaError("$.sites", "layout has no sites")
    # As columns (JSON gives exact types); a failing list names its first bad edge.
    edges = _as_array(doc["edges"], "$.edges")
    if not (set(map(type, edges)) <= {list} and set(map(len, edges)) <= {2}
            and set(map(type, chain.from_iterable(edges))) <= {str}):
        k = next(k for k, e in enumerate(edges)
                 if not (type(e) is list and len(e) == 2 and set(map(type, e)) <= {str}))
        raise SchemaError(f"$.edges[{k}]", "must be a pair of site names")
    queues, known = {}, set(doc["sites"])
    for k, q in enumerate(_as_array(doc["queues"], "$.queues")):
        path = f"$.queues[{k}]"
        _check_keys(_as_object(q, path), path, _QUEUE_KEYS, _QUEUE_KEYS)
        if not isinstance(q["site"], str):
            raise SchemaError(f"{path}.site", "must be a site name")
        if q["site"] not in known:
            raise SchemaError(f"{path}.site", f"unknown site {q['site']!r}")
        if q["role"] not in ("source", "sink"):
            raise SchemaError(f"{path}.role", f"must be source or sink, got {q['role']!r}")
        cap = q["capacity"]
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
            raise SchemaError(f"{path}.capacity", "must be a positive integer")
        if q["site"] in queues:
            raise SchemaError(path, f"duplicate queue entry for site {q['site']!r}")
        queues[q["site"]] = QueueSite(role=NodeKind(q["role"]), capacity=cap)
    return LayoutGraph(tuple(doc["sites"]), edges, queues)


def build_lattice_network(
    layout: LayoutGraph,
    *,
    service_rate: float = 1.0,
    unblock_rate: float = 0.15,
    arrival_rate: float | Mapping[str, float] = 0.1,
) -> NetworkSpec:
    """Generate a network with uniform nearest-neighbor routing.

    Interior sites become capacity-one intermediate nodes that route with
    equal probability to *every* adjacent site (a moving job is as likely to
    hop back toward its source as onward; direction is not modeled).  Source
    sites route uniformly into their adjacent interior sites, sink sites
    absorb (everything arriving there leaves the network).

    Node ids are assigned deterministically from layout order: interior
    sites first (1..m), then sources, then sinks.

    Args:
        layout: site graph; must declare at least one source and one sink.
        service_rate: mu for every node.
        unblock_rate: mu_b for the interior nodes.
        arrival_rate: external rate per source, either one number for all
            or a mapping keyed by site name with exactly the source sites
            as keys (SchemaError otherwise).

    Returns:
        The generated NetworkSpec.
    """
    interior = [s for s in layout.sites if s not in layout.queue_sites]
    roles = {s: q.role for s, q in layout.queue_sites.items()}
    sources = [s for s in layout.sites if roles.get(s) is NodeKind.SOURCE]
    sinks = [s for s in layout.sites if roles.get(s) is NodeKind.SINK]
    if not sources:
        raise InputError("layout declares no source site")
    if not sinks:
        raise InputError("layout declares no sink site")

    ids = {s: k for k, s in enumerate(interior + sources + sinks, start=1)}
    nodes = [NodeSpec(ids[s], NodeKind.INTERMEDIATE, 1, service_rate, unblock_rate)
             for s in interior]
    for s in sources + sinks:
        q = layout.queue_sites[s]
        nodes.append(NodeSpec(ids[s], q.role, q.capacity, service_rate, 0.0))

    entries: dict[tuple[int, int], float] = {}
    # Rows in id order, each row's targets by id: the spec takes the keys as they are.
    # A source keeps only its interior neighbours; sink rows stay empty (exit probability 1).
    inner = set(interior)
    for s in interior + sources:
        nbrs = layout.neighbors(s)
        targets = sorted(map(ids.__getitem__, nbrs if s in inner else inner.intersection(nbrs)))
        i, share = ids[s], 1.0 / (len(targets) or 1)  # a source may touch no interior site
        for t in targets:
            entries[(i, t)] = share

    if isinstance(arrival_rate, Mapping):
        missing = [s for s in sources if s not in arrival_rate]
        if missing:
            raise SchemaError("arrival_rate", f"no rate for source site(s) {missing}")
        stray = [s for s in arrival_rate if s not in sources]
        if stray:
            raise SchemaError("arrival_rate", f"rate for site(s) {stray} that are no source")
        external = {ids[s]: arrival_rate[s] for s in sources}
    else:  # the spec's value rule checks each rate
        external = {ids[s]: arrival_rate for s in sources}

    return NetworkSpec(nodes=tuple(nodes), routing=entries, external_arrivals=external)


# Reference 15-node network: 11 capacity-one interior nodes (1..11), two
# sources (12, 13), two sinks (14, 15).  Interior arrival and unblocking
# rates are fixed reference values; the interior arrival rates are injected
# as known rates rather than derived from the routing, which only pins the
# boundary flows and the hop structure (shortest routes of 3 and 5 hops
# from each source to the sinks).
_FIXTURE_UNBLOCK = {
    1: 0.136, 2: 0.136, 3: 0.13, 4: 0.144, 5: 0.17, 6: 0.142,
    7: 0.124, 8: 0.173, 9: 0.175, 10: 0.195, 11: 0.143,
}
_FIXTURE_ARRIVAL = {
    1: 0.94, 2: 0.94, 3: 0.936, 4: 0.88, 5: 1.644, 6: 1.596,
    7: 1.02, 8: 1.6, 9: 1.18, 10: 1.42, 11: 0.86,
}
_FIXTURE_ROUTING = {
    (12, 1): 1.0,
    (13, 7): 1.0,
    (1, 2): 0.5, (1, 4): 0.5,
    (2, 3): 0.5, (2, 14): 0.5,
    (3, 14): 1.0,
    (4, 5): 0.5, (4, 10): 0.5,
    (5, 6): 1.0,
    (6, 15): 1.0,
    (7, 3): 0.5, (7, 8): 0.5,
    (8, 9): 0.5, (8, 11): 0.5,
    (9, 6): 1.0,
    (10, 9): 1.0,
    (11, 5): 1.0,
}
_FIXTURE_EXTERNAL = {12: 0.15, 13: 0.1}


def munoz15_fixture() -> NetworkSpec:
    """The 15-node reference network (unit service rates everywhere)."""
    nodes = [
        NodeSpec(i, NodeKind.INTERMEDIATE, 1, 1.0, _FIXTURE_UNBLOCK[i])
        for i in range(1, 12)
    ]
    nodes += [
        NodeSpec(12, NodeKind.SOURCE, DEFAULT_BOUNDARY_CAPACITY, 1.0, 0.0),
        NodeSpec(13, NodeKind.SOURCE, DEFAULT_BOUNDARY_CAPACITY, 1.0, 0.0),
        NodeSpec(14, NodeKind.SINK, DEFAULT_BOUNDARY_CAPACITY, 1.0, 0.0),
        NodeSpec(15, NodeKind.SINK, DEFAULT_BOUNDARY_CAPACITY, 1.0, 0.0),
    ]
    return NetworkSpec(
        nodes=tuple(nodes),
        routing=_FIXTURE_ROUTING,
        external_arrivals=_FIXTURE_EXTERNAL,
        known_arrival_rates=_FIXTURE_ARRIVAL,
    )


def shortest_hops(spec: NetworkSpec, src: int, dst: int) -> int:
    """Minimum hop count from src to dst over positive routing entries."""
    ids = spec.columns.id.tolist()
    for i in (src, dst):
        if _node_keys([i], pair=False) is None or i not in ids:  # a bool is no node id
            raise InputError(f"lookup references unknown node {_shown(i)}")
    rows, cols, _ = spec.routing_triplets
    hops = _bfs_levels(*_csr(len(ids), rows, cols), [ids.index(src)])[ids.index(dst)]
    if hops < 0:
        raise InputError(f"no routing path from node {src} to node {dst}")
    return hops
