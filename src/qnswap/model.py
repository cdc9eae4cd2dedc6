"""Network description model.

A network is a set of nodes (sources, sinks, and capacity-one intermediate
nodes), a substochastic routing matrix, external Poisson arrival rates, and
optionally a set of known per-node arrival rates that short-circuit the
traffic solver.

The JSON document format is strict: unknown keys are rejected, node ids are
positive integers, and rates may be given either as numbers or as decimal
strings.  Serialization always emits decimal strings (``repr`` of the float),
so ``parse_network(serialize_network(spec)) == spec`` for any spec.

Top-level document shape::

    {
      "nodes":             [{"id", "kind", "capacity", "mu", "mu_b", "servers"}, ...],
      "routing":           [{"from", "to", "p"}, ...],
      "external_arrivals": [{"node", "lambda0"}, ...],
      "known_arrival_rates": [{"node", "lambda"}, ...]   # optional
    }

``kind`` is one of ``"source"``, ``"sink"``, ``"intermediate"``.  ``mu_b``
(the unblock rate) may be omitted and defaults to 0.  ``servers`` may also be
omitted; the model is single-server, so the only value accepted is 1.

A ``NetworkSpec`` checks every structural invariant when it is constructed,
so every spec that exists is valid; all model values are immutable and safe
to share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping

from .errors import InputError, ParseError, SchemaError

ROW_SUM_TOL = 1e-9


class NodeKind(str, Enum):
    SOURCE = "source"
    SINK = "sink"
    INTERMEDIATE = "intermediate"


@dataclass(frozen=True)
class NodeSpec:
    """One station in the network.

    Args:
        id: positive integer, unique within the network.
        kind: source, sink, or intermediate.
        capacity: total buffer size including the job in service.  Fixed at
            1 for intermediate nodes.
        service_rate: exponential service rate (mu).
        unblock_rate: exponential rate at which a blocked job clears
            (mu_b).  Required positive for intermediate nodes; unused
            elsewhere.
    """

    id: int
    kind: NodeKind
    capacity: int
    service_rate: float
    unblock_rate: float = 0.0


@dataclass(frozen=True)
class RoutingMatrix:
    """Sparse substochastic routing probabilities.

    ``entries`` maps ``(from_id, to_id)`` to the probability that a job
    finishing service at ``from_id`` is sent to ``to_id``.  The leftover
    probability ``1 - row_sum(i)`` is the chance of leaving the network
    directly from node ``i``.
    """

    entries: Mapping[tuple[int, int], float]

    def __post_init__(self):
        normalized = {(int(i), int(j)): float(p)
                      for (i, j), p in sorted(self.entries.items())}
        object.__setattr__(self, "entries", normalized)

    @cached_property
    def _rows(self) -> dict[int, dict[int, float]]:
        rows: dict[int, dict[int, float]] = {}
        for (i, j), p in self.entries.items():
            rows.setdefault(i, {})[j] = p
        return rows

    def row(self, i: int) -> dict[int, float]:
        return dict(self._rows.get(i, {}))

    def row_sum(self, i: int) -> float:
        return sum(self._rows.get(i, {}).values())

    def successors(self, i: int) -> tuple[int, ...]:
        return tuple(j for j, p in sorted(self._rows.get(i, {}).items()) if p > 0.0)


def _check_rate(rate: float, name: str) -> None:
    if rate < 0:
        raise InputError(f"{name} must be nonnegative, got {rate!r}")
    if not math.isfinite(rate):
        raise InputError(f"{name} must be finite, got {rate!r}")


@dataclass(frozen=True)
class NetworkSpec:
    """An open network description, checked on construction.

    Raises:
        InputError: a bad id, capacity or kind-dependent field; a negative
            or non-finite rate; an intermediate node without a positive
            unblock rate; a routing or arrival entry naming a node that does
            not exist; a routing probability outside [0, 1] or a row summing
            above 1; a sink with outgoing routing; incomplete known arrival
            rates; or no external arrival or no way out.
    """

    nodes: tuple[NodeSpec, ...]
    routing: RoutingMatrix
    external_arrivals: Mapping[int, float]
    known_arrival_rates: Mapping[int, float] | None = None

    def __post_init__(self):
        # Ids are checked before sorting: mixed id types cannot be ordered.
        for n in self.nodes:
            if isinstance(n.id, bool) or not isinstance(n.id, int) or n.id <= 0:
                raise InputError(f"node id {n.id!r} must be a positive integer")
        object.__setattr__(self, "nodes",
                           tuple(sorted(self.nodes, key=lambda n: n.id)))
        if not isinstance(self.routing, RoutingMatrix):
            object.__setattr__(self, "routing", RoutingMatrix(self.routing))
        object.__setattr__(self, "external_arrivals",
                           {int(k): float(v)
                            for k, v in sorted(self.external_arrivals.items())})
        if self.known_arrival_rates is not None:
            object.__setattr__(self, "known_arrival_rates",
                               {int(k): float(v)
                                for k, v in sorted(self.known_arrival_rates.items())})

        if not self.nodes:
            raise InputError("network has no nodes")

        seen: set[int] = set()
        for n in self.nodes:
            if n.id in seen:
                raise InputError(f"duplicate node id {n.id}")
            seen.add(n.id)
            if not isinstance(n.capacity, int) or n.capacity < 1:
                raise InputError(f"node {n.id}: capacity must be a positive integer")
            _check_rate(n.service_rate, f"node {n.id} service rate")
            _check_rate(n.unblock_rate, f"node {n.id} unblock rate")
            if n.kind is NodeKind.INTERMEDIATE:
                if n.capacity != 1:
                    raise InputError(
                        f"node {n.id}: intermediate nodes hold exactly one job"
                    )
                if n.unblock_rate <= 0:
                    raise InputError(f"node {n.id} needs a positive unblock rate")

        by_id = self._by_id
        for (i, j), p in self.routing.entries.items():
            if i not in by_id:
                raise InputError(f"routing entry {i}->{j} references unknown node {i}")
            if j not in by_id:
                raise InputError(f"routing entry {i}->{j} references unknown node {j}")
            if not 0.0 <= p <= 1.0:
                raise InputError(f"routing {i}->{j}: probability {p!r} outside [0, 1]")
            if p > 0.0 and by_id[i].kind is NodeKind.SINK:
                raise InputError(f"sink node {i} cannot route onward")

        for i in by_id:
            total = self.routing.row_sum(i)
            if total > 1.0 + ROW_SUM_TOL:
                raise InputError(f"routing probabilities out of node {i} sum to {total!r} > 1")

        for i, rate in self.external_arrivals.items():
            if i not in by_id:
                raise InputError(f"external arrival references unknown node {i}")
            _check_rate(rate, f"external arrival rate at node {i}")
            if by_id[i].kind is NodeKind.SINK:
                raise InputError(f"external arrivals cannot target sink node {i}")

        if self.known_arrival_rates is not None:
            for i, rate in self.known_arrival_rates.items():
                if i not in by_id:
                    raise InputError(f"known arrival rate references unknown node {i}")
                _check_rate(rate, f"known arrival rate at node {i}")
            missing = [n.id for n in self.intermediates()
                       if n.id not in self.known_arrival_rates]
            if missing:
                raise InputError(
                    f"known arrival rates must cover every intermediate node; missing {missing}"
                )

        # A node that can ever hold a job must be able to serve it.
        incoming = {j for (i, j), p in self.routing.entries.items() if p > 0.0}
        for n in self.nodes:
            receives = n.id in incoming or self.external_arrivals.get(n.id, 0.0) > 0.0
            if receives and n.service_rate <= 0:
                raise InputError(
                    f"node {n.id} receives jobs but has no positive service rate"
                )

        if not any(r > 0 for r in self.external_arrivals.values()):
            raise InputError("no node has a positive external arrival rate")
        if not any(self.exit_probability(i) > 0 for i in by_id):
            raise InputError("no node has a positive exit probability")

    @cached_property
    def _by_id(self) -> dict[int, NodeSpec]:
        return {n.id: n for n in self.nodes}

    def node(self, node_id: int) -> NodeSpec:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise InputError(f"lookup references unknown node {node_id}") from None

    def ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes)

    def sources(self) -> tuple[NodeSpec, ...]:
        return tuple(n for n in self.nodes if n.kind is NodeKind.SOURCE)

    def sinks(self) -> tuple[NodeSpec, ...]:
        return tuple(n for n in self.nodes if n.kind is NodeKind.SINK)

    def intermediates(self) -> tuple[NodeSpec, ...]:
        return tuple(n for n in self.nodes if n.kind is NodeKind.INTERMEDIATE)

    def exit_probability(self, node_id: int) -> float:
        self.node(node_id)
        return max(0.0, min(1.0, 1.0 - self.routing.row_sum(node_id)))


# -- document parsing --------------------------------------------------------

_NODE_KEYS = {"id", "kind", "capacity", "mu", "mu_b", "servers"}
_NODE_REQUIRED = {"id", "kind", "capacity", "mu"}


def _no_nonfinite(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed")


def _check_keys(obj: dict, path: str, allowed: set[str], required: set[str]):
    for k in obj:
        if k not in allowed:
            raise SchemaError(f"{path}.{k}", "unknown key")
    for k in required:
        if k not in obj:
            raise SchemaError(path, f"missing required key {k!r}")


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, "must be an object")
    return value


def _as_array(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, "must be an array")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, "must be an integer")
    return value


def _as_rate(value, path: str) -> float:
    if isinstance(value, bool):
        raise SchemaError(path, "must be a number or decimal string")
    if isinstance(value, (int, float)):
        x = float(value)
    elif isinstance(value, str):
        try:
            x = float(value)
        except ValueError:
            raise SchemaError(path, f"not a decimal number: {value!r}") from None
    else:
        raise SchemaError(path, "must be a number or decimal string")
    if not math.isfinite(x):
        raise SchemaError(path, "must be finite")
    return x


def parse_network(text: str) -> NetworkSpec:
    """Parse and validate a network description document.

    Args:
        text: JSON document in the format described in the module docstring.

    Returns:
        The NetworkSpec the document describes.

    Raises:
        ParseError: text is not valid JSON (the message starts with the
            line number).
        SchemaError: JSON shape or value types are wrong (the message starts
            with the JSON path).
        InputError: any structural invariant fails, including a ``servers``
            value other than 1.
    """
    try:
        doc = json.loads(text, parse_constant=_no_nonfinite)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno) from None

    doc = _as_object(doc, "$")
    _check_keys(doc, "$",
                {"nodes", "routing", "external_arrivals", "known_arrival_rates"},
                {"nodes", "routing", "external_arrivals"})

    nodes: list[NodeSpec] = []
    raw_nodes = _as_array(doc["nodes"], "$.nodes")
    if not raw_nodes:
        raise SchemaError("$.nodes", "must contain at least one node")
    for k, item in enumerate(raw_nodes):
        path = f"$.nodes[{k}]"
        obj = _as_object(item, path)
        _check_keys(obj, path, _NODE_KEYS, _NODE_REQUIRED)
        kind_raw = obj["kind"]
        if not isinstance(kind_raw, str):
            raise SchemaError(f"{path}.kind", "must be a string")
        try:
            kind = NodeKind(kind_raw)
        except ValueError:
            raise SchemaError(
                f"{path}.kind",
                f"must be one of {sorted(k.value for k in NodeKind)}, got {kind_raw!r}",
            ) from None
        node_id = _as_int(obj["id"], f"{path}.id")
        servers = obj.get("servers", 1)
        if type(servers) is not int or servers != 1:
            raise InputError(f"node {node_id}: this model is single-server only")
        nodes.append(NodeSpec(
            id=node_id,
            kind=kind,
            capacity=_as_int(obj["capacity"], f"{path}.capacity"),
            service_rate=_as_rate(obj["mu"], f"{path}.mu"),
            unblock_rate=_as_rate(obj["mu_b"], f"{path}.mu_b") if "mu_b" in obj else 0.0,
        ))

    entries: dict[tuple[int, int], float] = {}
    for k, item in enumerate(_as_array(doc["routing"], "$.routing")):
        path = f"$.routing[{k}]"
        obj = _as_object(item, path)
        _check_keys(obj, path, {"from", "to", "p"}, {"from", "to", "p"})
        i = _as_int(obj["from"], f"{path}.from")
        j = _as_int(obj["to"], f"{path}.to")
        if (i, j) in entries:
            raise SchemaError(path, f"duplicate routing entry {i}->{j}")
        entries[(i, j)] = _as_rate(obj["p"], f"{path}.p")

    external: dict[int, float] = {}
    for k, item in enumerate(_as_array(doc["external_arrivals"], "$.external_arrivals")):
        path = f"$.external_arrivals[{k}]"
        obj = _as_object(item, path)
        _check_keys(obj, path, {"node", "lambda0"}, {"node", "lambda0"})
        i = _as_int(obj["node"], f"{path}.node")
        if i in external:
            raise SchemaError(path, f"duplicate external arrival for node {i}")
        external[i] = _as_rate(obj["lambda0"], f"{path}.lambda0")

    known: dict[int, float] | None = None
    if "known_arrival_rates" in doc:
        known = {}
        for k, item in enumerate(_as_array(doc["known_arrival_rates"],
                                           "$.known_arrival_rates")):
            path = f"$.known_arrival_rates[{k}]"
            obj = _as_object(item, path)
            _check_keys(obj, path, {"node", "lambda"}, {"node", "lambda"})
            i = _as_int(obj["node"], f"{path}.node")
            if i in known:
                raise SchemaError(path, f"duplicate known arrival rate for node {i}")
            known[i] = _as_rate(obj["lambda"], f"{path}.lambda")

    return NetworkSpec(
        nodes=tuple(nodes),
        routing=RoutingMatrix(entries),
        external_arrivals=external,
        known_arrival_rates=known,
    )


def _dec(x: float) -> str:
    return repr(float(x))


def serialize_network(spec: NetworkSpec) -> str:
    """Render a spec back to its canonical document form.

    Output is deterministic: nodes sorted by id, routing entries by
    (from, to), rates as shortest round-trip decimal strings.
    """
    doc: dict = {
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind.value,
                "capacity": n.capacity,
                "mu": _dec(n.service_rate),
                "mu_b": _dec(n.unblock_rate),
                "servers": 1,
            }
            for n in spec.nodes
        ],
        "routing": [
            {"from": i, "to": j, "p": _dec(p)}
            for (i, j), p in sorted(spec.routing.entries.items())
        ],
        "external_arrivals": [
            {"node": i, "lambda0": _dec(r)}
            for i, r in sorted(spec.external_arrivals.items())
        ],
    }
    if spec.known_arrival_rates is not None:
        doc["known_arrival_rates"] = [
            {"node": i, "lambda": _dec(r)}
            for i, r in sorted(spec.known_arrival_rates.items())
        ]
    return json.dumps(doc, indent=2) + "\n"
