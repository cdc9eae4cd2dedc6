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
omitted; the model is single-server, so the only value accepted is 1.  When
an object lacks several required keys, the first one in the order above is
named.

A ``NetworkSpec`` checks every structural invariant when it is constructed,
so every spec that exists is valid; all model values are immutable and safe
to share.  Its fields are the construction input; its query API is two
read-only tables that every solver reads: ``NetworkSpec.columns`` (one array
per node field, in id order) and ``NetworkSpec.routing_triplets`` (rows,
columns and probabilities of the positive routing entries, over node
positions).

Validation runs column by column.  Every number goes through one value
rule, ``_finite`` (its column form for a whole field).  The parser reads each
section as one list per field and checks whole lists: the set of key layouts
of the objects, the set of value types of a field, the value rule per rate
field, and repeated keys by set size.  A ``NetworkSpec`` builds its columns
once and runs each structural rule as one array expression over them, in a
fixed rule order.  A failing column only flags items: the flagged items go,
in document order (parser) or id order (spec), through the per-item check
that owns the error text, and the first one it rejects raises.  So an error
names the same item with the same message as a check run one item at a
time, and a valid document costs a few passes per column.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import chain, compress, repeat
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, NoReturn

import numpy as np

from .errors import InputError, ParseError, SchemaError

ROW_SUM_TOL = 1e-9


class NodeKind(str, Enum):
    SOURCE = "source"
    SINK = "sink"
    INTERMEDIATE = "intermediate"


# Codes of ``NodeColumns.kind``; a spec rejects a kind that is no NodeKind member.
KIND_CODES = {kind: code for code, kind in enumerate(NodeKind)}


class NodeSpec(NamedTuple):
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


class NodeColumns(NamedTuple):
    """The nodes of a NetworkSpec as read-only arrays, entry k for ``nodes[k]``."""

    id: np.ndarray
    kind: np.ndarray  # KIND_CODES value
    capacity: np.ndarray
    service_rate: np.ndarray
    unblock_rate: np.ndarray
    exit_probability: np.ndarray  # 1 - routing row sum, clipped to [0, 1]
    external_rate: np.ndarray  # lambda0, 0.0 where a node has none
    known_rate: np.ndarray  # the pinned arrival rate, NaN where a node is not pinned


def _shown(value) -> str:
    """``repr(value)`` cut to 40 characters, for an error message; never raises."""
    try:
        text = repr(value)
    except Exception:  # an int past Python's 4,300-digit str limit, or a failing __repr__
        return f"an unprintable {type(value).__name__}"
    return text if len(text) <= 40 else text[:37] + "..."


# Range rules for ``_finite``: (test of the float, fault text after the name,
# ``{}`` the value).  NaN passes the nonnegative test, so the finite check names it.
NONNEGATIVE = (lambda x: not x < 0.0, " must be nonnegative, got {}")
PROBABILITY = (lambda x: 0.0 <= x <= 1.0, ": probability {} outside [0, 1]")


def _finite(value, name: str, within: tuple | None = None, text: bool = False) -> float:
    """``value`` as a finite float: the rule for every number qnswap takes.

    InputError names ``name`` and shows the value at the first fault of: a
    bool or other value that is no number (a decimal string is one only with
    ``text``); an int too large for a float; the ``within`` range rule; NaN or ±inf.
    """
    try:
        if isinstance(value, (bool, np.bool_)) or not text and isinstance(value, (str, bytes)):
            raise TypeError  # float() takes these, but they are no number here
        x = float(value)
    except OverflowError:
        raise InputError(f"{name} must be finite, got an integer too large for a float") from None
    except (TypeError, ValueError):
        raise InputError(f"{name}: value {_shown(value)} is not a number") from None
    if within is not None and not within[0](x):
        raise InputError(name + within[1].format(_shown(value)))
    if not math.isfinite(x):
        raise InputError(f"{name} must be finite, got {_shown(value)}")
    return x


def _finite_column(values, text: bool = False) -> list[float] | np.ndarray:
    """``_finite`` over a column: floats (a list for a list, else an array), NaN
    wherever it rejects a value.  A numeric array, or a list of finite floats (with
    ``text``, also decimal strings), takes a few passes; any other, a call per value."""
    if type(values) is list and set(map(type, values)) <= ({float, str} if text else {float}):
        try:  # float() of a float or a string cannot overflow
            floats = list(map(float, values)) if text else values
        except ValueError:  # a string that is no number: the calls below flag it
            floats = [math.nan]
        if math.isfinite(sum(floats)):  # no NaN or inf: nothing to flag
            return floats
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        return np.where(np.isfinite(values), values, math.nan)
    objects = np.asarray(values, dtype=object)
    column = np.full(objects.shape, math.nan)
    for k, value in enumerate(objects.flat):
        with suppress(InputError):  # a value the rule rejects stays NaN
            column.flat[k] = _finite(value, "", text=text)
    return column.tolist() if type(values) is list else column


def _node_keys(keys: list, pair: bool) -> list | None:
    """The mapping keys as node ids (``pair``: (from, to) pairs of them), or
    None if a key is a bool or changes under ``int()``, such as 1.9 or "1"."""
    try:
        nodes = [(int(i), int(j)) for i, j in keys] if pair else list(map(int, keys))
    except (TypeError, ValueError, OverflowError):
        return None
    ids = chain.from_iterable(keys) if pair else keys  # tuples once nodes == keys
    return nodes if nodes == keys and {bool, np.bool_}.isdisjoint(map(type, ids)) else None


def _canonical(entries: Mapping, what: str, pair: bool) -> dict:
    """A fresh copy of a rate mapping, or with ``pair`` of the routing, with
    int keys in order and float values.  InputError names the first entry whose
    key is no node id (``pair``: no pair of them) or value ``_finite`` rejects."""
    keys, values = list(entries), list(entries.values())
    # Entries already keyed by ints in order, with float values, as the
    # parser builds them, need no rebuilding.
    if ((not pair or set(map(type, keys)) <= {tuple} and set(map(len, keys)) <= {2})
            and set(map(type, chain.from_iterable(keys) if pair else keys)) <= {int}
            and set(map(type, values)) <= {float} and keys == sorted(keys)):
        return dict(entries)
    nodes = _node_keys(keys, pair)
    if nodes is None or np.isnan(_finite_column(values, text=True)).any():
        shape = "a (from, to) pair of integer node ids" if pair else "an integer node id"
        for key, value in zip(keys, values):
            if nodes is None and _node_keys([key], pair) is None:
                raise InputError(f"{what} {_shown(key)}: key must be {shape}")
            if not isinstance(value, float):  # a float, even NaN, is left to the rate checks
                _finite(value, f"{what} {_shown(key)}", text=True)
    return dict(sorted(zip(nodes, map(float, values)), key=itemgetter(0)))


def _positions(index: dict[int, int],
               rates: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """Node positions (-1 for an unknown id) and ``_finite_column`` values of a rate map."""
    at = np.fromiter(map(index.get, rates, repeat(-1)), dtype=np.intp, count=len(rates))
    return at, np.array(_finite_column(list(rates.values())))


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _adjacency(n: int, src: np.ndarray, dst: np.ndarray) -> list[list[int]]:
    """Out-neighbour lists of nodes 0..n-1 for the edges ``src[e] -> dst[e]``, in edge order."""
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    targets = dst[np.argsort(src, kind="stable")].tolist()
    return [targets[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _bfs_levels(adjacency: list[list[int]], roots: Iterable[int]) -> list[int]:
    """Breadth-first depth of every node; -1 where no root reaches it.

    Roots are taken in order.  A root an earlier search already reached is
    skipped; every other root starts a new search, at depth 0, of the nodes
    not yet reached.
    """
    level = [-1] * len(adjacency)
    for root in roots:
        if level[root] >= 0:
            continue
        level[root] = 0
        frontier, depth = [root], 0
        while frontier:
            depth += 1
            reached = []
            for u in frontier:
                for v in adjacency[u]:
                    if level[v] < 0:
                        level[v] = depth
                        reached.append(v)
            frontier = reached
    return level


@dataclass(frozen=True)
class NetworkSpec:
    """An open network description, checked on construction.

    The four fields are the construction input.  ``routing`` is a plain
    ``{(from_id, to_id): p}`` mapping: the probability that a job finishing
    service at ``from_id`` is sent to ``to_id``; the rest of the row is the
    chance of leaving the network.  The spec keeps a canonical copy of each
    mapping, int keys in order and float values, behind a read-only
    ``types.MappingProxyType``, so the mappings cannot drift from the
    tables below.  Pickling and copying rebuild the spec from plain dicts.

    Every lookup reads two read-only tables built once here: ``columns``
    (:class:`NodeColumns`, one entry per node in id order) and
    ``routing_triplets``, arrays (row, column, probability) of the positive
    entries of ``routing``, in (from, to) order, whose rows and columns are
    node positions in ``columns``.  A zero entry routes nothing, so only
    ``routing`` keeps it.

    Raises:
        InputError: a mapping key that is no node id (in ``routing``, no
            pair of them); a bad id, kind, capacity or kind-dependent field;
            a rate or probability that is a bool, no number (a node rate
            given as a string included), an int too large for a float,
            negative, NaN or infinite; an intermediate node without a
            positive unblock rate; a routing or arrival entry naming a node
            that does not exist; a routing probability outside [0, 1] or a
            row summing above 1; a sink with outgoing routing; incomplete
            known arrival rates; or no external arrival or no way out.
    """

    nodes: tuple[NodeSpec, ...]
    routing: Mapping[tuple[int, int], float]
    external_arrivals: Mapping[int, float]
    known_arrival_rates: Mapping[int, float] | None = None
    columns: NodeColumns = field(init=False, repr=False, compare=False)
    routing_triplets: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        # Ids are checked before sorting: mixed id types cannot be ordered.
        ids = [n.id for n in self.nodes]
        if not (set(map(type, ids)) <= {int} and min(ids, default=1) > 0):
            for i in ids:
                if isinstance(i, bool) or not isinstance(i, int) or i <= 0:
                    raise InputError(f"node id {i!r} must be a positive integer")
        object.__setattr__(self, "nodes",
                           tuple(sorted(self.nodes, key=attrgetter("id"))))
        object.__setattr__(self, "routing", MappingProxyType(
            _canonical(self.routing, "routing entry", pair=True)))
        object.__setattr__(self, "external_arrivals", MappingProxyType(
            _canonical(self.external_arrivals, "external arrival", pair=False)))
        if self.known_arrival_rates is not None:
            object.__setattr__(self, "known_arrival_rates", MappingProxyType(
                _canonical(self.known_arrival_rates, "known arrival rate", pair=False)))

        if not self.nodes:
            raise InputError("network has no nodes")
        nodes, n = self.nodes, len(self.nodes)

        ids, kinds, caps, mu, mu_b = map(list, zip(*nodes))
        # Kind and capacity tests are by type: a plain string is no kind, a bool no capacity.
        kind = np.array([KIND_CODES[k] if type(k) is NodeKind else -1 for k in kinds],
                        dtype=np.int8)
        cap = np.array([c if isinstance(c, int) and type(c) is not bool else 0 for c in caps])
        id_col = np.array(ids)
        repeated = np.concatenate(([False], id_col[1:] == id_col[:-1]))
        mu, mu_b = np.array(_finite_column(mu)), np.array(_finite_column(mu_b))
        inner = kind == KIND_CODES[NodeKind.INTERMEDIATE]
        sink = kind == KIND_CODES[NodeKind.SINK]
        # NaN marks a rate _finite rejects; it fails every comparison
        flagged = (repeated | (kind < 0) | (cap < 1) | ~(mu >= 0.0) | ~(mu_b >= 0.0)
                   | (inner & ((cap != 1) | (mu_b <= 0.0))))
        # The per-node rules, in order: the first flagged node raises at its first fault.
        for node, duplicate in compress(zip(nodes, repeated.tolist()), flagged.tolist()):
            i, capacity = node.id, node.capacity
            if duplicate:
                raise InputError(f"duplicate node id {i}")
            if type(node.kind) is not NodeKind:
                raise InputError(f"node {i}: kind {node.kind!r} is not a NodeKind")
            if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
                raise InputError(f"node {i}: capacity must be a positive integer")
            _finite(node.service_rate, f"node {i} service rate", NONNEGATIVE)
            _finite(node.unblock_rate, f"node {i} unblock rate", NONNEGATIVE)
            if node.kind is NodeKind.INTERMEDIATE and capacity != 1:
                raise InputError(f"node {i}: intermediate nodes hold exactly one job")
            if node.kind is NodeKind.INTERMEDIATE and node.unblock_rate <= 0:
                raise InputError(f"node {i} needs a positive unblock rate")

        index = dict(zip(ids, range(n)))
        entries = self.routing
        m = len(entries)
        sources, targets = zip(*entries) if m else ((), ())
        rows = np.fromiter(map(index.get, sources, repeat(-1)), dtype=np.intp, count=m)
        cols = np.fromiter(map(index.get, targets, repeat(-1)), dtype=np.intp, count=m)
        probs = np.fromiter(entries.values(), dtype=float, count=m)
        flagged = ((rows < 0) | (cols < 0) | ~((probs >= 0.0) & (probs <= 1.0))
                   | ((probs > 0.0) & sink[rows]))
        for i, j in compress(entries, flagged.tolist()):
            for end in (i, j):
                if end not in index:
                    raise InputError(f"routing entry {i}->{j} references unknown node {end}")
            if _finite(entries[i, j], f"routing {i}->{j}", PROBABILITY) > 0.0 and sink[index[i]]:
                raise InputError(f"sink node {i} cannot route onward")

        # bincount adds in triplet order, so each row sums left to right over
        # its targets in id order; tolist gives the Python float the message prints
        row_sum = np.bincount(rows, weights=probs, minlength=n)
        for i, total in compress(zip(ids, row_sum.tolist()),
                                 (row_sum > 1.0 + ROW_SUM_TOL).tolist()):
            raise InputError(f"routing probabilities out of node {i} sum to {total!r} > 1")
        exit_probability = np.clip(1.0 - row_sum, 0.0, 1.0)
        # A zero entry routes nothing: the tables keep the positive entries only.
        used = probs > 0.0
        rows, cols, probs = rows[used], cols[used], probs[used]

        external = self.external_arrivals
        at, lam0 = _positions(index, external)
        for i in compress(external, ((at < 0) | ~(lam0 >= 0.0) | sink[at]).tolist()):
            if i not in index:
                raise InputError(f"external arrival references unknown node {i}")
            _finite(external[i], f"external arrival rate at node {i}", NONNEGATIVE)
            if sink[index[i]]:
                raise InputError(f"external arrivals cannot target sink node {i}")
        external_rate = np.zeros(n)
        external_rate[at] = lam0

        known = self.known_arrival_rates
        known_rate = np.full(n, math.nan)  # pins are finite: NaN marks a free node
        if known is not None:
            known_at, known_rates = _positions(index, known)
            for i in compress(known, ((known_at < 0) | ~(known_rates >= 0.0)).tolist()):
                if i not in index:
                    raise InputError(f"known arrival rate references unknown node {i}")
                _finite(known[i], f"known arrival rate at node {i}", NONNEGATIVE)
            known_rate[known_at] = known_rates
            missing = [i for i in compress(ids, inner.tolist()) if i not in known]
            if missing:
                raise InputError(
                    f"known arrival rates must cover every intermediate node; missing {missing}"
                )

        # A node that can ever hold a job must be able to serve it.
        receives = np.bincount(cols, minlength=n) > 0
        receives[at[lam0 > 0.0]] = True
        for node in compress(nodes, (receives & (mu <= 0.0)).tolist()):
            raise InputError(f"node {node.id} receives jobs but has no positive service rate")

        if not any(r > 0 for r in external.values()):
            raise InputError("no node has a positive external arrival rate")
        if not (exit_probability > 0.0).any():
            raise InputError("no node has a positive exit probability")

        columns = NodeColumns(id_col, kind, cap, mu, mu_b, exit_probability,
                              external_rate, known_rate)
        _read_only(*columns, rows, cols, probs)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "routing_triplets", (rows, cols, probs))

    def __reduce__(self):
        # a mapping proxy cannot be pickled: rebuild from plain-dict copies
        known = self.known_arrival_rates
        return (NetworkSpec, (self.nodes, dict(self.routing), dict(self.external_arrivals),
                              None if known is None else dict(known)))


# -- document parsing --------------------------------------------------------

# Keys in schema order (module docstring); the required ones come first.
_TOP_KEYS = ("nodes", "routing", "external_arrivals", "known_arrival_rates")
_NODE_KEYS = ("id", "kind", "capacity", "mu", "mu_b", "servers")
_NODE_REQUIRED = _NODE_KEYS[:4]
_KINDS = {k.value: k for k in NodeKind}

# Routing and arrival sections: (name, keys, duplicate message).  The keys
# are the integer key fields, then the rate field; every one is required.
_ROUTING = ("routing", ("from", "to", "p"), "duplicate routing entry {}->{}")
_EXTERNAL = ("external_arrivals", ("node", "lambda0"),
             "duplicate external arrival for node {}")
_KNOWN = ("known_arrival_rates", ("node", "lambda"),
          "duplicate known arrival rate for node {}")


def _load_json(text: str, **options):
    """``json.loads``, raising ParseError for any text it cannot decode."""
    try:
        return json.loads(text, **options)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno) from None
    except RecursionError:  # nested deeper than the decoder recurses
        raise ParseError("arrays or objects nested too deeply") from None


def _no_nonfinite(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed")


def _check_keys(obj: dict, path: str, allowed: tuple[str, ...],
                required: tuple[str, ...]):
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
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SchemaError(path, "must be a number or decimal string")
    try:
        return _finite(float(value) if isinstance(value, str) else value, path)
    except ValueError:  # a string that is no number
        raise SchemaError(path, f"not a decimal number: {_shown(value)}") from None
    except InputError:  # an int too large for a float, NaN or inf
        raise SchemaError(path, "must be finite") from None


def _check_node_item(item, path: str, seen: set) -> None:
    """Every document rule for one node object, in order."""
    obj = _as_object(item, path)
    _check_keys(obj, path, _NODE_KEYS, _NODE_REQUIRED)
    kind = obj["kind"]
    if not isinstance(kind, str):
        raise SchemaError(f"{path}.kind", "must be a string")
    if kind not in _KINDS:
        raise SchemaError(
            f"{path}.kind", f"must be one of {sorted(_KINDS)}, got {kind!r}")
    node_id = _as_int(obj["id"], f"{path}.id")
    servers = obj.get("servers", 1)
    if type(servers) is not int or servers != 1:
        raise InputError(f"node {node_id}: this model is single-server only")
    _as_int(obj["capacity"], f"{path}.capacity")
    _as_rate(obj["mu"], f"{path}.mu")
    _as_rate(obj.get("mu_b", 0.0), f"{path}.mu_b")


def _check_keyed_item(item, path: str, seen: set, keys: tuple[str, ...],
                      duplicate: str) -> None:
    """Every document rule for one routing or arrival object, in order."""
    obj = _as_object(item, path)
    _check_keys(obj, path, keys, keys)
    key = tuple(_as_int(obj[k], f"{path}.{k}") for k in keys[:-1])
    if key in seen:
        raise SchemaError(path, duplicate.format(*key))
    seen.add(key)
    _as_rate(obj[keys[-1]], f"{path}.{keys[-1]}")


def _raise_first_fault(items: list, path: str, check) -> NoReturn:
    """Run the per-item ``check`` over ``items`` in order; the first bad item raises."""
    seen: set = set()
    for k, item in enumerate(items):
        check(item, f"{path}[{k}]", seen)
    raise AssertionError(f"{path}: the column check rejected items that pass one by one")


def _ints(column: list) -> bool:
    """Whether ``_as_int`` accepts every value (JSON gives exact types)."""
    return set(map(type, column)) <= {int}


def _rates(column: list) -> list[float] | None:
    """``_as_rate`` of every value, or None if it rejects one."""
    if not set(map(type, column)) <= {int, float, str}:
        return None
    values = _finite_column(column, text=True)
    return None if math.isnan(sum(values)) else values  # the column holds no inf


def _node_columns(items: list) -> tuple[list, ...] | None:
    """The NodeSpec fields of the node objects, one list each, or None if
    some object fails a document rule."""
    layouts = set(map(tuple, items)) if set(map(type, items)) <= {dict} else None
    if layouts is None or not all(set(_NODE_REQUIRED) <= set(keys) <= set(_NODE_KEYS)
                                  for keys in layouts):
        return None
    ids, kinds, capacity, mu = (list(map(itemgetter(k), items)) for k in _NODE_REQUIRED)
    servers = [obj.get("servers", 1) for obj in items]
    mu, mu_b = _rates(mu), _rates([obj.get("mu_b", 0.0) for obj in items])
    if not (set(map(type, kinds)) <= {str} and set(kinds) <= _KINDS.keys()
            and _ints(ids) and _ints(servers) and set(servers) <= {1}
            and _ints(capacity) and mu is not None and mu_b is not None):
        return None
    return ids, list(map(_KINDS.__getitem__, kinds)), capacity, mu, mu_b


def _keyed_rates(items: list, keys: tuple[str, ...]) -> dict | None:
    """A routing or arrival section as {key: rate}, or None if some object
    fails a document rule or repeats a key."""
    if not (set(map(type, items)) <= {dict} and set(map(len, items)) <= {len(keys)}):
        return None
    try:  # with exactly len(keys) keys each, having all of them rules out others
        fields = [list(map(itemgetter(k), items)) for k in keys]
    except KeyError:
        return None
    rates = _rates(fields.pop())
    if rates is None or not all(map(_ints, fields)):
        return None
    table = dict(zip(zip(*fields) if len(fields) > 1 else fields[0], rates))
    return table if len(table) == len(items) else None


def _section(doc: dict, name: str, keys: tuple[str, ...], duplicate: str) -> dict:
    path = f"$.{name}"
    items = _as_array(doc[name], path)
    table = _keyed_rates(items, keys)
    if table is None:
        _raise_first_fault(items, path,
                           partial(_check_keyed_item, keys=keys, duplicate=duplicate))
    return table


def parse_network(text: str) -> NetworkSpec:
    """Parse and validate a network description document.

    Each section is checked as columns (module docstring); a section with a
    fault raises at its first bad item, as an item-by-item parse would.

    Args:
        text: JSON document in the format described in the module docstring.

    Returns:
        The NetworkSpec the document describes.

    Raises:
        ParseError: text is not valid JSON (the message starts with the
            line number) or nests too deeply to decode.
        SchemaError: JSON shape or value types are wrong (the message starts
            with the JSON path).
        InputError: any structural invariant fails, including a ``servers``
            value other than 1.
    """
    doc = _as_object(_load_json(text, parse_constant=_no_nonfinite), "$")
    _check_keys(doc, "$", _TOP_KEYS, _TOP_KEYS[:3])

    items = _as_array(doc["nodes"], "$.nodes")
    if not items:
        raise SchemaError("$.nodes", "must contain at least one node")
    columns = _node_columns(items)
    if columns is None:
        _raise_first_fault(items, "$.nodes", _check_node_item)

    return NetworkSpec(
        nodes=tuple(map(NodeSpec, *columns)),
        routing=_section(doc, *_ROUTING),
        external_arrivals=_section(doc, *_EXTERNAL),
        known_arrival_rates=_section(doc, *_KNOWN) if "known_arrival_rates" in doc else None,
    )


# The document as json.dumps(doc, indent=2) lays it out: one template per
# object shape, each rate a JSON string holding repr(float(rate)).
_NODE_JSON = ('    {\n      "id": %d,\n      "kind": "%s",\n      "capacity": %d,\n'
              '      "mu": "%r",\n      "mu_b": "%r",\n      "servers": 1\n    }')
_ROUTING_JSON = '    {\n      "from": %d,\n      "to": %d,\n      "p": "%r"\n    }'
_EXTERNAL_JSON = '    {\n      "node": %d,\n      "lambda0": "%r"\n    }'
_KNOWN_JSON = '    {\n      "node": %d,\n      "lambda": "%r"\n    }'


def serialize_network(spec: NetworkSpec) -> str:
    """Render a spec back to its canonical document form.

    Output is deterministic: nodes sorted by id, routing entries by
    (from, to), rates as shortest round-trip decimal strings.  It is byte
    for byte ``json.dumps(doc, indent=2) + "\\n"`` of the document as a
    dict, written from fixed templates: nodes from the spec's columns, the
    rest from its mappings, already in key order with float values.
    """
    c, kinds, known = spec.columns, [k.value for k in KIND_CODES], spec.known_arrival_rates
    sections = {
        "nodes": list(map(_NODE_JSON.__mod__, zip(
            c.id.tolist(), map(kinds.__getitem__, c.kind.tolist()), c.capacity.tolist(),
            c.service_rate.tolist(), c.unblock_rate.tolist()))),
        "routing": [_ROUTING_JSON % (i, j, p) for (i, j), p in spec.routing.items()],
        "external_arrivals": list(map(_EXTERNAL_JSON.__mod__, spec.external_arrivals.items())),
    }
    if known is not None:
        sections["known_arrival_rates"] = list(map(_KNOWN_JSON.__mod__, known.items()))
    return "{\n%s\n}\n" % ",\n".join(
        f'  "{name}": ' + ("[\n" + ",\n".join(items) + "\n  ]" if items else "[]")
        for name, items in sections.items())
