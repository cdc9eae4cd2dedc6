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

Validation runs column by column, and the ``NetworkSpec`` constructor is the
one check every spec takes, parsed or built.  Every number goes through one
value rule, ``_finite`` (its column form for a whole field).  The parser reads
each section as one list per field and checks whole lists: the objects' keys,
the set of value types of a field, the value rule per rate field, and
repeated keys by dict size; it builds the spec from mappings with int keys
and float values, as the builder does.  ``_canonical`` copies such a mapping;
any other costs a conversion, entry by entry, of that mapping only.  The spec
checks its three mappings in one pass over their int64 key rows: one test
finds a mapping out of order, which Python sorts on its keys, one
``searchsorted`` finds the keys' node positions and one mask checks the
values; each structural rule is one array expression, in a fixed rule
order.  A failing column only flags items: the flagged items go, in document
order (parser) or id order (spec), through the per-item check that owns the
error text, and the first one it rejects raises.  So an error names the same
item with the same message as a check run one item at a time.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from functools import partial, reduce
from itertools import accumulate, chain, compress, repeat
from operator import add, attrgetter, itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, NoReturn

import numpy as np

from .errors import InputError, ParseError, SchemaError

ROW_SUM_TOL = 1e-9
# Largest node id or capacity: every integer column is int64.
INT64_MAX = 2**63 - 1


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


def _sum_in_order(values):
    """``values`` added left to right, as ``sum`` did until Python 3.12 compensated floats."""
    return reduce(add, values, 0)


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


def _finite_column(values: list, text: bool = False) -> tuple[list[float], bool]:
    """``_finite`` over a list: its floats, NaN wherever it rejects a value, and
    whether it rejected none.  A list of finite floats and ints (with ``text``,
    also decimal strings) takes a few passes; any other, a call per value."""
    if (types := set(map(type, values))) <= ({float, int, str} if text else {float, int}):
        try:  # the test is by type: a bool is no int here
            floats = values if types <= {float} else list(map(float, values))
        except (ValueError, OverflowError):  # a string that is no number or an int
            floats = [math.nan]  # past the float range: the calls below flag it
        if math.isfinite(sum(floats)):  # no NaN or inf: nothing to flag
            return floats, True
    column = [math.nan] * len(values)
    for k, value in enumerate(values):
        with suppress(InputError):  # a value the rule rejects stays NaN
            column[k] = _finite(value, "", text=text)
    return column, not math.isnan(sum(column))  # finite values sum to no NaN


def _node_keys(keys: list, pair: bool) -> list | None:
    """The keys, of a mapping or a lookup, as node ids (``pair``: (from, to) pairs
    of them), or None if a key is a bool or changes under ``int()``, such as 1.9 or "1"."""
    try:
        nodes = [(int(i), int(j)) for i, j in keys] if pair else list(map(int, keys))
    except (TypeError, ValueError, OverflowError):
        return None
    ids = chain.from_iterable(keys) if pair else keys  # tuples once nodes == keys
    return nodes if nodes == keys and {bool, np.bool_}.isdisjoint(map(type, ids)) else None


def _canonical(mappings: list[Mapping]) -> tuple[list[dict], np.ndarray, np.ndarray]:
    """Copies of the routing and rate mappings, int keys in order and float values;
    their int64 key rows, a (from, to) row per routing entry and a (node, 0) row per
    rate entry (a key past int64 reads 0); and their values.  A mapping with plain
    int keys (pairs of them) and float values is copied; any other is converted on
    its own, and InputError names its first key that is no node id (no pair of them)
    or value ``_finite`` rejects.  Python sorts a mapping whose rows are out of order
    on its keys, and every mapping if a key is past int64, which no row can place."""
    tables, ids, rates = [], [], []
    for entries, (what, pair) in zip(mappings, (
            ("routing entry", True), ("external arrival", False), ("known arrival rate", False))):
        keys, values = list(entries), list(entries.values())
        shaped = not pair or set(map(type, keys)) <= {tuple} and set(map(len, keys)) <= {2}
        flat = list(chain.from_iterable(keys)) if pair and shaped else keys
        if not (shaped and set(map(type, flat)) <= {int} and set(map(type, values)) <= {float}):
            nodes = _node_keys(keys, pair)
            shape = "a (from, to) pair of integer node ids" if pair else "an integer node id"
            for key, value in zip(keys, values):
                if nodes is None and _node_keys([key], pair) is None:
                    raise InputError(f"{what} {_shown(key)}: key must be {shape}")
                if not isinstance(value, float):  # a float, even NaN, is left to the rate checks
                    _finite(value, f"{what} {_shown(key)}", text=True)
            values = list(map(float, values))
            entries, flat = zip(nodes, values), list(chain(*nodes)) if pair else nodes
        tables.append(dict(entries))
        ids += flat
        rates += values
    r, ends = len(tables[0]), list(accumulate(map(len, tables), initial=0))
    keys, flat, unsorted = np.zeros((ends[-1], 2), np.int64), None, [True] * 3
    with suppress(OverflowError):  # a key past int64 leaves flat None and every mapping unsorted
        flat = np.array(ids, np.int64)
        keys[:r], keys[r:, 0] = flat[:2 * r].reshape(r, 2), flat[2 * r:]
        down, same = keys[1:] < keys[:-1], keys[1:] == keys[:-1]
        out = down[:, 0] | same[:, 0] & down[:, 1]  # a row below the one before it
        unsorted = [lo < hi and np.count_nonzero(out[lo:hi - 1]) for lo, hi in zip(ends, ends[1:])]
    if any(unsorted):
        tables = [dict(sorted(t.items(), key=itemgetter(0))) if u else t
                  for t, u in zip(tables, unsorted)]
        ids = chain(chain.from_iterable(tables[0]), *tables[1:])
        flat = np.array(list(ids) if flat is not None else
                        [i if abs(i) <= INT64_MAX else 0 for i in ids], np.int64)
        keys[:r], keys[r:, 0] = flat[:2 * r].reshape(r, 2), flat[2 * r:]
        rates = list(chain(*map(dict.values, tables)))
    return tables, keys, np.array(rates, float)


def _positions(ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The position of each key in the sorted id column, -1 for a key no node has."""
    at = ids.searchsorted(keys)
    at[ids.take(at, mode="clip") != keys] = -1  # clip: a key past the last id
    return at


def _csr(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """The edges ``src[e] -> dst[e]`` grouped by source: node u's targets, in
    edge order, are ``targets[begins[u]:ends[u]]`` for u in 0..n-1."""
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    return dst[np.argsort(src, kind="stable")].tolist(), [0] + ends[:-1], ends


def _bfs_levels(targets: list[int], begins: list[int], ends: list[int],
                roots: Iterable[int]) -> list[int]:
    """Breadth-first depth of every node over the edges u -> ``targets[begins[u]:ends[u]]``
    (``_csr``); -1 where no root reaches it.  The search keeps no list per node.

    Roots are taken in order.  A root an earlier search already reached is
    skipped; every other root starts a new search, at depth 0, of the nodes
    not yet reached.
    """
    level = [-1] * len(begins)
    for root in roots:
        if level[root] >= 0:
            continue
        level[root] = 0
        frontier, depth = [root], 0
        while frontier:
            depth += 1
            reached = []
            for u in frontier:
                for v in targets[begins[u]:ends[u]]:
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
    ``routing`` keeps it.  The three mappings are checked in one pass (module
    docstring).

    Raises:
        InputError: a mapping key that is no node id (in ``routing``, no
            pair of them); a bad id, kind, capacity or kind-dependent field,
            an id or capacity past 2**63 - 1 included;
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
        nodes = given = self.nodes
        with suppress(TypeError):  # ids that cannot be ordered fail the id check below
            nodes = tuple(sorted(nodes, key=attrgetter("id")))
        ids, kinds, caps, mu, mu_b = zip(*nodes) if nodes else ((),) * 5
        if not (set(map(type, ids)) <= {int} and min(ids, default=1) > 0
                and max(ids, default=1) <= INT64_MAX):
            for i in (node.id for node in given):  # the first bad id as given
                if isinstance(i, bool) or not isinstance(i, int) or i <= 0:
                    raise InputError(f"node id {_shown(i)} must be a positive integer")
                if i > INT64_MAX:
                    raise InputError(f"node id {_shown(i)} must be below 2**63")
        known = self.known_arrival_rates  # None: no node is pinned
        (routing, external, pins), keys, values = _canonical(
            [self.routing, self.external_arrivals, {} if known is None else known])
        if not nodes:
            raise InputError("network has no nodes")
        n = len(nodes)
        # Kind and capacity tests are by type: a plain string is no kind, a bool no
        # capacity.  A capacity past int64 is flagged as 0.
        kind = np.array([KIND_CODES[k] if type(k) is NodeKind else -1 for k in kinds], np.int8)
        fits = set(map(type, caps)) <= {int} and 0 < min(caps) and max(caps) <= INT64_MAX
        id_col, cap = ints = np.array((ids, caps if fits else [
            c if isinstance(c, int) and type(c) is not bool and 0 < c <= INT64_MAX else 0
            for c in caps]), np.int64)
        rates = _finite_column([*mu, *mu_b])[0]  # NaN marks a rate _finite rejects
        floats = np.zeros((5, n))  # mu, mu_b, exit probability, external rate, known rate
        floats[:2], floats[4] = (rates[:n], rates[n:]), math.nan  # NaN: a node not pinned
        mu, mu_b, leave, external_rate, known_rate = floats
        inner = kind == KIND_CODES[NodeKind.INTERMEDIATE]
        sink = kind == KIND_CODES[NodeKind.SINK]
        flagged = ((kind < 0) | (cap < 1) | ~(np.minimum(mu, mu_b) >= 0.0)  # NaN fails
                   | (inner & ((cap != 1) | (mu_b <= 0.0))))
        flagged[1:] |= id_col[1:] == id_col[:-1]  # a repeated id
        # The per-node rules, in order: the first flagged node raises at its first fault.
        for node, before in compress(zip(nodes, chain([None], ids)), flagged.tolist()):
            i, capacity = _shown(node.id), node.capacity
            if node.id == before:
                raise InputError(f"duplicate node id {i}")
            if type(node.kind) is not NodeKind:
                raise InputError(f"node {i}: kind {node.kind!r} is not a NodeKind")
            if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
                raise InputError(f"node {i}: capacity must be a positive integer")
            if capacity > INT64_MAX:
                raise InputError(f"node {i}: capacity must be below 2**63")
            _finite(node.service_rate, f"node {i} service rate", NONNEGATIVE)
            _finite(node.unblock_rate, f"node {i} unblock rate", NONNEGATIVE)
            if node.kind is NodeKind.INTERMEDIATE and capacity != 1:
                raise InputError(f"node {i}: intermediate nodes hold exactly one job")
            if node.kind is NodeKind.INTERMEDIATE and node.unblock_rate <= 0:
                raise InputError(f"node {i} needs a positive unblock rate")

        # Every mapping entry at once: its node (a routing entry's from node), its value
        # and a routing entry's to node; an entry at a sink is flagged for its check.
        r, e = len(routing), len(external)
        at = _positions(id_col, keys)
        owner, rows, cols, probs = at[:, 0], at[:r, 0], at[:r, 1], values[:r]
        flagged = ~((values >= 0.0) & np.isfinite(values)) | (owner < 0) | sink[owner]
        flagged[:r] |= (cols < 0) | (probs > 1.0)
        flags = flagged.tolist()
        index = dict(zip(ids, range(n))) if True in flags else {}
        for i, j in compress(routing, flags):  # the per-entry rules, mapping by mapping
            pair = f"{_shown(i)}->{_shown(j)}"
            for end in (i, j):
                if end not in index:
                    raise InputError(f"routing entry {pair} references unknown node {_shown(end)}")
            if _finite(routing[i, j], f"routing {pair}", PROBABILITY) > 0.0 and sink[index[i]]:
                raise InputError(f"sink node {_shown(i)} cannot route onward")
        # bincount adds in triplet order, so each row sums left to right over
        # its targets in id order; tolist gives the Python float the message prints
        row_sum = np.bincount(rows, weights=probs, minlength=n)
        sums = row_sum.tolist()
        if max(sums) > 1.0 + ROW_SUM_TOL:
            i, total = next((i, t) for i, t in zip(ids, sums) if t > 1.0 + ROW_SUM_TOL)
            raise InputError(f"routing probabilities out of node {_shown(i)} sum to {total!r} > 1")
        for i in compress(external, flags[r:r + e]):
            if i not in index:
                raise InputError(f"external arrival references unknown node {_shown(i)}")
            _finite(external[i], f"external arrival rate at node {_shown(i)}", NONNEGATIVE)
            if sink[index[i]]:
                raise InputError(f"external arrivals cannot target sink node {_shown(i)}")
        for i in compress(pins, flags[r + e:]):
            if i not in index:
                raise InputError(f"known arrival rate references unknown node {_shown(i)}")
            _finite(pins[i], f"known arrival rate at node {_shown(i)}", NONNEGATIVE)
        external_rate[owner[r:r + e]] = values[r:r + e]
        if known is not None:
            known_rate[owner[r + e:]] = values[r + e:]
            missing = id_col[inner & np.isnan(known_rate)].tolist()
            if missing:
                raise InputError("known arrival rates must cover every intermediate node;"
                                 f" missing [{', '.join(map(_shown, missing))}]")

        used = probs > 0.0  # a zero entry routes nothing: the tables keep the positive ones
        rows, cols, probs = rows[used], cols[used], probs[used]  # contiguous copies
        if 0.0 in rates[:n]:  # a node that can ever hold a job must be able to serve it
            receives = (np.bincount(cols, minlength=n) > 0) | (external_rate > 0.0)
            for node in compress(nodes, (receives & (mu <= 0.0)).tolist()):
                raise InputError(f"node {_shown(node.id)} receives jobs"
                                 " but has no positive service rate")
        if not max(external.values(), default=0.0) > 0.0:
            raise InputError("no node has a positive external arrival rate")
        if min(sums) >= 1.0:  # 1 - row sum is the exit probability
            raise InputError("no node has a positive exit probability")

        np.maximum(1.0 - row_sum, 0.0, out=leave)
        for a in (ints, kind, floats, rows, cols, probs):  # a view taken after this is read-only
            a.setflags(write=False)
        columns = NodeColumns(ints[0], kind, ints[1], *floats)
        vars(self).update(  # a frozen dataclass: its fields are set past __setattr__
            nodes=nodes, routing=MappingProxyType(routing), columns=columns,
            external_arrivals=MappingProxyType(external), routing_triplets=(rows, cols, probs),
            known_arrival_rates=known if known is None else MappingProxyType(pins))

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


def _load_json(text: str, decode=json.loads):
    """``decode(text)``, raising ParseError for any text it cannot decode."""
    try:
        return decode(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno) from None
    except RecursionError:  # nested deeper than the decoder recurses
        raise ParseError("arrays or objects nested too deeply") from None
    except ValueError:  # an integer literal past Python's int-to-str digit limit
        raise ParseError("integer literal has too many digits to decode") from None


def _no_nonfinite(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed")


_NETWORK_JSON = json.JSONDecoder(parse_constant=_no_nonfinite)  # json.loads builds one per call


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


def _node_columns(items: list) -> tuple[list, ...] | None:
    """The NodeSpec fields of the node objects, one list each, or None if
    some object fails a document rule."""
    if not (set(map(type, items)) <= {dict} and set().union(*items) <= set(_NODE_KEYS)):
        return None
    try:  # with no unknown key, having the required ones is the whole key rule
        ids, kinds, capacity, mu = [list(map(itemgetter(k), items)) for k in _NODE_REQUIRED]
    except KeyError:
        return None
    servers = list(map(dict.get, items, repeat("servers"), repeat(1)))
    # mu, then mu_b; _finite with text takes exactly the JSON values the document rule does
    rates, clean = _finite_column([*mu, *map(dict.get, items, repeat("mu_b"), repeat(0.0))], True)
    if not (clean and set(map(type, kinds)) <= {str} and set(kinds) <= _KINDS.keys()
            and set(map(type, chain(ids, servers, capacity))) <= {int} and set(servers) <= {1}):
        return None
    return ids, list(map(_KINDS.__getitem__, kinds)), capacity, rates[:len(ids)], rates[len(ids):]


def _section(doc: dict, name: str, keys: tuple[str, ...], duplicate: str) -> dict:
    """A routing or arrival section as {key: rate}, int keys ((from, to) pairs for
    the routing) and float rates; a section that fails a document rule or repeats
    a key raises at its first bad item."""
    path = f"$.{name}"
    items = _as_array(doc[name], path)
    columns = None
    if set(map(type, items)) <= {dict} and set(map(len, items)) <= {len(keys)}:
        with suppress(KeyError):  # with exactly len(keys) keys each, having all rules out others
            *ids, rates = columns = [list(map(itemgetter(k), items)) for k in keys]
    if columns and set(map(type, chain(*ids))) <= {int}:
        rates, clean = _finite_column(rates, text=True)  # the document's rate rule, as for nodes
        table = dict(zip(zip(*ids) if len(ids) > 1 else ids[0], rates))  # (from, to) pairs, or ids
        if clean and len(table) == len(items):
            return table
    _raise_first_fault(items, path, partial(_check_keyed_item, keys=keys, duplicate=duplicate))


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
    doc = _as_object(_load_json(text, _NETWORK_JSON.decode), "$")
    _check_keys(doc, "$", _TOP_KEYS, _TOP_KEYS[:3])

    items = _as_array(doc["nodes"], "$.nodes")
    if not items:
        raise SchemaError("$.nodes", "must contain at least one node")
    columns = _node_columns(items)
    if columns is None:
        _raise_first_fault(items, "$.nodes", _check_node_item)

    # NodeSpec._make without its Python frame: every row has the five fields
    nodes = tuple(map(tuple.__new__, repeat(NodeSpec), zip(*columns)))
    routing, external = _section(doc, *_ROUTING), _section(doc, *_EXTERNAL)
    known = _section(doc, *_KNOWN) if "known_arrival_rates" in doc else None
    return NetworkSpec(nodes, routing, external, known)


# The document as json.dumps(doc, indent=2) lays it out: one template per
# object shape, each rate a JSON string holding repr(float(rate)) (or str: the same).
_NODE_JSON = ('    {\n      "id": %d,\n      "kind": "%s",\n      "capacity": %d,\n'
              '      "mu": "%s",\n      "mu_b": "%s",\n      "servers": 1\n    }')
_ROUTING_JSON = '    {\n      "from": %d,\n      "to": %d,\n      "p": "%s"\n    }'
_EXTERNAL_JSON = '    {\n      "node": %d,\n      "lambda0": "%s"\n    }'
_KNOWN_JSON = '    {\n      "node": %d,\n      "lambda": "%s"\n    }'


def serialize_network(spec: NetworkSpec) -> str:
    """Render a spec back to its canonical document form.

    Output is deterministic: nodes sorted by id, routing entries by
    (from, to), rates as shortest round-trip decimal strings.  It is byte
    for byte ``json.dumps(doc, indent=2) + "\\n"`` of the document as a
    dict, written from fixed templates: nodes from the spec's columns, the
    rest from its mappings, already in key order with float values.
    """
    c, kinds, known = spec.columns, [k.value for k in KIND_CODES], spec.known_arrival_rates
    columns = c.service_rate.tolist(), c.unblock_rate.tolist(), list(spec.routing.values())
    # one repr per distinct rate; a zero on its own, since -0.0 == 0.0 would share one
    text = {v: repr(v) for v in set(chain(*columns)) if v}
    mu, mu_b, p = ([text[v] if v else repr(v) for v in column] for column in columns)
    sections = {
        "nodes": list(map(_NODE_JSON.__mod__, zip(
            c.id.tolist(), map(kinds.__getitem__, c.kind.tolist()), c.capacity.tolist(),
            mu, mu_b))),
        "routing": [_ROUTING_JSON % (i, j, t) for (i, j), t in zip(spec.routing, p)],
        "external_arrivals": list(map(_EXTERNAL_JSON.__mod__, spec.external_arrivals.items())),
    }
    if known is not None:
        sections["known_arrival_rates"] = list(map(_KNOWN_JSON.__mod__, known.items()))
    return "{\n%s\n}\n" % ",\n".join(
        f'  "{name}": ' + ("[\n" + ",\n".join(items) + "\n  ]" if items else "[]")
        for name, items in sections.items())
