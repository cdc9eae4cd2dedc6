"""NetworkSpec against ``oracle._scalar_spec`` on random library inputs.

``NetworkSpec`` checks its nodes and its three mappings as arrays and hands
only flagged items to the per-item checks.  The oracle checks one node or
entry at a time.  On seeded random inputs, most carrying one or two faults
drawn from a weighted list, both must raise the same error type and text,
or build the same nodes and mappings; the spec's columns and routing
triplets must then match the ones derived here from the oracle's output.
"""

import math
import random
import re
from collections import Counter

import numpy as np

from qnswap import InputError, NetworkSpec, NodeKind, NodeSpec
from qnswap.model import KIND_CODES
from oracle import _scalar_spec

SOURCE, SINK, MID = NodeKind.SOURCE, NodeKind.SINK, NodeKind.INTERMEDIATE
MAPPINGS = ("routing", "external", "known")
WHAT = {"routing": "routing entry", "external": "external arrival",
        "known": "known arrival rate"}


def _rate(rng):
    return rng.choice([0.5, 1.0, 2.0, round(rng.uniform(0.1, 3.0), 3)])


def _valid_case(rng) -> dict:
    """A valid open network: sources and intermediates route into
    intermediates and sinks, every source gets arrivals."""
    n_src, n_mid, n_sink = rng.randint(1, 2), rng.randint(0, 3), rng.randint(1, 2)
    ids = rng.sample(range(1, 40), n_src + n_mid + n_sink)
    src, mid, sink = ids[:n_src], ids[n_src:n_src + n_mid], ids[n_src + n_mid:]
    nodes = ([NodeSpec(i, SOURCE, rng.randint(1, 4), _rate(rng)) for i in src]
             + [NodeSpec(i, MID, 1, _rate(rng), _rate(rng)) for i in mid]
             + [NodeSpec(i, SINK, rng.randint(1, 3), _rate(rng)) for i in sink])
    rng.shuffle(nodes)
    routing = {}
    for i in src + mid:
        others = [j for j in mid + sink if j != i]
        targets = rng.sample(others, min(len(others), rng.randint(1, 2)))
        weights = [rng.random() + 0.1 for _ in targets]
        total = rng.choice([1.0, 1.0 + 5e-10 * (len(targets) > 1), rng.uniform(0.2, 1.0)])
        for j, w in zip(targets, weights):
            routing[(i, j)] = w / sum(weights) * total
    if rng.random() < 0.2:  # a zero entry routes nothing, even out of a sink
        routing[(rng.choice(sink), rng.choice(ids))] = 0.0
    external = {i: _rate(rng) for i in src}
    if n_src > 1 and rng.random() < 0.3:
        external[src[0]] = 0.0
    known = None
    if rng.random() < 0.4:
        known = {i: rng.choice([0.0, _rate(rng)]) for i in mid}
        if rng.random() < 0.5:
            known[rng.choice(src)] = _rate(rng)
    return {"nodes": nodes, "routing": routing, "external": external, "known": known,
            "src": src, "mid": mid, "sink": sink}


def _closed_case(rng) -> dict:
    """Two sources that route every job to each other: no way out."""
    a, b = rng.sample(range(1, 40), 2)
    return {"nodes": [NodeSpec(a, SOURCE, 2, 1.0), NodeSpec(b, SOURCE, 2, 1.0)],
            "routing": {(a, b): 1.0, (b, a): 1.0}, "external": {a: 0.5}, "known": None,
            "src": [a, b], "mid": [], "sink": []}


def _respelled(rng, case):
    """Keys and values in other accepted forms: np and float ids, int, string
    and np values, entries out of order."""
    def key(i):
        if type(i) is tuple and len(i) == 2:
            return key(i[0]), key(i[1])
        return rng.choice([i, i, np.int64(i), float(i)]) if type(i) is int and 0 < i < 99 else i

    def value(p):
        if type(p) is not float or not 0.0 <= p <= 9.0:
            return p
        if p in (0.0, 1.0) and rng.random() < 0.5:
            return int(p)
        return rng.choice([p, np.float64(p), repr(p), np.float32(p)])

    for name in MAPPINGS:
        if case[name] is not None:
            case[name] = {key(i): value(r) for i, r in case[name].items()}
    for name in MAPPINGS:
        if case[name] is not None and rng.random() < 0.5:
            items = list(case[name].items())
            rng.shuffle(items)
            case[name] = dict(items)


def _node(rng, case, kinds=(SOURCE, MID, SINK), **fields):
    picks = [k for k, n in enumerate(case["nodes"]) if n.kind in kinds]
    if picks:
        k = rng.choice(picks)
        case["nodes"][k] = case["nodes"][k]._replace(**fields)


def _mapping(case, name):
    if case[name] is None:
        case[name] = {i: 0.5 for i in case["mid"]}
    return case[name]


def _bad_key(rng, case, name):
    table = _mapping(case, name)
    i = rng.choice(case["src"])
    if name == "routing":
        bad = rng.choice([(i, True), (i, "3"), (i, 1.5), i, (i, i, i), "ab", (np.bool_(1), i)])
    else:
        bad = rng.choice([True, "3", 1.5, (i,), None, np.bool_(0)])
    items = list(table.items())
    items.insert(rng.randint(0, len(items)), (bad, 0.5))
    case[name] = dict(items)


def _bad_value(rng, case, name):
    table = _mapping(case, name)
    if not table:
        table[case["src"][0]] = 0.5
    key = rng.choice(list(table))
    table[key] = rng.choice(rng.choice(
        [[None, "x", True, [0.5]], [10**400, -10**400], ["nan", "-inf", np.float32("inf")]]))


def _unknown(rng, case, name):
    table = _mapping(case, name)
    far = rng.choice([99, 2**64, 0])
    i = rng.choice(case["src"])
    table[rng.choice([(i, far), (far, i)]) if name == "routing" else far] = 0.25


def _bad_rate(rng, case, name):
    table = _mapping(case, name)
    if not table:
        table[case["src"][0]] = 0.5
    bad = [-0.1, 1.5, math.nan, math.inf] if name == "routing" else [-0.5, math.nan, math.inf]
    table[rng.choice(list(table))] = rng.choice(bad)


def _row_above_one(rng, case):
    i = rng.choice(case["src"])
    used = sum(p for key, p in case["routing"].items()
               if type(key) is tuple and key[:1] == (i,) and type(p) is float)
    j = rng.choice(case["sink"] or case["src"])
    if (i, j) not in case["routing"]:
        case["routing"][(i, j)] = min(1.0, 1.0 - used + rng.choice([2e-9, 0.3]))


def _bad_node_rate(rng):
    return rng.choice(rng.choice([["1.0", True, None, np.bool_(1)], [10**400, -10**400],
                                  [-1.0, -2, -math.inf], [math.nan, math.inf]]))


def _no_service(rng, case):
    _node(rng, case, kinds=(SINK,), service_rate=rng.choice([0.0, 0]))


FAULTS = {
    "id_bad": lambda rng, c: _node(rng, c, id=rng.choice([0, -3, 2.0, "7", True, None])),
    "id_big": lambda rng, c: _node(rng, c, id=rng.choice([2**63, 10**30])),
    "no_nodes": lambda rng, c: c.update(nodes=[]),
    "id_duplicate": lambda rng, c: c["nodes"] and _node(rng, c, id=c["nodes"][0].id),
    "kind": lambda rng, c: _node(rng, c, kind=rng.choice(["source", None, 3])),
    "capacity_bad": lambda rng, c: _node(rng, c, capacity=rng.choice([0, -1, 2.0, True, "2"])),
    "capacity_big": lambda rng, c: _node(rng, c, capacity=rng.choice([2**63, 10**25])),
    "service_rate": lambda rng, c: _node(rng, c, service_rate=_bad_node_rate(rng)),
    "unblock_rate": lambda rng, c: _node(rng, c, unblock_rate=_bad_node_rate(rng)),
    "mid_capacity": lambda rng, c: _node(rng, c, kinds=(MID,), capacity=2),
    "mid_unblock": lambda rng, c: _node(rng, c, kinds=(MID,), unblock_rate=0.0),
    "sink_routes": lambda rng, c: c["routing"].update(
        {(rng.choice(c["sink"] or c["src"]), rng.choice(c["src"])): 0.5}),
    "row_above_one": _row_above_one,
    "external_to_sink": lambda rng, c: c["external"].update(
        {rng.choice(c["sink"] or c["src"]): rng.choice([0.0, 0.5])}),
    "known_missing": lambda rng, c: _mapping(c, "known").pop(
        rng.choice(c["mid"]) if c["mid"] else None, None),
    "no_service": _no_service,
    "no_external": lambda rng, c: c.update(
        external=rng.choice([{}, dict.fromkeys(c["src"], 0.0)])),
    "no_exit": lambda rng, c: c.update(_closed_case(rng)),
}
for name in MAPPINGS:
    for kind, fault in (("key", _bad_key), ("value", _bad_value), ("unknown", _unknown),
                        ("rate", _bad_rate)):
        FAULTS[f"{name}_{kind}"] = lambda rng, c, f=fault, m=name: f(rng, c, m)

# Every fault text NetworkSpec raises, as a pattern; the first one that
# matches a message names it.
_MAP = {name: re.escape(what) for name, what in WHAT.items()}
_NODE_RATE = r"node \d+ (service|unblock) rate"
FAULT_TEXTS = {
    "node id positive": r"node id .+ must be a positive integer",
    "node id int64": r"node id \d+ must be below 2\*\*63",
    **{f"{name} key": _MAP[name] + r" .+: key must be "
       + ("a \\(from, to\\) pair of integer node ids" if name == "routing"
          else "an integer node id") for name in MAPPINGS},
    **{f"{name} value no number": _MAP[name] + r" .+: value .+ is not a number"
       for name in MAPPINGS},
    **{f"{name} value too large": _MAP[name]
       + r" .+ must be finite, got an integer too large for a float" for name in MAPPINGS},
    **{f"{name} value not finite": _MAP[name] + r" .+ must be finite, got .+"
       for name in MAPPINGS},
    "no nodes": r"network has no nodes",
    "duplicate id": r"duplicate node id \d+",
    "kind": r"node \d+: kind .+ is not a NodeKind",
    "capacity positive": r"node \d+: capacity must be a positive integer",
    "capacity int64": r"node \d+: capacity must be below 2\*\*63",
    "node rate no number": _NODE_RATE + r": value .+ is not a number",
    "node rate too large": _NODE_RATE + r" must be finite, got an integer too large for a float",
    "node rate negative": _NODE_RATE + r" must be nonnegative, got .+",
    "node rate not finite": _NODE_RATE + r" must be finite, got .+",
    "intermediate capacity": r"node \d+: intermediate nodes hold exactly one job",
    "intermediate unblock": r"node \d+ needs a positive unblock rate",
    "routing unknown": r"routing entry \d+->\d+ references unknown node \d+",
    "routing probability": r"routing \d+->\d+: probability .+ outside \[0, 1\]",
    "sink routes": r"sink node \d+ cannot route onward",
    "row sum": r"routing probabilities out of node \d+ sum to .+ > 1",
    "external unknown": r"external arrival references unknown node \d+",
    "external rate": r"external arrival rate at node \d+ must be (nonnegative|finite), got .+",
    "external sink": r"external arrivals cannot target sink node \d+",
    "known unknown": r"known arrival rate references unknown node \d+",
    "known rate": r"known arrival rate at node \d+ must be (nonnegative|finite), got .+",
    "known missing": r"known arrival rates must cover every intermediate node; missing \[.+\]",
    "no service": r"node \d+ receives jobs but has no positive service rate",
    "no external": r"no node has a positive external arrival rate",
    "no exit": r"no node has a positive exit probability",
}

FAULT_TEXTS = {name: re.compile(pattern) for name, pattern in FAULT_TEXTS.items()}


def _text_name(message: str) -> str:
    return next(name for name, pattern in FAULT_TEXTS.items() if pattern.fullmatch(message))


def _outcome(build, case):
    args = (case["nodes"], case["routing"], case["external"], case["known"])
    try:
        return build(*args)
    except InputError as e:
        return type(e), str(e)


def _left_sums(entries, ids) -> dict:
    sums = dict.fromkeys(ids, 0.0)
    for (i, _), p in entries.items():
        sums[i] += p
    return sums


def _check_accepted(spec, want):
    nodes, entries, external, known = want
    assert spec.nodes == nodes
    for got, table, pair in ((spec.routing, entries, True),
                             (spec.external_arrivals, external, False),
                             (spec.known_arrival_rates, known, False)):
        if table is None:
            assert got is None
            continue
        assert list(got.items()) == list(table.items())
        keys = [e for key in got for e in key] if pair else list(got)
        assert {type(k) for k in keys} <= {int} and {type(v) for v in got.values()} <= {float}
    # the columns and triplets, derived from the oracle's nodes and mappings
    ids = [n.id for n in nodes]
    at = {i: k for k, i in enumerate(ids)}
    sums = _left_sums(entries, ids)
    want_columns = (
        (ids, np.int64), ([KIND_CODES[n.kind] for n in nodes], np.int8),
        ([n.capacity for n in nodes], np.int64),
        ([float(n.service_rate) for n in nodes], float),
        ([float(n.unblock_rate) for n in nodes], float),
        ([max(1.0 - sums[i], 0.0) for i in ids], float),
        ([external.get(i, 0.0) for i in ids], float),
        (["nan" if known is None else known.get(i, "nan") for i in ids], float),
    )
    for column, (values, dtype) in zip(spec.columns, want_columns):
        assert column.dtype == dtype and not column.flags.writeable
        assert [x if x == x else "nan" for x in column.tolist()] == values  # NaN: not pinned
    positive = [(at[i], at[j], p) for (i, j), p in entries.items() if p > 0.0]
    rows, cols, probs = spec.routing_triplets
    assert list(zip(rows.tolist(), cols.tolist(), probs.tolist())) == positive


def test_spec_matches_scalar_oracle_on_random_inputs():
    rng = random.Random(2023)
    names = sorted(FAULTS)
    hits, accepted = Counter(), 0
    for _ in range(3000):
        case = _valid_case(rng)
        for _ in range(rng.choice([0, 0, 1, 1, 1, 1, 1, 2])):
            FAULTS[rng.choice(names)](rng, case)
        if rng.random() < 0.4:
            _respelled(rng, case)
        want = _outcome(_scalar_spec, case)
        got = _outcome(NetworkSpec, case)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want, case
            hits[_text_name(want[1])] += 1
        else:
            assert isinstance(got, NetworkSpec), (got, case)
            _check_accepted(got, want)
            accepted += 1
    assert accepted >= 300
    assert {name: hits[name] for name in FAULT_TEXTS if hits[name] < 10} == {}
