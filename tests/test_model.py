"""Network description: construction, validation, and file round-trips."""

import copy
import dataclasses
import hashlib
import json
import math
import pickle

import numpy as np
import pytest

from qnswap import (
    InputError,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    ParseError,
    SchemaError,
    blocking_node_closed_form,
    parse_network,
    serialize_network,
)
from qnswap.model import KIND_CODES, _bfs_levels, _canonical, _csr
from conftest import grid_document, random_open_network, single_queue_spec
from oracle import _scalar_spec, network_document, row_sums


def node(i, kind=NodeKind.SOURCE, capacity=2, mu=1.0, mu_b=0.0):
    return NodeSpec(id=i, kind=kind, capacity=capacity, service_rate=mu,
                    unblock_rate=mu_b)


def two_node_spec(routing, external={1: 1.0}):
    return NetworkSpec(
        nodes=(node(1), node(2)),
        routing=routing,
        external_arrivals=external,
    )


class TestValidation:
    def test_valid_network_passes_and_materializes_exits(self):
        spec = two_node_spec({(1, 2): 0.7})
        assert spec.columns.exit_probability.tolist() == pytest.approx([0.3, 1.0])

    def test_exit_plus_row_sum_is_one(self, fixture_spec):
        rng = np.random.default_rng(11)
        specs = [fixture_spec] + [random_open_network(rng) for _ in range(20)]
        for spec in specs:
            sums = row_sums(spec)
            cols = spec.columns
            for i, exit_p in zip(cols.id.tolist(), cols.exit_probability.tolist()):
                assert abs(sums[i] + exit_p - 1.0) <= 1e-9

    def test_row_sum_above_one(self):
        # 0.8 + 0.5 rounds to the double nearest 1.3; printed as a plain float
        with pytest.raises(InputError,
                           match=r"^routing probabilities out of node 1 sum to 1\.3 > 1$"):
            NetworkSpec(
                nodes=(node(1), node(2), node(3)),
                routing={(1, 2): 0.8, (1, 3): 0.5},
                external_arrivals={1: 1.0},
            )

    def test_row_sum_tolerates_decimal_rounding(self):
        # three equal thirds land a hair above 1.0 in binary; still accepted
        spec = NetworkSpec(
            nodes=(node(1), node(2), node(3), node(4)),
            routing={(1, 2): 1 / 3, (1, 3): 1 / 3, (1, 4): 1 / 3 + 5e-10},
            external_arrivals={1: 1.0},
        )
        assert spec.columns.exit_probability[0] == 0.0

    def test_unknown_routing_target(self):
        with pytest.raises(InputError, match="routing entry 1->9 references unknown node 9"):
            two_node_spec({(1, 9): 0.5})

    def test_sink_cannot_route(self):
        with pytest.raises(InputError, match="sink node 2 cannot route onward"):
            NetworkSpec(
                nodes=(node(1), node(2, kind=NodeKind.SINK)),
                routing={(1, 2): 0.5, (2, 1): 0.5},
                external_arrivals={1: 1.0},
            )

    def test_external_arrivals_cannot_target_sink(self):
        with pytest.raises(InputError, match="external arrivals cannot target sink node 2"):
            NetworkSpec(
                nodes=(node(1), node(2, kind=NodeKind.SINK)),
                routing={(1, 2): 0.5},
                external_arrivals={2: 1.0},
            )

    def test_closed_network_no_exit(self):
        with pytest.raises(InputError, match="no node has a positive exit probability"):
            two_node_spec({(1, 2): 1.0, (2, 1): 1.0})

    def test_closed_network_no_arrivals(self):
        with pytest.raises(InputError, match="no node has a positive external arrival rate"):
            two_node_spec({(1, 2): 0.5}, external={})
        # with no nodes at all, the node check names the fault first
        with pytest.raises(InputError, match="^network has no nodes$"):
            NetworkSpec((), {}, {1: 1.0})

    def test_intermediate_requires_unblock_rate(self):
        with pytest.raises(InputError, match="node 1 needs a positive unblock rate"):
            NetworkSpec(
                nodes=(node(1, kind=NodeKind.INTERMEDIATE, capacity=1), node(2)),
                routing={(1, 2): 0.5},
                external_arrivals={1: 1.0},
            )

    def test_intermediate_capacity_is_one(self):
        with pytest.raises(InputError, match="node 1: intermediate nodes hold exactly one job"):
            NetworkSpec(
                nodes=(node(1, kind=NodeKind.INTERMEDIATE, capacity=2, mu_b=0.1), node(2)),
                routing={(1, 2): 0.5},
                external_arrivals={1: 1.0},
            )

    def test_negative_service_rate(self):
        with pytest.raises(InputError,
                           match="node 1 service rate must be nonnegative, got -1.0"):
            NetworkSpec(
                nodes=(node(1, mu=-1.0),),
                routing={},
                external_arrivals={1: 1.0},
            )

    def test_checked_on_construction(self):
        # a negative service rate inside a closed 1 <-> 2 cycle: no spec
        # that exists can carry it on to the traffic solver or the simulator
        with pytest.raises(InputError,
                           match="node 1 service rate must be nonnegative, got -1.0"):
            NetworkSpec(
                nodes=(node(1, mu=-1.0), node(2)),
                routing={(1, 2): 1.0, (2, 1): 1.0},
                external_arrivals={1: 1.0},
            )

    def test_probability_out_of_range(self):
        for p in (1.2, -0.1, float("nan")):
            with pytest.raises(InputError,
                               match=rf"routing 1->2: probability {p!r} outside \[0, 1\]"):
                two_node_spec({(1, 2): p})

    def test_receiving_node_needs_service(self):
        with pytest.raises(InputError,
                           match="node 2 receives jobs but has no positive service rate"):
            NetworkSpec(
                nodes=(node(1), node(2, mu=0.0)),
                routing={(1, 2): 0.5},
                external_arrivals={1: 1.0},
            )

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(InputError, match="duplicate node id 1"):
            NetworkSpec(
                nodes=(node(1), node(1)),
                routing={},
                external_arrivals={1: 1.0},
            )

    def test_mixed_id_types_rejected_before_sorting(self):
        # "a" and 1 cannot be ordered; the id check must come first
        with pytest.raises(InputError, match="node id 'a' must be a positive integer"):
            NetworkSpec(
                nodes=(node("a"), node(1)),
                routing={},
                external_arrivals={1: 1.0},
            )

    def test_bool_capacity_rejected(self):
        # True passed as a capacity of 1, and the spec then serialized to a
        # document its own parser rejects
        with pytest.raises(InputError, match="^node 1: capacity must be a positive integer$"):
            NetworkSpec(
                nodes=(node(1, capacity=True), node(2)),
                routing={},
                external_arrivals={1: 1.0},
            )


class TestColumns:
    def test_columns_follow_the_nodes(self, fixture_spec):
        rng = np.random.default_rng(5)
        specs = [fixture_spec] + [random_open_network(rng) for _ in range(10)]
        # the random networks again, each with a random set of nodes pinned
        specs += [NetworkSpec(spec.nodes, spec.routing, spec.external_arrivals,
                              {i: float(rng.uniform(0.0, 2.0))
                               for i in spec.columns.id.tolist() if rng.random() < 0.4})
                  for spec in specs[1:]]
        for spec in specs:
            cols = spec.columns
            ids = [n.id for n in spec.nodes]
            sums = row_sums(spec)
            assert cols.id.tolist() == ids
            assert cols.kind.tolist() == [KIND_CODES[n.kind] for n in spec.nodes]
            assert cols.capacity.tolist() == [n.capacity for n in spec.nodes]
            assert cols.service_rate.tolist() == [n.service_rate for n in spec.nodes]
            assert cols.unblock_rate.tolist() == [n.unblock_rate for n in spec.nodes]
            # the row sums add in the order oracle.row_sums adds: same bits
            assert cols.exit_probability.tolist() == [
                max(0.0, min(1.0, 1.0 - sums[i])) for i in ids]
            # bit for bit, NaN exactly where a node is not pinned
            known = spec.known_arrival_rates or {}
            assert cols.external_rate.tobytes() == np.array(
                [spec.external_arrivals.get(i, 0.0) for i in ids]).tobytes()
            assert cols.known_rate.tobytes() == np.array(
                [known.get(i, math.nan) for i in ids]).tobytes()
            assert np.isnan(cols.known_rate).tolist() == [i not in known for i in ids]

    def test_columns_and_triplets_are_read_only(self, fixture_spec):
        assert fixture_spec.columns._fields[-2:] == ("external_rate", "known_rate")
        for a in (*fixture_spec.columns, *fixture_spec.routing_triplets):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_zero_entry_routes_nothing(self):
        # the mapping keeps the zero entry (the document round-trips it); the
        # triplets every solver reads omit it
        spec = NetworkSpec(nodes=(node(1), node(2), node(3)),
                           routing={(1, 2): 0.0, (1, 3): 0.5, (2, 3): 0.0},
                           external_arrivals={1: 1.0})
        assert dict(spec.routing) == {(1, 2): 0.0, (1, 3): 0.5, (2, 3): 0.0}
        rows, cols, probs = spec.routing_triplets
        assert (rows.tolist(), cols.tolist(), probs.tolist()) == ([0], [2], [0.5])
        assert spec.columns.exit_probability.tolist() == [0.5, 1.0, 1.0]
        assert parse_network(serialize_network(spec)) == spec
        # a zero entry out of a sink is no onward routing either
        sink = NetworkSpec(nodes=(node(1), node(2, NodeKind.SINK)),
                           routing={(1, 2): 0.5, (2, 1): 0.0}, external_arrivals={1: 1.0})
        assert sink.routing_triplets[0].tolist() == [0]

    def test_plain_string_kind_is_no_kind(self):
        # every kind test is by identity, so "sink" is not NodeKind.SINK, and
        # a node whose kind is no NodeKind is rejected
        with pytest.raises(InputError, match="^node 2: kind 'sink' is not a NodeKind$"):
            NetworkSpec(
                nodes=(node(1), NodeSpec(2, "sink", 2, 1.0)),
                routing={(1, 2): 0.5, (2, 1): 0.5},
                external_arrivals={1: 1.0},
            )

    @pytest.mark.parametrize("capacity", [1, 1.0], ids=["column_pass", "per_node_pass"])
    def test_kind_that_is_no_node_kind_is_rejected(self, capacity):
        # such a node once got kind code -1: analyze_network then reported an
        # empty metric subset and simulate ran.  A float capacity sends every
        # node through the per-node rules instead of the column pass.
        with pytest.raises(InputError,
                           match="^node 2: kind 'intermediate' is not a NodeKind$"):
            NetworkSpec(
                nodes=(node(1), NodeSpec(2, "intermediate", capacity, 1.0, 0.0),
                       NodeSpec(3, "sink", 2, 1.0)),
                routing={(1, 2): 0.5, (2, 3): 1.0, (3, 1): 0.5},
                external_arrivals={1: 1.0},
            )


NON_FINITE_RATES = {
    "service_rate": (lambda x: NetworkSpec(
        nodes=(node(1, mu=x),),
        routing={},
        external_arrivals={1: 1.0},
    ), "node 1 service rate must be finite"),
    "unblock_rate": (lambda x: NetworkSpec(
        nodes=(node(1, kind=NodeKind.INTERMEDIATE, capacity=1, mu_b=x), node(2)),
        routing={(1, 2): 0.5},
        external_arrivals={1: 1.0},
    ), "node 1 unblock rate must be finite"),
    "external_rate": (lambda x: two_node_spec({(1, 2): 0.5}, external={1: 1.0, 2: x}),
                      "external arrival rate at node 2 must be finite"),
    "known_rate": (lambda x: NetworkSpec(
        nodes=(node(1), node(2)),
        routing={(1, 2): 0.5},
        external_arrivals={1: 1.0},
        known_arrival_rates={2: x},
    ), "known arrival rate at node 2 must be finite"),
    "closed_form_arrival": (lambda x: blocking_node_closed_form(x, 1.0, 0.2, 0.5),
                            "arrival rate must be finite"),
    "closed_form_service": (lambda x: blocking_node_closed_form(0.7, x, 0.2, 0.5),
                            "service rate must be finite"),
    "closed_form_unblock": (lambda x: blocking_node_closed_form(0.7, 1.0, x, 0.5),
                            "unblock rate must be finite"),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_RATES))
def test_non_finite_rate_rejected(name, value):
    # comparisons with NaN are False, so "< 0" and "<= 0" checks let it pass
    build, message = NON_FINITE_RATES[name]
    with pytest.raises(InputError, match=message):
        build(value)


@pytest.mark.parametrize("name", ["service_rate", "unblock_rate", "closed_form_arrival",
                                  "closed_form_service", "closed_form_unblock"])
def test_int_rate_too_large_for_a_float_rejected(name):
    # the float conversion used to overflow before any check ran
    build, message = NON_FINITE_RATES[name]
    with pytest.raises(InputError, match=f"{message}, got an integer too large for a float$"):
        build(10**400)


@pytest.mark.parametrize("field, value", [
    ("service_rate", 10**400), ("unblock_rate", 10**400),
    # too long for str(): the message used to raise a bare ValueError itself
    ("service_rate", -10**5000), ("unblock_rate", -10**5000), ("external_rate", 10**5000),
], ids=["service_rate", "unblock_rate", "service_rate_too_long_to_print",
        "unblock_rate_too_long_to_print", "external_rate_too_long_to_print"])
def test_scalar_spec_check_rejects_int_overflow_alike(field, value):
    mid = node(2, kind=NodeKind.INTERMEDIATE, capacity=1, mu_b=0.2)
    external = {1: value} if field == "external_rate" else {1: 0.5}
    if field != "external_rate":
        mid = mid._replace(**{field: value})
    args = ((node(1), mid, node(3, kind=NodeKind.SINK)), {(1, 2): 1.0, (2, 3): 1.0}, external)
    with pytest.raises(InputError) as package:
        NetworkSpec(*args)
    with pytest.raises(InputError) as oracle:
        _scalar_spec(list(args[0]), *args[1:], None)
    assert str(package.value) == str(oracle.value)
    if field == "external_rate":
        assert str(package.value) == (
            "external arrival 1 must be finite, got an integer too large for a float")
    else:
        assert str(package.value).startswith(f"node 2 {field.replace('_', ' ')} must be finite")


class TestCanonicalForm:
    def test_node_fields_cannot_change(self):
        n = node(1)
        with pytest.raises(AttributeError):
            n.capacity = 3
        assert n == NodeSpec(1, NodeKind.SOURCE, 2, 1.0, 0.0)

    def test_nodes_sorted_by_id(self):
        spec = NetworkSpec(
            nodes=(node(2), node(1)),
            routing={(1, 2): 0.5},
            external_arrivals={1: 1.0},
        )
        assert [n.id for n in spec.nodes] == [1, 2]

    @pytest.mark.parametrize("given", [
        {(1, 2): 0.5, (1, 3): 0.25},
        {(1, 3): 0.25, (1, 2): 0.5},
        {(1, 2): 1 / 2, (1, np.int64(3)): np.float64(0.25)},
        {(1.0, 2): "0.5", (1, 3): 0.25},
    ], ids=["canonical", "out_of_order", "numpy_types", "converted"])
    def test_routing_entries_are_canonical_copies(self, given):
        spec = NetworkSpec(nodes=(node(1), node(2), node(3)), routing=given,
                           external_arrivals={1: 1.0})
        entries = list(spec.routing.items())
        assert entries == [((1, 2), 0.5), ((1, 3), 0.25)]
        assert [type(x) for (i, j), p in entries for x in (i, j, p)] == [int, int, float] * 2
        given[(5, 6)] = 1.0
        assert len(spec.routing) == 2

    @pytest.mark.parametrize("field, given, message", [
        ("routing", {(1.9, 2): 1.0}, r"routing entry \(1\.9, 2\): key must be a \(from, to\)"),
        ("routing", {(1, 2.5): 1.0}, r"routing entry \(1, 2\.5\): key"),
        ("routing", {(True, 2): 1.0}, r"routing entry \(True, 2\): key"),
        ("routing", {("1", 2): 0.5, (1, 3): 0.25}, r"routing entry \('1', 2\): key"),
        ("routing", {(1, 3): 0.25, None: 0.5}, r"routing entry None: key"),
        ("routing", {1: 0.5}, r"routing entry 1: key must be a \(from, to\) pair"),
        ("routing", {(1, 2, 3): 0.5}, r"routing entry \(1, 2, 3\): key"),
        ("routing", {(1, 2): "abc"}, r"routing entry \(1, 2\): value 'abc' is not a number"),
        ("routing", {(1, 2): [0.5]}, r"routing entry \(1, 2\): value \[0\.5\] is not a number"),
        ("external_arrivals", {1.7: 0.5}, r"external arrival 1\.7: key must be an integer node id"),
        ("external_arrivals", {True: 0.5}, r"external arrival True: key"),
        ("external_arrivals", {1: 1.0, None: 0.5}, r"external arrival None: key"),
        ("external_arrivals", {1: 1.0, "2": 0.5}, r"external arrival '2': key"),
        ("external_arrivals", {1: None}, r"external arrival 1: value None is not a number"),
        ("external_arrivals", {1: [1.0]}, r"external arrival 1: value \[1\.0\] is not a number"),
        ("known_arrival_rates", {2.5: 0.5}, r"known arrival rate 2\.5: key"),
        ("known_arrival_rates", {math.nan: 0.5}, r"known arrival rate nan: key"),
        ("known_arrival_rates", {2: "abc"}, r"known arrival rate 2: value 'abc' is not"),
        ("external_arrivals", {1: 1.0, 5: 1.0, 2**64: 1.0},
         r"external arrival references unknown node 5$"),
        ("external_arrivals", {1: 1.0, 2**64: 1.0, 5: 1.0},
         r"external arrival references unknown node 5$"),
        ("routing", {(1, 2): 0.5, (7, 2): 0.1, (2**64, 2): 0.1},
         r"routing entry 7->2 references unknown node 7$"),
        ("routing", {(1, 2): 0.5, (2**64, 2): 0.1, (7, 2): 0.1},
         r"routing entry 7->2 references unknown node 7$"),
    ], ids=["fraction_from", "fraction_to", "bool", "mixed_types", "none", "not_a_pair",
            "triple", "value", "value_list", "ext_fraction", "ext_bool", "ext_none",
            "ext_string", "ext_value", "ext_value_list", "known_fraction", "known_nan",
            "known_value", "ext_past_int64_last", "ext_past_int64_first",
            "routing_past_int64_last", "routing_past_int64_first"])
    def test_bad_mapping_entry_is_an_input_error(self, field, given, message):
        # these used to be truncated onto another node (1.9 -> 1) or to
        # escape as a bare TypeError or ValueError; a key past int64 is an
        # unknown node in id order, not one read as 0 and named first
        mappings = {"routing": {(1, 2): 0.5}, "external_arrivals": {1: 1.0},
                    "known_arrival_rates": None, field: given}
        with pytest.raises(InputError, match=f"^{message}"):
            NetworkSpec(nodes=(node(1), node(2), node(3)), **mappings)

    def test_rate_keys_are_canonical_copies(self):
        spec = NetworkSpec(nodes=(node(1), node(2)), routing={},
                           external_arrivals={np.int64(2): "0.5", 1.0: np.float64(1)},
                           known_arrival_rates={2: 1, 1: 2.0})
        for mapping in (spec.external_arrivals, spec.known_arrival_rates):
            assert [type(x) for k, v in mapping.items() for x in (k, v)] == [int, float] * 2
        assert list(spec.external_arrivals.items()) == [(1, 1.0), (2, 0.5)]
        assert list(spec.known_arrival_rates.items()) == [(1, 2.0), (2, 1.0)]


def _sorted_one_by_one(mappings):
    """``_canonical``'s tables, key rows and values, each mapping sorted on its own."""
    tables = [dict(sorted(m.items())) for m in mappings]
    rows = [list(k) for k in tables[0]] + [[i, 0] for t in tables[1:] for i in t]
    return tables, rows, [v for t in tables for v in t.values()]


CANONICAL_CASES = {
    "in_order": ({(1, 2): 0.5, (1, 3): 0.25, (2, 3): 1.0}, {1: 1.0, 4: 0.5}, {2: 0.3, 3: 0.1}),
    "routing_out_of_order": ({(2, 3): 1.0, (1, 3): 0.25, (1, 2): 0.5}, {1: 1.0}, {2: 0.3}),
    "routing_same_from_down": ({(1, 3): 0.25, (1, 2): 0.5}, {1: 1.0}, {}),
    "external_out_of_order": ({(1, 2): 0.5}, {4: 0.5, 1: 1.0, 3: 0.2}, {2: 0.3}),
    "known_out_of_order": ({(1, 2): 0.5}, {1: 1.0}, {3: 0.1, 2: 0.3}),
    # each mapping in order, but its first row compares down against the last
    # row of the mapping before: 9 > 1 at routing -> external, 9 > 2 next
    "boundaries_down": ({(1, 2): 0.5, (9, 2): 0.1}, {1: 1.0, 9: 0.5}, {2: 0.3, 5: 0.1}),
    "boundaries_down_one_out": ({(9, 2): 0.1, (1, 2): 0.5}, {1: 1.0, 9: 0.5}, {2: 0.3}),
    "empty_routing": ({}, {3: 0.5, 1: 1.0}, {}),
    "empty_first_two": ({}, {}, {5: 0.5, 2: 1.0}),
    "empty_middle": ({(4, 1): 0.5, (3, 2): 0.5}, {}, {9: 0.1, 1: 0.2}),
}


@pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
def test_canonical_matches_sorting_each_mapping(name):
    mappings = CANONICAL_CASES[name]
    tables, keys, values = _canonical(list(mappings))
    want_tables, want_rows, want_values = _sorted_one_by_one(mappings)
    assert [list(t.items()) for t in tables] == [list(t.items()) for t in want_tables]
    assert keys.dtype == np.int64 and keys.tolist() == want_rows
    assert values.tolist() == want_values


def test_canonical_matches_sorting_each_mapping_at_random():
    rng = np.random.default_rng(5)
    for _ in range(400):
        size = rng.integers(0, 6, size=3).tolist()
        pairs = {(int(i), int(j)) for i, j in rng.integers(1, 8, size=(size[0], 2))}
        mappings = [dict(zip(pairs, rng.random(len(pairs)).tolist()))]
        for m in size[1:]:
            ids = rng.choice(np.arange(1, 10), size=m, replace=False).tolist()
            mappings.append(dict(zip(ids, rng.random(m).tolist())))
        for k in range(3):  # leave some mappings in key order
            if rng.random() < 0.5:
                mappings[k] = dict(sorted(mappings[k].items()))
        tables, keys, values = _canonical(mappings)
        want_tables, want_rows, want_values = _sorted_one_by_one(mappings)
        assert [list(t.items()) for t in tables] == [list(t.items()) for t in want_tables]
        assert keys.tolist() == want_rows and values.tolist() == want_values


class TestReadOnlyMappings:
    @pytest.mark.parametrize("name, key", [
        ("routing", (1, 3)), ("external_arrivals", 12), ("known_arrival_rates", 1)])
    def test_mappings_cannot_change_after_the_check(self, fixture_spec, name, key):
        mapping = getattr(fixture_spec, name)
        with pytest.raises(TypeError):
            mapping[key] = 0.9
        assert len(fixture_spec.routing) == len(fixture_spec.routing_triplets[0])

    @pytest.mark.parametrize("copier", [
        lambda spec: pickle.loads(pickle.dumps(spec)), copy.deepcopy, copy.copy,
        dataclasses.replace], ids=["pickle", "deepcopy", "copy", "replace"])
    def test_copies_come_back_equal(self, fixture_spec, copier):
        spec = copier(fixture_spec)
        assert spec == fixture_spec
        assert spec.columns.id.tolist() == fixture_spec.columns.id.tolist()
        with pytest.raises(TypeError):
            spec.routing[(1, 3)] = 0.9

    def test_unpinned_spec_pickles(self):
        spec = two_node_spec({(1, 2): 0.5})
        assert spec.known_arrival_rates is None
        assert pickle.loads(pickle.dumps(spec)) == spec


def _edge_value_spec() -> NetworkSpec:
    """Rates at the edges of repr and json.dumps: a negative zero, the
    smallest subnormal, a float past 2**53, an inexact sum, an int mu and an
    np.float64 mu_b."""
    return NetworkSpec(
        nodes=(node(1, mu=3),
               node(2, kind=NodeKind.INTERMEDIATE, capacity=1, mu=5e-324,
                    mu_b=np.float64(0.15)),
               node(3, kind=NodeKind.SINK, mu=1e16)),
        routing={(1, 2): 0.1 + 0.2, (1, 3): -0.0, (2, 3): 1.0},
        external_arrivals={1: 1e16},
        known_arrival_rates={2: 5e-324},
    )


# sha256 of serialize_network on the 40x40 grid spec, computed with the
# dict-plus-json.dumps writer the templates replaced
LATTICE40_SHA256 = "2bccf02ff8c5cebd77369b1d01067151295d0cda26fe0495b5a4ad3e5394e9c8"


class TestNetworkWriter:
    """``serialize_network`` prints what ``json.dumps(doc, indent=2)`` prints."""

    @pytest.mark.parametrize("build", [
        lambda fixture: fixture,
        lambda fixture: dataclasses.replace(fixture, known_arrival_rates=None),
        lambda fixture: parse_network(grid_document(6)),
        lambda fixture: parse_network(grid_document(40)),
        lambda fixture: single_queue_spec(0.5, 2),
        lambda fixture: NetworkSpec(nodes=(node(1), node(2)), routing={(1, 2): 0.5},
                                    external_arrivals={1: 1.0}, known_arrival_rates={}),
        lambda fixture: _edge_value_spec(),
    ], ids=["munoz15", "munoz15_unpinned", "grid6", "grid40", "no_routing",
            "empty_known_rates", "edge_values"])
    def test_matches_json_dumps(self, fixture_spec, build):
        spec = build(fixture_spec)
        assert serialize_network(spec) == network_document(spec)

    def test_edge_values_round_trip(self):
        spec = _edge_value_spec()
        text = serialize_network(spec)
        assert '"p": "-0.0"' in text and '"mu": "3.0"' in text and '"mu_b": "0.15"' in text
        assert parse_network(text) == spec

    def test_lattice40_bytes_unchanged(self):
        text = serialize_network(parse_network(grid_document(40)))
        assert hashlib.sha256(text.encode()).hexdigest() == LATTICE40_SHA256


class TestFileFormat:
    def test_round_trip_identity(self, fixture_spec):
        text = serialize_network(fixture_spec)
        again = parse_network(text)
        assert again == fixture_spec
        assert serialize_network(again) == text

    def test_round_trip_random_networks(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            spec = random_open_network(rng)
            assert parse_network(serialize_network(spec)) == spec

    def test_rates_survive_as_decimal_strings(self, fixture_spec):
        doc = json.loads(serialize_network(fixture_spec))
        by_id = {n["id"]: n for n in doc["nodes"]}
        assert by_id[6]["mu_b"] == "0.142"
        lam = {e["node"]: e["lambda"] for e in doc["known_arrival_rates"]}
        assert lam[6] == "1.596"

    def test_parse_accepts_numbers_and_strings(self):
        text = json.dumps({
            "nodes": [
                {"id": 1, "kind": "source", "capacity": 2, "mu": "0.8783"},
                {"id": 2, "kind": "sink", "capacity": 4, "mu": 1},
            ],
            "routing": [{"from": 1, "to": 2, "p": "0.5"}],
            "external_arrivals": [{"node": 1, "lambda0": 0.25}],
        })
        spec = parse_network(text)
        assert spec.columns.service_rate.tolist() == [0.8783, 1.0]
        assert spec.routing == {(1, 2): 0.5}

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_network("{bad json")

    def test_integer_literal_past_the_digit_limit_is_a_parse_error(self):
        # the decoder's int-to-str digit limit used to escape as a bare ValueError
        with pytest.raises(ParseError, match="^integer literal has too many digits"):
            parse_network('{"nodes": [{"id": 1' + "0" * 5000 + "}]}")

    def test_missing_key_path(self):
        with pytest.raises(SchemaError, match=r"\$: missing required key"):
            parse_network('{"nodes": []}')

    def test_unknown_key_rejected(self):
        text = json.dumps({
            "nodes": [{"id": 1, "kind": "source", "capacity": 1, "mu": 1.0}],
            "routing": [],
            "external_arrivals": [{"node": 1, "lambda0": 1.0}],
            "extra": 1,
        })
        with pytest.raises(SchemaError, match=r"\$.extra"):
            parse_network(text)

    def test_unknown_node_key_rejected(self):
        text = json.dumps({
            "nodes": [{"id": 1, "kind": "source", "capacity": 1, "mu": 1.0,
                       "colour": "red"}],
            "routing": [],
            "external_arrivals": [{"node": 1, "lambda0": 1.0}],
        })
        with pytest.raises(SchemaError, match="colour"):
            parse_network(text)

    def test_non_numeric_rate_rejected(self):
        text = json.dumps({
            "nodes": [{"id": 1, "kind": "source", "capacity": 1, "mu": 1.0}],
            "routing": [],
            "external_arrivals": [{"node": 1, "lambda0": "nope"}],
        })
        with pytest.raises(SchemaError, match="lambda0"):
            parse_network(text)

    def test_nan_rejected(self):
        text = ('{"nodes": [{"id": 1, "kind": "source", "capacity": 1, '
                '"mu": NaN}], "routing": [], '
                '"external_arrivals": [{"node": 1, "lambda0": 1.0}]}')
        with pytest.raises((ParseError, SchemaError)):
            parse_network(text)

    def test_bool_is_not_an_int(self):
        text = json.dumps({
            "nodes": [{"id": True, "kind": "source", "capacity": 1, "mu": 1.0}],
            "routing": [],
            "external_arrivals": [{"node": 1, "lambda0": 1.0}],
        })
        with pytest.raises(SchemaError):
            parse_network(text)


class TestBfsLevels:
    @staticmethod
    def levels(n, edges, roots):
        src, dst = np.array(edges, dtype=np.intp).reshape(-1, 2).T
        return _bfs_levels(*_csr(n, src, dst), roots)

    def test_adjacency_keeps_edge_order(self):
        # node u's targets are targets[begins[u]:ends[u]]: [2, 1], [] and [1]
        targets, begins, ends = _csr(3, np.array([0, 2, 0]), np.array([2, 1, 1]))
        assert (targets, begins, ends) == ([2, 1, 1], [0, 2, 2], [2, 2, 3])

    def test_unreached_nodes_are_minus_one(self):
        # edges are directed: 2 -> 0 does not make 2 reachable from 0
        assert self.levels(4, [(0, 1), (2, 0)], [0]) == [0, 1, -1, -1]

    def test_depth_is_the_shortest_hop_count(self):
        assert self.levels(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)], [0]) == [0, 1, 2, 1, 2]

    def test_second_component_restarts_at_zero(self):
        assert self.levels(5, [(0, 1), (2, 3), (3, 4)], range(5)) == [0, 1, 0, 1, 2]

    def test_reached_root_keeps_its_earlier_depth(self):
        # root 2 is reached from root 0 first and starts no search of its own
        assert self.levels(4, [(0, 1), (1, 2), (2, 3)], [0, 2]) == [0, 1, 2, 3]

    def test_later_root_searches_only_unreached_nodes(self):
        # 3 -> 1 is not followed: 1 already has its depth from root 0
        assert self.levels(4, [(0, 1), (3, 1), (3, 2)], [0, 3]) == [0, 1, 1, 0]

    def test_self_loops_and_repeated_edges(self):
        assert self.levels(3, [(0, 0), (0, 1), (0, 1), (1, 1), (1, 2), (1, 2)], [0]) == [0, 1, 2]

    def test_no_roots_reach_nothing(self):
        assert self.levels(2, [(0, 1)], []) == [-1, -1]
