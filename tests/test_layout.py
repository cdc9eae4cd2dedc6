"""Site graphs, the lattice-to-network builder, and hop counts."""

import itertools
import json

import pytest

from qnswap import (
    InputError,
    LayoutGraph,
    NetworkSpec,
    NodeKind,
    ParseError,
    QueueSite,
    SchemaError,
    build_lattice_network,
    munoz15_fixture,
    parse_layout,
    serialize_network,
    shortest_hops,
    solve_traffic,
    total_external_rate,
)
from conftest import grid_layout, heavy_hex_layout, ids_of_kind
from oracle import lattice_routing, row_sums
import _expected


GRID = json.dumps({
    "sites": ["s", "a", "b", "c", "d", "t"],
    "edges": [["s", "a"], ["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"], ["d", "t"]],
    "queues": [
        {"site": "s", "role": "source", "capacity": 4},
        {"site": "t", "role": "sink", "capacity": 6},
    ],
})


class TestParseLayout:
    def test_parses_grid(self):
        lay = parse_layout(GRID)
        assert lay.sites == ("s", "a", "b", "c", "d", "t")
        assert [e for e in lay.edges if "a" in e] == [("a", "b"), ("a", "c"), ("a", "s")]
        assert lay.queue_sites["s"].role is NodeKind.SOURCE

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_layout("{nope")

    def test_missing_key(self):
        with pytest.raises(SchemaError, match="missing required key"):
            parse_layout('{"sites": [], "edges": []}')

    def test_unknown_key(self):
        with pytest.raises(SchemaError, match="unknown key"):
            parse_layout('{"sites": [], "edges": [], "queues": [], "x": 1}')

    def test_bad_role(self):
        doc = json.loads(GRID)
        doc["queues"][0]["role"] = "portal"
        with pytest.raises(SchemaError, match="source or sink"):
            parse_layout(json.dumps(doc))

    def test_bad_capacity(self):
        doc = json.loads(GRID)
        doc["queues"][0]["capacity"] = 0
        with pytest.raises(SchemaError, match="positive integer"):
            parse_layout(json.dumps(doc))

    def test_duplicate_queue_site(self):
        doc = json.loads(GRID)
        doc["queues"].append({"site": "s", "role": "sink", "capacity": 2})
        with pytest.raises(SchemaError, match="duplicate"):
            parse_layout(json.dumps(doc))

    @pytest.mark.parametrize("section, value, message", [
        ("edges", 5, "$.edges: must be an array"),
        ("queues", 5, "$.queues: must be an array"),
        ("queues", {"a": 1}, "$.queues: must be an array"),
        ("queues", [["s", "source", 4]], "$.queues[0]: must be an object"),
        ("queues", [{"site": "s", "role": "source", "capacity": 4, "x": 0}],
         "$.queues[0].x: unknown key"),
        ("queues", [{"capacity": 4}], "$.queues[0]: missing required key 'site'"),
        ("queues", [{"site": "s", "capacity": 4}], "$.queues[0]: missing required key 'role'"),
        ("queues", [{"site": 5, "role": "source", "capacity": 4}],
         "$.queues[0].site: must be a site name"),
        ("queues", [{"site": "nowhere", "role": "source", "capacity": 4}],
         "$.queues[0].site: unknown site 'nowhere'"),
        ("sites", "s", "$.sites: must be an array of site names"),
        ("sites", ["s", "a", 3], "$.sites: must be an array of site names"),
    ])
    def test_shape_errors_name_the_path(self, section, value, message):
        doc = json.loads(GRID)
        doc[section] = value
        with pytest.raises(SchemaError) as caught:
            parse_layout(json.dumps(doc))
        assert str(caught.value) == message

    @pytest.mark.parametrize("text, message", [
        ("[]", "$: top level must be an object"),
        ('{"sites": [], "edges": [], "queues": []}', "$.sites: layout has no sites"),
    ], ids=["top_not_object", "no_sites"])
    def test_document_errors(self, text, message):
        with pytest.raises(SchemaError) as caught:
            parse_layout(text)
        assert str(caught.value) == message

    # The edge list is checked as columns; a failing list still names its
    # first bad edge, with the message of an edge-by-edge check.  Self-edges
    # are checked before unknown sites, and unknown sites in sorted edge order.
    @pytest.mark.parametrize("edges, message", [
        ([["s", "a"], "a-b", ["a", "b"], 5], "$.edges[1]: must be a pair of site names"),
        ([["s", "a"], {"0": "a"}], "$.edges[1]: must be a pair of site names"),
        ([["s", "a"], "ab"], "$.edges[1]: must be a pair of site names"),
        ([["s", "a"], ["a", "b"], ["a", "b", "c"], ["b"]],
         "$.edges[2]: must be a pair of site names"),
        ([["s", "a"], []], "$.edges[1]: must be a pair of site names"),
        ([["s", "a"], ["a", "b"], ["b", 3], [1, "c"]], "$.edges[2]: must be a pair of site names"),
        ([["s", "a"], [None, "c"]], "$.edges[1]: must be a pair of site names"),
        ([["s", "a"], ["a", ["b"]]], "$.edges[1]: must be a pair of site names"),
        ([["s", "a"], ["b", "b"], ["a", "x"], ["t", "t"]], "edges: self-edge on site 'b'"),
        ([["s", "a"], ["a", "x"], ["t", "t"]], "edges: self-edge on site 't'"),
        ([["s", "a"], ["s", "y"], ["a", "x"]], "edges: unknown site 'x'"),
        ([["s", "a"], ["z", "w"]], "edges: unknown site 'w'"),
    ], ids=["not_a_list", "object", "string", "too_long", "empty", "non_string_end",
            "null_end", "nested_end", "self_edge", "self_edge_before_unknown",
            "unknown_in_sorted_order", "unknown_reversed_pair"])
    def test_first_bad_edge_is_named(self, edges, message):
        doc = json.loads(GRID)
        doc["edges"] = edges
        with pytest.raises(SchemaError) as caught:
            parse_layout(json.dumps(doc))
        assert str(caught.value) == message

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_layout("[" * 100_000)

    def test_integer_literal_past_the_digit_limit_is_a_parse_error(self):
        with pytest.raises(ParseError, match="^integer literal has too many digits"):
            parse_layout('{"sites": [1' + "0" * 5000 + "]}")

    def test_disconnected_layout(self):
        doc = json.loads(GRID)
        doc["sites"].append("island")
        with pytest.raises(InputError,
                           match=r"layout is not connected; unreachable sites: \['island'\]"):
            parse_layout(json.dumps(doc))

    def test_unreachable_sites_listed_in_site_order(self):
        # the search starts at the first site, so an isolated first site
        # leaves every other one unreached
        with pytest.raises(InputError) as caught:
            LayoutGraph(("x", "c", "a", "b"), (("a", "b"), ("b", "c")), {})
        assert str(caught.value) == ("layout is not connected; unreachable sites:"
                                     " ['c', 'a', 'b']")


class TestLayoutGraph:
    def test_self_edge_rejected(self):
        with pytest.raises(SchemaError, match="^edges: self-edge on site 'a'$"):
            LayoutGraph(("a",), (("a", "a"),), {})
        with pytest.raises(SchemaError, match="^edges: self-edge on site 'b'$"):
            LayoutGraph(("a", "b", "c"), (("a", "b"), ("b", "b"), ("c", "x"), ("c", "c")), {})

    def test_unknown_edge_site_rejected(self):
        with pytest.raises(SchemaError, match="^edges: unknown site 'b'$"):
            LayoutGraph(("a",), (("a", "b"),), {})
        with pytest.raises(SchemaError, match="^edges: unknown site 'w'$"):
            LayoutGraph(("a", "b", "c"), (("c", "x"), ("b", "w")), {})

    def test_site_faults_name_the_field(self):
        # parse_layout names the document path; a library caller reads the field
        with pytest.raises(SchemaError, match="^queues: unknown site 'b'$"):
            LayoutGraph(("a",), (), {"b": QueueSite(NodeKind.SOURCE, 1)})
        with pytest.raises(SchemaError, match="^sites: layout has no sites$"):
            LayoutGraph((), (), {})

    @pytest.mark.parametrize("sites, edges, queues, message", [
        (("a", "b", "c"), (("a", "b", "c"),), {},
         r"edges: \('a', 'b', 'c'\) is not a pair of site names"),
        (("a", "b"), (("a", "b"), "ab"), {}, r"edges: 'ab' is not a pair of site names"),
        (("a", "b"), (("a", 1),), {}, r"edges: \('a', 1\) is not a pair of site names"),
        (("a", 1), (), {}, r"sites: 1 is no site name"),
        (("a",), (), {"a": "source"},
         r"queues: \{'a': 'source'\} does not map sites to QueueSites"),
        (("a",), (), [("a", QueueSite(NodeKind.SOURCE, 1))],
         r"queues: \[\('a', QueueSite\(.*\.\.\. does not map sites to QueueSites"),
        (("a",), (), {"a": QueueSite(NodeKind.SOURCE, 1), 1: QueueSite(NodeKind.SINK, 1)},
         r"queues: unknown site 1"),
        (None, (), {}, r"sites: None is not iterable"),
        (("a",), None, {}, r"edges: None is not iterable"),
        (("a",), 5, {}, r"edges: 5 is not iterable"),
        ("ab", (("a", "b"),), {}, r"sites: 'ab' is text, not a list"),
        (b"ab", (), {}, r"sites: b'ab' is text, not a list"),
        (("a", "b"), "ab", {}, r"edges: 'ab' is text, not a list"),
        (("a", "b"), b"ab", {}, r"edges: b'ab' is text, not a list"),
    ], ids=["triple", "string_edge", "int_end", "int_site", "plain_role", "queue_list",
            "int_queue_site", "none_sites", "none_edges", "int_edges", "string_sites",
            "bytes_sites", "string_edges", "bytes_edges"])
    def test_wrong_types_name_the_field(self, sites, edges, queues, message):
        # these leaked a bare ValueError or TypeError from the edge sort or
        # from tuple(), or were accepted and broke build_lattice_network
        # with an AttributeError; a string of sites was split into characters
        with pytest.raises(SchemaError, match=f"^{message}$"):
            LayoutGraph(sites, edges, queues)

    @pytest.mark.parametrize("text", [grid_layout(6), heavy_hex_layout(4, 9)],
                             ids=["grid6", "heavyhex"])
    def test_neighbors_are_sorted_site_names(self, text):
        # the edges are the document's, each pair in name order, sorted
        lay = parse_layout(text)
        pairs = {tuple(sorted(e)) for e in json.loads(text)["edges"]}
        assert lay.edges == tuple(sorted(pairs))
        # and each interior site's routing row reaches exactly its neighbours; ids
        # number the interior sites, then the sources, then the sinks
        roles = [None, NodeKind.SOURCE, NodeKind.SINK]
        name = dict(enumerate(sorted(lay.sites, key=lambda s: roles.index(
            getattr(lay.queue_sites.get(s), "role", None))), start=1))
        rows = {}
        for i, j in build_lattice_network(lay).routing:
            rows.setdefault(name[i], []).append(name[j])
        for s in lay.sites:
            if s not in lay.queue_sites:
                adjacent = sorted(b if a == s else a for a, b in lay.edges if s in (a, b))
                assert sorted(rows[s]) == adjacent
        assert LayoutGraph(("a",), (), {}).edges == ()

    def test_duplicate_site_rejected(self):
        with pytest.raises(SchemaError):
            LayoutGraph(("a", "a"), (), {})

    @pytest.mark.parametrize("role", ["source", "sink"])
    def test_plain_string_role_is_no_role(self, role):
        # "source" == NodeKind.SOURCE for a str enum, but the builder picks
        # sources and sinks by identity: such a site would be neither
        with pytest.raises(SchemaError, match=(
                f"^queues.role: must be source or sink, got '{role}'$")):
            LayoutGraph(("s", "a", "t"), (("s", "a"), ("a", "t")),
                        {"s": QueueSite(role, 4), "t": QueueSite(NodeKind.SINK, 4)})

    @pytest.mark.parametrize("capacity", [True, 0, None], ids=["bool", "zero", "none"])
    def test_queue_capacity_must_be_a_positive_integer(self, capacity):
        # every queue site fixes its own buffer size; True is no capacity 1
        with pytest.raises(SchemaError, match="^queues.capacity: must be a positive integer$"):
            QueueSite(NodeKind.SOURCE, capacity)

    def test_edges_are_undirected_and_deduped(self):
        lay = LayoutGraph(("a", "b"), (("b", "a"), ("a", "b")), {})
        assert lay.edges == (("a", "b"),)


class TestLatticeBuilder:
    def test_generated_network_shape(self):
        net = build_lattice_network(parse_layout(GRID), arrival_rate={"s": 0.3})
        kinds = [(n.id, n.kind) for n in net.nodes]
        assert kinds == [
            (1, NodeKind.INTERMEDIATE), (2, NodeKind.INTERMEDIATE),
            (3, NodeKind.INTERMEDIATE), (4, NodeKind.INTERMEDIATE),
            (5, NodeKind.SOURCE), (6, NodeKind.SINK),
        ]
        assert net.columns.capacity.tolist() == [1, 1, 1, 1, 4, 6]
        assert net.external_arrivals == {5: 0.3}

    @pytest.mark.parametrize("text", [grid_layout(6), heavy_hex_layout(4, 9)],
                             ids=["grid6", "heavyhex"])
    def test_routing_takes_the_canonical_fast_path(self, text, conversions):
        # the builder emits its routing in (from, to) order with int keys and
        # float values, so the spec copies its mappings instead of converting them
        net = build_lattice_network(parse_layout(text))
        assert conversions == []
        assert list(net.routing) == sorted(net.routing)

    @pytest.mark.parametrize("layout", [
        parse_layout(grid_layout(6)), parse_layout(grid_layout(40)),
        parse_layout(heavy_hex_layout(4, 9)), parse_layout(heavy_hex_layout(5, 21)),
        LayoutGraph(("t", "s", "a", "b", "c"),
                    (("s", "a"), ("a", "b"), ("a", "c"), ("b", "c"), ("c", "t")),
                    {"t": QueueSite(NodeKind.SINK, 4), "s": QueueSite(NodeKind.SOURCE, 4)}),
        LayoutGraph(("s", "a", "b", "t", "u"), (("s", "a"), ("a", "b"), ("b", "t"), ("u", "t")),
                    {"s": QueueSite(NodeKind.SOURCE, 4), "u": QueueSite(NodeKind.SOURCE, 2),
                     "t": QueueSite(NodeKind.SINK, 4)}),
        LayoutGraph(("r", "s", "a", "b", "t"),
                    (("r", "s"), ("r", "a"), ("s", "b"), ("a", "b"), ("b", "t")),
                    {"r": QueueSite(NodeKind.SOURCE, 4), "s": QueueSite(NodeKind.SOURCE, 4),
                     "t": QueueSite(NodeKind.SINK, 4)}),
    ], ids=["grid6", "grid40", "heavyhex4x9", "heavyhex5x21", "queues_first",
            "source_by_sinks_only", "adjacent_sources"])
    def test_routing_matches_the_per_site_loop(self, layout):
        # the one array pass gives the entries, in order, that the per-site loop gives
        net = build_lattice_network(layout)
        reference = lattice_routing(layout)
        assert list(net.routing.items()) == list(reference.items())
        looped = NetworkSpec(net.nodes, reference, net.external_arrivals)
        assert serialize_network(net) == serialize_network(looped)

    def test_int_arrival_rate_converts_only_the_rate_mapping(self, conversions):
        # an int rate makes the external arrivals a mapping to convert; the
        # 6,234 routing entries are still copied, not converted one by one
        net = build_lattice_network(parse_layout(grid_layout(40)), arrival_rate=1)
        assert len(net.routing) == 6234
        assert [c for c in conversions if not c.startswith("external arrival")] == ["rates"]
        assert set(net.external_arrivals.values()) == {1.0}

    def test_interior_rows_are_uniform_over_all_neighbors(self):
        net = build_lattice_network(parse_layout(GRID))
        # site "a" (id 1) touches b, c and the source; back-hops count too
        rows = {(i, j): p for (i, j), p in net.routing.items() if i in (1, 2)}
        assert rows == {(1, 2): 1 / 3, (1, 3): 1 / 3, (1, 5): 1 / 3,
                        (2, 1): 0.5, (2, 4): 0.5}

    def test_row_sums_are_exactly_one_inside(self):
        net = build_lattice_network(parse_layout(GRID))
        sums = row_sums(net)
        assert [sums[i] for i in (1, 2, 3, 4, 5)] == [1.0] * 5
        assert net.columns.exit_probability.tolist() == [0.0] * 5 + [1.0]

    def test_rates_and_capacity_flags(self):
        net = build_lattice_network(
            parse_layout(GRID), service_rate=2.0, unblock_rate=0.25,
            arrival_rate=0.05)
        assert net.columns.service_rate.tolist() == [2.0] * 6
        assert net.columns.unblock_rate.tolist() == [0.25] * 4 + [0.0] * 2
        assert net.external_arrivals == {5: 0.05}
        # generated networks are analyzable end to end
        assert solve_traffic(net).shape == (6,)
        assert total_external_rate(net) == 0.05

    def test_missing_source_rate_in_mapping(self):
        with pytest.raises(SchemaError, match="source site"):
            build_lattice_network(parse_layout(GRID), arrival_rate={"x": 0.3})

    def test_rate_for_a_site_that_is_no_source(self):
        # the stray rates used to be dropped without a word
        line = LayoutGraph(("s", "a", "b", "t"), (("s", "a"), ("a", "b"), ("b", "t")),
                           {"s": QueueSite(NodeKind.SOURCE, 4), "t": QueueSite(NodeKind.SINK, 4)})
        with pytest.raises(SchemaError, match=r"arrival_rate.*\['typo', 'a'\] that are no source"):
            build_lattice_network(line, arrival_rate={"s": 0.3, "typo": 9.0, "a": 5.0})
        assert build_lattice_network(line, arrival_rate={"s": 0.3}).external_arrivals == {3: 0.3}

    def test_no_source(self):
        doc = json.loads(GRID)
        doc["queues"] = [q for q in doc["queues"] if q["role"] != "source"]
        with pytest.raises(InputError, match="layout declares no source site"):
            build_lattice_network(parse_layout(json.dumps(doc)))

    def test_no_sink(self):
        doc = json.loads(GRID)
        doc["queues"] = [q for q in doc["queues"] if q["role"] != "sink"]
        with pytest.raises(InputError, match="layout declares no sink site"):
            build_lattice_network(parse_layout(json.dumps(doc)))

class TestFixture:
    def test_constant_across_calls(self, fixture_spec):
        assert munoz15_fixture() == fixture_spec

    def test_population(self, fixture_spec):
        kinds = [n.kind for n in fixture_spec.nodes]
        assert kinds.count(NodeKind.INTERMEDIATE) == 11
        assert kinds.count(NodeKind.SOURCE) == 2
        assert kinds.count(NodeKind.SINK) == 2
        assert ids_of_kind(fixture_spec, NodeKind.SOURCE) == [12, 13]
        assert ids_of_kind(fixture_spec, NodeKind.SINK) == [14, 15]

    def test_boundary_buffers(self, fixture_spec):
        cols = fixture_spec.columns
        assert cols.id[11:].tolist() == [12, 13, 14, 15]
        assert cols.capacity[11:].tolist() == [8] * 4
        assert cols.unblock_rate[11:].tolist() == [0.0] * 4

    def test_pinned_rates_match_expected_table(self, fixture_spec):
        assert fixture_spec.known_arrival_rates == _expected.ARRIVAL_RATE

    def test_unblock_rates_match_expected_table(self, fixture_spec):
        cols = fixture_spec.columns
        unblock = dict(zip(cols.id.tolist(), cols.unblock_rate.tolist()))
        for i, mu_b in _expected.UNBLOCK_RATE.items():
            assert unblock[i] == mu_b


class TestShortestHops:
    def test_grid_distance(self):
        net = build_lattice_network(parse_layout(GRID))
        assert shortest_hops(net, 5, 6) == 4
        assert shortest_hops(net, 1, 1) == 0
        assert shortest_hops(net, 1, 6) == 3

    def test_fixture_route_lengths(self, fixture_spec):
        lengths = {
            shortest_hops(fixture_spec, src, dst)
            for src, dst in itertools.product(
                ids_of_kind(fixture_spec, NodeKind.SOURCE),
                ids_of_kind(fixture_spec, NodeKind.SINK))
        }
        assert lengths == _expected.HOP_LENGTHS

    @pytest.mark.parametrize("src, dst, bad", [(True, 14, "True"), (1, 14.5, "14.5")],
                             ids=["bool", "float"])
    def test_bool_or_float_is_no_node_id(self, fixture_spec, src, dst, bad):
        # True == 1, so a bool used to answer for node 1; NetworkSpec rejects
        # a bool id, and so does a lookup
        with pytest.raises(InputError, match=f"^lookup references unknown node {bad}$"):
            shortest_hops(fixture_spec, src, dst)

    def test_unreachable(self, fixture_spec):
        # sinks absorb, so nothing is reachable from them
        with pytest.raises(InputError, match="no routing path from node 14 to node 12"):
            shortest_hops(fixture_spec, 14, 12)
