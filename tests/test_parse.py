"""Column checks of the document parser and of NetworkSpec.

``parse_network`` and ``NetworkSpec`` check whole columns and hand only a
failing section's items to the per-item checks.  These tests hold them to
``oracle.scalar_parse_network``, which checks one item at a time: on a
corpus of faulty documents they must raise the same family and message, and
on accepted documents build the same spec.
"""

import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from qnswap import (SchemaError, build_lattice_network, cli, model, munoz15_fixture,
                    parse_layout, parse_network, serialize_network)
from conftest import grid_document, grid_layout
from oracle import scalar_parse_network
from test_cli import LATTICE40_SHA256

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

BASES = {
    "munoz15": json.loads(serialize_network(munoz15_fixture())),
    "lattice6": json.loads((GOLDEN / "lattice6_network.json").read_text(encoding="utf-8")),
}

# Item positions a fault is applied at, first and second, per section.  Node
# positions 2 and 6 are intermediate nodes that receive jobs in both bases.
POSITIONS = {"nodes": (2, 6), "routing": (2, 5), "external_arrivals": (0, 1),
             "known_arrival_rates": (3, 8)}


def _set(key, value):
    def fault(doc, section, k):
        doc[section][k][key] = value
    return fault


def _drop(*keys):
    def fault(doc, section, k):
        for key in keys:
            del doc[section][k][key]
    return fault


def _replace(value):
    def fault(doc, section, k):
        doc[section][k] = value
    return fault


def _repeat_previous(*keys):
    """Give item k the key fields of item k - 1."""
    def fault(doc, section, k):
        for key in keys:
            doc[section][k][key] = doc[section][k - 1][key]
    return fault


def _sink_id(doc, section, k):
    doc[section][k]["node"] = next(n["id"] for n in doc["nodes"] if n["kind"] == "sink")


# name -> (section, fault(doc, section, position)).  One per rule of the
# parser and of NetworkSpec that an item can break, plus type variants.
ITEM_FAULTS = {
    "node_not_object": ("nodes", _replace([1])),
    "node_unknown_key": ("nodes", _set("colour", "red")),
    "node_missing_id": ("nodes", _drop("id")),
    "node_missing_id_and_mu": ("nodes", _drop("id", "mu")),
    "node_missing_capacity_and_kind": ("nodes", _drop("capacity", "kind")),
    "kind_not_string": ("nodes", _set("kind", 3)),
    "kind_unhashable": ("nodes", _set("kind", ["sink"])),
    "kind_unknown": ("nodes", _set("kind", "router")),
    "id_string": ("nodes", _set("id", "7")),
    "id_bool": ("nodes", _set("id", True)),
    "id_float": ("nodes", _set("id", 7.0)),
    "servers_two": ("nodes", _set("servers", 2)),
    "servers_bool": ("nodes", _set("servers", True)),
    "servers_unhashable": ("nodes", _set("servers", [1])),
    "capacity_float": ("nodes", _set("capacity", 1.0)),
    "capacity_string": ("nodes", _set("capacity", "1")),
    "mu_bool": ("nodes", _set("mu", False)),
    "mu_word": ("nodes", _set("mu", "fast")),
    "mu_list": ("nodes", _set("mu", [1.0])),
    "mu_null": ("nodes", _set("mu", None)),
    "mu_inf_string": ("nodes", _set("mu", "inf")),
    "mu_nan_string": ("nodes", _set("mu", "nan")),
    "mu_overflows_float": ("nodes", _set("mu", 10 ** 400)),  # not finite as a float
    "mu_b_word": ("nodes", _set("mu_b", "slow")),
    "mu_b_inf_string": ("nodes", _set("mu_b", "-inf")),
    "id_zero": ("nodes", _set("id", 0)),
    "id_negative": ("nodes", _set("id", -3)),
    "id_duplicate": ("nodes", _repeat_previous("id")),
    "id_past_int64": ("nodes", _set("id", 2**63)),
    "capacity_zero": ("nodes", _set("capacity", 0)),
    "capacity_past_int64": ("nodes", _set("capacity", 2**63)),
    "mu_negative": ("nodes", _set("mu", "-1.0")),
    "mu_b_negative": ("nodes", _set("mu_b", -0.5)),
    "intermediate_capacity_two": ("nodes", _set("capacity", 2)),
    "intermediate_without_unblock": ("nodes", _drop("mu_b")),
    "receiving_without_service": ("nodes", _set("mu", 0)),
    "sink_routes_onward": ("nodes", _set("kind", "sink")),
    "route_not_object": ("routing", _replace("1->2")),
    "route_unknown_key": ("routing", _set("weight", 1)),
    "route_missing_p": ("routing", _drop("p")),
    "route_missing_from_and_p": ("routing", _drop("from", "p")),
    "route_from_string": ("routing", _set("from", "1")),
    "route_to_bool": ("routing", _set("to", True)),
    "route_p_bool": ("routing", _set("p", True)),
    "route_p_word": ("routing", _set("p", "half")),
    "route_p_nan_string": ("routing", _set("p", "NaN")),
    "route_duplicate": ("routing", _repeat_previous("from", "to")),
    "route_unknown_from": ("routing", _set("from", 9999)),
    "route_unknown_to": ("routing", _set("to", 9999)),
    "route_p_above_one": ("routing", _set("p", 1.5)),
    "route_p_negative": ("routing", _set("p", "-0.1")),
    "route_row_above_one": ("routing", _set("p", 0.9)),
    "external_not_object": ("external_arrivals", _replace(None)),
    "external_unknown_key": ("external_arrivals", _set("rate", 1)),
    "external_missing_node": ("external_arrivals", _drop("node")),
    "external_node_string": ("external_arrivals", _set("node", "12")),
    "external_rate_word": ("external_arrivals", _set("lambda0", "many")),
    "external_duplicate": ("external_arrivals", _repeat_previous("node")),
    "external_unknown_node": ("external_arrivals", _set("node", 9999)),
    "external_negative": ("external_arrivals", _set("lambda0", -0.1)),
    "external_to_sink": ("external_arrivals", _sink_id),
    "known_not_object": ("known_arrival_rates", _replace(0.5)),
    "known_missing_lambda": ("known_arrival_rates", _drop("lambda")),
    "known_rate_bool": ("known_arrival_rates", _set("lambda", True)),
    "known_duplicate": ("known_arrival_rates", _repeat_previous("node")),
    "known_unknown_node": ("known_arrival_rates", _set("node", 9999)),
    "known_negative": ("known_arrival_rates", _set("lambda", "-1")),
}


def _top(mutate):
    def fault(doc):
        mutate(doc)
        return doc
    return fault


def _every(section, key, value):
    def fault(doc):
        for item in doc[section]:
            item[key] = value
        return doc
    return fault


def _closed_two_node(doc):
    """Two sources routing all their output to each other: no way out."""
    return {"nodes": [{"id": 1, "kind": "source", "capacity": 2, "mu": 1.0},
                      {"id": 2, "kind": "source", "capacity": 2, "mu": 1.0}],
            "routing": [{"from": 1, "to": 2, "p": 1.0}, {"from": 2, "to": 1, "p": 1.0}],
            "external_arrivals": [{"node": 1, "lambda0": 1.0}]}


def _huge_opposite_rates(doc):
    """Finite rates whose mu and mu_b columns sum to +inf and -inf."""
    return {"nodes": [{"id": i, "kind": kind, "capacity": 2, "mu": 1e308, "mu_b": -1e308}
                      for i, kind in ((1, "source"), (2, "sink"))],
            "routing": [{"from": 1, "to": 2, "p": 1.0}],
            "external_arrivals": [{"node": 1, "lambda0": 1.0}]}


def _omit(section, key, kind=None):
    def fault(doc):
        for item in doc[section]:
            if kind is None or item["kind"] == kind:
                del item[key]
        return doc
    return fault


# name -> fault(doc) returning the faulty document (or its text).
DOC_FAULTS = {
    "invalid_json": lambda doc: json.dumps(doc)[:-1],
    "nan_token": lambda doc: json.dumps(doc).replace('"0.15"', "NaN", 1).replace(
        '"0.05"', "NaN", 1),
    "top_not_object": lambda doc: [doc],
    "top_unknown_key": _top(lambda doc: doc.update(extra=1)),
    "top_missing_routing": _top(lambda doc: doc.pop("routing")),
    "top_missing_all": lambda doc: {"known_arrival_rates": []},
    "nodes_not_array": _top(lambda doc: doc.update(nodes={})),
    "nodes_empty": _top(lambda doc: doc.update(nodes=[])),
    "routing_not_array": _top(lambda doc: doc.update(routing="none")),
    "external_not_array": _top(lambda doc: doc.update(external_arrivals=1)),
    "known_not_array": _top(lambda doc: doc.update(known_arrival_rates={})),
    "known_misses_intermediates": _top(lambda doc: doc.update(
        known_arrival_rates=[{"node": doc["nodes"][0]["id"], "lambda": 0.5}])),
    "no_positive_external": _every("external_arrivals", "lambda0", "0.0"),
    "no_exit": _closed_two_node,
    # every value of a rate column a list of one number: a column that numpy
    # would read as two-dimensional
    "mu_list_everywhere": _every("nodes", "mu", [1.0]),
    "p_list_everywhere": _every("routing", "p", [0.5]),
    "lambda0_list_everywhere": _every("external_arrivals", "lambda0", [1.0]),
    "rates_cancel_across_columns": _huge_opposite_rates,
}


def _shuffled(doc):
    """Nodes and routing entries in a fixed random order."""
    rng = random.Random(21)
    rng.shuffle(doc["nodes"])
    rng.shuffle(doc["routing"])
    return doc


# Valid variations: the two parsers must build the same spec.
ACCEPTED = {
    "as_given": lambda doc: doc,
    "rates_as_numbers": _every("nodes", "mu", 1),
    "rates_as_strings": _every("routing", "p", "0.25"),
    "servers_omitted": _omit("nodes", "servers"),
    "nodes_reversed": _top(lambda doc: doc["nodes"].reverse()),
    "routing_reversed": _top(lambda doc: doc["routing"].reverse()),
    "targets_reversed": _top(lambda doc: doc["routing"].sort(key=lambda e: (e["from"], -e["to"]))),
    "source_without_unblock": _omit("nodes", "mu_b", kind="source"),
    "shuffled": _shuffled,
}
# The 40x40 grid also runs shuffled: an order test that passes unsorted keys
# would show there, on the most entries.
ACCEPTED_CASES = [(name, base) for name in sorted(ACCEPTED) for base in sorted(BASES)]
ACCEPTED_CASES.append(("shuffled", "lattice40"))


def _item_doc(base, faults):
    """``base`` with each (fault name, position index) applied, or None when
    the base lacks a section a fault needs."""
    doc = copy.deepcopy(BASES[base])
    for name, which in faults:
        section, fault = ITEM_FAULTS[name]
        if section not in doc:
            return None
        fault(doc, section, POSITIONS[section][which])
    return json.dumps(doc)


def _outcome(parse, text):
    try:
        result = parse(text)
    except Exception as e:  # the family and the message are what is compared
        return type(e).__name__, str(e)
    if isinstance(result, model.NetworkSpec):
        result = (result.nodes, result.routing, result.external_arrivals,
                  result.known_arrival_rates)
    nodes, entries, external, known = result
    return (nodes, list(entries.items()), list(external.items()),
            None if known is None else list(known.items()))


def _check_same(text):
    want = _outcome(scalar_parse_network, text)
    got = _outcome(parse_network, text)
    assert got == want
    return got


@pytest.mark.parametrize("base, name", [
    (base, name) for base in sorted(BASES) for name in sorted(ITEM_FAULTS)
    if ITEM_FAULTS[name][0] in BASES[base]])
def test_one_item_fault_matches_oracle(base, name):
    got = _check_same(_item_doc(base, [(name, 0)]))
    assert isinstance(got[0], str), "the fault must be rejected"


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("name", sorted(DOC_FAULTS))
def test_document_fault_matches_oracle(base, name):
    doc = DOC_FAULTS[name](copy.deepcopy(BASES[base]))
    got = _check_same(doc if isinstance(doc, str) else json.dumps(doc))
    assert isinstance(got[0], str), "the fault must be rejected"


def test_opposite_infinite_column_sums_name_the_first_bad_rate():
    text = json.dumps(_huge_opposite_rates(None))
    with pytest.raises(model.InputError,
                       match=r"^node 1 unblock rate must be nonnegative, got -1e\+308$"):
        parse_network(text)


# Two faults each from the parser's and the spec's rules, in every section.
PAIRED = ("node_missing_id_and_mu", "kind_unhashable", "mu_word", "id_duplicate",
          "intermediate_capacity_two", "receiving_without_service",
          "route_p_bool", "route_duplicate", "route_unknown_to", "route_row_above_one",
          "external_rate_word", "external_to_sink", "known_duplicate", "known_negative")


@pytest.mark.parametrize("base", sorted(BASES))
def test_two_faults_in_either_order_match_oracle(base):
    checked = 0
    for a, first in enumerate(PAIRED):
        for second in PAIRED[a + 1:]:
            for order in ((0, 1), (1, 0)):
                text = _item_doc(base, [(first, order[0]), (second, order[1])])
                if text is not None:
                    assert isinstance(_check_same(text)[0], str)
                    checked += 1
    assert checked >= 100


@pytest.mark.parametrize("name, base", ACCEPTED_CASES)
def test_accepted_document_gives_oracle_spec(base, name, tmp_path, capsys):
    doc = copy.deepcopy(BASES[base]) if base in BASES else json.loads(grid_document(40))
    text = json.dumps(ACCEPTED[name](doc))
    got = _check_same(text)
    assert not isinstance(got[0], str), got
    if base == "lattice40":  # the order of a document changes no output byte
        path = tmp_path / "net.json"
        path.write_text(text, encoding="utf-8")
        assert cli.run(["analyze", "--network", str(path), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LATTICE40_SHA256[()]


def test_missing_keys_are_named_in_schema_order():
    text = _item_doc("munoz15", [("node_missing_id_and_mu", 0)])
    with pytest.raises(SchemaError, match=r"\$\.nodes\[2\]: missing required key 'id'"):
        parse_network(text)


def test_unknown_key_in_place_of_a_required_one_is_named():
    # a routing object with its three keys, one of them unknown: the column
    # pass misses "p", and the object-by-object pass names the stray key
    doc = copy.deepcopy(BASES["munoz15"])
    doc["routing"][0]["x"] = doc["routing"][0].pop("p")
    assert _check_same(json.dumps(doc)) == ("SchemaError", "$.routing[0].x: unknown key")


def test_missing_key_report_does_not_depend_on_hash_seed():
    # Which of several missing keys was named used to follow set iteration,
    # which string hashing randomizes per process.
    text = _item_doc("munoz15", [("node_missing_id_and_mu", 0)])
    errors = set()
    for seed in ("0", "1", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-m", "qnswap.cli", "validate", "--network", "-"],
            input=text, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2
        errors.add(done.stderr)
    assert errors == {'{"error": "SchemaError", "message": '
                      '"$.nodes[2]: missing required key \'id\'"}\n'}


def test_parse_makes_no_per_item_checks(monkeypatch):
    # A valid document is checked as columns: the per-item checkers run a
    # fixed number of times, however many items the document has.
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_as_rate", "_as_int", "_check_keys"):
        monkeypatch.setattr(model, name, counting(name, getattr(model, name)))
    counts = []
    for text in ((GOLDEN / "lattice6_network.json").read_text(encoding="utf-8"),
                 grid_document(40)):
        calls.clear()
        assert len(parse_network(text).nodes) in (36, 1600)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) <= 1


def test_parser_and_builder_specs_take_the_copy_path(conversions):
    # The parser and the builder both give the NetworkSpec constructor
    # mappings with int keys and float values, which _canonical copies;
    # converting them entry by entry would cost about three times as much on
    # the 40x40 chip.
    grid = json.loads(grid_document(40))
    for doc in (BASES["munoz15"], BASES["lattice6"], grid, _shuffled(copy.deepcopy(grid))):
        parse_network(json.dumps(doc))
    build_lattice_network(parse_layout(grid_layout(6)))
    munoz15_fixture()  # its routing is written out of (from, to) order
    assert conversions == []


def test_cli_calls_parse_and_analyze_through_module_names():
    # The benchmark times the model.parse and pfqn.analyze layers by
    # wrapping these two names in qnswap.cli.
    assert cli.parse_network is model.parse_network
    assert callable(cli.analyze_network)


def _fault_text(base, name):
    """The text of the ITEM_FAULTS (first position) or DOC_FAULTS document."""
    if name in ITEM_FAULTS:
        return _item_doc(base, [(name, 0)])
    doc = DOC_FAULTS[name](copy.deepcopy(BASES[base]))
    return doc if isinstance(doc, str) else json.dumps(doc)


@pytest.mark.parametrize("base, name", [
    (base, name) for base in sorted(BASES) for name in sorted(ITEM_FAULTS) + sorted(DOC_FAULTS)
    if name in DOC_FAULTS or ITEM_FAULTS[name][0] in BASES[base]])
def test_every_fault_document_exits_2_through_the_cli(base, name, tmp_path, capsys, monkeypatch):
    # each command reports the parser's error, family and message, with
    # nothing on stdout; no fault may reach a Python error
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    text = _fault_text(base, name)
    family, message = _outcome(parse_network, text)
    assert family in {"InputError", "ParseError", "SchemaError"}
    path = tmp_path / "net.json"
    path.write_text(text, encoding="utf-8")
    for command in (["validate"], ["analyze"], ["simulate", "--horizon", "10"]):
        code = cli.run([*command, "--network", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), command
        assert json.loads(captured.err) == {"error": family, "message": message}, command
