"""Checks on the package source itself."""

import ast
import dataclasses
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import _expected

SRC = Path(__file__).resolve().parent.parent / "src" / "qnswap"
MODULES = sorted(SRC.glob("*.py"))


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so a check written as one vanishes
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statement on line(s) {lines}"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_error_hierarchy_is_two_families():
    # callers tell apart InputError (exit 2) and NumericsError (exit 3); the
    # message carries the rest, so the hierarchy stays this small
    from qnswap import InputError, NumericsError, ParseError, QnswapError, SchemaError

    assert set(_subclasses(QnswapError)) == {InputError, NumericsError,
                                             ParseError, SchemaError}


def test_public_names_resolve_once():
    import qnswap

    assert len(qnswap.__all__) == len(set(qnswap.__all__))
    missing = [name for name in qnswap.__all__ if not hasattr(qnswap, name)]
    assert missing == []


def test_per_node_pipeline_is_gone():
    # analyze_network computes node columns in one pass; these per-node
    # entry points were its loop body
    import qnswap

    deleted = {"worst_case_blocking_probability", "node_metrics", "NodeMetrics"}
    assert deleted & set(qnswap.__all__) == set()


# Reference implementations that live in tests/oracle.py; the package keeps
# one traffic method, one simulator entry point and one M/M/1/K formula.
ORACLE_ONLY = {
    "StateSpace", "Generator", "MarginalDistribution", "build_generator",
    "_reach_sets", "closed_class_count", "is_irreducible", "steady_state",
    "blocking_node_chain", "BLOCKING_STATES", "EMPTY", "SERVING", "BLOCKED",
    "mm1k_distribution", "simulate_ctmc", "_ctmc_rep", "joint_probability",
    "_Draws", "analyze_document",
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_oracle_code_stays_out_of_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    assert sorted(names & ORACLE_ONLY) == []


# The second representation of the analysis output, now deleted: the rate
# mapping the traffic solve returned and the per-row dicts of the analysis.
# Every writer reads the columns instead.
def test_analysis_hands_out_columns():
    import qnswap
    from qnswap import NetworkAnalysis, munoz15_fixture, solve_traffic

    assert "ArrivalRates" not in qnswap.__all__
    assert not hasattr(qnswap.traffic, "ArrivalRates")
    kept = [name for name in ("rows", "to_jsonable", "arrival_rates")
            if hasattr(NetworkAnalysis, name)
            or name in {f.name for f in dataclasses.fields(NetworkAnalysis)}]
    assert kept == []
    rates = solve_traffic(munoz15_fixture())
    assert (type(rates), rates.dtype, rates.shape) == (np.ndarray, np.float64, (15,))
    assert not rates.flags.writeable
    # munoz15 pins every intermediate node, ids 1..11 at positions 0..10
    assert rates[:11].tolist() == [_expected.ARRIVAL_RATE[i] for i in range(1, 12)]


def test_one_traffic_method():
    import inspect

    from qnswap import solve_traffic

    assert list(inspect.signature(solve_traffic).parameters) == ["spec"]


# The second lookup API over a spec's network, now deleted: NetworkSpec's
# per-node methods and the RoutingMatrix helpers.  Every module reads
# NetworkSpec.columns and routing_triplets instead.
DELETED_LOOKUPS = ("node", "ids", "sources", "sinks", "intermediates",
                   "exit_probability", "successors", "row_sum")


def _lookup_calls(path):
    """Lines of calls to a deleted lookup, or to ``routing.row(``, in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr in DELETED_LOOKUPS or (
                    func.attr == "row" and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "routing"):
                found.append((func.attr, node.lineno))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_solvers_read_the_spec_columns(path):
    assert _lookup_calls(path) == []


def test_spec_has_one_lookup_api():
    import qnswap

    assert "RoutingMatrix" not in qnswap.__all__
    assert not hasattr(qnswap.model, "RoutingMatrix")
    spec = qnswap.munoz15_fixture()
    # the canonical mappings are read-only views, like the tables
    assert type(spec.routing) is MappingProxyType
    kept = [name for name in DELETED_LOOKUPS + ("_index",) if hasattr(spec, name)]
    assert kept == []


def test_every_simulator_run_checks_conservation():
    # the flat event loop keeps its counters in locals; the check that they
    # balance must run unconditionally at the end of every replication
    tree = ast.parse((SRC / "sim.py").read_text(encoding="utf-8"))
    run = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_replicate")
    calls = [stmt.value.func.id for stmt in run.body
             if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
             and isinstance(stmt.value.func, ast.Name)]
    assert "_check_conservation" in calls


def test_replication_is_a_function_returning_its_totals():
    # a replication used to be an object whose run() left its totals as
    # attributes that the caller read back by name
    from qnswap import sim

    assert not hasattr(sim, "_NetworkRun")
    source = (SRC / "sim.py").read_text(encoding="utf-8")
    assert "_NetworkRun" not in source and "getattr" not in source


def test_traffic_builds_no_external_table():
    from qnswap import traffic

    assert not hasattr(traffic, "_external")


def test_graph_walks_share_one_search():
    # traffic levels, the drain check, hop counts and layout connectivity
    # each had a hand-written search; all four now call model._bfs_levels
    from qnswap import traffic

    assert not hasattr(traffic, "_levels")
    callers = {"traffic.py": {"_solve_levels", "_undrained"},
               "layout.py": {"shortest_hops", "_check_connected"}}
    for module, functions in callers.items():
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in functions:
                called = {n.func.id for n in ast.walk(node)
                          if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
                assert "_bfs_levels" in called, f"{module}: {node.name}"
                functions = functions - {node.name}
        assert functions == set(), f"{module}: {functions} not found"
    layout_source = (SRC / "layout.py").read_text(encoding="utf-8")
    assert "deque" not in layout_source


def test_network_writer_uses_no_json_encoder():
    # json.dumps with indent runs the pure-Python encoder; the writer fills
    # fixed templates instead
    from qnswap import model

    tree = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
    writer = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "serialize_network")
    called = {n.func.attr if isinstance(n.func, ast.Attribute) else getattr(n.func, "id", None)
              for n in ast.walk(writer) if isinstance(n, ast.Call)}
    assert called & {"dumps", "dump", "JSONEncoder"} == set()
    assert not hasattr(model, "_dec")


def _catches_overflow(handler: ast.ExceptHandler) -> bool:
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(n, ast.Name) and n.id == "OverflowError" for n in names)


def test_one_value_rule():
    # every number goes through model._finite (or its column form); the
    # per-site copies of the rule are gone
    from qnswap import ctmc, model

    assert not hasattr(model, "_floats")
    assert not hasattr(ctmc, "_positive")
    for module in ("ctmc.py", "pfqn.py", "sim.py"):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        imported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                    and node.module == "model" for alias in node.names}
        assert "_finite" in imported, module
    # only the rule turns a float conversion's OverflowError into a message;
    # _node_keys, the key rule, rejects such a key with the other bad keys
    catching = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                catching.update(f"{path.name}:{function.name}" for node in ast.walk(function)
                                if isinstance(node, ast.ExceptHandler) and node.type is not None
                                and _catches_overflow(node))
    assert catching - {"model.py:_node_keys"} == {"model.py:_finite"}
