"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

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


def test_one_traffic_method():
    import inspect

    from qnswap import solve_traffic

    assert list(inspect.signature(solve_traffic).parameters) == ["spec"]
