"""One value rule for every number the package takes.

Every entry point that takes a number runs it through ``model._finite`` (or
its column form), so one corpus of bad values gets an ``InputError`` at each
of them.  The message names the field and stays short, even for an int too
long for ``str()`` to print.
"""

import math

import numpy as np
import pytest

from qnswap import (
    AnalysisAssumptions,
    InputError,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    SimConfig,
    blocking_node_closed_form,
    build_lattice_network,
    parse_layout,
)
from qnswap.model import _finite, _finite_column, _shown
from conftest import grid_layout

GRID = parse_layout(grid_layout(4))

BAD_VALUES = {
    "bool": True,
    "word": "abc",
    "none": None,
    "complex": 1 + 0j,
    "nan": math.nan,
    "inf": math.inf,
    "minus_inf": -math.inf,
    "int_too_large": 10**400,
    "int_too_long_to_print": -10**5000,
}

MESSAGE_MAX = 200


def _spec(mu=1.0, mu_b=0.2, external=0.5, known=None, p=1.0):
    return NetworkSpec(
        nodes=(NodeSpec(1, NodeKind.SOURCE, 2, 1.0),
               NodeSpec(2, NodeKind.INTERMEDIATE, 1, mu, mu_b),
               NodeSpec(3, NodeKind.SINK, 2, 1.0)),
        routing={(1, 2): p, (2, 3): 1.0},
        external_arrivals={1: external},
        known_arrival_rates=known,
    )


def _closed_form(position, element):
    def call(value):
        args = [0.7, 1.0, 0.2, 0.5]
        args[position] = [args[position], value] if element else value
        return blocking_node_closed_form(*args)
    return call


# entry point -> (call with the value, the field name its message must hold)
ENTRY_POINTS = {
    "node_mu": (lambda v: _spec(mu=v), "node 2 service rate"),
    "node_mu_b": (lambda v: _spec(mu_b=v), "node 2 unblock rate"),
    "external": (lambda v: _spec(external=v), "external arrival"),
    "known": (lambda v: _spec(known={2: v}), "known arrival rate"),
    "routing": (lambda v: _spec(p=v), "routing"),
    "override": (lambda v: AnalysisAssumptions(blocking_probability_override=v),
                 "blocking probability override"),
    "horizon": (lambda v: SimConfig(seed=0, horizon=v), "simulation horizon"),
    "lattice_rate": (lambda v: build_lattice_network(GRID, arrival_rate=v), "external arrival"),
}
for _k, _name in enumerate(["arrival rate", "service rate", "unblock rate",
                            "blocking probability"]):
    ENTRY_POINTS[f"closed_form_{_k}"] = (_closed_form(_k, False), _name)
    ENTRY_POINTS[f"closed_form_{_k}_element"] = (_closed_form(_k, True), _name)


@pytest.mark.parametrize("value", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_value_is_a_short_input_error(entry, value):
    if entry == "override" and value is None:
        pytest.skip("None is the override's 'not set'")
    call, field = ENTRY_POINTS[entry]
    with pytest.raises(InputError) as caught:
        call(value)
    message = str(caught.value)
    assert field in message
    assert len(message) <= MESSAGE_MAX


def test_reproductions_name_the_fault():
    # each used to leak a bare ValueError, TypeError or OverflowError, or to
    # print all 401 digits
    with pytest.raises(InputError, match="^node 1 service rate must be finite, got an integer"):
        NetworkSpec((NodeSpec(1, NodeKind.SOURCE, 2, -10**5000),), {}, {1: 1.0})
    with pytest.raises(InputError, match="^external arrival 1 must be finite, got an integer"):
        NetworkSpec((NodeSpec(1, NodeKind.SOURCE, 2, 1.0),), {}, {1: 10**400})
    with pytest.raises(InputError, match="^arrival rate must be finite, got an integer"):
        blocking_node_closed_form([0.5, 10**400], 1.0, 0.2, 0.5)
    with pytest.raises(InputError, match="^simulation horizon must be finite, got an integer"):
        SimConfig(seed=0, horizon=10**400)


def test_closed_form_names_the_element_that_failed():
    # the whole argument used to go through the scalar checks
    with pytest.raises(InputError, match=r"^service rate: value 'abc' is not a number$"):
        blocking_node_closed_form([0.7, 0.7], [1.0, "abc"], 0.2, [0.5, 2.0])
    with pytest.raises(InputError, match=r"^blocking probability: probability 2\.0 outside"):
        blocking_node_closed_form([0.7, 0.7], [1.0, 10**400], 0.2, [2.0, 0.5])


@pytest.mark.parametrize("value, shown", [
    (1.5, "1.5"),
    ("x" * 100, "'" + "x" * 36 + "..."),
    (-10**5000, "an unprintable int"),
], ids=["float", "long_string", "int_too_long_to_print"])
def test_shown_value_is_capped_and_never_raises(value, shown):
    assert _shown(value) == shown


def test_shown_survives_a_failing_repr():
    class Loud:
        def __repr__(self):
            raise RuntimeError("no")

    assert _shown(Loud()) == "an unprintable Loud"


@pytest.mark.parametrize("values, text", [
    ([0.5, 1, np.float64(2.0), "3"], True),
    ([0.5, True, "abc", None, math.inf, -math.nan, 10**400, -10**5000, "3"], False),
    (np.array([0.5, math.inf, -1.0]), False),
    (np.array([1, 2], dtype=np.int64), False),
    (np.array([True, False]), False),
    (0.25, False),
    ([[0.5, None], [2, "1e999"]], True),
], ids=["text", "faults", "float_array", "int_array", "bool_array", "scalar", "nested"])
def test_column_form_agrees_with_the_scalar_rule(values, text):
    column = np.asarray(_finite_column(values, text=text))
    objects = np.asarray(values, dtype=object)
    assert column.dtype == np.float64 and column.shape == objects.shape
    for value, got in zip(objects.ravel().tolist(), column.ravel().tolist()):
        try:
            want = _finite(value, "x", text=text)
        except InputError:
            want = math.nan
        assert got == want or math.isnan(got) and math.isnan(want)


def test_column_form_of_a_list_is_a_list():
    # the parser keeps Python floats; the spec and the closed form take arrays
    assert _finite_column(["0.5", 2], text=True) == [0.5, 2.0]
    column = _finite_column([0.5, None])
    assert type(column) is list and column[0] == 0.5 and math.isnan(column[1])


def test_column_form_leaves_its_input_alone():
    given = np.array([0.5, math.inf])
    _finite_column(given)
    assert given.tolist() == [0.5, math.inf]


def test_decimal_strings_are_numbers_only_where_text_is_allowed():
    assert _finite("0.5", "x", text=True) == 0.5
    with pytest.raises(InputError, match=r"^x: value '0\.5' is not a number$"):
        _finite("0.5", "x")
    # a node rate is kept as given, for round trips, so it must be a number
    with pytest.raises(InputError, match="^node 2 service rate: value '1.5' is not a number$"):
        _spec(mu="1.5")
    assert _spec(external="0.5").external_arrivals[1] == 0.5
