"""Frozen CLI outputs on the bundled fixture and a 6x6 lattice, byte for byte.

The first munoz15 analysis and simulation files under ``golden/`` were
written by the CLI before the traffic and steady-state solves moved to
LAPACK, and the emitted fixture document before network specs were checked
on construction; the ``--subset``, ``--round 3`` and 6x6 lattice outputs
before the analysis became one pass over node columns; the ``--round 4``
JSON before the analyze JSON was printed from columns; the ``--subset``
table and CSV before those writers read the analysis columns; the munoz15
simulator run with three replications, which the CLI cannot select, before
the simulator read the spec's columns; the self-loop simulator runs before
the simulator became one flat event loop; the heavy-hex simulator runs,
whose blocked-job cascades the other files barely reach, before the event
loop opened its measuring window once and fetched each next event with one
heap sift; the funnel simulator runs, where up to three blocked jobs wait
on one slot, before blocked jobs were released from per-target waiting
lists; the default ``simulate`` tables, the README's example at seed 7,
before the CLI's error handling was narrowed to the package's own error
families; the two-replication runs of every simulator file, the
``simulate`` CSV and the rounded two-replication JSON before the simulator
lost its event-unit stop rule and warm-up setting.  Any refactor that
changes a printed byte of these outputs shows up here.  Regenerate them
only for a deliberate change of output, and record that change.

A case runs on the munoz15 document unless its arguments name a network.
"""

import builtins
import json
from pathlib import Path

import pytest

from qnswap import (
    SimConfig,
    build_lattice_network,
    cli,
    munoz15_fixture,
    parse_layout,
    simulate_blocking_network,
)

from conftest import funnel_spec, heavy_hex_layout, self_loop_spec
from oracle import sum_312

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "munoz15_analyze.txt": ["analyze"],
    "munoz15_analyze.json": ["analyze", "--format", "json"],
    "munoz15_analyze_pb0.5.csv": ["analyze", "--pb", "0.5", "--format", "csv"],
    "munoz15_simulate_seed11_h500.json": [
        "simulate", "--seed", "11", "--horizon", "500", "--format", "json"],
    "munoz15_analyze_subset1-3.json": [
        "analyze", "--format", "json", "--subset", "1,2,3"],
    "munoz15_analyze_subset1-3.txt": ["analyze", "--subset", "1,2,3"],
    "munoz15_analyze_subset1-3.csv": [
        "analyze", "--format", "csv", "--subset", "1,2,3"],
    "munoz15_analyze_round3.txt": ["analyze", "--round", "3"],
    "munoz15_analyze_round4.json": ["analyze", "--format", "json", "--round", "4"],
    "munoz15_simulate_seed7_h5000.txt": [
        "simulate", "--seed", "7", "--horizon", "5000"],
    "munoz15_simulate_seed7_h5000_round3.txt": [
        "simulate", "--seed", "7", "--horizon", "5000", "--round", "3"],
    "munoz15_simulate_seed7_h5000_reps2.txt": [
        "simulate", "--seed", "7", "--horizon", "5000", "--reps", "2"],
    "munoz15_simulate_seed7_h5000.csv": [
        "simulate", "--seed", "7", "--horizon", "5000", "--format", "csv"],
    "munoz15_simulate_seed11_h500_round3_reps2.json": [
        "simulate", "--seed", "11", "--horizon", "500", "--format", "json",
        "--round", "3", "--reps", "2"],
    "lattice6_analyze.json": [
        "analyze", "--format", "json",
        "--network", str(GOLDEN / "lattice6_network.json")],
}


def test_fixture_emit_matches_golden_bytes(capsys):
    code = cli.run(["fixture", "munoz15", "--emit"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / "munoz15_fixture_emit.json").read_bytes()


@pytest.fixture()
def munoz15_file(tmp_path, capsys):
    assert cli.run(["fixture", "munoz15", "--emit"]) == 0
    path = tmp_path / "net.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, munoz15_file, capsys, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    argv = CASES[name]
    if "--network" not in argv:
        argv = argv + ["--network", munoz15_file]
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / name).read_bytes()


# munoz15 simulator runs at seed 11, by SimConfig arguments
SIM_CASES = {
    "time_500_reps3": dict(horizon=500.0, replications=3),
    "time_6_reps2": dict(horizon=6.0, replications=2),  # one event
    "time_12_reps2": dict(horizon=12.0, replications=2),  # eight events
    "time_1850_reps2": dict(horizon=1850.0, replications=2),
    "time_5e-324_reps2": dict(horizon=5e-324, replications=2),  # no event
}


def sim_document() -> str:
    out = {name: simulate_blocking_network(munoz15_fixture(), SimConfig(seed=11, **kwargs))
           .to_jsonable() for name, kwargs in SIM_CASES.items()}
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def test_simulator_runs_match_golden_bytes():
    document = sim_document()
    # a window that holds no event finds every node empty throughout
    tiny = json.loads(document)["time_5e-324_reps2"]
    assert tiny["events"] == 0 and tiny["duration"] == 1e-323
    assert {node["occupancy"][0] for node in tiny["nodes"]} == {1.0}
    assert document.encode("utf-8") == (GOLDEN / "sim_time_units.json").read_bytes()


# a node that routes to itself re-queues behind its own buffer; seed 11
SELF_LOOP_CASES = {
    "time_500": dict(horizon=500.0),
    "time_1000_reps2": dict(horizon=1000.0, replications=2),
}


def self_loop_document() -> str:
    out = {name: simulate_blocking_network(self_loop_spec(), SimConfig(seed=11, **kwargs))
           .to_jsonable() for name, kwargs in SELF_LOOP_CASES.items()}
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def test_self_loop_runs_match_golden_bytes():
    document = self_loop_document()
    blocked = [node["blocked_fraction"] for run in json.loads(document).values()
               for node in run["nodes"]]
    assert 0.0 < max(blocked) < 0.01  # the block path runs; no deadlock
    assert document.encode("utf-8") == (GOLDEN / "sim_self_loop.json").read_bytes()


# a 4x9 heavy-hex chip at 0.5 per source blocks often (about 8% of the time
# on average) and drops jobs, so the release cascade is pinned; seed 11
HEAVY_HEX_CASES = {
    "time_400": dict(horizon=400.0),
    "time_130_reps2": dict(horizon=130.0, replications=2),
    "time_300_reps2": dict(horizon=300.0, replications=2),
}


def heavy_hex_document() -> str:
    spec = build_lattice_network(parse_layout(heavy_hex_layout(4, 9)), arrival_rate=0.5)
    out = {name: simulate_blocking_network(spec, SimConfig(seed=11, **kwargs)).to_jsonable()
           for name, kwargs in HEAVY_HEX_CASES.items()}
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def test_heavy_hex_runs_match_golden_bytes():
    document = heavy_hex_document()
    runs = json.loads(document).values()
    assert min(run["dropped"] for run in runs) > 0
    assert max(node["blocked_fraction"] for run in runs for node in run["nodes"]) > 0.2
    assert document.encode("utf-8") == (GOLDEN / "sim_heavy_hex.json").read_bytes()


# three feeders wait on one merge slot, two or three at a time now and then,
# so each release picks among several blocked jobs; seed 11
FUNNEL_CASES = {
    "time_400": dict(horizon=400.0),
    "time_800_reps2": dict(horizon=800.0, replications=2),
}


def funnel_document() -> str:
    out = {name: simulate_blocking_network(funnel_spec(), SimConfig(seed=11, **kwargs))
           .to_jsonable() for name, kwargs in FUNNEL_CASES.items()}
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def test_funnel_runs_match_golden_bytes():
    document = funnel_document()
    for run in json.loads(document).values():
        assert min(node["blocked_fraction"] for node in run["nodes"][:3]) > 0.1
        assert run["dropped"] > 0
    assert document.encode("utf-8") == (GOLDEN / "sim_funnel.json").read_bytes()


@pytest.mark.parametrize("document, name", [
    (sim_document, "sim_time_units.json"), (self_loop_document, "sim_self_loop.json"),
    (heavy_hex_document, "sim_heavy_hex.json"), (funnel_document, "sim_funnel.json"),
], ids=["time_units", "self_loop", "heavy_hex", "funnel"])
def test_simulator_bytes_hold_under_a_compensated_sum(document, name, monkeypatch):
    # from Python 3.12 the builtin sum compensates floats; the simulator adds
    # its totals left to right, so its bytes do not depend on the Python version
    monkeypatch.setattr(builtins, "sum", sum_312)
    text = document()
    monkeypatch.undo()
    assert text.encode("utf-8") == (GOLDEN / name).read_bytes()
