"""Frozen CLI outputs on the bundled fixture and a 6x6 lattice, byte for byte.

The first munoz15 analysis and simulation files under ``golden/`` were
written by the CLI before the traffic and steady-state solves moved to
LAPACK, and the emitted fixture document before network specs were checked
on construction; the ``--subset``, ``--round`` and 6x6 lattice outputs
before the analysis became one pass over node columns.  Any refactor that
changes a printed byte of these outputs shows up here.  Regenerate them only
for a deliberate change of output, and record that change.

A case runs on the munoz15 document unless its arguments name a network.
"""

from pathlib import Path

import pytest

from qnswap import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "munoz15_analyze.txt": ["analyze"],
    "munoz15_analyze.json": ["analyze", "--format", "json"],
    "munoz15_analyze_pb0.5.csv": ["analyze", "--pb", "0.5", "--format", "csv"],
    "munoz15_simulate_seed11_h500.json": [
        "simulate", "--seed", "11", "--horizon", "500", "--format", "json"],
    "munoz15_analyze_subset1-3.json": [
        "analyze", "--format", "json", "--subset", "1,2,3"],
    "munoz15_analyze_round3.txt": ["analyze", "--round", "3"],
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
