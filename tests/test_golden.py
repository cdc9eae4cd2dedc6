"""Frozen CLI outputs on the bundled fixture, reproduced byte for byte.

The analysis and simulation files under ``golden/`` were written by the CLI
before the traffic and steady-state solves moved to LAPACK, and the emitted
fixture document before network specs were checked on construction.  Any
refactor that changes a printed byte of these five outputs shows up here.
Regenerate them only for a deliberate change of output, and record that
change.
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
    code = cli.run(CASES[name] + ["--network", munoz15_file])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / name).read_bytes()
