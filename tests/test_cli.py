"""Command-line interface: formats, exit codes, and output stability."""

import dataclasses
import hashlib
import io
import json
import re
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from qnswap import (
    AnalysisAssumptions,
    InputError,
    analyze_network,
    build_lattice_network,
    cli,
    munoz15_fixture,
    parse_layout,
    parse_network,
    serialize_network,
)
from oracle import analyze_document
from conftest import (grid_document, heavy_hex_layout, single_queue_spec,
                      two_node_cycle_spec)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def fixture_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(serialize_network(munoz15_fixture()), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_table_reproduces_reference_rows(self, capsys, fixture_file):
        code, out, err = run_cli(
            capsys, "analyze", "--network", fixture_file, "--pb", "0.5",
            "--round", "3")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0].split() == ["node", "pi00", "pi10", "pi01",
                                    "rho", "kbar", "tbar"]
        assert lines[1].split() == ["1", "0.185", "0.174", "0.640",
                                    "0.815", "0.815", "0.867"]
        assert lines[11].split() == ["11", "0.205", "0.177", "0.618",
                                     "0.795", "0.795", "0.924"]
        assert lines[-1] == ("network  mean jobs: 0.831  "
                             "response time: 3.323  external rate: 0.250")

    def test_csv_has_network_row(self, capsys, fixture_file):
        code, out, _ = run_cli(
            capsys, "analyze", "--network", fixture_file, "--pb", "0.5",
            "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "node,pi00,pi10,pi01,rho,kbar,tbar"
        assert len(lines) == 13  # header, 11 nodes, network summary
        assert lines[-1] == "network,,,,,0.830783,3.32313"

    def test_json_round_trips_and_is_stable(self, capsys, fixture_file):
        code, out1, _ = run_cli(
            capsys, "analyze", "--network", fixture_file, "--format", "json")
        _, out2, _ = run_cli(
            capsys, "analyze", "--network", fixture_file, "--format", "json")
        assert code == 0
        assert out1 == out2
        blob = json.loads(out1)
        assert set(blob) == {"assumptions", "nodes", "network"}
        assert len(blob["nodes"]) == 11

    def test_round_applies_to_json(self, capsys, fixture_file):
        _, out, _ = run_cli(
            capsys, "analyze", "--network", fixture_file, "--pb", "0.5",
            "--format", "json", "--round", "3")
        blob = json.loads(out)
        assert blob["network"]["mean_response_time"] == 3.323

    def test_pb_override_changes_numbers(self, capsys, fixture_file):
        _, with_default, _ = run_cli(capsys, "analyze", "--network", fixture_file)
        _, with_override, _ = run_cli(
            capsys, "analyze", "--network", fixture_file, "--pb", "0.9")
        assert with_default != with_override

    def test_subset_restricts_rows_and_summary(self, capsys, fixture_file):
        _, out, _ = run_cli(
            capsys, "analyze", "--network", fixture_file, "--pb", "0.5",
            "--format", "csv", "--subset", "1,2")
        lines = out.strip().splitlines()
        assert [l.split(",")[0] for l in lines] == ["node", "1", "2", "network"]
        # nodes 1 and 2 are twins, so the subset mean is their shared kbar
        assert lines[-1].split(",")[-2] == lines[1].split(",")[-2]

    def test_unknown_subset_node_is_an_input_error(self, capsys, fixture_file):
        code, out, err = run_cli(
            capsys, "analyze", "--network", fixture_file, "--subset", "99")
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "InputError"
        assert error["message"] == "--subset references unknown node 99"

    def test_subset_without_intermediate_is_an_input_error(self, capsys, fixture_file):
        # 14 is a sink: checked before the analysis, naming the option
        code, out, err = run_cli(
            capsys, "analyze", "--network", fixture_file, "--subset", "14")
        assert code == 2
        assert out == ""
        assert json.loads(err)["message"] == "--subset '14' selects no intermediate node"

    def test_network_without_intermediate_is_an_input_error(self, capsys, tmp_path):
        # no --subset is given: the error names the network, not a subset
        doc = {
            "nodes": [{"id": 1, "kind": "source", "capacity": 8, "mu": 1},
                      {"id": 2, "kind": "sink", "capacity": 8, "mu": 1}],
            "routing": [{"from": 1, "to": 2, "p": 1}],
            "external_arrivals": [{"node": 1, "lambda0": 0.1}],
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", "--network", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "InputError",
                                   "message": "network has no intermediate node to analyze"}

    def test_overflowed_external_total_is_an_input_error(self, capsys, monkeypatch):
        # two finite source rates whose sum is inf; the sources route nothing
        # and the intermediate node is pinned, so only the aggregate reads it
        doc = {
            "nodes": [{"id": 1, "kind": "intermediate", "capacity": 1, "mu": 1, "mu_b": 0.2},
                      {"id": 2, "kind": "source", "capacity": 8, "mu": 1},
                      {"id": 3, "kind": "source", "capacity": 8, "mu": 1},
                      {"id": 4, "kind": "sink", "capacity": 8, "mu": 1}],
            "routing": [{"from": 1, "to": 4, "p": 1}],
            "external_arrivals": [{"node": 2, "lambda0": 1e308}, {"node": 3, "lambda0": 1e308}],
            "known_arrival_rates": [{"node": 1, "lambda": 0.5}],
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "analyze", "--network", "-")
        assert (code, out) == (2, "")
        assert err == ('{"error": "InputError", '
                       '"message": "external rate must be finite, got inf"}\n')

    def test_overflowed_traffic_solution_is_a_numerics_error(self, capsys, monkeypatch):
        # two sources at 1e308 route into one sink, whose rate overflows to
        # inf; the back-substitution leaves NaN (0 * inf) at node 1, but the
        # error names node 4, the first node whose rate is infinite
        doc = {
            "nodes": [{"id": 1, "kind": "intermediate", "capacity": 1, "mu": 1, "mu_b": 0.2},
                      {"id": 2, "kind": "source", "capacity": 8, "mu": 1},
                      {"id": 3, "kind": "source", "capacity": 8, "mu": 1},
                      {"id": 4, "kind": "sink", "capacity": 8, "mu": 1},
                      {"id": 5, "kind": "source", "capacity": 8, "mu": 1}],
            "routing": [{"from": 1, "to": 4, "p": 1}, {"from": 2, "to": 4, "p": 1},
                        {"from": 3, "to": 4, "p": 1}, {"from": 5, "to": 1, "p": 1}],
            "external_arrivals": [{"node": 2, "lambda0": 1e308}, {"node": 3, "lambda0": 1e308},
                                  {"node": 5, "lambda0": 0.1}],
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings would print to stderr
            code, out, err = run_cli(capsys, "analyze", "--network", "-")
        assert (code, out) == (3, "")
        assert err == ('{"error": "NumericsError", "message": "node 4: solved arrival rate inf'
                       ' is not finite; the traffic solution overflows"}\n')

    def test_nan_pb_is_an_input_error(self, capsys, fixture_file):
        code, out, err = run_cli(
            capsys, "analyze", "--network", fixture_file, "--pb", "nan",
            "--format", "json")
        assert code == 2
        assert out == ""
        assert json.loads(err)["message"] == (
            "blocking probability override: probability nan outside [0, 1]")

    def test_zero_service_rate_is_an_input_error(self, capsys, tmp_path):
        # node 1 never receives a job, so the spec accepts mu = 0, but its
        # pinned rate is positive; node 4, pinned at 0, is idle, which is no fault
        doc = {
            "nodes": [
                {"id": 1, "kind": "intermediate", "capacity": 1, "mu": 0, "mu_b": 0.2},
                {"id": 2, "kind": "source", "capacity": 8, "mu": 1},
                {"id": 3, "kind": "sink", "capacity": 8, "mu": 1},
                {"id": 4, "kind": "intermediate", "capacity": 1, "mu": 1, "mu_b": 0.2},
            ],
            "routing": [{"from": 1, "to": 3, "p": 1}, {"from": 2, "to": 3, "p": 1},
                        {"from": 4, "to": 3, "p": 1}],
            "external_arrivals": [{"node": 2, "lambda0": 0.1}],
            "known_arrival_rates": [{"node": 1, "lambda": 0.5}, {"node": 4, "lambda": 0}],
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", "--network", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "InputError",
                                   "message": "node 1: service rate must be positive"}

    @pytest.mark.parametrize("shape, idle", [((4, 9), 40), ((6, 13), 92)])
    def test_chip_with_an_idle_site_exits_0(self, capsys, monkeypatch, shape, idle):
        # the uniform routing never reaches one intermediate site of each chip
        spec = build_lattice_network(parse_layout(heavy_hex_layout(*shape)), arrival_rate=0.5)
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_network(spec)))
        code, out, err = run_cli(capsys, "analyze", "--network", "-", "--format", "csv")
        assert (code, err) == (0, "")
        [row] = [r.split(",") for r in out.splitlines() if r.startswith(f"{idle},")]
        a = analyze_network(spec)
        k = a.nodes.tolist().index(idle)
        c, at = spec.columns, spec.columns.id.tolist().index(idle)
        tbar = 1.0 / c.service_rate[at] + a.blocking_probability[k] / c.unblock_rate[at]
        assert row == [str(idle), "1", "0", "0", "0", "0", format(tbar, ".6g")]

    def test_stdin_network(self, capsys, monkeypatch):
        text = serialize_network(munoz15_fixture())
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run_cli(capsys, "analyze", "--network", "-")
        assert code == 0
        assert out.splitlines()[1].startswith("1 ") or "1" in out.splitlines()[1]


# sha256 of ``analyze --format json`` on ``grid_document(40)``, written by
# the CLI before the analyze JSON was printed from columns.
LATTICE40_SHA256 = {
    (): "ed30f0128b8743323c86e9c7d5a85d3eb5cd231cabbad01565339881933f580f",
    ("--round", "4"): "ca24ea674da24e513810e523bc04a5614755841d5a97c41c3e01ebee832750c7",
    ("--pb", "0.3"): "53084a75922401e06d24f5497f8e72a3a1c69c645b7aecdfb61f095d79dd5307",
    ("--subset", "5,6,7,300"):
        "ae6af34492795750aac28548cdd4d8a95027f65aaeb390bcddbada5588fe4ade",
}

# sha256 of ``analyze`` table and CSV output on ``grid_document(40)``,
# written by the CLI before those writers read the analysis columns.
LATTICE40_TEXT_SHA256 = {
    ("table",): "ddc28adb00e8e8e6b1c688a1948e566a4496182ab26dbcb71d9e4cc2aa15b3af",
    ("table", "--subset", "5,6,7,300"):
        "0f51675ab46d455514322e221b62ba7f360cf7bc8899c77f62703bff201eab75",
    ("csv",): "a6f32ab133ce5683432075e9ede41fcbacf2c48b939090b9598d3c6f1dad92c5",
    ("csv", "--subset", "5,6,7,300"):
        "213221a763754d7e875bc3f4f8f574bb834951994824e0f189746623a3c29cca",
}

EDGE_FLOATS = (-0.0, 5e-324, 1e16, 0.1 + 0.2, 2.5, -1.5e-7, float("nan"), float("inf"))


class TestAnalyzeTextWriters:
    @pytest.mark.parametrize("fmt", sorted(LATTICE40_TEXT_SHA256), ids=" ".join)
    def test_lattice40_table_and_csv_bytes_unchanged(self, capsys, tmp_path, fmt):
        path = tmp_path / "grid40.json"
        path.write_text(grid_document(40), encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", "--network", str(path),
                                 "--format", *fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LATTICE40_TEXT_SHA256[fmt]


class TestAnalyzeJsonWriter:
    @pytest.mark.parametrize("extra", sorted(LATTICE40_SHA256), ids=" ".join)
    def test_lattice40_bytes_unchanged(self, capsys, tmp_path, extra):
        path = tmp_path / "grid40.json"
        path.write_text(grid_document(40), encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", "--network", str(path),
                                 "--format", "json", *extra)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LATTICE40_SHA256[extra]

    @pytest.mark.parametrize("digits", [None, 0, 4])
    @pytest.mark.parametrize("subset", [None, [2, 5, 9]])
    @pytest.mark.parametrize("assumptions", [
        AnalysisAssumptions(),
        AnalysisAssumptions(rho_one=False),
        AnalysisAssumptions(blocking_probability_override=0.1 + 0.2),
    ], ids=["worst_case", "solved_rates", "pb_override"])
    def test_matches_json_dumps_on_edge_floats(self, assumptions, subset, digits):
        analysis = analyze_network(munoz15_fixture(), assumptions)
        n = len(analysis.nodes)
        fields = ("blocking_probability", "pi00", "pi10", "pi01", "rho", "kbar", "tbar")
        edge = {name: np.resize(np.roll(EDGE_FLOATS, k), n)
                for k, name in enumerate(fields)}
        analysis = dataclasses.replace(
            analysis, **edge, arrival_rate=np.resize(EDGE_FLOATS, n),
            network=analysis.network._replace(mean_jobs=1e16, mean_response_time=-0.0,
                                              total_jobs=5e-324))
        net = analysis.network
        if subset is not None:
            net = analysis.network_over(subset)
        doc = analyze_document(analysis, net)
        if subset is not None:
            doc["nodes"] = [row for row in doc["nodes"] if row["node"] in subset]
        want = json.dumps(cli._round_floats(doc, digits), sort_keys=True, indent=2) + "\n"
        assert cli._analyze_output(analysis, "json", digits, subset) == want


class TestSimulate:
    def test_byte_identical_repeats(self, capsys, fixture_file):
        args = ("simulate", "--network", fixture_file, "--seed", "11",
                "--horizon", "500", "--format", "json")
        code, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert code == 0
        assert out1 == out2

    def test_json_shape(self, capsys, fixture_file):
        _, out, _ = run_cli(
            capsys, "simulate", "--network", fixture_file, "--seed", "11",
            "--horizon", "500", "--format", "json")
        blob = json.loads(out)
        assert blob["config"]["seed"] == 11
        result = blob["result"]
        assert result["mode"] == "network"
        assert result["arrivals"] == (result["completed"] + result["dropped"]
                                      + result["in_flight"])

    def test_round_applies_inside_occupancies(self, capsys, fixture_file):
        _, out, _ = run_cli(
            capsys, "simulate", "--network", fixture_file, "--seed", "11",
            "--horizon", "500", "--format", "json", "--round", "2")
        occupancy = [v for ns in json.loads(out)["result"]["nodes"] for v in ns["occupancy"]]
        assert occupancy and all(v == round(v, 2) for v in occupancy)
        assert any(0.0 < v < 1.0 for v in occupancy)

    def test_seed_env_var_is_default(self, capsys, fixture_file, monkeypatch):
        monkeypatch.setenv("QNSWAP_SEED", "11")
        _, from_env, _ = run_cli(
            capsys, "simulate", "--network", fixture_file, "--horizon", "500",
            "--format", "json")
        _, from_flag, _ = run_cli(
            capsys, "simulate", "--network", fixture_file, "--seed", "11",
            "--horizon", "500", "--format", "json")
        assert from_env == from_flag

    def test_csv_long_format(self, capsys, tmp_path):
        path = tmp_path / "single.json"
        path.write_text(serialize_network(single_queue_spec(0.7, 3)), encoding="utf-8")
        _, out, _ = run_cli(
            capsys, "simulate", "--network", str(path), "--seed", "5",
            "--horizon", "2000", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "node,measure,value"
        measures = [l.split(",")[1] for l in lines if l.startswith("1,")]
        assert measures[:4] == ["p0", "p1", "p2", "p3"]
        assert "blocked" in measures
        assert "mean_jobs" in measures

    @pytest.mark.parametrize("fmt, lines", [
        ("table", ["mean jobs: 0  response mean:   stderr:   mean hops: "]),
        ("csv", ["network,response_mean,", "network,response_stderr,", "network,mean_hops,",
                 "network,drop_fraction,"]),
    ])
    def test_undefined_means_print_as_empty_fields(self, capsys, fixture_file, fmt, lines):
        # no job arrives in a one-unit run, so the per-job means are undefined
        code, out, err = run_cli(capsys, "simulate", "--network", fixture_file, "--seed", "3",
                                 "--horizon", "1", "--format", fmt)
        assert (code, err) == (0, "")
        assert set(lines) <= set(out.splitlines())

    def test_infinite_horizon_is_an_input_error(self, capsys, fixture_file):
        code, out, err = run_cli(
            capsys, "simulate", "--network", fixture_file, "--horizon", "inf")
        assert code == 2
        assert out == ""
        assert "must be positive and finite" in json.loads(err)["message"]

    def test_replications_flag(self, capsys, fixture_file):
        code, out, _ = run_cli(
            capsys, "simulate", "--network", fixture_file, "--seed", "1",
            "--horizon", "200", "--reps", "3", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["config"]["replications"] == 3
        assert blob["result"]["replications"] == 3


class TestValidateAndFixture:
    def test_validate_ok_line(self, capsys, fixture_file):
        code, out, err = run_cli(capsys, "validate", "--network", fixture_file)
        assert code == 0
        assert out == "ok: 15 nodes, 18 routing entries\n"
        assert err == ""

    def test_validate_rejects_bad_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes": []}', encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", "--network", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "SchemaError"

    @pytest.mark.parametrize("servers, code, error",
                             [(1, 0, None), (2, 2, "InputError")])
    def test_servers_must_be_one(self, capsys, tmp_path, servers, code, error):
        doc = json.loads(serialize_network(single_queue_spec(0.5, 2)))
        doc["nodes"][0]["servers"] = servers
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        got, out, err = run_cli(capsys, "validate", "--network", str(path))
        assert got == code
        if error is None:
            assert out == "ok: 1 nodes, 0 routing entries\n"
        else:
            assert out == ""
            assert json.loads(err)["error"] == error
            assert "single-server only" in json.loads(err)["message"]

    def test_fixture_summary(self, capsys):
        code, out, err = run_cli(capsys, "fixture", "munoz15")
        assert (code, err) == (0, "")
        assert out == ("munoz15: 15 nodes (11 intermediate, 2 sources, 2 sinks),"
                       " external rate 0.25\n")

    def test_validate_lattice6_bytes(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--network",
                                 str(GOLDEN / "lattice6_network.json"))
        assert (code, out, err) == (0, "ok: 36 nodes, 114 routing entries\n", "")

    def test_fixture_emit_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "fixture", "munoz15", "--emit")
        assert code == 0
        assert parse_network(out) == munoz15_fixture()


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--network", "/no/such/file")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "InputError"

    def test_numerics_failure_exit_code(self, capsys, tmp_path):
        # stations 2 and 3 swap jobs forever: the rate system is singular
        doc = {
            "nodes": [
                {"id": 1, "kind": "source", "capacity": 2, "mu": 1.0},
                {"id": 2, "kind": "source", "capacity": 2, "mu": 1.0},
                {"id": 3, "kind": "source", "capacity": 2, "mu": 1.0},
            ],
            "routing": [
                {"from": 2, "to": 3, "p": 1.0},
                {"from": 3, "to": 2, "p": 1.0},
            ],
            "external_arrivals": [
                {"node": 1, "lambda0": 0.5},
                {"node": 2, "lambda0": 0.5},
            ],
        }
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", "--network", str(path))
        assert code == 3
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "NumericsError"
        assert error["message"].startswith("traffic equations are singular: nodes [2, 3]")

    def test_deadlock_exit_code(self, capsys, tmp_path):
        # both stations hold a job bound for the other: nothing moves again
        path = tmp_path / "cycle.json"
        path.write_text(serialize_network(two_node_cycle_spec()), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--network", str(path),
                                 "--seed", "7", "--horizon", "1e5")
        assert code == 3
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "NumericsError"
        assert error["message"].startswith("deadlock at simulated time 23.97")
        assert "nodes [1, 2]" in error["message"]

    @pytest.mark.parametrize("command", [["validate"], ["analyze"],
                                         ["simulate", "--horizon", "10"]])
    @pytest.mark.parametrize("name, error, message", [
        ("mu_overflows_float", "SchemaError", "$.nodes[2].mu: must be finite"),
        ("nested_too_deeply", "ParseError", "arrays or objects nested too deeply"),
        ("int_literal_too_long", "ParseError", "integer literal has too many digits to decode"),
    ])
    def test_undecodable_document_is_an_input_error(self, capsys, tmp_path, command,
                                                    name, error, message):
        # an integer too large for a float, nesting deeper than the JSON
        # decoder recurses and an integer literal past the decoder's digit
        # limit used to escape as Python tracebacks or bare ValueErrors
        if name == "nested_too_deeply":
            text = "[" * 100_000
        else:
            doc = json.loads(serialize_network(munoz15_fixture()))
            doc["nodes"][2]["mu"] = 10 ** 400
            text = json.dumps(doc)
            if name == "int_literal_too_long":  # json.dumps cannot print it either
                text = text.replace("0" * 400, "0" * 5000)
        path = tmp_path / "net.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, *command, "--network", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": error, "message": message}

    @pytest.mark.parametrize("argv, seed_env, code, error, message", [
        (["simulate", "--horizon", "10", "--reps", "0"], None, 2, "InputError",
         "replications must be a positive integer, got 0"),
        (["simulate", "--horizon", "10", "--seed", "-1"], None, 2, "InputError",
         "seed must be a nonnegative integer, got -1"),
        (["simulate", "--horizon", "10"], "abc", 4, "UsageError",
         "$QNSWAP_SEED must be an integer, got 'abc'"),
        (["simulate", "--horizon", "10"], "-3", 2, "InputError",
         "seed must be a nonnegative integer, got -3"),
        (["analyze", "--round", "-1"], None, 4, "UsageError", "--round must be nonnegative"),
        (["analyze", "--round", "99999999999"], None, 4, "UsageError",
         "--round must be at most 1074"),
        (["simulate", "--horizon", "10", "--round", "1075"], None, 4, "UsageError",
         "--round must be at most 1074"),
        (["analyze", "--subset", "1,x"], None, 4, "UsageError",
         "--subset must be comma-separated integers, got '1,x'"),
        (["analyze", "--subset", ","], None, 4, "UsageError",
         "--subset must name at least one node"),
    ], ids=["reps_0", "seed_negative", "seed_env_word", "seed_env_negative", "round_negative",
            "round_huge", "round_1075_simulate", "subset_word", "subset_empty"])
    def test_argument_faults(self, capsys, monkeypatch, fixture_file, argv, seed_env, code,
                             error, message):
        # the simulator settings used to reach the CLI as bare ValueErrors, and
        # --round 99999999999 on a table as Python's "precision too big"
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        if seed_env is not None:
            monkeypatch.setenv(cli.SEED_ENV, seed_env)
        got = run_cli(capsys, *argv, "--network", fixture_file)
        assert got[:2] == (code, "")
        assert json.loads(got[2]) == {"error": error, "message": message}

    def test_round_1074_prints_every_double_exactly(self, capsys, fixture_file):
        code, out, err = run_cli(capsys, "analyze", "--network", fixture_file,
                                 "--format", "csv", "--round", "1074")
        assert (code, err) == (0, "")
        # the largest --round: the printed decimal is the double's exact value
        first = out.splitlines()[1].split(",")[1]
        assert len(first.split(".")[1]) == 1074
        assert Decimal(first) == Decimal(float(first))

    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    def test_document_that_is_not_utf8_is_an_input_error(self, capsys, monkeypatch,
                                                         tmp_path, stdin):
        data = b'{"nodes": "\xff"}'
        path = tmp_path / "net.json"
        path.write_bytes(data)
        if stdin:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        network = "-" if stdin else str(path)
        for command in (["validate"], ["analyze"], ["simulate", "--horizon", "10"]):
            code, out, err = run_cli(capsys, *command, "--network", network)
            assert (code, out) == (2, ""), command
            error = json.loads(err)
            assert error["error"] == "InputError"
            assert error["message"].startswith(f"cannot read {network}: 'utf-8' codec")
            if stdin:
                break  # stdin is read once

    @pytest.mark.parametrize("field", ["sink_id", "source_capacity"])
    def test_integers_past_int64_are_input_errors(self, capsys, tmp_path, field):
        # a sink id of 2**63 used to print "node": 1.0 for every node with
        # exit 0, and a source capacity of 2**63 to pass validate and then
        # fail analyze naming a capacity of 1.0
        doc = json.loads(serialize_network(munoz15_fixture()))
        if field == "sink_id":
            for item in doc["nodes"] + doc["routing"]:
                for key in ("id", "to"):
                    if item.get(key) == 14:
                        item[key] = 2**63
            message = "node id 9223372036854775808 must be below 2**63"
        else:
            doc["nodes"][11]["capacity"] = 2**63
            message = "node 12: capacity must be below 2**63"
        text = json.dumps(doc)
        with pytest.raises(InputError, match=re.escape(message)):
            parse_network(text)
        path = tmp_path / "net.json"
        path.write_text(text, encoding="utf-8")
        for command in (["validate"], ["analyze", "--format", "json"],
                        ["simulate", "--horizon", "10"]):
            code, out, err = run_cli(capsys, *command, "--network", str(path))
            assert (code, out) == (2, ""), command
            assert json.loads(err) == {"error": "InputError", "message": message}

    def test_usage_error_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert code == 4
        assert out == ""
        assert json.loads(err)["error"] == "UsageError"

    def test_no_arguments_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 4

    def test_help_exits_cleanly(self, capsys):
        assert run_cli(capsys, "analyze", "--help")[0] == 0

    def test_unknown_fixture_name(self, capsys):
        code, _, err = run_cli(capsys, "fixture", "nope")
        assert code == 4
        assert "munoz15" in err


def test_reused_parser_matches_fresh_parsers(capsys, fixture_file):
    # the parser is built once per process; a usage error, a valid call and
    # --help through it must print what a freshly built parser prints
    calls = [["analyze", "--network", fixture_file, "--format", "xml"],
             ["analyze", "--network", fixture_file, "--format", "json"],
             ["simulate", "--help"]]
    assert cli._build_parser() is cli._build_parser()
    reused = [run_cli(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in reused] == [4, 0, 0]
    assert reused == fresh
