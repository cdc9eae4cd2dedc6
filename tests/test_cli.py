"""Command-line interface: formats, exit codes, and output stability."""

import json

import pytest

from qnswap import cli, munoz15_fixture, parse_network, serialize_network
from conftest import single_queue_spec


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
        # pinned rate is positive; node 4's zero rate comes later in id order
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
                                   "message": "service rate must be positive"}

    def test_stdin_network(self, capsys, monkeypatch):
        text = serialize_network(munoz15_fixture())
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run_cli(capsys, "analyze", "--network", "-")
        assert code == 0
        assert out.splitlines()[1].startswith("1 ") or "1" in out.splitlines()[1]


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
        code, out, _ = run_cli(capsys, "fixture", "munoz15")
        assert code == 0
        assert "15 nodes" in out
        assert "11 intermediate" in out

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
