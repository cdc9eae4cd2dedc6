"""Command-line front end.

Four subcommands: ``analyze`` (analytic pipeline), ``simulate``
(discrete-event run), ``fixture`` (built-in reference networks), and
``validate`` (parse and check a network document).  Network files are JSON
in the format documented in :mod:`qnswap.model`; ``-`` means stdin.

Exit codes: 0 success, 2 invalid input, 3 numerical failure, 4 usage error;
any other status is a bug.
Failures print a one-line JSON error object to stderr and nothing to stdout;
successful output is written in one piece, and repeated invocations with the
same inputs produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain, compress, repeat

import numpy as np

from .errors import InputError, NumericsError
from .layout import munoz15_fixture
from .model import KIND_CODES, NetworkSpec, NodeKind, parse_network, serialize_network
from .pfqn import AnalysisAssumptions, NetworkAnalysis, NetworkMetrics, analyze_network
from .sim import WARMUP_FRACTION, SimConfig, SimResult, simulate_blocking_network
from .traffic import total_external_rate

SEED_ENV = "QNSWAP_SEED"
# The largest --round: 1074 decimals print every double exactly.
MAX_DIGITS = 1074

_FIXTURES = {"munoz15": munoz15_fixture}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call; parsing leaves it unchanged."""
    parser = _Parser(
        prog="qnswap",
        description="Analyze and simulate open blocking queueing networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analytic steady-state pipeline")
    analyze.add_argument("--network", required=True,
                         help="network document path, or - for stdin")
    analyze.add_argument("--pb", type=float, default=None,
                         help="blocking probability override for every node")
    analyze.add_argument("--format", choices=("table", "csv", "json"),
                         default="table")
    analyze.add_argument("--round", type=int, default=None, dest="digits",
                         help="fixed decimal places instead of 6 significant digits")
    analyze.add_argument("--subset", default=None,
                         help="comma-separated node ids for the network aggregates")

    simulate = sub.add_parser(
        "simulate", help="discrete-event network simulation",
        description="Simulate the network as routed: every job follows the routing"
        " matrix, and a blocked job moves as soon as a target frees a slot. The"
        " document's known_arrival_rates and mu_b values are not used; only"
        " analyze reads them.")
    simulate.add_argument("--network", required=True,
                          help="network document path, or - for stdin")
    simulate.add_argument("--seed", type=int, default=None,
                          help=f"root seed (default: ${SEED_ENV} or 0)")
    simulate.add_argument("--horizon", type=float, required=True,
                          help="run length in model time units")
    simulate.add_argument("--reps", type=int, default=1,
                          help="independent replications to merge")
    simulate.add_argument("--format", choices=("table", "csv", "json"),
                          default="table")
    simulate.add_argument("--round", type=int, default=None, dest="digits")

    fixture = sub.add_parser("fixture", help="built-in reference networks")
    fixture.add_argument("name", choices=sorted(_FIXTURES))
    fixture.add_argument("--emit", action="store_true",
                         help="print the network document instead of a summary")

    validate = sub.add_parser("validate", help="parse and check a network document")
    validate.add_argument("--network", required=True,
                          help="network document path, or - for stdin")

    return parser


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from None


def _fmt(value: float | None, digits: int | None) -> str:
    if value is None:
        return ""
    if digits is None:
        return f"{value:.6g}"
    return f"{value:.{digits}f}"


def _round_floats(obj, digits: int | None):
    if digits is None:
        return obj
    if isinstance(obj, float):
        return round(obj, digits)
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(len(h), *(len(r[c]) for r in rows)) if rows else len(h)
              for c, h in enumerate(headers)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for r in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return lines


# The per-node columns of NetworkAnalysis that analyze prints: all of them
# in JSON key order ("node" sorts between "kbar" and "pi00"), and the
# table and CSV columns in print order.
_JSON_COLUMNS = ("arrival_rate", "blocking_probability", "kbar",
                 "pi00", "pi01", "pi10", "rho", "tbar")
_TEXT_COLUMNS = ("pi00", "pi10", "pi01", "rho", "kbar", "tbar")

# The analyze JSON document as json.dumps(..., sort_keys=True, indent=2)
# lays it out; every %s is one value's JSON text.  The normalization
# constant is always 1.0, and so is its rounding.
_ANALYZE_JSON = """{
  "assumptions": {
    "blocking_probability_override": %s,
    "normalization_constant": 1.0,
    "rho_one": %s
  },
  "network": {
    "external_rate": %s,
    "mean_jobs": %s,
    "mean_response_time": %s,
    "nodes": %s,
    "total_jobs": %s
  },
  "nodes": %s
}
"""
_ANALYZE_JSON_NODE = """    {
      "arrival_rate": %s,
      "blocking_probability": %s,
      "kbar": %s,
      "node": %s,
      "pi00": %s,
      "pi01": %s,
      "pi10": %s,
      "rho": %s,
      "tbar": %s
    }"""
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: list[float], digits: int | None) -> list:
    """The values for the ``%s`` of a JSON template, after ``round(v, digits)``
    if given.  ``%s`` prints a float as json.dumps does, by its ``repr``, so
    only a list holding a non-finite value is turned into JSON's text."""
    if digits is not None:
        values = list(map(round, values, repeat(digits)))
    if not math.isfinite(sum(values)):  # an overflowing sum maps nothing
        values = [_JSON_NON_FINITE.get(t, t) for t in map(repr, values)]
    return values


def _json_array(body: str, closing_indent: str) -> str:
    """A JSON array of items already formatted, indented and joined by ",\\n"."""
    return "[\n" + body + "\n" + closing_indent + "]" if body else "[]"


def _analyze_json(assumptions: AnalysisAssumptions, net: NetworkMetrics,
                  ids: list[int], columns: dict[str, list[float]],
                  digits: int | None) -> str:
    """The analyze JSON document, written from the columns of the printed nodes.

    ``columns`` maps each ``_JSON_COLUMNS`` name to a list aligned with
    ``ids``.  The output is byte for byte what ``json.dumps(doc,
    sort_keys=True, indent=2)`` gives for the document with the
    assumptions, one object per node and the fields of ``net``, after every
    float went through ``round(v, digits)``.  One template holds every node.
    """
    values = [_json_floats(columns[name], digits) for name in _JSON_COLUMNS]
    values.insert(3, ids)
    nodes = ",\n".join(repeat(_ANALYZE_JSON_NODE, len(ids))) % tuple(
        chain.from_iterable(zip(*values)))

    override = assumptions.blocking_probability_override
    override = "null" if override is None else _json_floats([override], digits)[0]
    rho_one = "true" if assumptions.rho_one else "false"
    network = _json_floats([net.external_rate, net.mean_jobs, net.mean_response_time,
                            net.total_jobs], digits)
    members = _json_array(",\n".join(["      %d" % i for i in net.nodes]), "    ")
    return _ANALYZE_JSON % (override, rho_one, *network[:3], members, network[3],
                            _json_array(nodes, "  "))


def _analyze_output(analysis: NetworkAnalysis, fmt: str, digits: int | None,
                    subset: list[int] | None) -> str:
    """The analyze output; ``subset`` selects the nodes printed and aggregated."""
    net = analysis.network
    ids = analysis.nodes.tolist()
    columns = dict(zip(_JSON_COLUMNS, np.array([*map(vars(analysis).get, _JSON_COLUMNS)]).tolist()))
    if subset is not None:
        net = analysis.network_over(subset)
        keep = set(subset)
        mask = [i in keep for i in ids]
        ids = list(compress(ids, mask))
        columns = {name: list(compress(c, mask)) for name, c in columns.items()}

    if fmt == "json":
        return _analyze_json(analysis.assumptions, net, ids, columns, digits)

    form = repeat(".6g" if digits is None else f".{digits}f")  # _fmt of each float
    text = [list(map(str, ids))] + [list(map(format, columns[n], form)) for n in _TEXT_COLUMNS]
    rows = list(zip(*text))
    if fmt == "csv":
        lines = ["node," + ",".join(_TEXT_COLUMNS)]
        lines += map(",".join, rows)
        lines.append("network,,,,,%s,%s" % (_fmt(net.mean_jobs, digits),
                                            _fmt(net.mean_response_time, digits)))
        return "\n".join(lines) + "\n"

    lines = _table(["node", *_TEXT_COLUMNS], rows)
    lines.append("")
    lines.append(
        "network  mean jobs: %s  response time: %s  external rate: %s" % (
            _fmt(net.mean_jobs, digits),
            _fmt(net.mean_response_time, digits),
            _fmt(net.external_rate, digits),
        ))
    return "\n".join(lines) + "\n"


def _simulate_output(result: SimResult, config: SimConfig, fmt: str,
                     digits: int | None) -> str:
    if fmt == "json":
        # the document keeps the simulator's fixed unit and warm-up as keys
        doc = {"config": {**vars(config), "unit": "time", "warmup_fraction": WARMUP_FRACTION},
               "result": result.to_jsonable()}
        return json.dumps(_round_floats(doc, digits), sort_keys=True, indent=2) + "\n"

    if fmt == "csv":
        lines = ["node,measure,value"]
        for ns in result.nodes:
            for n_jobs, frac in enumerate(ns.occupancy):
                lines.append(f"{ns.node},p{n_jobs},{_fmt(frac, digits)}")
            lines.append(f"{ns.node},blocked,{_fmt(ns.blocked_fraction, digits)}")
            lines.append(f"{ns.node},mean_jobs,{_fmt(ns.mean_jobs, digits)}")
        for name in ("mean_jobs", "response_mean", "response_stderr", "mean_hops", "drop_fraction"):
            lines.append(f"network,{name},{_fmt(getattr(result, name), digits)}")
        for name in ("arrivals", "completed", "dropped", "in_flight"):
            lines.append(f"network,{name},{getattr(result, name)}")
        return "\n".join(lines) + "\n"

    cells = [[str(ns.node), _fmt(ns.mean_jobs, digits),
              _fmt(ns.blocked_fraction, digits),
              _fmt(ns.occupancy[0], digits), _fmt(ns.occupancy[-1], digits)]
             for ns in result.nodes]
    lines = _table(["node", "mean_jobs", "blocked", "p_empty", "p_full"], cells)
    lines.append("")
    lines.append("events: %d  measured time: %s  replications: %d" % (
        result.events, _fmt(result.duration, digits), result.replications))
    lines.append("arrivals: %d  completed: %d  dropped: %d  in flight: %d" % (
        result.arrivals, result.completed, result.dropped, result.in_flight))
    lines.append("mean jobs: %s  response mean: %s  stderr: %s  mean hops: %s" % (
        _fmt(result.mean_jobs, digits), _fmt(result.response_mean, digits),
        _fmt(result.response_stderr, digits), _fmt(result.mean_hops, digits)))
    return "\n".join(lines) + "\n"


def _parse_subset(raw: str | None, spec: NetworkSpec) -> list[int] | None:
    if raw is None:
        return None
    try:
        ids = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise _UsageError(f"--subset must be comma-separated integers, got {raw!r}") from None
    if not ids:
        raise _UsageError("--subset must name at least one node")
    cols = spec.columns
    known = set(cols.id.tolist())
    for i in ids:
        if i not in known:
            raise InputError(f"--subset references unknown node {i}")
    inner = cols.id[cols.kind == KIND_CODES[NodeKind.INTERMEDIATE]].tolist()
    if set(inner).isdisjoint(ids):
        raise InputError(f"--subset {raw!r} selects no intermediate node")
    return ids


def _resolve_seed(given: int | None) -> int:
    if given is not None:
        return given
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"${SEED_ENV} must be an integer, got {raw!r}") from None


def _dispatch(args: argparse.Namespace) -> str:
    digits = getattr(args, "digits", None)
    if digits is not None and not 0 <= digits <= MAX_DIGITS:
        raise _UsageError("--round must be nonnegative" if digits < 0
                          else f"--round must be at most {MAX_DIGITS}")

    if args.command == "fixture":
        spec = _FIXTURES[args.name]()
        if args.emit:
            return serialize_network(spec)
        count = spec.columns.kind.tolist().count
        return "%s: %d nodes (%d intermediate, %d sources, %d sinks), external rate %s\n" % (
            args.name, len(spec.nodes), count(KIND_CODES[NodeKind.INTERMEDIATE]),
            count(KIND_CODES[NodeKind.SOURCE]), count(KIND_CODES[NodeKind.SINK]),
            _fmt(total_external_rate(spec), None))

    spec = parse_network(_read_text(args.network))
    if args.command == "analyze":
        assumptions = AnalysisAssumptions(blocking_probability_override=args.pb)
        subset = _parse_subset(args.subset, spec)
        analysis = analyze_network(spec, assumptions)
        return _analyze_output(analysis, args.format, digits, subset)

    if args.command == "simulate":
        config = SimConfig(
            seed=_resolve_seed(args.seed),
            horizon=args.horizon,
            replications=args.reps,
        )
        result = simulate_blocking_network(spec, config)
        return _simulate_output(result, config, args.format, digits)

    return "ok: %d nodes, %d routing entries\n" % (len(spec.nodes), len(spec.routing))


def _emit_error(kind: str, message: str):
    sys.stderr.write(json.dumps({"error": kind, "message": message},
                                sort_keys=True) + "\n")


def run(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit code; catches only qnswap's own errors."""
    try:
        out = _dispatch(_build_parser().parse_args(argv))
    except SystemExit as e:  # --help and friends
        return int(e.code) if e.code else 0
    except _UsageError as e:
        _emit_error("UsageError", str(e))
        return 4
    except (InputError, NumericsError) as e:
        _emit_error(type(e).__name__, str(e))
        return 2 if isinstance(e, InputError) else 3

    sys.stdout.write(out)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
