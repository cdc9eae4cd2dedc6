"""Command-line front end.

Four subcommands: ``analyze`` (analytic pipeline), ``simulate``
(discrete-event run), ``fixture`` (built-in reference networks), and
``validate`` (parse and check a network document).  Network files are JSON
in the format documented in :mod:`qnswap.model`; ``-`` means stdin.

Exit codes: 0 success, 2 invalid input, 3 numerical failure, 4 usage error.
Failures print a one-line JSON error object to stderr and nothing to stdout;
successful output is written in one piece, and repeated invocations with the
same inputs produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InputError, NumericsError
from .layout import munoz15_fixture
from .metrics import network_metrics
from .model import NetworkSpec, NodeKind, parse_network, serialize_network
from .pfqn import AnalysisAssumptions, NetworkAnalysis, analyze_network
from .sim import SimConfig, SimResult, simulate_blocking_network

SEED_ENV = "QNSWAP_SEED"

_FIXTURES = {"munoz15": munoz15_fixture}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
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

    simulate = sub.add_parser("simulate", help="discrete-event network simulation")
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
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
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
    if isinstance(obj, list):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(len(h), *(len(r[c]) for r in rows)) if rows else len(h)
              for c, h in enumerate(headers)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for r in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return lines


_ROW_COLUMNS = ("pi00", "pi10", "pi01", "rho", "kbar", "tbar")


def _analyze_output(analysis: NetworkAnalysis, fmt: str, digits: int | None,
                    subset: list[int] | None) -> str:
    net = analysis.network
    rows = analysis.rows()
    if subset is not None:
        keep = set(subset)
        net = network_metrics(analysis.nodes, analysis.kbar,
                              analysis.arrival_rates.total_external, keep)
        rows = [r for r in rows if r["node"] in keep]

    if fmt == "json":
        doc = analysis.to_jsonable()
        if subset is not None:
            doc["nodes"] = [n for n in doc["nodes"] if n["node"] in keep]
            doc["network"] = net.to_jsonable()
        return json.dumps(_round_floats(doc, digits), sort_keys=True, indent=2) + "\n"

    if fmt == "csv":
        lines = ["node," + ",".join(_ROW_COLUMNS)]
        for r in rows:
            lines.append(",".join([str(r["node"])]
                                  + [_fmt(r[c], digits) for c in _ROW_COLUMNS]))
        lines.append("network,,,,,%s,%s" % (_fmt(net.mean_jobs, digits),
                                            _fmt(net.mean_response_time, digits)))
        return "\n".join(lines) + "\n"

    cells = [[str(r["node"])] + [_fmt(r[c], digits) for c in _ROW_COLUMNS]
             for r in rows]
    lines = _table(["node", *_ROW_COLUMNS], cells)
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
        doc = {
            "config": {
                "seed": config.seed,
                "horizon": config.horizon,
                "unit": config.unit,
                "replications": config.replications,
                "warmup_fraction": config.warmup_fraction,
            },
            "result": result.to_jsonable(),
        }
        return json.dumps(_round_floats(doc, digits), sort_keys=True, indent=2) + "\n"

    if fmt == "csv":
        lines = ["node,measure,value"]
        for ns in result.nodes:
            for n_jobs, frac in enumerate(ns.occupancy):
                lines.append(f"{ns.node},p{n_jobs},{_fmt(frac, digits)}")
            lines.append(f"{ns.node},blocked,{_fmt(ns.blocked_fraction, digits)}")
            lines.append(f"{ns.node},mean_jobs,{_fmt(ns.mean_jobs, digits)}")
        lines.append(f"network,mean_jobs,{_fmt(result.mean_jobs, digits)}")
        lines.append(f"network,response_mean,{_fmt(result.response_mean, digits)}")
        lines.append(f"network,response_stderr,{_fmt(result.response_stderr, digits)}")
        lines.append(f"network,mean_hops,{_fmt(result.mean_hops, digits)}")
        lines.append(f"network,drop_fraction,{_fmt(result.drop_fraction, digits)}")
        lines.append(f"network,arrivals,{result.arrivals}")
        lines.append(f"network,completed,{result.completed}")
        lines.append(f"network,dropped,{result.dropped}")
        lines.append(f"network,in_flight,{result.in_flight}")
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
    known = set(spec.ids())
    for i in ids:
        if i not in known:
            raise InputError(f"--subset references unknown node {i}")
    if all(spec.node(i).kind is not NodeKind.INTERMEDIATE for i in ids):
        raise InputError(f"--subset {raw!r} selects no intermediate node")
    return ids


def _resolve_seed(given: int | None) -> int:
    if given is not None:
        return given
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"${SEED_ENV} must be an integer, got {raw!r}") from None


def _dispatch(args: argparse.Namespace) -> str:
    if getattr(args, "digits", None) is not None and args.digits < 0:
        raise _UsageError("--round must be nonnegative")

    if args.command == "analyze":
        spec = parse_network(_read_text(args.network))
        assumptions = AnalysisAssumptions(blocking_probability_override=args.pb)
        subset = _parse_subset(args.subset, spec)
        analysis = analyze_network(spec, assumptions)
        return _analyze_output(analysis, args.format, args.digits, subset)

    if args.command == "simulate":
        spec = parse_network(_read_text(args.network))
        config = SimConfig(
            seed=_resolve_seed(args.seed),
            horizon=args.horizon,
            unit="time",
            replications=args.reps,
        )
        result = simulate_blocking_network(spec, config)
        return _simulate_output(result, config, args.format, args.digits)

    if args.command == "fixture":
        spec = _FIXTURES[args.name]()
        if args.emit:
            return serialize_network(spec)
        return "%s: %d nodes (%d intermediate, %d sources, %d sinks), external rate %s\n" % (
            args.name, len(spec.nodes), len(spec.intermediates()),
            len(spec.sources()), len(spec.sinks()),
            _fmt(sum(spec.external_arrivals.values()), None))

    if args.command == "validate":
        spec = parse_network(_read_text(args.network))
        return "ok: %d nodes, %d routing entries\n" % (
            len(spec.nodes), len(spec.routing.entries))

    raise _UsageError(f"unknown command {args.command!r}")


def _emit_error(kind: str, message: str):
    sys.stderr.write(json.dumps({"error": kind, "message": message},
                                sort_keys=True) + "\n")


def run(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        _emit_error("UsageError", str(e))
        return 4
    except SystemExit as e:  # --help and friends
        code = e.code
        return int(code) if code else 0

    try:
        out = _dispatch(args)
    except _UsageError as e:
        _emit_error("UsageError", str(e))
        return 4
    except (ValueError, TypeError) as e:
        # bad parameter combinations surface as plain input problems
        _emit_error(type(e).__name__, str(e))
        return 2
    except InputError as e:
        _emit_error(type(e).__name__, str(e))
        return 2
    except NumericsError as e:
        _emit_error(type(e).__name__, str(e))
        return 3

    sys.stdout.write(out)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
