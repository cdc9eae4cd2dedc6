"""qnswap benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload lattice-analyze --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --self-check

Run from the root of a source checkout; the package is imported from
``src/``.  All load comes from this one process as a closed loop: one caller
issues CLI operations back to back through ``qnswap.cli.run(argv)``, with
the network document on a redirected stdin and stdout captured.  BLAS is
pinned to one thread, and the harness starts no threads or processes.

A run has four phases:

1. Set-up: import qnswap and build the workload's documents through the
   library.
2. Warm-up: every operation of a round once, untimed.  Its simulate outputs
   are the bytes every later repeat must reproduce.
3. Timed rounds until ``--seconds`` have passed.  After each round come a
   calibration pass (``calibrate.py``), one more set-up from a fresh import,
   and another calibration pass.  With ``--trace 1`` rounds alternate
   between untraced and traced, and the per-layer numbers come from the
   traced ones.
4. Checks of every output against references computed from the document
   (see ``checks.py``); a non-zero exit code or a failed check counts the
   operation as failed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the machine and the
run in readable form.  Traced runs also write their spans to
``.bench_trace/<workload>-seed<n>.json`` under the checkout.
"""

from __future__ import annotations

import os

# Before numpy loads: the benchmark measures one caller on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import calibrate  # noqa: E402
import checks  # noqa: E402
import machine  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# The operation kind whose latency is the workload's headline number.
PRIMARY = {"lattice-analyze": "analyze", "munoz15-session": "analyze",
           "heavyhex-sim": "simulate"}
# Whether the calibration pass adds dense matrix updates (calibrate.py): the
# 40x40 analyze spends its time in dense elimination.
DENSE_CALIBRATION = {"lattice-analyze": True, "munoz15-session": False,
                     "heavyhex-sim": False}


def _is_qnswap(name: str) -> bool:
    return name == "qnswap" or name.startswith("qnswap.")


def set_up(workload: str, seed: int, size, tracer: Tracer | None = None,
           label: str = "setup"):
    """Import qnswap afresh and build the workload's inputs through it.

    Returns (inputs, seconds).  qnswap modules loaded before the call are put
    back afterwards, so a set-up between rounds leaves the modules the
    rounds call into untouched.
    """
    saved = {m: sys.modules.pop(m) for m in [m for m in sys.modules if _is_qnswap(m)]}
    start = perf_counter()
    pkg = importlib.import_module("qnswap")
    for sub in ("cli", "layout", "model"):
        importlib.import_module(f"qnswap.{sub}")
    if tracer is not None:
        tracer.install()
        tracer.op = label
    try:
        inputs = workloads.make_inputs(pkg, workload, seed, size)
    finally:
        if tracer is not None:
            tracer.uninstall()
    seconds = perf_counter() - start
    if saved:
        for m in [m for m in sys.modules if _is_qnswap(m)]:
            del sys.modules[m]
        sys.modules.update(saved)
    return inputs, seconds


def call(op) -> tuple[int, str, str, float]:
    """One CLI call through ``qnswap.cli.run``; returns (code, out, err, s)."""
    cli = sys.modules["qnswap.cli"]
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.doc)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.run(list(op.argv))
            except Exception:  # a crash is a failed operation, not a dead run
                code = -1
                err.write(traceback.format_exc())
            elapsed = perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue(), elapsed


@dataclass
class Call:
    phase: str
    op: workloads.Op
    code: int
    out: str
    err: str
    seconds: float
    round: int


@dataclass
class Round:
    phase: str
    seconds: float
    cal: float = 0.0  # calibration pass around this round, in seconds


class Run:
    """Everything one run records, and the checks applied at its end."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.calls: list[Call] = []
        self.rounds: list[Round] = []
        self.golden: dict[str, str] = {}
        # One copy of each distinct output, so the harness's memory, which
        # peak RSS includes, does not grow with the number of calls.
        self._distinct: dict[str, str] = {}

    def round(self, phase: str, tracer: Tracer | None = None) -> Round:
        start = perf_counter()
        for op in self.inputs.ops:
            if tracer is not None:
                tracer.op = f"{phase}:{len(self.calls)}"
            code, out, err, seconds = call(op)
            out = self._distinct.setdefault(out, out)
            self.calls.append(Call(phase, op, code, out, err, seconds, len(self.rounds)))
            if phase == "warmup" and op.kind == "simulate":
                self.golden[op.label] = out
        self.rounds.append(Round(phase, perf_counter() - start))
        return self.rounds[-1]

    def check(self) -> tuple[int, list[str]]:
        """Returns (failed count, problem descriptions)."""
        refs: dict[str, checks.Reference] = {}
        verdicts: dict[tuple, list[str]] = {}
        failed, problems = 0, []
        for c in self.calls:
            op, out = c.op, c.out
            if c.code != 0:
                bad = [f"exit code {c.code}: {c.err.strip()[-300:]}"]
            else:
                key = (op.label, out)
                if key not in verdicts:
                    if op.doc not in refs:
                        refs[op.doc] = checks.reference(op.doc)
                    ref = refs[op.doc]
                    try:
                        if op.kind == "analyze":
                            verdicts[key] = checks.check_analyze(
                                ref, out, _format(op.argv), op.pb, op.subset,
                                op.pin_munoz15)
                        else:
                            verdicts[key] = checks.check_simulate(ref, out)
                    except (ValueError, KeyError, IndexError, TypeError) as e:
                        verdicts[key] = [f"unreadable output: {e!r}"]
                bad = list(verdicts[key])
                if op.kind == "simulate" and out != self.golden.get(op.label):
                    bad.append("simulate output differs from its warm-up bytes")
            if bad:
                failed += 1
                problems.append(f"{c.phase} {op.label}: " + "; ".join(bad[:3]))
        return failed, problems

    def sim_events(self, phase: str) -> int:
        return sum(json.loads(c.out)["result"]["events"] for c in self.calls
                   if c.phase == phase and c.op.kind == "simulate" and c.code == 0)


def _format(argv) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "table"


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: str, run: Run, setups: list[Round]) -> tuple[dict, dict]:
    """Gated metrics, plus the figures in host seconds printed for reading.

    Gated times are host-normalised (see ``calibrate.py``): each call, round
    and set-up is divided by the calibration pass measured around it and
    multiplied by the pass time on the reference host, so a slower host
    does not read as a slower program.
    """
    ref = calibrate.REFERENCE_PASS_S[DENSE_CALIBRATION[workload]]
    timed = [c for c in run.calls if c.phase == "timed"]
    primary = [c for c in timed if c.op.kind == PRIMARY[workload]]
    rounds = [r for r in run.rounds if r.phase == "timed"]
    metrics = {
        "setup_s": (statistics.median(s.seconds / s.cal for s in setups) * ref, "s"),
        "op_ms_p50": (statistics.median(c.seconds / run.rounds[c.round].cal
                                        for c in primary) * ref * 1e3, "ms"),
        "round_ms_p50": (statistics.median(r.seconds / r.cal for r in rounds) * ref * 1e3,
                         "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    readable = {
        "host_setup_s_p50": [statistics.median(s.seconds for s in setups), "s", len(setups)],
        "host_op_ms_p50": [statistics.median(c.seconds for c in primary) * 1e3, "ms",
                           len(primary)],
        "host_round_ms_p50": [statistics.median(r.seconds for r in rounds) * 1e3, "ms",
                              len(rounds)],
        "calibration_ms_p50": [statistics.median(r.cal for r in rounds) * 1e3, "ms",
                               len(rounds)],
    }
    analyses = [c.seconds for c in timed if c.op.kind == "analyze"]
    if analyses:
        readable["analyze_s_p50"] = [statistics.median(analyses), "s", len(analyses)]
        readable["analyze_ms_p50"] = [statistics.median(analyses) * 1e3, "ms", len(analyses)]
        if len(analyses) >= 100:
            readable["analyze_ms_p90"] = [statistics.quantiles(analyses, n=10)[8] * 1e3,
                                          "ms", len(analyses)]
    sims = [c.seconds for c in timed if c.op.kind == "simulate"]
    if sims:
        readable["sim_events_per_s"] = [run.sim_events("timed") / sum(sims), "1/s", len(sims)]
    return metrics, readable


LAYER_UNITS = {
    "layout.parse_s": "s", "layout.build_s": "s",
    "layout.sites": "count", "layout.edges": "count",
    "model.parse_s": "s", "model.validate_s": "s", "model.serialize_s": "s",
    "model.doc_bytes": "bytes",
    "traffic.solve_s": "s", "traffic.calls": "count", "traffic.unknowns": "count",
    "traffic.flops_computed": "flop", "traffic.matrix_bytes_computed": "bytes",
    "pfqn.analyze_s": "s", "pfqn.self_s": "s", "pfqn.blocking_calls": "count",
    "ctmc.closed_form_s": "s", "ctmc.closed_form_calls": "count",
    "ctmc.mm1k_full_s": "s", "ctmc.mm1k_full_calls": "count",
    "metrics.node_s": "s", "metrics.node_calls": "count",
    "metrics.network_s": "s", "metrics.network_calls": "count",
    "cli.run_s": "s", "cli.self_s": "s", "cli.out_bytes": "bytes",
    "sim.run_s": "s", "sim.events": "count", "sim.host_us_per_event": "us",
    "sim.arrivals": "count", "sim.completed": "count", "sim.dropped": "count",
    "sim.completed_per_arrival": "ratio", "sim.blocked_frac_mean": "ratio",
    "trace.overhead_frac": "ratio",
}


def per_layer(run: Run, tracer: Tracer, n_setups: int) -> dict:
    """Per-layer figures from the traced rounds: seconds and call counts per
    timed CLI call, set-up layers per set-up, simulator counts per simulate
    call."""
    traced_ops = {f"traced:{k}" for k, c in enumerate(run.calls) if c.phase == "traced"}
    n_calls = max(1, len(traced_ops))
    own = tracer.self_times()
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    count: dict[str, int] = {}
    for (name, start, end, _, op), mine in zip(tracer.spans, own):
        phase = "setup" if op.startswith("setup:") else ("op" if op in traced_ops else None)
        if phase is None:
            continue
        key = (phase, name)
        total[key] = total.get(key, 0.0) + (end - start)
        self_total[key] = self_total.get(key, 0.0) + mine
        count[key] = count.get(key, 0) + 1

    def per_op(name, table=total):
        return table.get(("op", name), 0.0) / n_calls

    def per_setup(name):
        return total.get(("setup", name), 0.0) / n_setups

    solves = [n for op, n in tracer.traffic_sizes if op in traced_ops]
    unknowns = max(solves, default=0)
    sims = [res for op, res in tracer.sim_results if op in traced_ops]
    sim_s = [e - s for name, s, e, _, op in tracer.spans
             if name == "sim.run" and op in traced_ops]
    n_sims = max(1, len(sims))
    events = sum(r.events for r in sims)
    arrivals = sum(r.arrivals for r in sims)
    completed = sum(r.completed for r in sims)
    blocked = [statistics.fmean(n.blocked_fraction for n in r.nodes) for r in sims]
    out_bytes = [len(c.out.encode()) for c in run.calls if c.phase == "traced"]
    facts = run.inputs.facts
    return {
        "layout.parse_s": per_setup("layout.parse"),
        "layout.build_s": per_setup("layout.build"),
        "layout.sites": facts.get("sites", 0),
        "layout.edges": facts.get("edges", 0),
        "model.parse_s": per_op("model.parse"),
        "model.validate_s": per_op("model.validate"),
        "model.serialize_s": per_setup("model.serialize"),
        "model.doc_bytes": run.inputs.doc_bytes,
        "traffic.solve_s": per_op("traffic.solve"),
        "traffic.calls": count.get(("op", "traffic.solve"), 0) / n_calls,
        "traffic.unknowns": unknowns,
        "traffic.flops_computed": sum(2.0 / 3.0 * n ** 3 for n in solves) / n_calls,
        "traffic.matrix_bytes_computed": 8.0 * unknowns ** 2,
        "pfqn.analyze_s": per_op("pfqn.analyze"),
        "pfqn.self_s": per_op("pfqn.analyze", self_total),
        "pfqn.blocking_calls": count.get(("op", "pfqn.blocking"), 0) / n_calls,
        "ctmc.closed_form_s": per_op("ctmc.closed_form"),
        "ctmc.closed_form_calls": count.get(("op", "ctmc.closed_form"), 0) / n_calls,
        "ctmc.mm1k_full_s": per_op("ctmc.mm1k_full"),
        "ctmc.mm1k_full_calls": count.get(("op", "ctmc.mm1k_full"), 0) / n_calls,
        "metrics.node_s": per_op("metrics.node"),
        "metrics.node_calls": count.get(("op", "metrics.node"), 0) / n_calls,
        "metrics.network_s": per_op("metrics.network"),
        "metrics.network_calls": count.get(("op", "metrics.network"), 0) / n_calls,
        "cli.run_s": per_op("cli.run"),
        "cli.self_s": per_op("cli.run", self_total),
        "cli.out_bytes": statistics.fmean(out_bytes) if out_bytes else 0.0,
        "sim.run_s": sum(sim_s) / n_sims,
        "sim.events": events / n_sims,
        "sim.host_us_per_event": sum(sim_s) / events * 1e6 if events else 0.0,
        "sim.arrivals": arrivals / n_sims,
        "sim.completed": completed / n_sims,
        "sim.dropped": sum(r.dropped for r in sims) / n_sims,
        "sim.completed_per_arrival": completed / arrivals if arrivals else 0.0,
        "sim.blocked_frac_mean": statistics.fmean(blocked) if blocked else 0.0,
        "trace.overhead_frac":
            _scaled_round(run, "traced") / _scaled_round(run, "untraced") - 1.0,
    }


def _scaled_round(run: Run, phase: str) -> float:
    """Median round time of a phase, in calibration passes."""
    return statistics.median(r.seconds / r.cal for r in run.rounds if r.phase == phase)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size=workloads.FULL, trace_dir: Path | None = None) -> dict:
    tracer = Tracer() if trace else None
    inputs, _ = set_up(workload, seed, size, tracer, "setup:0")
    run = Run(inputs)
    run.round("warmup")

    # Every round and every set-up is bracketed by calibration passes, and
    # each timed round is followed by one more set-up, so set-up times are
    # sampled across the whole run like the calls are.
    phases = ("untraced", "traced") if trace else ("timed",)
    dense = DENSE_CALIBRATION[workload]
    setups: list[Round] = []
    start = perf_counter()
    cal = calibrate.measure(dense)
    while True:
        for phase in phases:
            if phase == "traced":
                tracer.install()
            timed = run.round(phase, tracer if phase == "traced" else None)
            if phase == "traced":
                tracer.uninstall()
            after = calibrate.measure(dense)
            timed.cal, cal = (cal + after) / 2, after
        _, setup_s = set_up(workload, seed, size, tracer, f"setup:{len(setups) + 1}")
        after = calibrate.measure(dense)
        setups.append(Round("setup", setup_s, (cal + after) / 2))
        cal = after
        if perf_counter() - start >= seconds:
            break

    if trace:
        metrics = per_layer(run, tracer, 1 + len(setups))
        readable = {}
        if trace_dir is not None:
            trace_dir.mkdir(exist_ok=True)
            tracer.dump(trace_dir / f"{workload}-seed{seed}.json")
        metrics = {k: (v, LAYER_UNITS[k]) for k, v in metrics.items()}
    else:
        metrics, readable = end_to_end(workload, run, setups)

    failed, problems = run.check()
    attempted = len(run.calls)
    readable["failed_frac"] = [failed / attempted, "ratio", attempted]
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        },
        "readable": readable,
        "problems": problems,
        "facts": inputs.facts,
    }


def self_check() -> int:
    """Every workload at tiny size, untraced and traced, all checks on;
    the metric names must match BENCHMARK.json, and its workloads must be
    the harness's."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    ok = set(names) <= set(workloads.WORKLOADS)
    if not ok:
        print(f"workloads in BENCHMARK.json {names} not all in {list(workloads.WORKLOADS)}")
    for workload in workloads.WORKLOADS:
        for trace, want in ((False, want_e2e), (True, want_layer)):
            out = run_workload(workload, 1, 0.0, trace, size=workloads.TINY)
            res = out["result"]
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            good = res["correct"] and got == want
            ok &= good
            print(f"{'ok ' if good else 'BAD'} {workload} trace={int(trace)} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for p in out["problems"][:5]:
                print("    " + p)
            if got != want:
                print(f"    metrics {sorted(set(got.items()) ^ set(want.items()))} "
                      "differ from BENCHMARK.json")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at tiny size and exit")
    args = parser.parse_args(argv)

    if not (SRC / "qnswap" / "__init__.py").is_file():
        print(f"qnswap sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       trace_dir=ROOT / ".bench_trace")
    print("# machine " + json.dumps(machine.facts(), sort_keys=True))
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "inputs": out["facts"],
                                 "figures": out["readable"]}, sort_keys=True))
    for p in out["problems"][:20]:
        print("# failed " + p)
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
