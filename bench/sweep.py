"""Run one workload over several seeds and summarise each metric.

    python3 bench/sweep.py --workload lattice-analyze --seeds 1-10 --seconds 50

Runs ``bench/run.py`` once per seed, one run at a time, and prints for every
metric its median, first and third quartile (``statistics.quantiles(n=4)``)
and the spread (third minus first quartile, as a share of the median).  With
``--json`` the per-seed values are written out too, so two sweeps of the same
code, or of two commits, can be compared side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the per-seed values here")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = 0
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        failed += result["failed"]
        for line in lines:
            if line.startswith("# run "):
                for k, (value, unit, _) in json.loads(line[6:])["figures"].items():
                    values.setdefault("# " + k, []).append(value)
                    units["# " + k] = unit
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
            units[k] = m["unit"]

    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {units[k]}")
    if args.json is not None:
        args.json.write_text(json.dumps({"workload": args.workload, "units": units,
                                         "values": values}, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
