"""Output checks, computed from the network document without qnswap.

Each check returns a list of problems; an empty list means the output is
right.  The reference values come from the benchmark's own reading of the
document: arrival rates from ``np.linalg.solve`` on the flow balance
``lambda = lambda0 + P^T lambda`` (rows of nodes in ``known_arrival_rates``
pinned to their given value), and each node's three-state occupancy from
its closed form with the worst-case blocking probability (every routing
target full with probability 1/(capacity + 1)) or the ``--pb`` override.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# JSON output carries every digit; table and CSV output round to six
# significant digits.
JSON_TOL = 1e-9
TEXT_TOL = 2e-5
# Flow-balance residual of the reported rates, relative to max |lambda0|.
TRAFFIC_TOL = 1e-8

# Network means of the reference network at Pb = 0.5 (tests/_expected.py).
MUNOZ15_PB05_MEAN_JOBS = 0.831
MUNOZ15_PB05_RESPONSE = 3.324
MUNOZ15_PB05_TOL = 1e-3


@dataclass
class Reference:
    """What the checks need to know about one network document."""

    ids: list[int]
    pos: dict[int, int]  # node id -> index into ids
    intermediates: list[int]
    lam0: np.ndarray
    p: np.ndarray
    free: np.ndarray  # rows not pinned by known_arrival_rates
    rates: np.ndarray  # reference solution, indexed like ids
    mu: dict
    mu_b: dict
    capacity: dict
    external_rate: float

    def index(self, node: int) -> int:
        return self.pos[node]


def reference(doc: str) -> Reference:
    d = json.loads(doc)
    ids = sorted(n["id"] for n in d["nodes"])
    pos = {i: k for k, i in enumerate(ids)}
    n = len(ids)
    p = np.zeros((n, n))
    for e in d["routing"]:
        p[pos[e["from"]], pos[e["to"]]] = float(e["p"])
    lam0 = np.zeros(n)
    for e in d["external_arrivals"]:
        lam0[pos[e["node"]]] = float(e["lambda0"])
    a = np.eye(n) - p.T
    b = lam0.copy()
    free = np.ones(n, dtype=bool)
    for e in d.get("known_arrival_rates", []):
        k = pos[e["node"]]
        a[k, :] = 0.0
        a[k, k] = 1.0
        b[k] = float(e["lambda"])
        free[k] = False
    nodes = {nd["id"]: nd for nd in d["nodes"]}
    return Reference(
        ids=ids,
        pos=pos,
        intermediates=[i for i in ids if nodes[i]["kind"] == "intermediate"],
        lam0=lam0, p=p, free=free, rates=np.linalg.solve(a, b),
        mu={i: float(nd["mu"]) for i, nd in nodes.items()},
        mu_b={i: float(nd.get("mu_b", 0.0)) for i, nd in nodes.items()},
        capacity={i: nd["capacity"] for i, nd in nodes.items()},
        external_rate=float(lam0.sum()),
    )


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _expected_occupancy(ref: Reference, node: int, lam: float,
                        pb: float | None) -> tuple[float, float, float]:
    k = ref.index(node)
    if pb is None:
        pb = sum(ref.p[k, j] / (ref.capacity[ref.ids[j]] + 1)
                 for j in np.flatnonzero(ref.p[k] > 0))
    serving = lam / ref.mu[node]
    blocked = lam * pb / ref.mu_b[node]
    denom = 1.0 + serving + blocked
    return 1.0 / denom, serving / denom, blocked / denom


def _check_rows(ref: Reference, rows: list[dict], pb: float | None,
                tol: float) -> list[str]:
    """Node rows: node, pi00, pi10, pi01, kbar, tbar, and optionally
    arrival_rate (JSON) -- otherwise the reference rate stands in."""
    bad = []
    for r in rows:
        i = r["node"]
        lam = r.get("arrival_rate", ref.rates[ref.index(i)])
        pi = (r["pi00"], r["pi10"], r["pi01"])
        if not _close(sum(pi), 1.0, tol):
            bad.append(f"node {i}: pi00+pi10+pi01 = {sum(pi)!r}")
        if not _close(r["kbar"], pi[1] + pi[2], tol):
            bad.append(f"node {i}: kbar {r['kbar']!r} != pi10+pi01")
        if not _close(r["tbar"] * lam, r["kbar"], tol):
            bad.append(f"node {i}: tbar*lambda {r['tbar'] * lam!r} != kbar")
        want = _expected_occupancy(ref, i, lam, pb)
        if not all(_close(g, w, tol) for g, w in zip(pi, want)):
            bad.append(f"node {i}: occupancy {pi} != closed form {want}")
    return bad


def _check_rates(ref: Reference, reported: dict[int, float]) -> list[str]:
    """Reported rates (boundary nodes taken from the reference) must satisfy
    the flow balance on every row that is not pinned."""
    lam = ref.rates.copy()
    for i, r in reported.items():
        lam[ref.index(i)] = r
    residual = lam - (ref.lam0 + ref.p.T @ lam)
    scale = float(np.max(np.abs(ref.lam0)))
    worst = float(np.max(np.abs(residual[ref.free]), initial=0.0))
    if worst > TRAFFIC_TOL * scale:
        return [f"flow-balance residual {worst:.3e} exceeds "
                f"{TRAFFIC_TOL:.0e} * |lambda0| = {TRAFFIC_TOL * scale:.3e}"]
    return []


def _check_network(ref: Reference, nodes: list[int], mean_jobs: float,
                   response: float, kbar: dict[int, float],
                   tol: float) -> list[str]:
    bad = []
    want = sum(kbar[i] for i in nodes) / len(nodes)
    if not _close(mean_jobs, want, tol):
        bad.append(f"network mean jobs {mean_jobs!r} != mean kbar {want!r}")
    if not _close(response, mean_jobs / ref.external_rate, tol):
        bad.append(f"network response {response!r} != mean jobs / external rate")
    return bad


def _parse_text_rows(lines: list[str], sep: str | None) -> list[dict]:
    cols = ("node", "pi00", "pi10", "pi01", "rho", "kbar", "tbar")
    rows = []
    for line in lines:
        cells = line.split(sep)
        rows.append({c: (int(v) if c == "node" else float(v))
                     for c, v in zip(cols, cells)})
    return rows


def check_analyze(ref: Reference, out: str, fmt: str, pb: float | None,
                  subset: tuple[int, ...] | None, pin_munoz15: bool) -> list[str]:
    wanted = list(subset) if subset is not None else ref.intermediates
    if fmt == "json":
        d = json.loads(out)
        rows = d["nodes"]
        net = d["network"]
        nodes, mean_jobs, response = net["nodes"], net["mean_jobs"], net["mean_response_time"]
        tol = JSON_TOL
        bad = _check_rates(ref, {r["node"]: r["arrival_rate"] for r in rows})
        if pb is not None:
            bad += [f"node {r['node']}: blocking probability {r['blocking_probability']!r}"
                    for r in rows if r["blocking_probability"] != pb]
    else:
        lines = out.rstrip("\n").split("\n")
        if fmt == "csv":
            body, last = lines[1:-1], lines[-1].split(",")
            rows = _parse_text_rows(body, ",")
            mean_jobs, response = float(last[5]), float(last[6])
        else:
            body, last = lines[1:-2], lines[-1].split()
            rows = _parse_text_rows(body, None)
            mean_jobs, response = float(last[3]), float(last[6])
        nodes = [r["node"] for r in rows]
        tol = TEXT_TOL
        bad = []
    if [r["node"] for r in rows] != wanted or list(nodes) != wanted:
        return bad + [f"node set {[r['node'] for r in rows]} != {wanted}"]
    bad += _check_rows(ref, rows, pb, tol)
    bad += _check_network(ref, wanted, mean_jobs, response,
                          {r["node"]: r["kbar"] for r in rows}, tol)
    if pin_munoz15:
        if abs(mean_jobs - MUNOZ15_PB05_MEAN_JOBS) > MUNOZ15_PB05_TOL:
            bad.append(f"munoz15 mean jobs {mean_jobs!r} != {MUNOZ15_PB05_MEAN_JOBS}")
        if abs(response - MUNOZ15_PB05_RESPONSE) > MUNOZ15_PB05_TOL:
            bad.append(f"munoz15 response {response!r} != {MUNOZ15_PB05_RESPONSE}")
    return bad


def check_simulate(ref: Reference, out: str) -> list[str]:
    """Checks one ``simulate --format json`` output."""
    result = json.loads(out)["result"]
    bad = []
    flow = result["completed"] + result["dropped"] + result["in_flight"]
    if result["arrivals"] != flow:
        bad.append(f"arrivals {result['arrivals']} != completed + dropped + "
                   f"in_flight = {flow}")
    if [n["node"] for n in result["nodes"]] != ref.ids:
        bad.append("simulated node set differs from the document")
    for n in result["nodes"]:
        total = sum(n["occupancy"])
        if not _close(total, 1.0, JSON_TOL):
            bad.append(f"node {n['node']}: occupancy sums to {total!r}")
    if result["events"] < 1:
        bad.append("no events simulated")
    return bad
