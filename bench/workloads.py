"""Seeded inputs for the benchmark workloads.

Every input is made from the workload seed alone and reaches the program
only as a document: layouts are emitted as layout documents, passed through
``qnswap.layout.parse_layout`` and ``build_lattice_network``, and rendered
with ``qnswap.model.serialize_network``; the reference network comes from
``qnswap.layout.munoz15_fixture``.  A workload's operations are CLI argument
lists plus the network document fed on stdin.

Three workloads:

``lattice-analyze``
    ``analyze --format json`` on a square grid chip with two sources and two
    sinks on the border.  Exercises the layers whose cost grows with the
    network: the traffic solve, the per-node loop and the layout build.
``munoz15-session``
    The bundled 15-node reference network driven like the README: four
    ``analyze`` calls and one ``simulate`` per round.  Per-call overhead
    dominates; the simulator runs at light load.
``heavyhex-sim``
    ``simulate`` on a heavy-hex chip (rows of sites joined by degree-2
    bridge sites) with sources and sinks on crossing rows, so the
    blocked-job cascade does real work.  The seed picks the simulation seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Size:
    """Workload dimensions; ``FULL`` is measured, ``TINY`` is the self-check."""

    grid_side: int
    munoz_horizon: float
    hex_rows: int
    hex_cols: int
    hex_horizon: float


FULL = Size(grid_side=40, munoz_horizon=50_000.0,
            hex_rows=5, hex_cols=21, hex_horizon=4_000.0)
TINY = Size(grid_side=6, munoz_horizon=500.0,
            hex_rows=4, hex_cols=9, hex_horizon=100.0)

HEX_ARRIVAL_RATE = 0.5


@dataclass(frozen=True)
class Op:
    """One CLI call: arguments, the document on stdin, and what to check."""

    label: str
    argv: tuple[str, ...]
    doc: str
    kind: str  # "analyze" or "simulate"
    pb: float | None = None
    subset: tuple[int, ...] | None = None
    pin_munoz15: bool = False


@dataclass
class Inputs:
    """What one set-up produces: the operations of one round."""

    ops: list[Op]
    doc_bytes: int
    facts: dict = field(default_factory=dict)


def _grid_layout(side: int, rng: np.random.Generator) -> tuple[dict, list[str]]:
    """A ``side`` x ``side`` grid; the seed places two sources and two sinks."""
    sites = [f"g{r:02d}_{c:02d}" for r in range(side) for c in range(side)]
    edges = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                edges.append([f"g{r:02d}_{c:02d}", f"g{r:02d}_{c + 1:02d}"])
            if r + 1 < side:
                edges.append([f"g{r:02d}_{c:02d}", f"g{r + 1:02d}_{c:02d}"])
    # Queue sites sit on the border but off the corners, so each keeps a
    # neighbour one row or column in that is never a queue site.
    border = sorted({f"g{r:02d}_{c:02d}"
                     for r in range(side) for c in range(side)
                     if (r in (0, side - 1)) != (c in (0, side - 1))})
    picked = rng.choice(len(border), size=4, replace=False)
    chosen = [border[int(k)] for k in picked]
    sources, sinks = chosen[:2], chosen[2:]
    queues = ([{"site": s, "role": "source", "capacity": 8} for s in sources]
              + [{"site": s, "role": "sink", "capacity": 8} for s in sinks])
    return {"sites": sites, "edges": edges, "queues": queues}, sources


def _heavy_hex_layout(rows: int, cols: int) -> dict:
    """Rows of ``cols`` sites; the gap below row g is bridged every fourth
    column, at columns 0, 4, 8, ... for even g and 2, 6, 10, ... for odd g,
    through one bridge site each, so no site has more than three neighbours.

    Crossing placement: sources at the left ends of the two top rows, sinks
    at the right ends of the two bottom rows, so every job crosses the chip.
    The placement is fixed because the cost of a simulated event depends on
    it: over the 30 ways to put two sources and two sinks on distinct row
    ends, events per second differed by up to about 2x on a 2-core host.
    """
    def row_site(r, c):
        return f"h{r}_{c:02d}"

    sites = [row_site(r, c) for r in range(rows) for c in range(cols)]
    edges = [[row_site(r, c), row_site(r, c + 1)]
             for r in range(rows) for c in range(cols - 1)]
    for g in range(rows - 1):
        for c in range(0 if g % 2 == 0 else 2, cols, 4):
            bridge = f"b{g}_{c:02d}"
            sites.append(bridge)
            edges.append([row_site(g, c), bridge])
            edges.append([bridge, row_site(g + 1, c)])
    queues = ([{"site": row_site(r, 0), "role": "source", "capacity": 8}
               for r in (0, 1)]
              + [{"site": row_site(r, cols - 1), "role": "sink", "capacity": 8}
                 for r in (rows - 2, rows - 1)])
    return {"sites": sites, "edges": edges, "queues": queues}


def _sim_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def make_inputs(qnswap, workload: str, seed: int, size: Size) -> Inputs:
    """Build one round of operations through the library.

    ``qnswap`` is the imported package; the caller times this function
    together with the import as the workload's set-up.
    """
    rng = np.random.default_rng([seed, 0x9E37])
    if workload == "lattice-analyze":
        layout_doc, sources = _grid_layout(size.grid_side, rng)
        rates = {s: float(rng.uniform(0.05, 0.5)) for s in sources}
        layout = qnswap.layout.parse_layout(json.dumps(layout_doc))
        spec = qnswap.layout.build_lattice_network(layout, arrival_rate=rates)
        doc = qnswap.model.serialize_network(spec)
        ops = [Op("json", ("analyze", "--network", "-", "--format", "json"),
                  doc, "analyze")]
        return Inputs(ops, len(doc), {"sites": len(layout_doc["sites"]),
                                      "edges": len(layout_doc["edges"])})
    if workload == "munoz15-session":
        doc = qnswap.model.serialize_network(qnswap.layout.munoz15_fixture())
        sim_seed = _sim_seed(rng)
        net = ("--network", "-")
        ops = [
            Op("table", ("analyze", *net), doc, "analyze"),
            Op("json", ("analyze", *net, "--format", "json"), doc, "analyze"),
            Op("csv-pb", ("analyze", *net, "--format", "csv", "--pb", "0.5"),
               doc, "analyze", pb=0.5, pin_munoz15=True),
            Op("json-subset", ("analyze", *net, "--format", "json",
                               "--subset", "1,2,3"),
               doc, "analyze", subset=(1, 2, 3)),
            Op("simulate", ("simulate", *net, "--seed", str(sim_seed),
                            "--horizon", repr(size.munoz_horizon),
                            "--format", "json"), doc, "simulate"),
        ]
        return Inputs(ops, len(doc), {"sim_seed": sim_seed})
    if workload == "heavyhex-sim":
        layout_doc = _heavy_hex_layout(size.hex_rows, size.hex_cols)
        layout = qnswap.layout.parse_layout(json.dumps(layout_doc))
        spec = qnswap.layout.build_lattice_network(
            layout, arrival_rate=HEX_ARRIVAL_RATE)
        doc = qnswap.model.serialize_network(spec)
        sim_seed = _sim_seed(rng)
        ops = [Op("simulate", ("simulate", "--network", "-", "--seed", str(sim_seed),
                               "--horizon", repr(size.hex_horizon),
                               "--format", "json"), doc, "simulate")]
        return Inputs(ops, len(doc), {"sites": len(layout_doc["sites"]),
                                      "edges": len(layout_doc["edges"]),
                                      "sim_seed": sim_seed})
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("lattice-analyze", "munoz15-session", "heavyhex-sim")
