"""In-memory spans around the public functions of each qnswap module.

The benchmark never edits the package.  It replaces a function at the name
its caller looks it up through (``qnswap.pfqn.solve_traffic`` is what
``analyze_network`` calls, ``qnswap.cli.analyze_network`` is what the CLI
calls) with a wrapper that records a span, and puts the original back when
tracing stops.  A name that a later version of the package no longer has is
skipped, so its layer reports zero calls instead of failing.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span or -1, ``op`` the operation id the harness set before the
call.  A span's self time is its duration minus the durations of its direct
children; calls are sequential, so the children never overlap.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (module, attribute looked up by the caller, span name)
TARGETS = (
    ("qnswap.cli", "run", "cli.run"),
    ("qnswap.layout", "parse_layout", "layout.parse"),
    ("qnswap.layout", "build_lattice_network", "layout.build"),
    ("qnswap.cli", "parse_network", "model.parse"),
    ("qnswap.model", "validate_network", "model.validate"),
    ("qnswap.layout", "validate_network", "model.validate"),
    ("qnswap.pfqn", "validate_network", "model.validate"),
    ("qnswap.traffic", "validate_network", "model.validate"),
    ("qnswap.sim", "validate_network", "model.validate"),
    ("qnswap.model", "serialize_network", "model.serialize"),
    ("qnswap.cli", "serialize_network", "model.serialize"),
    ("qnswap.pfqn", "solve_traffic", "traffic.solve"),
    ("qnswap.cli", "analyze_network", "pfqn.analyze"),
    ("qnswap.pfqn", "worst_case_blocking_probability", "pfqn.blocking"),
    ("qnswap.pfqn", "blocking_node_closed_form", "ctmc.closed_form"),
    ("qnswap.pfqn", "mm1k_full_probability", "ctmc.mm1k_full"),
    ("qnswap.pfqn", "node_metrics", "metrics.node"),
    ("qnswap.pfqn", "network_metrics", "metrics.network"),
    ("qnswap.cli", "network_metrics", "metrics.network"),
    ("qnswap.cli", "simulate_blocking_network", "sim.run"),
)


class Tracer:
    """Records spans while installed; ``op`` labels the calls that follow."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list = []
        self.sim_results: list = []  # (op, result) per simulate call
        self.traffic_sizes: list = []  # (op, unknowns) per traffic solve

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if name == "sim.run":
                self.sim_results.append((self.op, result))
            elif name == "traffic.solve":
                self.traffic_sizes.append((self.op, len(args[0].nodes)))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target that exists; calling it twice is an error."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span in TARGETS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like ``spans``."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
