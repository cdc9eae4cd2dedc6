"""Open blocking queueing networks: analytic pipeline and simulation oracle.

The package computes each node's mean job count in a network of capacity-one
blocking nodes (plus finite boundary queues) from independent per-node
marginals (product form), and their mean divided by the external arrival rate,
and ships a discrete-event simulator to check the analytic answers against.
"""

from .ctmc import NodeMarginal, blocking_node_closed_form, mm1k_full_probability
from .errors import (
    InputError,
    NumericsError,
    ParseError,
    QnswapError,
    SchemaError,
)
from .layout import (
    LayoutGraph,
    QueueSite,
    build_lattice_network,
    munoz15_fixture,
    parse_layout,
    shortest_hops,
)
from .model import (
    NetworkSpec,
    NodeKind,
    NodeSpec,
    parse_network,
    serialize_network,
)
from .pfqn import (
    AnalysisAssumptions,
    NetworkAnalysis,
    NetworkMetrics,
    analyze_network,
)
from .sim import (
    NodeStats,
    SimConfig,
    SimResult,
    simulate_blocking_network,
)
from .traffic import solve_traffic, total_external_rate

__version__ = "0.1.0"

__all__ = [
    "AnalysisAssumptions",
    "InputError",
    "LayoutGraph",
    "NetworkAnalysis",
    "NetworkMetrics",
    "NetworkSpec",
    "NodeKind",
    "NodeMarginal",
    "NodeSpec",
    "NodeStats",
    "NumericsError",
    "ParseError",
    "QnswapError",
    "QueueSite",
    "SchemaError",
    "SimConfig",
    "SimResult",
    "analyze_network",
    "blocking_node_closed_form",
    "build_lattice_network",
    "mm1k_full_probability",
    "munoz15_fixture",
    "parse_layout",
    "parse_network",
    "serialize_network",
    "shortest_hops",
    "simulate_blocking_network",
    "solve_traffic",
    "total_external_rate",
]
