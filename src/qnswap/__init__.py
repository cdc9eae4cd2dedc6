"""Open blocking queueing networks: analytic pipeline and simulation oracle.

The package predicts the mean time a routed job spends per hop in a network
of capacity-one blocking nodes (plus finite boundary queues) from
independent per-node marginals (product form), and ships a discrete-event
simulator to check the analytic answers against.
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
from .metrics import (
    NetworkMetrics,
    SwapDepthReport,
    network_metrics,
    swap_depth_report,
)
from .model import (
    NetworkSpec,
    NodeKind,
    NodeSpec,
    RoutingMatrix,
    parse_network,
    serialize_network,
)
from .pfqn import (
    AnalysisAssumptions,
    NetworkAnalysis,
    analyze_network,
)
from .sim import (
    NodeStats,
    SimConfig,
    SimResult,
    simulate_blocking_network,
)
from .traffic import ArrivalRates, solve_traffic, total_external_rate

__version__ = "0.1.0"

__all__ = [
    "AnalysisAssumptions",
    "ArrivalRates",
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
    "RoutingMatrix",
    "SchemaError",
    "SimConfig",
    "SimResult",
    "SwapDepthReport",
    "analyze_network",
    "blocking_node_closed_form",
    "build_lattice_network",
    "mm1k_full_probability",
    "munoz15_fixture",
    "network_metrics",
    "parse_layout",
    "parse_network",
    "serialize_network",
    "shortest_hops",
    "simulate_blocking_network",
    "solve_traffic",
    "swap_depth_report",
    "total_external_rate",
]
