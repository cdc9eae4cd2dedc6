"""Open blocking queueing networks: analytic pipeline and simulation oracle.

The package predicts the mean time a routed job spends per hop in a network
of capacity-one blocking nodes (plus finite boundary queues), composes the
per-node marginals into a product-form joint distribution, and ships a
discrete-event simulator to check the analytic answers against.
"""

from .ctmc import (
    BLOCKED,
    BLOCKING_STATES,
    EMPTY,
    SERVING,
    Generator,
    MarginalDistribution,
    StateSpace,
    blocking_node_chain,
    blocking_node_closed_form,
    build_generator,
    mm1k_distribution,
    mm1k_full_probability,
    steady_state,
)
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
    NodeMetrics,
    SwapDepthReport,
    network_metrics,
    node_metrics,
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
    joint_probability,
    worst_case_blocking_probability,
)
from .sim import (
    NodeStats,
    SimConfig,
    SimResult,
    simulate_blocking_network,
    simulate_ctmc,
)
from .traffic import ArrivalRates, solve_traffic, total_external_rate

__version__ = "0.1.0"

__all__ = [
    "AnalysisAssumptions",
    "ArrivalRates",
    "BLOCKED",
    "BLOCKING_STATES",
    "EMPTY",
    "Generator",
    "InputError",
    "LayoutGraph",
    "MarginalDistribution",
    "NetworkAnalysis",
    "NetworkMetrics",
    "NetworkSpec",
    "NodeKind",
    "NodeMetrics",
    "NodeSpec",
    "NodeStats",
    "NumericsError",
    "ParseError",
    "QnswapError",
    "QueueSite",
    "RoutingMatrix",
    "SERVING",
    "SchemaError",
    "SimConfig",
    "SimResult",
    "StateSpace",
    "SwapDepthReport",
    "analyze_network",
    "blocking_node_chain",
    "blocking_node_closed_form",
    "build_generator",
    "build_lattice_network",
    "joint_probability",
    "mm1k_distribution",
    "mm1k_full_probability",
    "munoz15_fixture",
    "network_metrics",
    "node_metrics",
    "parse_layout",
    "parse_network",
    "serialize_network",
    "shortest_hops",
    "simulate_blocking_network",
    "simulate_ctmc",
    "solve_traffic",
    "steady_state",
    "swap_depth_report",
    "total_external_rate",
    "worst_case_blocking_probability",
]
