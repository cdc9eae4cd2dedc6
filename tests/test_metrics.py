"""Per-node columns of the analysis and network performance measures."""

import numpy as np
import pytest

from qnswap import (
    AnalysisAssumptions,
    InputError,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    RoutingMatrix,
    analyze_network,
    network_metrics,
    swap_depth_report,
)


def pinned_nodes_spec(lam, mu, mu_b, exit_to_sink):
    """Independent intermediates 1..n with pinned arrival rates.

    Node i sends ``1 - exit_to_sink[i]`` of its jobs out of the network and
    the rest to a capacity-one sink, so under the worst-case assumption its
    blocking probability is ``exit_to_sink[i] / 2``.
    """
    n = len(lam)
    sink = n + 1
    nodes = tuple(
        NodeSpec(id=i + 1, kind=NodeKind.INTERMEDIATE, capacity=1,
                 service_rate=float(mu[i]), unblock_rate=float(mu_b[i]))
        for i in range(n)) + (
        NodeSpec(id=sink, kind=NodeKind.SINK, capacity=1, service_rate=1.0),)
    return NetworkSpec(
        nodes=nodes,
        routing=RoutingMatrix({(i + 1, sink): float(exit_to_sink[i]) for i in range(n)}),
        external_arrivals={1: 1.0},
        known_arrival_rates={i + 1: float(lam[i]) for i in range(n)},
    )


def random_nodes_analysis(seed, n=200):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.05, 3.0, n)
    spec = pinned_nodes_spec(lam, rng.uniform(0.1, 3.0, n), rng.uniform(0.05, 1.0, n),
                             rng.uniform(0.0, 1.0, n))
    return lam, analyze_network(spec)


def test_node_metrics_hand_values():
    # lambda/mu = 1/2 and lambda*Pb/mu_b = 2, so pi = (2, 1, 4) / 7
    spec = pinned_nodes_spec([2.0], [4.0], [0.5], [1.0])
    a = analyze_network(spec, AnalysisAssumptions(blocking_probability_override=0.5))
    assert a.rho[0] == pytest.approx(5 / 7, abs=1e-15)
    assert a.kbar[0] == pytest.approx(5 / 7, abs=1e-15)
    assert a.tbar[0] == pytest.approx(5 / 14, abs=1e-15)


def test_littles_law_holds_per_node():
    lam, a = random_nodes_analysis(31)
    assert np.all(np.abs(a.tbar * lam - a.kbar) <= 1e-12)


def test_utilization_equals_mean_jobs_for_single_slot_nodes():
    _, a = random_nodes_analysis(32)
    assert np.all(np.abs(a.rho - a.kbar) <= 1e-12)
    assert np.all((0.0 <= a.rho) & (a.rho <= 1.0))


def test_zero_arrival_rate_rejected():
    # the first node with a zero rate is named, not the first node
    spec = pinned_nodes_spec([0.5, 0.0, 0.0], [1.0] * 3, [0.2] * 3, [0.5] * 3)
    with pytest.raises(InputError, match="node 2 has zero arrival rate"):
        analyze_network(spec)


NODES = [1, 2]
KBAR = [0.8, 0.4]


class TestNetworkMetrics:
    def test_mean_and_total(self):
        net = network_metrics(NODES, KBAR, external_rate=0.5)
        assert net.mean_jobs == pytest.approx(0.6, abs=1e-14)
        assert net.total_jobs == pytest.approx(1.2, abs=1e-14)
        assert net.mean_response_time == pytest.approx(1.2, abs=1e-14)
        assert net.nodes == (1, 2)

    def test_littles_law_at_network_level(self):
        net = network_metrics(NODES, KBAR, external_rate=0.5)
        assert abs(net.mean_response_time * net.external_rate - net.mean_jobs) <= 1e-12

    def test_permutation_invariance(self):
        fwd = network_metrics(NODES, KBAR, external_rate=0.5)
        rev = network_metrics(NODES[::-1], KBAR[::-1], external_rate=0.5)
        assert fwd == rev

    def test_subset_selection(self):
        net = network_metrics(NODES, KBAR, external_rate=0.5, subset=[2])
        assert net.mean_jobs == pytest.approx(0.4, abs=1e-14)
        assert net.nodes == (2,)

    def test_subset_ignores_unknown_ids(self):
        net = network_metrics(NODES, KBAR, external_rate=0.5, subset=[1, 99])
        assert net.nodes == (1,)

    def test_empty_subset_rejected(self):
        with pytest.raises(InputError, match="metric subset contains no nodes"):
            network_metrics(NODES, KBAR, external_rate=0.5, subset=[])

    def test_zero_external_rate_rejected(self):
        with pytest.raises(InputError, match="subset has zero arrival rate"):
            network_metrics(NODES, KBAR, external_rate=0.0)

    def test_sum_runs_left_to_right(self):
        # each +1 rounds away one at a time; np.sum's pairwise order keeps them
        kbar = [1e16] + [1.0] * 16
        net = network_metrics(range(1, 18), kbar, external_rate=1.0)
        assert net.total_jobs == 1e16
        assert np.sum(kbar) != 1e16


class TestSwapDepthReport:
    def net(self):
        return network_metrics(NODES, KBAR, external_rate=0.5)

    def test_gap_arithmetic(self):
        rep = swap_depth_report(self.net(), observed_depth=5.0, hop_bounds=(3, 5))
        assert rep.predicted_response_time == pytest.approx(1.2, abs=1e-14)
        assert rep.absolute_gap == pytest.approx(3.8, abs=1e-14)
        assert rep.relative_gap == pytest.approx(3.8 / 5.0, abs=1e-14)
        # the prediction (1.2) sits below the shortest route length
        assert not rep.within_hop_bounds

    def test_prediction_inside_route_length_bracket(self):
        rep = swap_depth_report(self.net(), observed_depth=5.0, hop_bounds=(1, 2))
        assert rep.within_hop_bounds

    def test_jsonable_round_trip_keys(self):
        blob = swap_depth_report(self.net(), 5.0, (3, 5)).to_jsonable()
        assert set(blob) == {
            "predicted_response_time", "observed_depth", "absolute_gap",
            "relative_gap", "hop_bounds", "within_hop_bounds",
        }

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="observed depth"):
            swap_depth_report(self.net(), observed_depth=0.5, hop_bounds=(3, 5))
        with pytest.raises(ValueError, match="out of order"):
            swap_depth_report(self.net(), observed_depth=4.0, hop_bounds=(5, 3))
