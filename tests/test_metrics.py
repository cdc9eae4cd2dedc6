"""Per-node and network performance measures."""

import numpy as np
import pytest

from qnswap import (
    InputError,
    NodeMarginal,
    blocking_node_closed_form,
    network_metrics,
    node_metrics,
    swap_depth_report,
)


def make_node(pi, lam, node=1):
    return node_metrics(NodeMarginal(*pi), lam, node=node)


def test_node_metrics_hand_values():
    m = make_node((0.2, 0.3, 0.5), lam=2.0)
    assert m.utilization == pytest.approx(0.8, abs=1e-15)
    assert m.mean_jobs == pytest.approx(0.8, abs=1e-15)
    assert m.mean_response_time == pytest.approx(0.4, abs=1e-15)


def test_littles_law_holds_per_node():
    rng = np.random.default_rng(31)
    for _ in range(200):
        lam = float(rng.uniform(0.05, 3.0))
        pi = blocking_node_closed_form(
            lam,
            float(rng.uniform(0.1, 3.0)),
            float(rng.uniform(0.05, 1.0)),
            float(rng.uniform(0.0, 1.0)),
        )
        m = node_metrics(pi, lam)
        assert abs(m.mean_response_time * lam - m.mean_jobs) <= 1e-12


def test_utilization_equals_mean_jobs_for_single_slot_nodes():
    rng = np.random.default_rng(32)
    for _ in range(200):
        pi = blocking_node_closed_form(
            float(rng.uniform(0.1, 3.0)),
            float(rng.uniform(0.1, 3.0)),
            float(rng.uniform(0.05, 1.0)),
            float(rng.uniform(0.0, 1.0)),
        )
        m = node_metrics(pi, 1.0)
        assert abs(m.utilization - m.mean_jobs) <= 1e-12
        assert 0.0 <= m.utilization <= 1.0


def test_zero_arrival_rate_rejected():
    pi = NodeMarginal(0.5, 0.25, 0.25)
    with pytest.raises(InputError, match="node 0 has zero arrival rate"):
        node_metrics(pi, 0.0)


class TestNetworkMetrics:
    def nodes(self):
        return [
            make_node((0.2, 0.3, 0.5), lam=2.0, node=1),   # kbar 0.8
            make_node((0.6, 0.3, 0.1), lam=1.0, node=2),   # kbar 0.4
        ]

    def test_mean_and_total(self):
        net = network_metrics(self.nodes(), external_rate=0.5)
        assert net.mean_jobs == pytest.approx(0.6, abs=1e-14)
        assert net.total_jobs == pytest.approx(1.2, abs=1e-14)
        assert net.mean_response_time == pytest.approx(1.2, abs=1e-14)
        assert net.nodes == (1, 2)

    def test_littles_law_at_network_level(self):
        net = network_metrics(self.nodes(), external_rate=0.5)
        assert abs(net.mean_response_time * net.external_rate - net.mean_jobs) <= 1e-12

    def test_permutation_invariance(self):
        a, b = self.nodes()
        fwd = network_metrics([a, b], external_rate=0.5)
        rev = network_metrics([b, a], external_rate=0.5)
        assert fwd == rev

    def test_subset_selection(self):
        net = network_metrics(self.nodes(), external_rate=0.5, subset=[2])
        assert net.mean_jobs == pytest.approx(0.4, abs=1e-14)
        assert net.nodes == (2,)

    def test_subset_ignores_unknown_ids(self):
        net = network_metrics(self.nodes(), external_rate=0.5, subset=[1, 99])
        assert net.nodes == (1,)

    def test_empty_subset_rejected(self):
        with pytest.raises(InputError, match="metric subset contains no nodes"):
            network_metrics(self.nodes(), external_rate=0.5, subset=[])

    def test_zero_external_rate_rejected(self):
        with pytest.raises(InputError, match="subset has zero arrival rate"):
            network_metrics(self.nodes(), external_rate=0.0)


class TestSwapDepthReport:
    def net(self):
        return network_metrics([
            make_node((0.2, 0.3, 0.5), lam=2.0, node=1),
            make_node((0.6, 0.3, 0.1), lam=1.0, node=2),
        ], external_rate=0.5)

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
