"""Per-node columns of the analysis and network performance measures."""

import dataclasses

import numpy as np
import pytest

from qnswap import (
    AnalysisAssumptions,
    InputError,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    analyze_network,
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
        routing={(i + 1, sink): float(exit_to_sink[i]) for i in range(n)},
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


def test_zero_arrival_rate_is_idle():
    # nodes 2 and 3 get no traffic: each is idle, with pi00 = 1, kbar = 0 and
    # tbar = 1/mu + Pb/mu_b, while node 1 keeps the bits of its own analysis
    spec = pinned_nodes_spec([0.5, 0.0, 0.0], [1.0, 2.0, 4.0], [0.2, 0.4, 0.5], [0.5] * 3)
    a = analyze_network(spec)
    alone = analyze_network(pinned_nodes_spec([0.5], [1.0], [0.2], [0.5]))
    for name in ("arrival_rate", "blocking_probability", "pi00", "pi10", "pi01", "rho",
                 "kbar", "tbar"):
        assert getattr(a, name)[:1].tolist() == getattr(alone, name).tolist()
    assert a.pi00[1:].tolist() == [1.0, 1.0] and a.kbar[1:].tolist() == [0.0, 0.0]
    assert a.rho[1:].tolist() == [0.0, 0.0]
    assert a.tbar[1:].tolist() == [1.0 / 2.0 + 0.25 / 0.4, 1.0 / 4.0 + 0.25 / 0.5]
    assert a.network.total_jobs == alone.network.total_jobs
    assert a.network.mean_jobs == alone.network.total_jobs / 3


def analysis_with(kbar, external_rate):
    """An analysis of nodes 1..len(kbar) whose ``kbar`` column and external
    rate are replaced by the given ones."""
    n = len(kbar)
    a = analyze_network(pinned_nodes_spec([0.5] * n, [1.0] * n, [0.2] * n, [0.5] * n))
    return dataclasses.replace(a, kbar=np.array(kbar, dtype=float),
                               network=a.network._replace(external_rate=external_rate))


NODES = [1, 2]
KBAR = [0.8, 0.4]


class TestNetworkMetrics:
    def test_mean_and_total(self):
        net = analysis_with(KBAR, 0.5).network_over(NODES)
        assert net.mean_jobs == pytest.approx(0.6, abs=1e-14)
        assert net.total_jobs == pytest.approx(1.2, abs=1e-14)
        assert net.mean_response_time == pytest.approx(1.2, abs=1e-14)
        assert net.nodes == (1, 2)

    def test_analysis_aggregates_every_node(self):
        # 200 nodes and lambda0 = 1: the subset of every node is the same sum
        _, a = random_nodes_analysis(33)
        net = a.network
        assert net.nodes == tuple(range(1, 201))
        assert net.total_jobs == pytest.approx(a.kbar.sum(), abs=1e-12)
        assert net.mean_jobs == net.total_jobs / 200
        assert (net.external_rate, net.mean_response_time) == (1.0, net.mean_jobs)
        assert a.network_over(range(1, 201)) == net

    def test_littles_law_at_network_level(self):
        net = analysis_with(KBAR, 0.5).network_over(NODES)
        assert abs(net.mean_response_time * net.external_rate - net.mean_jobs) <= 1e-12

    def test_permutation_invariance(self):
        # the sum runs in node-id order, whatever the order of the subset
        analysis = analysis_with([0.1, 0.2, 0.7], 0.5)
        assert analysis.network_over([3, 1, 2]) == analysis.network_over([1, 2, 3])

    def test_external_rate_is_a_float(self):
        # the writers print each aggregate by its repr, which a numpy scalar changes
        analysis = analysis_with(KBAR, 0.5)
        for net in (analyze_network(pinned_nodes_spec([0.5], [1.0], [0.2], [0.5])).network,
                    analysis.network_over([2])):
            fields = (net.mean_jobs, net.mean_response_time, net.external_rate, net.total_jobs)
            assert {type(x) for x in fields} == {float}
            assert {type(i) for i in net.nodes} == {int}

    def test_subset_selection(self):
        net = analysis_with(KBAR, 0.5).network_over([2])
        assert net.mean_jobs == pytest.approx(0.4, abs=1e-14)
        assert net.nodes == (2,)

    def test_subset_ignores_unknown_ids(self):
        net = analysis_with(KBAR, 0.5).network_over([1, 99])
        assert net.nodes == (1,)

    def test_bool_subset_entry_rejected(self):
        # True == 1, so [True] used to select node 1; NetworkSpec rejects a bool id
        with pytest.raises(InputError,
                           match=r"^metric subset \[True\] holds a value that is no node id$"):
            analysis_with(KBAR, 0.5).network_over([True])

    def test_empty_subset_rejected(self):
        with pytest.raises(InputError, match="^metric subset contains no nodes$"):
            analysis_with(KBAR, 0.5).network_over([])

    def test_overflowed_external_total_is_an_input_error(self):
        # each source's rate is finite; their sum is not.  The sources route
        # nothing and the one intermediate node is pinned, so the traffic
        # solve never adds them
        spec = NetworkSpec(
            nodes=(NodeSpec(id=1, kind=NodeKind.INTERMEDIATE, capacity=1,
                            service_rate=1.0, unblock_rate=0.2),
                   NodeSpec(id=2, kind=NodeKind.SOURCE, capacity=8, service_rate=1.0),
                   NodeSpec(id=3, kind=NodeKind.SOURCE, capacity=8, service_rate=1.0),
                   NodeSpec(id=4, kind=NodeKind.SINK, capacity=8, service_rate=1.0)),
            routing={(1, 4): 1.0},
            external_arrivals={2: 1e308, 3: 1e308},
            known_arrival_rates={1: 0.5},
        )
        with pytest.raises(InputError, match="^external rate must be finite, got inf$"):
            analyze_network(spec)

    def test_sum_runs_left_to_right(self):
        # each +1 rounds away one at a time; np.sum's pairwise order keeps them
        kbar = [1e16] + [1.0] * 16
        net = analysis_with(kbar, 1.0).network_over(range(1, 18))
        assert net.total_jobs == 1e16
        assert np.sum(kbar) != 1e16
