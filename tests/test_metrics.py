"""Per-node columns of the analysis and network performance measures."""

import numpy as np
import pytest

from qnswap import (
    AnalysisAssumptions,
    InputError,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    analyze_network,
    network_metrics,
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

    def test_bool_subset_entry_rejected(self):
        # True == 1, so [True] used to select node 1; NetworkSpec rejects a bool id
        with pytest.raises(InputError,
                           match=r"^metric subset \[True\] holds a value that is no node id$"):
            network_metrics(NODES, KBAR, external_rate=0.5, subset=[True])

    def test_empty_subset_rejected(self):
        with pytest.raises(InputError, match="metric subset contains no nodes"):
            network_metrics(NODES, KBAR, external_rate=0.5, subset=[])

    def test_zero_external_rate_rejected(self):
        with pytest.raises(InputError, match="subset has zero arrival rate"):
            network_metrics(NODES, KBAR, external_rate=0.0)

    @pytest.mark.parametrize("rate, message", [
        (0, "subset has zero arrival rate; per-job metrics undefined"),
        (-0.5, "subset has zero arrival rate; per-job metrics undefined"),
        (np.nan, "external rate must be finite, got nan"),
        (np.inf, "external rate must be finite, got inf"),
        (-np.inf, "external rate must be finite, got -inf"),
        (True, "external rate: value True is not a number"),
        ("0.5", "external rate: value '0.5' is not a number"),
        (None, "external rate: value None is not a number"),
    ], ids=["int_zero", "negative", "nan", "inf", "minus_inf", "bool", "string", "none"])
    def test_external_rate_follows_the_value_rule(self, rate, message):
        # NaN gave a nan response time, inf gave 0.0, True counted as 1 and a
        # string leaked a bare TypeError from the comparison
        with pytest.raises(InputError, match=f"^{message}$"):
            network_metrics(NODES, KBAR, external_rate=rate)

    @pytest.mark.parametrize("nodes, kbar, message", [
        ([1.5, 2.7], KBAR, r"metric nodes \[1\.5, 2\.7\] hold a value that is no node id"),
        ([True, 2], KBAR, r"metric nodes \[True, 2\] hold a value that is no node id"),
        (NODES, [0.8, np.nan], "mean jobs of node 2 must be finite, got nan"),
        (NODES, [0.8, "0.4"], r"mean jobs of node 2: value '0\.4' is not a number"),
        (np.array(NODES), np.array([np.inf, 0.4]), "mean jobs of node 1 must be finite, got inf"),
        (NODES, [0.8], "metric columns differ in length: 2 node ids, 1 mean job counts"),
        ([1], KBAR, "metric columns differ in length: 1 node ids, 2 mean job counts"),
    ], ids=["float_id", "bool_id", "nan_jobs", "string_jobs", "inf_in_array", "short_jobs",
            "long_jobs"])
    def test_columns_follow_the_key_and_value_rules(self, nodes, kbar, message):
        # the ids were cast to intp (1.5 read as 1, True as 1), NaN gave a nan
        # mean, a short kbar leaked a bare IndexError and a long one lost its tail
        with pytest.raises(InputError, match=f"^{message}$"):
            network_metrics(nodes, kbar, external_rate=0.5)

    def test_external_rate_is_a_float(self):
        net = network_metrics(NODES, KBAR, external_rate=np.float64(2))
        assert type(net.external_rate) is float
        assert net.mean_response_time == pytest.approx(0.3, abs=1e-15)

    def test_sum_runs_left_to_right(self):
        # each +1 rounds away one at a time; np.sum's pairwise order keeps them
        kbar = [1e16] + [1.0] * 16
        net = network_metrics(range(1, 18), kbar, external_rate=1.0)
        assert net.total_jobs == 1e16
        assert np.sum(kbar) != 1e16

