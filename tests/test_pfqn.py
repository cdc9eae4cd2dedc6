"""Analytic pipeline: blocking probabilities, marginal composition, reports."""

import itertools
import json
import re
import warnings

import numpy as np
import pytest

from qnswap import (
    AnalysisAssumptions,
    InputError,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    NumericsError,
    analyze_network,
    build_lattice_network,
    mm1k_full_probability,
    munoz15_fixture,
    parse_layout,
    solve_traffic,
)
from oracle import (
    BLOCKED,
    BLOCKING_STATES,
    EMPTY,
    MarginalDistribution,
    SERVING,
    joint_probability,
    reference_columns,
)
import _expected
from conftest import heavy_hex_layout


def chain_spec():
    """1 -> {2, sink}, 2 -> sink; capacity-one stations, one buffered sink."""
    spec = NetworkSpec(
        nodes=(
            NodeSpec(id=1, kind=NodeKind.INTERMEDIATE, capacity=1,
                     service_rate=1.0, unblock_rate=0.2),
            NodeSpec(id=2, kind=NodeKind.INTERMEDIATE, capacity=1,
                     service_rate=1.0, unblock_rate=0.2),
            NodeSpec(id=3, kind=NodeKind.SINK, capacity=8, service_rate=1.0),
        ),
        routing={(1, 2): 0.5, (1, 3): 0.5, (2, 3): 1.0},
        external_arrivals={1: 0.1},
        known_arrival_rates={1: 0.1, 2: 0.05},
    )
    return spec


class TestAssumptions:
    def test_override_range_checked(self):
        AnalysisAssumptions(blocking_probability_override=0.0)
        AnalysisAssumptions(blocking_probability_override=1.0)
        for pb in (1.5, -0.1, float("nan")):
            with pytest.raises(InputError, match=re.escape(
                    f"blocking probability override: probability {pb!r} outside [0, 1]")):
                AnalysisAssumptions(blocking_probability_override=pb)

    def test_normalization_constant_is_pinned(self):
        with pytest.raises(TypeError):
            AnalysisAssumptions(normalization_constant=2.0)


def lattice_spec(side):
    """A side x side grid, sources and sinks on opposite borders."""
    site = "g{}_{}".format
    edges = ([[site(r, c), site(r, c + 1)] for r in range(side) for c in range(side - 1)]
             + [[site(r, c), site(r + 1, c)] for r in range(side - 1) for c in range(side)])
    queues = ([{"site": site(r, 0), "role": "source", "capacity": 8} for r in (1, side - 2)]
              + [{"site": site(r, side - 1), "role": "sink", "capacity": 8}
                 for r in (1, side - 2)])
    layout = parse_layout(json.dumps({
        "sites": [site(r, c) for r in range(side) for c in range(side)],
        "edges": edges, "queues": queues}))
    return build_lattice_network(layout, arrival_rate=0.05)


SPECS = {"munoz15": munoz15_fixture, "chain": chain_spec,
         "lattice12": lambda: lattice_spec(12)}
ASSUMPTIONS = {
    "worst_case": AnalysisAssumptions(),
    "solved_rates": AnalysisAssumptions(rho_one=False),
    "override": AnalysisAssumptions(blocking_probability_override=0.37),
}


@pytest.mark.parametrize("assumed", sorted(ASSUMPTIONS))
@pytest.mark.parametrize("network", sorted(SPECS))
def test_columns_equal_node_by_node_reference(network, assumed):
    spec, assumptions = SPECS[network](), ASSUMPTIONS[assumed]
    analysis = analyze_network(spec, assumptions)
    want, total = reference_columns(spec, assumptions)
    for name, column in want.items():
        assert getattr(analysis, name).tolist() == column, name
    assert analysis.network.total_jobs == total
    assert analysis.network.mean_jobs == total / len(want["nodes"])


class TestWorstCaseBlocking:
    def test_all_single_slot_neighbors_gives_exactly_half(self, fixture_spec):
        # node 1 routes only to capacity-one stations, so the saturated
        # full probability is 1/2 on every branch
        analysis = analyze_network(fixture_spec)
        assert analysis.nodes[0] == 1
        assert analysis.blocking_probability[0] == 0.5

    def test_mixed_capacity_neighbors(self):
        pb = analyze_network(chain_spec()).blocking_probability
        assert pb[0] == pytest.approx(0.5 * 0.5 + 0.5 / 9, abs=1e-15)
        assert pb[1] == pytest.approx(1 / 9, abs=1e-15)

    def test_override_is_used_verbatim(self, fixture_spec):
        a = AnalysisAssumptions(blocking_probability_override=0.37)
        assert analyze_network(fixture_spec, a).blocking_probability.tolist() == [0.37] * 11

    def test_solved_rates_replace_saturation(self):
        spec = chain_spec()
        rates = solve_traffic(spec)  # nodes 1, 2, 3 at positions 0, 1, 2
        got = analyze_network(spec, AnalysisAssumptions(rho_one=False))
        want = (0.5 * mm1k_full_probability(rates[1] / 1.0, 1)
                + 0.5 * mm1k_full_probability(rates[2] / 1.0, 8))
        assert got.blocking_probability[0] == pytest.approx(want, abs=1e-15)

    def test_only_intermediates_have_blocking(self):
        # node 3 is the sink: it has no row in the columns
        assert analyze_network(chain_spec()).nodes.tolist() == [1, 2]


class TestAnalyzeNetwork:
    def test_fixture_occupancies_match_expected_tables(self, fixture_spec):
        analysis = analyze_network(
            fixture_spec, AnalysisAssumptions(blocking_probability_override=0.5))
        assert analysis.nodes.tolist() == list(range(1, 12))
        for k in range(11):
            assert analysis.pi00[k] == pytest.approx(_expected.PI_EMPTY[k], abs=2e-3)
            assert analysis.pi10[k] == pytest.approx(_expected.PI_SERVING[k], abs=2e-3)
            assert analysis.pi01[k] == pytest.approx(_expected.PI_BLOCKED[k], abs=2e-3)
            assert analysis.rho[k] == pytest.approx(_expected.UTILIZATION[k], abs=2e-3)
            assert analysis.kbar[k] == pytest.approx(_expected.UTILIZATION[k], abs=2e-3)
            assert analysis.tbar[k] == pytest.approx(_expected.RESPONSE_TIME[k], abs=5e-3)

    def test_fixture_network_means_frozen(self, fixture_spec):
        analysis = analyze_network(
            fixture_spec, AnalysisAssumptions(blocking_probability_override=0.5))
        net = analysis.network
        assert net.external_rate == 0.25
        # exact regression values; the published three-decimal targets live
        # in the acceptance suite
        assert net.mean_jobs == pytest.approx(0.8307831124355315, abs=1e-12)
        assert net.mean_response_time == pytest.approx(3.323132449742126, abs=1e-12)

    def test_default_assumptions_derive_per_node_blocking(self, fixture_spec):
        pb = analyze_network(fixture_spec).blocking_probability
        assert pb[0] == 0.5
        # node 2 splits between a capacity-one station and a buffered sink
        assert pb[1] == pytest.approx(0.25 + 0.5 / 9, abs=1e-15)

    def test_input_spec_not_mutated(self, fixture_spec):
        before = fixture_spec
        analyze_network(fixture_spec)
        assert before == fixture_spec

    def test_marginals_cover_intermediates_and_normalize(self, fixture_spec):
        analysis = analyze_network(fixture_spec)
        assert analysis.nodes.tolist() == list(range(1, 12))
        for pi in zip(analysis.pi00, analysis.pi10, analysis.pi01):
            assert abs(sum(pi) - 1.0) <= 1e-12

    def test_zero_pinned_rate_is_idle(self):
        # a node pinned at rate 0 is idle: the closed form at lambda = 0, and
        # the time one job alone spends there, 1/mu + Pb/mu_b
        spec = NetworkSpec(
            nodes=(
                NodeSpec(id=1, kind=NodeKind.INTERMEDIATE, capacity=1,
                         service_rate=2.0, unblock_rate=0.2),
                NodeSpec(id=2, kind=NodeKind.SINK, capacity=8, service_rate=1.0),
            ),
            routing={(1, 2): 1.0},
            external_arrivals={1: 0.1},
            known_arrival_rates={1: 0.0},
        )
        a = analyze_network(spec)
        pb = a.blocking_probability.tolist()
        assert pb == [mm1k_full_probability(1.0, 8)]
        assert (a.pi00.tolist(), a.pi10.tolist(), a.pi01.tolist()) == ([1.0], [0.0], [0.0])
        assert (a.rho.tolist(), a.kbar.tolist()) == ([0.0], [0.0])
        assert a.tbar.tolist() == [1.0 / 2.0 + pb[0] / 0.2]
        assert (a.network.mean_jobs, a.network.total_jobs) == (0.0, 0.0)

    def test_idle_node_without_service_is_named(self):
        # an idle node that no routing reaches may have mu = 0 in the spec; its
        # tbar would be infinite, so the analysis names the service rate
        spec = NetworkSpec(
            nodes=(
                NodeSpec(id=1, kind=NodeKind.INTERMEDIATE, capacity=1,
                         service_rate=1.0, unblock_rate=0.2),
                NodeSpec(id=2, kind=NodeKind.INTERMEDIATE, capacity=1,
                         service_rate=0.0, unblock_rate=0.2),
                NodeSpec(id=3, kind=NodeKind.SINK, capacity=8, service_rate=1.0),
            ),
            routing={(1, 3): 1.0, (2, 3): 1.0},
            external_arrivals={1: 0.1},
        )
        with pytest.raises(InputError) as caught:
            analyze_network(spec)
        assert str(caught.value) == "node 2: service rate must be positive"

    @pytest.mark.parametrize("shape", [(4, 9), (6, 13)])
    def test_heavy_hex_chip_with_an_idle_site(self, shape):
        # each chip has one intermediate site that the uniform routing never
        # reaches (node 40, node 92); every other node keeps kbar / lambda
        spec = build_lattice_network(parse_layout(heavy_hex_layout(*shape)), arrival_rate=0.5)
        a = analyze_network(spec)
        idle = a.arrival_rate == 0.0
        assert a.nodes[idle].tolist() == [{(4, 9): 40, (6, 13): 92}[shape]]
        mu, mu_b = (c[np.isin(spec.columns.id, a.nodes)] for c in (
            spec.columns.service_rate, spec.columns.unblock_rate))
        assert (a.pi00[idle].tolist(), a.kbar[idle].tolist()) == ([1.0], [0.0])
        assert a.tbar[idle].tolist() == (1.0 / mu + a.blocking_probability / mu_b)[idle].tolist()
        assert a.tbar[~idle].tolist() == (a.kbar[~idle] / a.arrival_rate[~idle]).tolist()
        assert np.all(a.pi00[~idle] < 1.0)

    def test_blocking_probability_above_one_refused(self):
        # the row of node 1 sums to 1 + ROW_SUM_TOL / 2, which the spec accepts;
        # its sinks, at mu = 1e-300, are full, so pb is the row sum
        spec = NetworkSpec(
            nodes=(
                NodeSpec(id=1, kind=NodeKind.INTERMEDIATE, capacity=1,
                         service_rate=1.0, unblock_rate=0.2),
                NodeSpec(id=2, kind=NodeKind.SINK, capacity=1, service_rate=1e-300),
                NodeSpec(id=3, kind=NodeKind.SINK, capacity=1, service_rate=1e-300),
            ),
            routing={(1, 2): 0.5 + 2.5e-10, (1, 3): 0.5 + 2.5e-10},
            external_arrivals={1: 1.0},
        )
        with pytest.raises(InputError) as caught:
            analyze_network(spec, AnalysisAssumptions(rho_one=False))
        assert str(caught.value) == (
            "node 1: blocking probability: probability 1.0000000005 outside [0, 1]")

    @pytest.mark.parametrize("idle_first, message", [
        (True, "node 2: blocking probability: probability 1.0000000005 outside [0, 1]"),
        (False, "node 1: blocking probability: probability 1.0000000005 outside [0, 1]"),
    ], ids=["zero_rate_first", "blocking_first"])
    def test_first_failing_node_in_id_order_raises(self, idle_first, message):
        # one intermediate node gets no traffic, which is no fault (it is idle);
        # the other's row sums to 1 + ROW_SUM_TOL / 2 over sinks that are full,
        # so its pb is above 1 and it is named, whichever id it has
        idle, busy = (1, 2) if idle_first else (2, 1)
        spec = NetworkSpec(
            nodes=tuple(NodeSpec(id=i, kind=NodeKind.INTERMEDIATE, capacity=1,
                                 service_rate=1.0, unblock_rate=0.2) for i in (1, 2))
            + tuple(NodeSpec(id=i, kind=NodeKind.SINK, capacity=1, service_rate=1e-300)
                    for i in (3, 4)),
            routing={(idle, 3): 1.0, (busy, 3): 0.5 + 2.5e-10, (busy, 4): 0.5 + 2.5e-10},
            external_arrivals={busy: 1.0},
        )
        with pytest.raises(InputError) as caught:
            analyze_network(spec, AnalysisAssumptions(rho_one=False))
        assert str(caught.value) == message

    def test_overflowing_target_utilization_is_full_without_a_warning(self):
        # lambda / mu at the sink is 1e10 / 1e-300, past the largest float:
        # the utilization is infinite, so the sink is always full
        spec = NetworkSpec(
            nodes=(
                NodeSpec(id=1, kind=NodeKind.INTERMEDIATE, capacity=1,
                         service_rate=1.0, unblock_rate=0.2),
                NodeSpec(id=2, kind=NodeKind.SINK, capacity=8, service_rate=1e-300),
            ),
            routing={(1, 2): 1.0},
            external_arrivals={1: 1e10},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analysis = analyze_network(spec, AnalysisAssumptions(rho_one=False))
        assert analysis.blocking_probability.tolist() == [1.0]

    def test_overflowing_marginal_refused(self):
        # finite rates, but lambda / mu overflows at node 1
        spec = NetworkSpec(
            nodes=(
                NodeSpec(id=1, kind=NodeKind.INTERMEDIATE, capacity=1,
                         service_rate=1e-200, unblock_rate=0.2),
                NodeSpec(id=2, kind=NodeKind.SINK, capacity=8, service_rate=1.0),
            ),
            routing={(1, 2): 1.0},
            external_arrivals={1: 0.1},
            known_arrival_rates={1: 1e200},
        )
        with pytest.raises(NumericsError) as caught:
            analyze_network(spec)
        assert str(caught.value) == (
            "node 1: blocking-node marginal (0.0, nan, 0.0) is not a distribution")

    def test_arrival_rate_column_is_the_solved_traffic(self, fixture_spec):
        # the pins of munoz15 cover every intermediate node
        analysis = analyze_network(fixture_spec)
        assert analysis.arrival_rate.dtype == np.float64
        assert analysis.arrival_rate.tolist() == [
            _expected.ARRIVAL_RATE[i] for i in analysis.nodes.tolist()]


class TestJointProbability:
    def marginals(self, count=3):
        pis = [
            (0.2, 0.3, 0.5),
            (0.5, 0.25, 0.25),
            (0.1, 0.6, 0.3),
            (0.4, 0.4, 0.2),
        ]
        return [MarginalDistribution(BLOCKING_STATES, p) for p in pis[:count]]

    def test_product_of_marginals(self):
        ms = self.marginals()
        p = joint_probability(ms, (EMPTY, SERVING, BLOCKED))
        assert p == pytest.approx(0.2 * 0.25 * 0.3, abs=1e-15)

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_joint_states_sum_to_one(self, count):
        ms = self.marginals(count)
        total = sum(
            joint_probability(ms, joint)
            for joint in itertools.product(BLOCKING_STATES.labels, repeat=count)
        )
        assert abs(total - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="expected 2 state labels, got 3"):
            joint_probability(self.marginals(2), (EMPTY, SERVING, BLOCKED))

    def test_unknown_label(self):
        with pytest.raises(InputError, match=r"state \(7, 7\) is not in the state space"):
            joint_probability(self.marginals(2), (EMPTY, (7, 7)))
