"""Analytic pipeline: blocking probabilities, marginal composition, reports."""

import itertools
import json
import re

import pytest

from qnswap import (
    AnalysisAssumptions,
    InputError,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    RoutingMatrix,
    analyze_network,
    blocking_node_closed_form,
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
)
import _expected


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
        routing=RoutingMatrix({(1, 2): 0.5, (1, 3): 0.5, (2, 3): 1.0}),
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


def reference_columns(spec, assumptions):
    """The analysis columns computed node by node with the scalar closed forms."""
    rates = solve_traffic(spec)
    cols = {k: [] for k in ("nodes", "blocking_probability", "pi00", "pi10", "pi01",
                            "rho", "kbar", "tbar")}
    for node in spec.intermediates():
        lam = rates.rate(node.id)
        pb = assumptions.blocking_probability_override
        if pb is None:
            pb = 0.0
            for j, p in sorted(spec.routing.row(node.id).items()):
                if p > 0.0:
                    target = spec.node(j)
                    rho = 1.0 if assumptions.rho_one else rates.rate(j) / target.service_rate
                    pb += p * mm1k_full_probability(rho, target.capacity)
        pi = blocking_node_closed_form(lam, node.service_rate, node.unblock_rate, pb)
        kbar = pi.pi10 + pi.pi01
        for k, v in zip(cols, (node.id, pb, *pi, 1.0 - pi.pi00, kbar, kbar / lam)):
            cols[k].append(v)
    total = 0.0
    for k in cols["kbar"]:
        total += k
    return cols, total


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
        rates = solve_traffic(spec)
        got = analyze_network(spec, AnalysisAssumptions(rho_one=False))
        want = (0.5 * mm1k_full_probability(rates.rate(2) / 1.0, 1)
                + 0.5 * mm1k_full_probability(rates.rate(3) / 1.0, 8))
        assert got.blocking_probability[0] == pytest.approx(want, abs=1e-15)

    def test_only_intermediates_have_blocking(self):
        # node 3 is the sink: it has no row in the columns
        assert analyze_network(chain_spec()).nodes.tolist() == [1, 2]


class TestAnalyzeNetwork:
    def test_fixture_occupancies_match_expected_tables(self, fixture_spec):
        analysis = analyze_network(
            fixture_spec, AnalysisAssumptions(blocking_probability_override=0.5))
        rows = analysis.rows()
        assert [r["node"] for r in rows] == list(range(1, 12))
        for k, row in enumerate(rows):
            assert row["pi00"] == pytest.approx(_expected.PI_EMPTY[k], abs=2e-3)
            assert row["pi10"] == pytest.approx(_expected.PI_SERVING[k], abs=2e-3)
            assert row["pi01"] == pytest.approx(_expected.PI_BLOCKED[k], abs=2e-3)
            assert row["rho"] == pytest.approx(_expected.UTILIZATION[k], abs=2e-3)
            assert row["kbar"] == pytest.approx(_expected.UTILIZATION[k], abs=2e-3)
            assert row["tbar"] == pytest.approx(_expected.RESPONSE_TIME[k], abs=5e-3)

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

    def test_zero_pinned_rate_refused(self):
        spec = NetworkSpec(
            nodes=(
                NodeSpec(id=1, kind=NodeKind.INTERMEDIATE, capacity=1,
                         service_rate=1.0, unblock_rate=0.2),
                NodeSpec(id=2, kind=NodeKind.SINK, capacity=8, service_rate=1.0),
            ),
            routing=RoutingMatrix({(1, 2): 1.0}),
            external_arrivals={1: 0.1},
            known_arrival_rates={1: 0.0},
        )
        with pytest.raises(InputError, match="node 1 has zero arrival rate"):
            analyze_network(spec)

    def test_jsonable_shape(self, fixture_spec):
        blob = analyze_network(fixture_spec).to_jsonable()
        assert set(blob) == {"assumptions", "nodes", "network"}
        assert len(blob["nodes"]) == 11


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
