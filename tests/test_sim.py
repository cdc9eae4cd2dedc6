"""Event-driven oracle: trajectory sampling and the blocking network engine.

Statistical assertions use fixed seeds, so every run of this file sees the
same trajectories; tolerances are set from the estimator spread, not wished
for.
"""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from qnswap import (
    NetworkSpec,
    NodeKind,
    InputError,
    NodeSpec,
    NumericsError,
    SimConfig,
    blocking_node_closed_form,
    simulate_blocking_network,
    sim,
)
from oracle import (
    BLOCKED,
    EMPTY,
    SERVING,
    ChainConfig,
    StateSpace,
    blocking_node_chain,
    build_generator,
    mm1k_distribution,
    simulate_ctmc,
)
from conftest import random_open_network, self_loop_spec, single_queue_spec, two_node_cycle_spec


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig(seed=1, horizon=100.0)
        assert [f.name for f in fields(cfg)] == ["seed", "horizon", "replications"]
        assert cfg.replications == 1
        assert sim.WARMUP_FRACTION == 0.2

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed"):
            SimConfig(seed=-1, horizon=10.0)

    def test_nonpositive_horizon_rejected(self):
        # an infinite horizon would never end a time-unit run
        for horizon in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(InputError,
                               match="simulation horizon must be positive and finite"):
                SimConfig(seed=0, horizon=horizon)

    def test_non_number_horizon_rejected(self):
        # True used to run one event in event units; "5" raised a bare TypeError
        for horizon in (True, "5", None):
            with pytest.raises(InputError, match="simulation horizon must be a number"):
                SimConfig(seed=0, horizon=horizon)

    def test_bad_replications_rejected(self):
        with pytest.raises(InputError, match="replications"):
            SimConfig(seed=0, horizon=10.0, replications=0)

    def test_bool_replications_rejected(self):
        # bool is an int subclass; True would be written as "replications": true
        with pytest.raises(InputError, match="replications must be a positive integer"):
            SimConfig(seed=0, horizon=10.0, replications=True)


class TestTrajectorySampler:
    def chain(self):
        return blocking_node_chain(0.94, 1.0, 0.136, 0.5)

    def test_bit_for_bit_determinism(self):
        cfg = ChainConfig(seed=11, horizon=5e4, unit="events")
        a = simulate_ctmc(self.chain(), cfg)
        b = simulate_ctmc(self.chain(), cfg)
        assert a == b

    def test_seed_changes_trajectory(self):
        a = simulate_ctmc(self.chain(), ChainConfig(seed=1, horizon=1e4, unit="events"))
        b = simulate_ctmc(self.chain(), ChainConfig(seed=2, horizon=1e4, unit="events"))
        assert a.occupancy != b.occupancy

    def test_occupancy_is_a_distribution(self):
        res = simulate_ctmc(self.chain(), ChainConfig(seed=3, horizon=2e4, unit="events"))
        assert abs(sum(res.occupancy) - 1.0) <= 1e-9
        assert all(p >= 0 for p in res.occupancy)

    def test_event_budget_is_respected(self):
        res = simulate_ctmc(self.chain(), ChainConfig(seed=4, horizon=12345, unit="events"))
        assert res.events == 12345

    def test_time_mode_window(self):
        res = simulate_ctmc(self.chain(), ChainConfig(seed=5, horizon=1000.0))
        assert res.duration == pytest.approx(800.0, abs=1e-9)
        assert abs(sum(res.occupancy) - 1.0) <= 1e-9

    def test_replications_merge_deterministically(self):
        cfg = ChainConfig(seed=6, horizon=1e4, unit="events", replications=3)
        a = simulate_ctmc(self.chain(), cfg)
        assert a.events == 3e4
        assert a == simulate_ctmc(self.chain(), cfg)

    def test_converges_to_closed_form_within_three_stderr(self):
        """Independent replications bracket the analytic occupancy."""
        params = [
            (0.94, 1.0, 0.136, 0.5),
            (2.0, 1.0, 0.3, 0.8),
            (0.3, 1.5, 0.9, 0.1),
        ]
        runs = 8
        events_per_run = 125_000  # one million events in total per chain
        for lam, mu, mu_b, pb in params:
            gen = blocking_node_chain(lam, mu, mu_b, pb)
            want = blocking_node_closed_form(lam, mu, mu_b, pb)
            samples = np.array([
                simulate_ctmc(gen, ChainConfig(seed=s, horizon=events_per_run,
                                               unit="events")).occupancy
                for s in range(runs)
            ])
            mean = samples.mean(axis=0)
            stderr = samples.std(axis=0, ddof=1) / math.sqrt(runs)
            for k, state in enumerate((EMPTY, SERVING, BLOCKED)):
                assert abs(mean[k] - want[k]) <= 3 * stderr[k], \
                    (lam, mu, mu_b, pb, state)

    def test_reducible_chain_rejected(self):
        gen = build_generator(StateSpace(("t", "a")), [("t", "a", 1.0)])
        with pytest.raises(NumericsError,
                           match="trajectory simulation needs an irreducible chain"):
            simulate_ctmc(gen, ChainConfig(seed=0, horizon=100.0))

    def test_single_state_chain(self):
        gen = build_generator(StateSpace(("only",)), [])
        res = simulate_ctmc(gen, ChainConfig(seed=0, horizon=100.0))
        assert res.occupancy == (1.0,)

    def test_zero_event_budget_rejected(self):
        config = ChainConfig(seed=0, horizon=0.4, unit="events")  # rounds to no event
        with pytest.raises(InputError,
                           match="simulation horizon must be positive, got 0.4"):
            simulate_ctmc(self.chain(), config)


def blocking_chain_spec():
    """Fast station feeding a slow single-slot sink; heavy blocking."""
    return NetworkSpec(
        nodes=(
            NodeSpec(id=1, kind=NodeKind.INTERMEDIATE, capacity=1,
                     service_rate=5.0, unblock_rate=0.15),
            NodeSpec(id=2, kind=NodeKind.SINK, capacity=1, service_rate=0.1),
        ),
        routing={(1, 2): 1.0},
        external_arrivals={1: 1.0},
    )


class TestBlockingNetwork:
    def test_bit_for_bit_determinism(self, fixture_spec):
        cfg = SimConfig(seed=7, horizon=5e3)
        a = simulate_blocking_network(fixture_spec, cfg)
        b = simulate_blocking_network(fixture_spec, cfg)
        assert a == b

    def test_flow_conservation_is_exact(self, fixture_spec):
        rng = np.random.default_rng(51)
        specs = [fixture_spec, blocking_chain_spec()]
        specs += [random_open_network(rng, max_nodes=8) for _ in range(5)]
        for k, spec in enumerate(specs):
            res = simulate_blocking_network(
                spec, SimConfig(seed=100 + k, horizon=2e3))
            assert res.arrivals == res.completed + res.dropped + res.in_flight
            for ns in res.nodes:
                assert abs(sum(ns.occupancy) - 1.0) <= 1e-9
                assert 0.0 <= ns.blocked_fraction <= 1.0

    def test_conservation_failure_raises(self, fixture_spec):
        # a departure the counters miss breaks conservation; the check that
        # every run ends with must raise the documented error, also under
        # python -O (tests/test_source.py checks that the run calls it)
        res = simulate_blocking_network(fixture_spec, SimConfig(seed=7, horizon=500.0))
        assert res.completed > 0
        sim._check_conservation(res.in_flight, res.arrivals, res.completed, res.dropped)
        with pytest.raises(NumericsError, match="flow not conserved"):
            sim._check_conservation(res.in_flight, res.arrivals, res.completed - 1,
                                    res.dropped)

    def test_single_full_queue_drops_half(self):
        res = simulate_blocking_network(
            single_queue_spec(1.0, capacity=1),
            SimConfig(seed=3, horizon=1.5e5))  # about 225,000 events
        assert res.dropped > 0
        assert res.drop_fraction == pytest.approx(0.5, abs=0.01)

    def test_finite_queue_matches_analytic_distribution(self):
        res = simulate_blocking_network(
            single_queue_spec(0.7, capacity=3),
            SimConfig(seed=5, horizon=2.5e5))  # about 326,000 events
        want = mm1k_distribution(0.7, 3).probabilities
        got = res.nodes[0].occupancy
        assert max(abs(a - b) for a, b in zip(got, want)) <= 0.01

    def test_blocking_is_observed_when_downstream_is_slow(self):
        res = simulate_blocking_network(
            blocking_chain_spec(), SimConfig(seed=9, horizon=5e3))
        station = next(ns for ns in res.nodes if ns.node == 1)
        sink = next(ns for ns in res.nodes if ns.node == 2)
        assert station.blocked_fraction > 0.5
        assert sink.occupancy[1] > 0.8

    def test_internal_transfer_never_drops(self):
        # drops happen only at external arrival; blocking holds jobs instead
        res = simulate_blocking_network(
            blocking_chain_spec(), SimConfig(seed=10, horizon=5e3))
        lost = res.arrivals - res.completed - res.in_flight
        assert lost == res.dropped

    def test_fixture_run_shape(self, fixture_spec):
        res = simulate_blocking_network(fixture_spec, SimConfig(seed=7, horizon=5e3))
        assert res.to_jsonable()["mode"] == "network"
        assert [ns.node for ns in res.nodes] == list(range(1, 16))
        assert res.duration == pytest.approx(0.8 * 5e3, abs=1e-9)
        # every completed job crossed at least the shortest route
        assert res.mean_hops >= 3.0
        assert res.response_mean > 0
        assert res.response_stderr > 0

    def test_replications_pool_into_one_result(self, fixture_spec):
        cfg = SimConfig(seed=2, horizon=1e3, replications=4)
        res = simulate_blocking_network(fixture_spec, cfg)
        assert res.replications == 4
        assert res.duration == pytest.approx(4 * 0.8 * 1e3, abs=1e-9)
        assert res == simulate_blocking_network(fixture_spec, cfg)

    def test_tables_are_built_once_per_call(self, fixture_spec, monkeypatch):
        calls = []
        replicate = sim._replicate

        def spy(*args):
            calls.append(args)
            return replicate(*args)

        monkeypatch.setattr(sim, "_replicate", spy)
        simulate_blocking_network(
            fixture_spec, SimConfig(seed=2, horizon=100.0, replications=3))
        assert len(calls) == 3
        # every replication gets the same tables, stop time and window
        # start; only the random stream (argument 6) is its own
        for args in calls[1:]:
            assert [a is b for a, b in zip(calls[0], args)] == [True] * 6 + [False] + [True] * 2

    def test_jsonable_is_plain_data(self, fixture_spec):
        blob = simulate_blocking_network(
            fixture_spec, SimConfig(seed=7, horizon=500.0)).to_jsonable()
        json.dumps(blob)  # raises on numpy scalars or other foreign types

    @pytest.mark.parametrize("replications", [1, 2])
    def test_jsonable_is_the_field_by_field_document(self, fixture_spec, replications):
        # the document dataclasses.asdict made of the records: every field,
        # each node as a dict of its own fields, tuples left as tuples
        res = simulate_blocking_network(
            fixture_spec, SimConfig(seed=7, horizon=500.0, replications=replications))
        nodes = [{"node": ns.node, "occupancy": ns.occupancy,
                  "blocked_fraction": ns.blocked_fraction, "mean_jobs": ns.mean_jobs}
                 for ns in res.nodes]
        want = {"mode": "network", "events": res.events, "duration": res.duration,
                "replications": res.replications, "nodes": nodes, "mean_jobs": res.mean_jobs,
                "arrivals": res.arrivals, "completed": res.completed, "dropped": res.dropped,
                "in_flight": res.in_flight, "drop_fraction": res.drop_fraction,
                "response_mean": res.response_mean, "response_stderr": res.response_stderr,
                "mean_hops": res.mean_hops}
        assert (json.dumps(res.to_jsonable(), sort_keys=True)
                == json.dumps(want, sort_keys=True))


class ConstantDraws:
    """A replication stream whose exponential draws are ``head``, then 1s; uniforms are 1/2."""

    def __init__(self, head=()):
        self.head = head

    def exponential(self, size):
        draws = np.ones(size)
        draws[:len(self.head)], self.head = self.head, ()
        return draws

    def random(self, size):
        return np.full(size, 0.5)


class TestTieOrder:
    """Events at equal times run arrivals first, then completions, each in id order."""

    def test_two_sources_into_one_slot(self, monkeypatch):
        # Sources 1 and 2 (rate 1, service 1, room 1) both send every job to
        # sink 3 (room 1, service 1/2).  With every draw constant, both
        # sources take a job at each odd time.  At each even time both
        # arrivals find a full source and drop; then source 1 completes
        # first and fills the sink, and source 2 blocks until the sink
        # frees at +0.5.  A completion run before the arrival at its own
        # source would free the slot, and that arrival would not drop.
        monkeypatch.setattr(sim, "_rep_rng", lambda seed, rep: ConstantDraws())
        spec = NetworkSpec(
            nodes=(NodeSpec(id=1, kind=NodeKind.SOURCE, capacity=1, service_rate=1.0),
                   NodeSpec(id=2, kind=NodeKind.SOURCE, capacity=1, service_rate=1.0),
                   NodeSpec(id=3, kind=NodeKind.SINK, capacity=1, service_rate=2.0)),
            routing={(1, 3): 1.0, (2, 3): 1.0},
            external_arrivals={1: 1.0, 2: 1.0},
        )
        res = simulate_blocking_network(spec, SimConfig(seed=0, horizon=20.0))
        # arrivals at t = 1..20; the pair taken at t = 19 is still held at t = 20
        assert (res.arrivals, res.dropped, res.completed, res.in_flight) == (40, 20, 18, 2)
        # the window [4, 20] holds 8 blocks of node 2, each 0.5 long
        assert [ns.blocked_fraction for ns in res.nodes] == [0.0, 0.25, 0.0]
        assert res.drop_fraction == 18 / 34  # both arrivals at t = 4, 6, ..., 20 of 4..20

    def test_tied_arrivals_draw_in_id_order(self, monkeypatch):
        # both first arrivals come at t = 1; the first handled draws the
        # third and fourth numbers (service 0.25, next arrival at 101)
        monkeypatch.setattr(sim, "_rep_rng",
                            lambda seed, rep: ConstantDraws((1.0, 1.0, 0.25, 100.0, 0.5, 100.0)))
        spec = NetworkSpec(
            nodes=tuple(NodeSpec(id=i, kind=NodeKind.SOURCE, capacity=1, service_rate=1.0)
                        for i in (1, 2)),
            routing={},
            external_arrivals={1: 1.0, 2: 1.0},
        )
        res = simulate_blocking_network(spec, SimConfig(seed=0, horizon=2.0))
        assert [ns.occupancy[1] for ns in res.nodes] == [0.25 / res.duration,
                                                         0.5 / res.duration]


class TestDeadlock:
    """A set of full stations whose blocked servers wait only on each other."""

    # one case each; the "time" id keeps each test's name stable
    @pytest.mark.parametrize("horizon", [1e5], ids=["time"])
    def test_two_node_cycle_raises(self, horizon):
        with pytest.raises(NumericsError, match=r"deadlock at simulated time 23\.97\d*:"
                                                r" every server among nodes \[1, 2\]"):
            simulate_blocking_network(two_node_cycle_spec(), SimConfig(seed=7, horizon=horizon))

    @pytest.mark.parametrize("horizon", [50.0], ids=["time"])  # the window opens at t = 10
    def test_two_node_cycle_raises_inside_the_window(self, horizon):
        with pytest.raises(NumericsError, match=r"deadlock at simulated time 23\.970119704895424:"
                                                r" every server among nodes \[1, 2\]"):
            simulate_blocking_network(two_node_cycle_spec(), SimConfig(seed=7, horizon=horizon))

    def test_random_network_raises(self):
        # this spec used to report blocked_fraction 1.0 on all four nodes
        rng = np.random.default_rng(3)
        spec = [random_open_network(rng, max_nodes=12) for _ in range(11)][-1]
        with pytest.raises(NumericsError, match=r"nodes \[1, 2, 3, 4\] is blocked"):
            simulate_blocking_network(spec, SimConfig(seed=7, horizon=3000.0))

    def test_self_loop_counts_in_the_walk(self):
        # node 1 waits on itself and node 2, node 2 on node 1
        with pytest.raises(NumericsError, match=r"nodes \[1, 2\] is blocked"):
            simulate_blocking_network(self_loop_spec(1.0), SimConfig(seed=11, horizon=500.0))

    def test_stuck_nodes_walks_the_targets(self):
        tgt = [[1], [0, 2], []]
        assert sim._stuck_nodes(0, tgt, [True, True, False]) is None
        assert sim._stuck_nodes(0, [[1], [0]], [True, True]) == [0, 1]
        assert sim._stuck_nodes(0, [[0, 1], [0], [1]], [True, True, False]) == [0, 1]
