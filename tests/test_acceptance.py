"""End-to-end acceptance checks.

Each criterion is one test that prints a single PASS/FAIL line with the
measured numbers (always, not only on failure) and then asserts.  Tolerances
are stated inline; timing bounds are wall-clock on the machine running the
suite.
"""

import itertools
import json
import time

import numpy as np
import pytest

from qnswap import (
    AnalysisAssumptions,
    NodeMarginal,
    SimConfig,
    analyze_network,
    blocking_node_closed_form,
    cli,
    mm1k_full_probability,
    munoz15_fixture,
    serialize_network,
    shortest_hops,
    simulate_blocking_network,
)
from oracle import (
    BLOCKED,
    BLOCKING_STATES,
    EMPTY,
    SERVING,
    blocking_node_chain,
    fixed_point_traffic,
    joint_probability,
    mm1k_distribution,
    simulate_ctmc,
    steady_state,
)
from conftest import random_open_network, single_queue_spec
import _expected


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_occupancy_tables(capsys, fixture_spec):
    t0 = time.perf_counter()
    analysis = analyze_network(
        fixture_spec, AnalysisAssumptions(blocking_probability_override=0.5))
    elapsed = time.perf_counter() - t0
    worst = 0.0
    ok = True
    for k, row in enumerate(analysis.rows()):
        checks = [
            (row["pi00"], _expected.PI_EMPTY[k], 0.002),
            (row["pi10"], _expected.PI_SERVING[k], 0.002),
            (row["pi01"], _expected.PI_BLOCKED[k], 0.002),
            (row["rho"], _expected.UTILIZATION[k], 0.002),
            (row["kbar"], _expected.UTILIZATION[k], 0.002),
            (row["tbar"], _expected.RESPONSE_TIME[k], 0.005),
        ]
        for got, want, tol in checks:
            worst = max(worst, abs(got - want))
            ok = ok and abs(got - want) <= tol
    ok = ok and elapsed < 1.0
    report(capsys, 1, ok,
           f"11-node occupancy tables, max deviation {worst:.2e}, {elapsed:.3f}s")


def test_criterion_2_network_means(capsys, fixture_spec):
    t0 = time.perf_counter()
    analysis = analyze_network(
        fixture_spec, AnalysisAssumptions(blocking_probability_override=0.5))
    elapsed = time.perf_counter() - t0
    net = analysis.network
    ok = (abs(net.mean_jobs - _expected.NETWORK_MEAN_JOBS) <= 0.001
          and abs(net.mean_response_time - _expected.NETWORK_RESPONSE_TIME) <= 0.01
          and net.external_rate == _expected.EXTERNAL_RATE
          and elapsed < 1.0)
    report(capsys, 2, ok,
           f"K={net.mean_jobs:.6f} (target 0.831±0.001), "
           f"T={net.mean_response_time:.6f} (target 3.324±0.01), "
           f"lambda={net.external_rate}, {elapsed:.3f}s")


def test_criterion_3_balanced_load_limit(capsys):
    ok = mm1k_full_probability(1.0, 1) == 0.5
    worst = 0.0
    for cap in range(1, 11):
        limit = 1.0 / (cap + 1)
        for rho in (1.0 - 1e-8, 1.0 + 1e-8):
            dev = abs(mm1k_full_probability(rho, cap) - limit)
            worst = max(worst, dev)
            ok = ok and dev <= 1e-6
    report(capsys, 3, ok,
           f"full probability continuous at balanced load, "
           f"exact 0.5 at K=1, max deviation {worst:.2e}")


def test_criterion_4_closed_form_vs_solver(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        lam = float(rng.uniform(0.1, 3.0))
        mu = float(rng.uniform(0.1, 3.0))
        mu_b = float(rng.uniform(0.05, 1.0))
        pb = float(rng.uniform(0.0, 1.0))
        closed = blocking_node_closed_form(lam, mu, mu_b, pb)
        solved = steady_state(blocking_node_chain(lam, mu, mu_b, pb))
        for got, s in zip(closed, (EMPTY, SERVING, BLOCKED)):
            worst = max(worst, abs(got - solved.probability(s)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report(capsys, 4, ok,
           f"1000 random draws, closed form vs balance solver, "
           f"max gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_5_traffic_solver(capsys):
    rng = np.random.default_rng(4321)
    worst_residual = 0.0
    worst_conserve = 0.0
    for _ in range(100):
        spec = random_open_network(rng, max_nodes=20)
        rates = fixed_point_traffic(spec)
        for i in spec.ids():
            inflow = spec.external_arrivals.get(i, 0.0) + sum(
                spec.routing.row(j).get(i, 0.0) * rates.rate(j)
                for j in spec.ids())
            worst_residual = max(worst_residual, abs(rates.rate(i) - inflow))
        leaving = sum(rates.rate(i) * spec.exit_probability(i) for i in spec.ids())
        worst_conserve = max(worst_conserve, abs(rates.total_external - leaving))
    ok = worst_residual <= 1e-10 and worst_conserve <= 1e-9
    report(capsys, 5, ok,
           f"100 random networks, fixed-point residual {worst_residual:.2e}, "
           f"conservation gap {worst_conserve:.2e}")


def test_criterion_6_product_form_normalization(capsys, fixture_spec):
    analysis = analyze_network(fixture_spec)
    marginals = [NodeMarginal(*pi) for pi in zip(
        analysis.pi00[:3], analysis.pi10[:3], analysis.pi01[:3])]
    states = BLOCKING_STATES.labels
    total = sum(
        joint_probability(marginals, joint)
        for joint in itertools.product(states, repeat=3)
    )
    ok = abs(total - 1.0) <= 1e-12
    report(capsys, 6, ok,
           f"27 joint states sum to {total!r} (tolerance 1e-12)")


def test_criterion_7_simulator_vs_analytics(capsys):
    t0 = time.perf_counter()
    gen = blocking_node_chain(0.94, 1.0, 0.136, 0.5)
    res = simulate_ctmc(gen, SimConfig(seed=0, horizon=1e6, unit="events"))
    dev_a = max(abs(g - w) for g, w in zip(res.occupancy, _expected.NODE1_OCCUPANCY))

    queue = simulate_blocking_network(
        single_queue_spec(0.7, capacity=3),
        SimConfig(seed=5, horizon=1e6, unit="events"))
    want = mm1k_distribution(0.7, 3).probabilities
    dev_b = max(abs(g - w) for g, w in zip(queue.nodes[0].occupancy, want))
    elapsed = time.perf_counter() - t0

    ok = dev_a <= 0.005 and dev_b <= 0.01 and elapsed < 60.0
    report(capsys, 7, ok,
           f"blocking chain dev {dev_a:.2e} (tol 5e-3), "
           f"finite queue dev {dev_b:.2e} (tol 1e-2), {elapsed:.1f}s")


def test_criterion_8_route_lengths(capsys, fixture_spec):
    lengths = {
        shortest_hops(fixture_spec, src.id, dst.id)
        for src, dst in itertools.product(
            fixture_spec.sources(), fixture_spec.sinks())
    }
    ok = lengths == _expected.HOP_LENGTHS
    report(capsys, 8, ok, f"source->sink route lengths {sorted(lengths)}")


def test_criterion_9_byte_identical_outputs(capsys, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(serialize_network(munoz15_fixture()), encoding="utf-8")

    def invoke(*argv):
        code = cli.run(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    ok = True
    for args in (
        ("analyze", "--network", str(path), "--format", "json"),
        ("analyze", "--network", str(path), "--pb", "0.5", "--format", "csv"),
        ("simulate", "--network", str(path), "--seed", "11",
         "--horizon", "500", "--format", "json"),
    ):
        first = invoke(*args)
        second = invoke(*args)
        ok = ok and first == second and len(first) > 0
    report(capsys, 9, ok,
           "repeated analyze and simulate runs are byte-identical")
