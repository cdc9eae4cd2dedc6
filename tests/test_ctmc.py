"""Chain construction, steady states, and the finite-queue formulas.

The blocking-node closed form and the general balance-equation solver are
two independent routes to the same distribution; they are compared here and
must never be merged into one code path.
"""

import math

import numpy as np
import pytest

from qnswap import (
    InputError,
    NumericsError,
    blocking_node_closed_form,
    mm1k_full_probability,
)
from oracle import (
    BLOCKED,
    BLOCKING_STATES,
    EMPTY,
    Generator,
    MarginalDistribution,
    SERVING,
    StateSpace,
    blocking_node_chain,
    build_generator,
    closed_class_count,
    is_irreducible,
    mm1k_distribution,
    steady_state,
)


def random_irreducible_generator(rng, max_states=8):
    """Sparse random generator with a guaranteed covering cycle."""
    n = int(rng.integers(2, max_states + 1))
    triples = [(k, (k + 1) % n, float(rng.uniform(0.1, 2.0))) for k in range(n)]
    extra = int(rng.integers(0, 2 * n))
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            triples.append((int(a), int(b), float(rng.uniform(0.0, 3.0))))
    return build_generator(StateSpace(tuple(range(n))), triples)


class TestStateSpace:
    def test_index_and_membership(self):
        assert BLOCKING_STATES.index(SERVING) == 1
        assert BLOCKED in BLOCKING_STATES
        assert list(BLOCKING_STATES) == [EMPTY, SERVING, BLOCKED]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            StateSpace(("a", "a"))

    def test_unknown_label(self):
        with pytest.raises(InputError, match=r"state \(9, 9\) is not in the state space"):
            BLOCKING_STATES.index((9, 9))


class TestGeneratorConstruction:
    def test_blocking_chain_matrix_is_exact(self):
        gen = blocking_node_chain(0.94, 1.0, 0.136, 0.5)
        assert gen.states.labels == (EMPTY, SERVING, BLOCKED)
        expected = np.array([
            [-0.94, 0.94, 0.0],
            [0.5, -1.0, 0.5],
            [0.136, 0.0, -0.136],
        ])
        assert np.array_equal(gen.rates, expected)

    def test_duplicate_transitions_sum(self):
        gen = build_generator(StateSpace((0, 1)), [(0, 1, 0.3), (0, 1, 0.2), (1, 0, 1.0)])
        assert gen.rates[0, 1] == 0.5

    def test_self_transition_rejected(self):
        with pytest.raises(ValueError, match="self-transition"):
            build_generator(StateSpace((0, 1)), [(0, 0, 1.0)])

    def test_negative_rate_rejected(self):
        with pytest.raises(InputError, match="transition 0->1 must be nonnegative, got -0.1"):
            build_generator(StateSpace((0, 1)), [(0, 1, -0.1)])

    def test_unknown_label_rejected(self):
        with pytest.raises(InputError, match="state 2 is not in the state space"):
            build_generator(StateSpace((0, 1)), [(0, 2, 1.0)])

    def test_rows_always_sum_to_zero(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            gen = random_irreducible_generator(rng)
            assert np.max(np.abs(gen.rates.sum(axis=1))) <= 1e-12

    def test_bad_row_sum_rejected_at_type_level(self):
        q = np.array([[-1.0, 1.0], [1.0, -0.5]])
        with pytest.raises(ValueError, match="sum to zero"):
            Generator(StateSpace((0, 1)), q)

    def test_negative_off_diagonal_rejected(self):
        q = np.array([[0.5, -0.5], [1.0, -1.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            Generator(StateSpace((0, 1)), q)

    def test_rates_are_frozen(self):
        gen = blocking_node_chain(1.0, 1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            gen.rates[0, 0] = 0.0


class TestSteadyState:
    def test_two_state_chain(self):
        # flip rate a up, b down: pi = (b, a) / (a + b)
        a, b = 0.3, 0.7
        gen = build_generator(StateSpace(("down", "up")), [("down", "up", a), ("up", "down", b)])
        pi = steady_state(gen)
        assert pi.probability("down") == pytest.approx(b / (a + b), abs=1e-14)
        assert pi.probability("up") == pytest.approx(a / (a + b), abs=1e-14)

    def test_solver_invariants_on_random_chains(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            gen = random_irreducible_generator(rng)
            pi = steady_state(gen)
            p = np.array(pi.probabilities)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.max(np.abs(p @ gen.rates)) <= 1e-10

    def test_absorbing_state_gets_all_mass(self):
        gen = build_generator(StateSpace(("t", "a")), [("t", "a", 2.0)])
        assert closed_class_count(gen) == 1
        assert not is_irreducible(gen)
        pi = steady_state(gen)
        assert pi.probability("a") == 1.0

    def test_two_closed_classes_rejected(self):
        gen = build_generator(
            StateSpace((0, 1, 2)),
            [(0, 1, 1.0), (0, 2, 1.0)],  # two absorbing targets
        )
        assert closed_class_count(gen) == 2
        with pytest.raises(NumericsError, match="chain has 2 closed communicating classes"):
            steady_state(gen)

    def test_closed_form_matches_balance_solver(self):
        """1000 random parameter draws through both routes."""
        rng = np.random.default_rng(23)
        for _ in range(1000):
            lam = float(rng.uniform(0.1, 3.0))
            mu = float(rng.uniform(0.1, 3.0))
            mu_b = float(rng.uniform(0.05, 1.0))
            pb = float(rng.uniform(0.0, 1.0))
            closed = blocking_node_closed_form(lam, mu, mu_b, pb)
            solved = steady_state(blocking_node_chain(lam, mu, mu_b, pb))
            for got, s in zip(closed, (EMPTY, SERVING, BLOCKED)):
                assert abs(got - solved.probability(s)) <= 1e-10


class TestBlockingClosedForm:
    def test_node_one_values(self):
        pi = blocking_node_closed_form(0.94, 1.0, 0.136, 0.5)
        assert pi.pi00 == pytest.approx(0.18532650168974166, abs=1e-15)
        assert pi.pi10 == pytest.approx(0.17420691158835713, abs=1e-15)
        assert pi.pi01 == pytest.approx(0.6404665867219013, abs=1e-15)

    def test_no_blocking_reduces_to_two_states(self):
        pi = blocking_node_closed_form(0.7, 1.0, 0.2, 0.0)
        assert pi.pi01 == 0.0
        mm11 = mm1k_distribution(0.7, 1)
        assert pi.pi00 == pytest.approx(mm11.probabilities[0], abs=1e-15)

    def test_blocking_probability_range_checked(self):
        for pb in (1.5, -0.1, float("nan")):
            with pytest.raises(InputError, match=rf"blocking probability: probability {pb!r}"):
                blocking_node_closed_form(0.7, 1.0, 0.2, pb)

    def test_overflow_is_not_a_distribution(self):
        # finite rates, but lambda / mu overflows: the marginal would hold NaN
        with pytest.raises(NumericsError, match="is not a distribution"):
            blocking_node_closed_form(1e200, 1e-200, 1.0, 0.5)

    def test_zero_unblock_rate_rejected_when_blocking(self):
        with pytest.raises((InputError, ValueError, ZeroDivisionError),
                           match="unblock rate must be"):
            blocking_node_closed_form(0.7, 1.0, 0.0, 0.5)

    def test_zero_rate_is_an_input_error(self):
        with pytest.raises(InputError, match="^arrival rate must be positive$"):
            blocking_node_closed_form(0.0, 1.0, 0.2, 0.5)

    def test_scalar_call_returns_floats(self):
        pi = blocking_node_closed_form(0.94, 1.0, 0.136, 0.5)
        assert [type(p) for p in pi] == [float, float, float]

    def test_array_call_matches_scalar_calls(self):
        lam = np.array([0.94, 0.7, 1.6])
        pi = blocking_node_closed_form(lam, 1.0, np.array([0.136, 0.2, 0.173]), 0.5)
        for k in range(3):
            want = blocking_node_closed_form(float(lam[k]), 1.0, [0.136, 0.2, 0.173][k], 0.5)
            assert [float(p[k]) for p in pi] == list(want)

    def test_array_call_reports_first_bad_element(self):
        # element 1 fails two checks; the scalar order picks the service rate
        with pytest.raises(InputError, match=r"^service rate must be nonnegative, got -1\.0$"):
            blocking_node_closed_form([0.7, 0.7, -1.0], [1.0, -1.0, 1.0], 0.2, [0.5, 2.0, 0.5])
        # an overflow before the first bad input is reported first, and after it not
        with pytest.raises(NumericsError, match="is not a distribution"):
            blocking_node_closed_form([1e200, -1.0], [1e-200, 1.0], 1.0, 0.5)
        with pytest.raises(InputError, match="arrival rate must be nonnegative"):
            blocking_node_closed_form([-1.0, 1e200], [1.0, 1e-200], 1.0, 0.5)


def geometric_occupancy(rho: float, capacity: int) -> list[float]:
    """Direct normalization of the birth-death weights; test-local oracle."""
    weights = [rho ** n for n in range(capacity + 1)]
    total = math.fsum(weights)
    return [w / total for w in weights]


class TestFiniteQueueFormulas:
    @pytest.mark.parametrize("rho", [0.0, 0.2, 0.7, 0.97, 1.5, 2.5])
    @pytest.mark.parametrize("capacity", [1, 2, 3, 5, 10])
    def test_distribution_matches_geometric_oracle(self, rho, capacity):
        got = mm1k_distribution(rho, capacity).probabilities
        want = geometric_occupancy(rho, capacity)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12

    @pytest.mark.parametrize("capacity", range(1, 11))
    def test_distribution_matches_explicit_birth_death_chain(self, capacity):
        rho = 0.85
        triples = []
        for n in range(capacity):
            triples.append((n, n + 1, rho))   # arrivals at rate rho (mu = 1)
            triples.append((n + 1, n, 1.0))   # services at rate 1
        gen = build_generator(StateSpace(tuple(range(capacity + 1))), triples)
        pi = steady_state(gen)
        got = mm1k_distribution(rho, capacity).probabilities
        assert max(abs(a - b) for a, b in zip(got, pi.probabilities)) <= 1e-10

    def test_balanced_single_slot_is_half(self):
        assert mm1k_full_probability(1.0, 1) == 0.5

    @pytest.mark.parametrize("capacity", range(1, 11))
    def test_continuity_at_balanced_load(self, capacity):
        limit = 1.0 / (capacity + 1)
        for rho in (1.0 - 1e-8, 1.0 + 1e-8):
            assert abs(mm1k_full_probability(rho, capacity) - limit) <= 1e-6
        assert mm1k_full_probability(1.0, capacity) == limit

    def test_overload_does_not_overflow(self):
        # naive rho**K overflows around K ~ 1000 for rho = 2
        p = mm1k_full_probability(2.0, 5000)
        assert math.isfinite(p)
        assert p == pytest.approx(0.5, abs=1e-12)
        d = mm1k_distribution(1.5, 800)
        assert math.isfinite(d.probabilities[0])
        assert abs(sum(d.probabilities) - 1.0) <= 1e-9

    @pytest.mark.parametrize("rho", [0.3, 0.97, 1.0, 1.0 + 5e-10, 1.3])
    def test_last_entry_equals_full_probability(self, rho):
        d = mm1k_distribution(rho, 4)
        assert d.probabilities[-1] == mm1k_full_probability(rho, 4)

    def test_empty_queue_when_idle(self):
        d = mm1k_distribution(0.0, 3)
        assert d.probabilities == (1.0, 0.0, 0.0, 0.0)
        assert mm1k_full_probability(0.0, 3) == 0.0

    def test_negative_rho_rejected(self):
        with pytest.raises(InputError, match="utilization must be nonnegative, got -0.1"):
            mm1k_full_probability(-0.1, 3)

    def test_nan_rho_rejected(self):
        with pytest.raises(InputError, match="utilization must be nonnegative, got nan"):
            mm1k_full_probability(float("nan"), 1)
        # an infinite utilization keeps its limit: the queue is always full
        assert mm1k_full_probability(math.inf, 1) == 1.0

    @pytest.mark.parametrize("capacity", [0, -1, 2.5])
    def test_bad_capacity_rejected(self, capacity):
        with pytest.raises(ValueError):
            mm1k_distribution(0.5, capacity)


class TestMarginalDistribution:
    def test_lookup_and_dict(self):
        pi = MarginalDistribution(StateSpace(("x", "y")), (0.25, 0.75))
        assert pi.probability("y") == 0.75
        assert pi.as_dict() == {"x": 0.25, "y": 0.75}

    def test_tiny_negative_is_clamped(self):
        pi = MarginalDistribution(StateSpace(("x", "y")), (-1e-13, 1.0 + 1e-13))
        assert pi.probabilities[0] == 0.0

    def test_real_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            MarginalDistribution(StateSpace(("x", "y")), (-0.1, 1.1))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="one probability per state"):
            MarginalDistribution(StateSpace(("x", "y")), (1.0,))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            MarginalDistribution(StateSpace(("x", "y")), (0.6, 0.6))
