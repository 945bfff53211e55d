import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmplace import (
    Automaton,
    AutomatonBank,
    init_bank,
    penalize,
    reward,
    update_from_population,
)
from vmplace.automata import sample_assignments


class TestAutomaton:
    def test_simplex_validation(self):
        Automaton(np.array([0.25, 0.75]))
        with pytest.raises(ValueError):
            Automaton(np.array([0.2, 0.2]))
        with pytest.raises(ValueError):
            Automaton(np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            Automaton(np.array([]))

    def test_probs_read_only(self):
        auto = Automaton(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            auto.probs[0] = 1.0


class TestInitBank:
    def test_uniform_example(self):
        bank = init_bank(2, 4)
        assert bank.n == 2 and bank.m == 4
        for auto in bank.automata:
            assert np.allclose(auto.probs, 0.25)

    def test_single_action(self):
        bank = init_bank(1, 1)
        assert bank.automata[0].probs.tolist() == [1.0]

    @pytest.mark.parametrize("a", [0.0, 1.0, 5.0, -0.5])
    def test_rejects_invalid_reward_factor(self, a):
        with pytest.raises(ValueError):
            init_bank(2, 3, reward_a=a)

    def test_rejects_invalid_penalty_factor(self):
        with pytest.raises(ValueError):
            init_bank(2, 3, penalty_b=1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            init_bank(0, 3)

    def test_matrix_validated_and_read_only(self):
        with pytest.raises(ValueError):
            AutomatonBank(np.array([[0.5, 0.5], [0.2, 0.2]]))
        with pytest.raises(ValueError):
            AutomatonBank(np.array([0.5, 0.5]))
        bank = init_bank(2, 2)
        with pytest.raises(ValueError):
            bank.probs[0, 0] = 1.0


class TestReward:
    def test_half_half_example(self):
        auto = Automaton(np.array([0.5, 0.5]))
        out = reward(auto, 1, 0.5)
        assert abs(out.probs[0] - 0.75) <= 1e-12
        assert abs(out.probs[1] - 0.25) <= 1e-12

    def test_uniform_thirds_example(self):
        auto = Automaton(np.full(3, 1.0 / 3.0))
        out = reward(auto, 2, 0.5)
        assert abs(out.probs[0] - 1.0 / 6.0) <= 1e-12
        assert abs(out.probs[1] - 2.0 / 3.0) <= 1e-12
        assert abs(out.probs[2] - 1.0 / 6.0) <= 1e-12

    def test_zero_factor_is_identity(self):
        auto = Automaton(np.array([0.3, 0.7]))
        out = reward(auto, 2, 0.0)
        assert out.probs.tolist() == [0.3, 0.7]

    def test_action_out_of_range(self):
        auto = Automaton(np.array([0.5, 0.5]))
        with pytest.raises(IndexError):
            reward(auto, 0, 0.5)
        with pytest.raises(IndexError):
            reward(auto, 3, 0.5)

    def test_geometric_convergence(self):
        auto = Automaton(np.array([0.25, 0.25, 0.5]))
        gap = 1.0 - auto.probs[1]
        for t in range(1, 30):
            auto = reward(auto, 2, 0.5)
            assert 1.0 - auto.probs[1] == pytest.approx(gap * 0.5**t, abs=1e-12)


class TestPenalize:
    def test_half_half_example(self):
        auto = Automaton(np.array([0.5, 0.5]))
        out = penalize(auto, 1, 0.1)
        assert abs(out.probs[0] - 0.45) <= 1e-12
        assert abs(out.probs[1] - 0.55) <= 1e-12

    def test_zero_factor_is_identity(self):
        auto = Automaton(np.array([0.3, 0.7]))
        out = penalize(auto, 1, 0.0)
        assert out.probs.tolist() == [0.3, 0.7]

    def test_single_action_unchanged(self):
        auto = Automaton(np.array([1.0]))
        assert penalize(auto, 1, 0.2).probs.tolist() == [1.0]


class TestSampling:
    def test_degenerate_always_picks_unit_action(self):
        bank = AutomatonBank(np.array([[0.0, 1.0, 0.0]]))
        draws = sample_assignments(bank, 100, np.random.default_rng(5))
        assert draws.shape == (100, 1)
        assert (draws == 1).all()

    def test_zero_draws_give_empty_rows(self):
        draws = sample_assignments(init_bank(4, 3), 0, np.random.default_rng(0))
        assert draws.shape == (0, 4)
        assert draws.dtype.kind == "i"

    def test_deterministic_for_seed(self):
        bank = init_bank(4, 3)
        a = sample_assignments(bank, 1, np.random.default_rng(9))
        b = sample_assignments(bank, 1, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_uniform_frequencies(self):
        bank = init_bank(1, 4)
        rng = np.random.default_rng(123)
        draws = sample_assignments(bank, 100_000, rng)[:, 0]
        freqs = np.bincount(draws, minlength=4) / draws.size
        assert np.all(np.abs(freqs - 0.25) < 0.01)

    def test_never_draws_zero_probability_action(self):
        # the row's cumsum ends at 0.9999999999999999, below the largest draw
        bank = AutomatonBank(np.array([[0.16908912183775923, 0.8309108781622406, 0.0]]))
        draws = sample_assignments(bank, 1, FixedDraws(np.array([[np.nextafter(1.0, 0.0)]])))
        assert draws.tolist() == [[1]]

    def test_matrix_and_single_draws_agree(self):
        bank = init_bank(3, 4)
        single = sample_assignments(bank, 1, np.random.default_rng(21))
        batch = sample_assignments(bank, 2, np.random.default_rng(21))
        assert np.array_equal(batch[0], single[0])


def legacy_sample_assignments(bank, k, rng):
    """The former sampler: counts over the last axis of a ``(k, n, m)`` comparison."""
    cum = np.cumsum(bank.probs, axis=1)
    u = rng.random((k, bank.n))
    idx = (cum[None, :, :] <= u[:, :, None]).sum(axis=2)
    return np.minimum(idx, bank.m - 1)


class FixedDraws:
    """Stands in for a generator: ``random`` returns the given draws."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        assert shape == self.u.shape
        return self.u.copy()


@st.composite
def banks_and_draws(draw):
    """A bank whose rows may hold zero-probability actions, and draws that
    include the rows' exact cumulative sums."""
    n, m, k = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    weights = np.array(draw(st.lists(
        st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.25, 1.0, 3.0]), min_size=m, max_size=m).filter(any),
        min_size=n, max_size=n)))
    probs = weights / weights.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    u = np.array(draw(st.lists(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n),
                               min_size=k, max_size=k)))
    for row in u:
        for i in range(n):
            if draw(st.booleans()):
                row[i] = cum[i, draw(st.integers(0, m - 1))] % 1.0
    return AutomatonBank(probs), u


class TestSampleAssignmentsReference:
    @settings(max_examples=200)
    @given(case=banks_and_draws())
    def test_matches_legacy_draws(self, case):
        bank, u = case
        new = sample_assignments(bank, u.shape[0], FixedDraws(u))
        old = legacy_sample_assignments(bank, u.shape[0], FixedDraws(u))
        assert new.dtype == old.dtype
        # the legacy sampler can draw a zero-probability last action when a
        # row's cumsum rounds below 1; the new one takes the last positive one
        vms = np.arange(bank.n)
        last = np.array([np.flatnonzero(row)[-1] for row in bank.probs])
        expected = np.where(bank.probs[vms, old] > 0, old, last)
        assert new.tolist() == expected.tolist()

    def test_matches_legacy_on_generator(self):
        bank = AutomatonBank(np.array([[0.0, 0.5, 0.0, 0.5], [0.25, 0.25, 0.25, 0.25]]))
        new = sample_assignments(bank, 50, np.random.default_rng(4))
        assert new.tolist() == legacy_sample_assignments(bank, 50, np.random.default_rng(4)).tolist()


class TestUpdateFromPopulation:
    def test_reward_then_penalize_composite(self):
        # one VM, two servers: reward server 1 (a=0.5) then penalize server 2 (b=0.1)
        bank = AutomatonBank(np.array([[0.5, 0.5]]), reward_a=0.5, penalty_b=0.1)
        out = update_from_population(bank, np.array([0]), np.array([1]))
        probs = out.automata[0].probs
        assert abs(probs[0] - 0.775) <= 1e-12
        assert abs(probs[1] - 0.225) <= 1e-12

    def test_length_mismatch_rejected(self):
        bank = init_bank(2, 3)
        with pytest.raises(ValueError):
            update_from_population(bank, np.array([0]), np.array([1, 1]))
        with pytest.raises(ValueError):
            update_from_population(bank, np.array([0, 1]), np.array([1]))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_action_out_of_range(self, bad):
        # fancy indexing would wrap -1 silently; the bank must refuse it
        bank = init_bank(2, 3)
        with pytest.raises(IndexError):
            update_from_population(bank, np.array([0, bad]), np.array([1, 1]))
        with pytest.raises(IndexError):
            update_from_population(bank, np.array([0, 1]), np.array([bad, 1]))

    def test_pure_reward_when_penalty_disabled(self):
        bank = AutomatonBank(np.array([[0.5, 0.5]]), reward_a=0.5, penalty_b=0.0)
        out = update_from_population(bank, np.array([0]), np.array([1]))
        assert abs(out.automata[0].probs[0] - 0.75) <= 1e-12

    @settings(max_examples=60)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 160),
        a=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        b=st.floats(0.0, 1.0, exclude_max=True),
        seed=st.integers(0, 2**31),
        steps=st.integers(1, 8),
    )
    def test_matches_row_by_row_rule_bit_for_bit(self, n, m, a, b, seed, steps):
        rng = np.random.default_rng(seed)
        bank = AutomatonBank(rng.dirichlet(np.ones(m), n), reward_a=a, penalty_b=b)
        automata = list(bank.automata)
        for _ in range(steps):
            best, worst = rng.integers(0, m, n), rng.integers(0, m, n)
            bank = update_from_population(bank, best, worst)
            automata = [
                penalize(reward(auto, good + 1, a), bad + 1, b)
                for auto, good, bad in zip(automata, best, worst)
            ]
            assert np.array_equal(bank.probs, np.stack([auto.probs for auto in automata]))


class TestSimplexPreservation:
    @settings(max_examples=40)
    @given(
        m=st.integers(2, 10),
        seed=st.integers(0, 2**31),
        steps=st.integers(1, 200),
    )
    def test_random_operation_sequences(self, m, seed, steps):
        rng = np.random.default_rng(seed)
        auto = Automaton(np.full(m, 1.0 / m))
        for _ in range(steps):
            action = int(rng.integers(1, m + 1))
            if rng.random() < 0.5:
                auto = reward(auto, action, 0.5)
            else:
                auto = penalize(auto, action, 0.05)
        assert abs(auto.probs.sum() - 1.0) <= 1e-9
        assert auto.probs.min() >= 0.0

    def test_reward_moves_mass_toward_action(self):
        auto = Automaton(np.array([0.4, 0.6]))
        assert reward(auto, 1, 0.3).probs[0] > 0.4
        assert penalize(auto, 1, 0.3).probs[0] < 0.4
