import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rewardlab import (
    CounterexampleRecord,
    Mdp,
    OptimalityPreserving,
    PotentialFn,
    PotentialShaping,
    RewardTable,
    StochasticPolicy,
    is_trivial_transition,
    occupancy,
    optimal_values,
    ord_equivalent,
    policy_evaluate,
    reward_vector,
    soft_optimal_values,
    validate_mdp,
)
from rewardlab.errors import CapacityError, StructuralError
from rewardlab.mdp import ActionSetPolicy, enumerate_action_tuples

from conftest import make_chain, make_chain_reward


class TestValidateMdp:
    def test_chain_is_valid(self, chain):
        report = validate_mdp(chain)
        assert report.ok
        assert report.violations == ()

    def test_unreachable_state_reported(self, chain):
        # Redirect the only edge into s1 back to s0: s1 becomes unreachable.
        tau = chain.transition.copy()
        tau[0, 1] = [1.0, 0.0]
        broken = Mdp(transition=tau, initial=chain.initial, discount=0.5)
        report = validate_mdp(broken)
        assert not report.ok
        assert ("unreachable-state", "s1", 1.0) in report.violations

    def test_row_sum_violation(self, chain):
        tau = chain.transition.copy()
        tau[0, 0] = [0.5, 0.4]
        report = validate_mdp(Mdp(transition=tau, initial=chain.initial, discount=0.5))
        assert not report.ok
        rules = {(v[0], v[1]) for v in report.violations}
        assert ("row-sum", "(s0,a0)") in rules

    def test_negative_entry_and_mu0(self, chain):
        tau = chain.transition.copy()
        tau[1, 1] = [1.5, -0.5]
        report = validate_mdp(Mdp(transition=tau, initial=np.array([0.7, 0.2]), discount=0.5))
        assert "negative-entry" in report.rule_ids()
        assert "mu0-sum" in report.rule_ids()

    def test_non_finite_entries_counted(self, chain):
        tau = chain.transition.copy()
        tau[0, 1] = [np.nan, np.inf]
        report = validate_mdp(Mdp(transition=tau, initial=np.array([np.nan, 1.0]), discount=0.5))
        assert report.violations == (("non-finite", "transition", 2.0), ("non-finite", "mu0", 1.0))

    def test_shape_mismatch_is_structural(self):
        with pytest.raises(StructuralError):
            Mdp(transition=np.ones((2, 2)), initial=np.array([1.0, 0.0]), discount=0.5)
        with pytest.raises(StructuralError):
            Mdp(transition=np.ones((2, 2, 3)) / 3, initial=np.array([1.0, 0.0]), discount=0.5)

    def test_discount_range(self, chain):
        for gamma in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(StructuralError):
                Mdp(transition=chain.transition, initial=chain.initial, discount=gamma)

    def test_validated_inputs_are_immutable(self, chain):
        with pytest.raises(ValueError):
            chain.transition[0, 0, 0] = 0.0


class TestTrivialTransition:
    def test_chain_not_trivial(self, chain):
        assert not is_trivial_transition(chain)

    def test_single_action_is_trivial(self):
        tau = np.array([[[0.3, 0.7]], [[1.0, 0.0]]])
        mdp = Mdp(transition=tau, initial=np.array([0.5, 0.5]), discount=0.9)
        assert is_trivial_transition(mdp)

    def test_uniform_rows_trivial(self):
        mdp = Mdp(
            transition=np.full((3, 2, 3), 1 / 3), initial=np.full(3, 1 / 3), discount=0.9
        )
        assert is_trivial_transition(mdp)


class TestEnumerate:
    def test_chain_has_four_policies(self, chain):
        actions = enumerate_action_tuples(chain.n_states, chain.n_actions)
        # s0-major lexicographic order: (a0,a0), (a0,a1), (a1,a0), (a1,a1)
        assert [tuple(a) for a in actions] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_three_states_two_actions(self):
        assert enumerate_action_tuples(3, 2).shape == (8, 3)

    def test_cap_exceeded(self):
        with pytest.raises(CapacityError):
            enumerate_action_tuples(10, 5)

    def test_policies_distinct_and_one_hot(self):
        actions = enumerate_action_tuples(3, 3)
        assert len({tuple(a) for a in actions}) == 27
        for a in actions:
            p = StochasticPolicy(np.eye(3)[a]).probs
            assert set(np.unique(p)) == {0.0, 1.0}
            assert np.all(p.sum(axis=1) == 1.0)


class TestRewardTable:
    def test_lift_sa_broadcast(self):
        # from_sa lifts an (S, A) table to the full (S, A, S') tensor
        table = np.array([[1.0, 0.0], [0.0, 2.0]])
        r = RewardTable.from_sa(table)
        assert r.values.shape == (2, 2, 2)
        assert np.all(r.values == table[:, :, None])
        assert np.all(r.values[0, 0, :] == 1.0)
        assert np.all(r.values[1, 1, :] == 2.0)

    def test_lift_preserves_reward_vector_bitwise(self, chain):
        # the lifted table gives the same expected rewards, bit for bit,
        # as the full tensor written out by hand
        table = np.array([[0.3, -0.7], [1.1, 0.0]])
        r = RewardTable.from_sa(table)
        full = RewardTable(np.repeat(table[:, :, None], 2, axis=2))
        assert np.array_equal(reward_vector(r, chain), reward_vector(full, chain))

    def test_from_state_broadcast(self):
        r = RewardTable.from_state([2.0, -1.0], n_actions=3)
        assert r.values.shape == (2, 3, 2)
        assert np.all(r.values[0] == 2.0)
        assert np.all(r.values[1] == -1.0)

    def test_non_finite_values_refused(self):
        with pytest.raises(StructuralError):
            RewardTable(np.full((2, 2, 2), np.nan))


class TestPolicies:
    def test_row_sums_checked(self):
        with pytest.raises(StructuralError):
            StochasticPolicy(np.array([[0.5, 0.4], [1.0, 0.0]]))
        with pytest.raises(StructuralError):
            StochasticPolicy(np.array([[1.2, -0.2], [1.0, 0.0]]))

    def test_nan_probabilities_refused(self):
        # NaN passes both "p < 0" and the row-sum test; the sign test must reject it.
        with pytest.raises(StructuralError, match="non-negative"):
            StochasticPolicy(np.array([[np.nan, np.nan], [0.5, 0.5]]))

    def test_action_sets_must_be_nonempty(self):
        with pytest.raises(StructuralError, match="empty"):
            ActionSetPolicy(np.array([[True, False], [False, False]]))
        with pytest.raises(StructuralError, match="empty"):
            ActionSetPolicy(np.zeros((2, 0), dtype=bool))
        for not_2d in (np.array([True, False]), np.ones((2, 2, 2), dtype=bool), True):
            with pytest.raises(StructuralError, match="shape"):
                ActionSetPolicy(not_2d)

    def test_action_sets_normalise_numpy_integers(self):
        policy = ActionSetPolicy(np.array([[1, 1, 0], [0, 0, 3], [1, 0, 0]], dtype=np.int64))
        assert policy.mask.dtype == bool and not policy.mask.flags.writeable
        assert tuple(policy) == (frozenset({0, 1}), frozenset({2}), frozenset({0}))
        assert all(type(s) is frozenset and all(type(a) is int for a in s) for s in policy)

    def test_action_sets_compare_by_mask(self):
        policy = ActionSetPolicy([[True, False], [True, True]])
        assert tuple(policy) == ({0}, {0, 1})
        assert policy == ActionSetPolicy(np.array([[1, 0], [1, 1]]))
        assert not policy != ActionSetPolicy(np.array([[1, 0], [1, 1]]))
        assert policy != ActionSetPolicy([[True, False], [False, True]])
        assert policy != ActionSetPolicy([[True, False]])
        assert policy != (frozenset({0}), frozenset({0, 1}))


@pytest.mark.parametrize("n_actions", [1, 2, 8, 9, 70])
def test_mask_sets_match_per_row_reference(n_actions):
    """The mask round-trips unchanged, and policy[s] is row s's columns as a frozenset of ints."""
    rng = np.random.default_rng(n_actions)
    member = rng.random((200, n_actions)) < rng.uniform(0.0, 1.0, size=(200, 1))
    member[np.arange(200), rng.integers(0, n_actions, size=200)] = True  # no empty row
    policy = ActionSetPolicy(member)
    assert np.array_equal(policy.mask, member) and len(policy) == 200
    assert tuple(policy) == tuple(frozenset(np.flatnonzero(row).tolist()) for row in member)
    assert all(type(policy[s]) is frozenset and all(type(a) is int for a in policy[s]) for s in range(200))


@settings(max_examples=25, deadline=None)
@given(
    n_states=st.integers(2, 4),
    n_actions=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_row_normalized_dense_tensors_validate(n_states, n_actions, seed):
    rng = np.random.default_rng(seed)
    tau = rng.random((n_states, n_actions, n_states)) + 0.05
    tau /= tau.sum(axis=2, keepdims=True)
    mu0 = rng.random(n_states) + 0.05
    mu0 /= mu0.sum()
    report = validate_mdp(Mdp(transition=tau, initial=mu0, discount=0.9))
    assert report.ok


def test_chain_matches_fixture_helper(chain):
    assert np.array_equal(make_chain().transition, chain.transition)



VALUE_OBJECTS = ["Mdp", "RewardTable", "StochasticPolicy", "PotentialFn", "OptimalityPreserving", "PotentialShaping",
                 "ValueBundle", "OptimalBundle", "SoftBundle", "OccupancyVector", "EquivVerdict",
                 "CounterexampleRecord"]


def _value_objects() -> dict:
    """One instance of every value object that holds an ndarray, and of composites of them, built from scratch."""
    mdp, r, uniform = make_chain(), make_chain_reward(), StochasticPolicy(np.full((2, 2), 0.5))
    verdict = ord_equivalent(r, RewardTable(2.0 * r.values), mdp)
    assert verdict.certificate is not None
    return {
        "Mdp": mdp,
        "RewardTable": r,
        "StochasticPolicy": uniform,
        "PotentialFn": PotentialFn([0.0, 1.0]),
        "OptimalityPreserving": OptimalityPreserving(psi=[1.0, 2.0], slack=-np.ones((2, 2))),
        "PotentialShaping": PotentialShaping(PotentialFn([0.0, 1.0])),
        "ValueBundle": policy_evaluate(mdp, r, uniform),
        "OptimalBundle": optimal_values(mdp, r),
        "SoftBundle": soft_optimal_values(mdp, r, 0.5),
        "OccupancyVector": occupancy(mdp, uniform),
        "EquivVerdict": verdict,
        "CounterexampleRecord": CounterexampleRecord(mdp, make_chain(0.9), r, make_chain_reward(), {}, {}),
    }


@pytest.fixture(scope="module")
def two_builds():
    return _value_objects(), _value_objects()


@pytest.mark.parametrize("name", VALUE_OBJECTS)
def test_value_objects_compare_and_hash_by_identity(two_builds, name):
    """Equal values are not equal objects: == and != answer by identity instead of raising on an array."""
    a, b = (build[name] for build in two_builds)
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True and (a != a) is False
    if name == "CounterexampleRecord":  # its evidence and params are dicts
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(a) and isinstance(hash(b), int)
