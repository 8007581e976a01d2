import itertools
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from rewardlab import (
    Mdp,
    RewardTable,
    StochasticPolicy,
    controllable_states,
    is_trivial_transition,
    occupancy,
    optimal_values,
    policy_evaluate,
    reward_vector,
    soft_optimal_values,
)
from rewardlab import solve
from rewardlab.errors import CapacityError, ConvergenceError, StructuralError
from rewardlab.lab import random_mdp, random_policy, random_reward
from rewardlab.mdp import DEFAULT_ENUM_CAP, enumerate_action_tuples
from rewardlab.solve import DEFAULT_TOL, IMPROVE_RTOL, TIE_TOL, vertex_j
from rewardlab.transform import LinearScaling, PotentialFn, PotentialShaping, apply

import oracles

ALWAYS_STAY = StochasticPolicy(np.array([[1.0, 0.0], [1.0, 0.0]]))
SWITCH_THEN_STAY = StochasticPolicy(np.array([[0.0, 1.0], [1.0, 0.0]]))
ONE_STATE_REWARD = RewardTable.from_sa(np.array([[0.0, 1.0]]))  # 1 state; the chain has 2
ONE_STATE_POLICY = StochasticPolicy(np.array([[1.0]]))


def _detour_instance():
    """s0: a0 earns 1 and stays, a1 earns 0 and moves to s1, which pays 2 forever.

    At gamma = 0.9 the greedy-on-r choice a0 at s0 (V = 10) loses to a1 (V = 18).
    """
    tau = np.zeros((2, 2, 2))
    tau[0, 0, 0] = tau[0, 1, 1] = tau[1, :, 1] = 1.0
    mdp = Mdp(tau, np.array([1.0, 0.0]), 0.9)
    return mdp, RewardTable.from_sa(np.array([[1.0, 0.0], [2.0, 2.0]]))


def _deep_detour_instance():
    """s0: a0 earns 1 and stays, a1 enters the zero-reward chain s1 -> ... -> s5, and s5 pays 2 forever.

    At gamma = 0.95, a1 at s0 is worth 40 * 0.95^5 = 30.95 against a0's 20. The
    detour is five zero-reward steps deep, deeper than solve.WARM_SWEEPS sweeps
    from v = 0 can see, so Howard starts from a0 at s0 and needs a second step.
    """
    tau = np.zeros((6, 2, 6))
    tau[np.arange(6), :, [1, 2, 3, 4, 5, 5]] = 1.0
    tau[0, 0] = np.eye(6)[0]
    r = np.zeros((6, 2))
    r[0, 0], r[5] = 1.0, 2.0
    return Mdp(tau, np.eye(6)[0], 0.95), RewardTable.from_sa(r)


def _oracle_instances(count, seed=2024):
    """Seeded (mdp, r, alpha): S 2-6, A 2-4, gamma 0.5-0.99, alpha log-uniform in [1e-3, 10]."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, k = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        gamma = float(rng.uniform(0.5, 0.99))
        alpha = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        mdp = random_mdp(n, k, gamma, seed=seed + i)
        yield mdp, random_reward(mdp, seed=10_000 + seed + i), alpha


def _tied_instance(n_states, n_actions, scale, seed):
    """A random MDP whose extra actions copy the transition rows and rewards of earlier ones.

    A copied action has the Q of its original up to round-off far inside the tie
    tolerance, so every state where the original is optimal gets a multi-member
    optimal-action set.
    """
    rng = np.random.default_rng(seed)
    base_actions = int(rng.integers(1, n_actions))
    mdp = random_mdp(n_states, base_actions, float(rng.uniform(0.5, 0.99)), seed=seed)
    cols = np.concatenate([np.arange(base_actions), rng.integers(0, base_actions, n_actions - base_actions)])
    r = oracles.uniform_reward(mdp, seed=seed + 1)
    tied = Mdp(mdp.transition[:, cols], mdp.initial, mdp.discount)
    return tied, RewardTable(scale * r.values[:, cols])


def _one_hot_howard(mdp, r):
    """(q*, v*) by Howard's iteration with T^pi formed as a one-hot einsum."""
    gamma, rsa = mdp.discount, reward_vector(r, mdp)
    states = np.arange(mdp.n_states)
    act = rsa.argmax(axis=1)
    while True:
        t_pi = np.einsum("sa,sap->sp", np.eye(mdp.n_actions)[act], mdp.transition)
        v = np.linalg.solve(np.eye(mdp.n_states) - gamma * t_pi, rsa[states, act])
        q = rsa + gamma * (mdp.transition @ v)
        v_star = q.max(axis=1)
        improve = q[states, act] < v_star - IMPROVE_RTOL * float(np.abs(v).max())
        if not improve.any():
            return q, v_star
        act = np.where(improve, q.argmax(axis=1), act)


TIED_CASES = [(2, 2, 1e-9), (10, 3, 1.0), (40, 5, 1e3), (150, 8, 1e9), (150, 2, 1e-3), (60, 8, 1e6)]


def _sup_gap(a, b):
    return float(np.abs(a - b).max()) / max(1.0, float(np.abs(b).max()))


def _rel_gap(a, b):
    return float(np.abs(a - b).max()) / float(np.abs(b).max())


def _value_scale(mdp, r):
    """max|rv| / (1 - gamma), the unit of the optimisers' DEFAULT_TOL."""
    return float(np.abs(reward_vector(r, mdp)).max()) / (1.0 - mdp.discount)


class TestRewardVector:
    def test_chain_values(self, chain, chain_reward):
        rv = reward_vector(chain_reward, chain)
        assert rv[0, 1] == 1.0 and rv[0, 0] == 0.0
        assert rv[1, 0] == 1.0 and rv[1, 1] == 0.0

    def test_zero_and_constant(self, chain):
        assert np.all(reward_vector(RewardTable(np.zeros((2, 2, 2))), chain) == 0.0)
        rv = reward_vector(RewardTable(np.full((2, 2, 2), 3.25)), chain)
        np.testing.assert_allclose(rv, 3.25)

    @pytest.mark.parametrize(
        "call",
        [
            lambda mdp, r: reward_vector(ONE_STATE_REWARD, mdp),
            lambda mdp, r: optimal_values(mdp, ONE_STATE_REWARD),
            lambda mdp, r: soft_optimal_values(mdp, ONE_STATE_REWARD, 1.0),
            lambda mdp, r: apply(LinearScaling(2.0), ONE_STATE_REWARD, mdp),
            lambda mdp, r: apply(PotentialShaping(PotentialFn(np.full(2, -2.0))), ONE_STATE_REWARD, mdp),
            lambda mdp, r: policy_evaluate(mdp, r, ONE_STATE_POLICY),
            lambda mdp, r: occupancy(mdp, ONE_STATE_POLICY),
        ],
        ids=["reward_vector", "optimal_values", "soft_optimal_values", "apply-scaling", "apply-shift",
             "policy_evaluate", "occupancy"],
    )
    def test_one_state_input_is_not_broadcast(self, chain, chain_reward, call):
        with pytest.raises(StructuralError, match="the MDP"):
            call(chain, chain_reward)


class TestPolicyEvaluate:
    def test_chain_switch_then_stay(self, chain, chain_reward):
        bundle = policy_evaluate(chain, chain_reward, SWITCH_THEN_STAY)
        np.testing.assert_allclose(bundle.v, [2.0, 2.0], atol=1e-12)
        assert bundle.j == pytest.approx(2.0, abs=1e-12)

    def test_chain_always_stay(self, chain, chain_reward):
        bundle = policy_evaluate(chain, chain_reward, ALWAYS_STAY)
        np.testing.assert_allclose(bundle.v, [0.0, 2.0], atol=1e-12)
        assert bundle.j == pytest.approx(0.0, abs=1e-12)

    def test_zero_reward(self, chain):
        bundle = policy_evaluate(chain, RewardTable(np.zeros((2, 2, 2))), SWITCH_THEN_STAY)
        assert np.all(bundle.v == 0.0) and bundle.j == 0.0

    def test_matches_truncated_series_oracle(self):
        for seed in range(8):
            mdp = random_mdp(4, 3, 0.85, seed=seed)
            r = oracles.uniform_reward(mdp, seed=seed + 100)
            pi = random_policy(4, 3, seed=seed + 200)
            bundle = policy_evaluate(mdp, r, pi)
            horizon = oracles.horizon_for(0.85)
            np.testing.assert_allclose(
                bundle.v, oracles.truncated_values(mdp, r, pi.probs, horizon), atol=1e-9
            )

    @pytest.mark.parametrize("c", [1e-9, 1.0, 1e6, 1e9])
    def test_scaled_reward_scales_values(self, c):
        mdp = random_mdp(3, 2, 0.9, seed=0)
        r = random_reward(mdp, seed=1)
        pi = StochasticPolicy(np.full((3, 2), 0.5))
        v = policy_evaluate(mdp, r, pi).v
        v_c = policy_evaluate(mdp, RewardTable(c * r.values), pi).v
        assert np.abs(v_c - c * v).max() <= 1e-12 * c * np.abs(v).max()

    def test_bundle_internal_consistency(self, chain, chain_reward):
        bundle = policy_evaluate(chain, chain_reward, SWITCH_THEN_STAY)
        rsa = reward_vector(chain_reward, chain)
        q_expected = rsa + 0.5 * (chain.transition @ bundle.v)
        np.testing.assert_allclose(bundle.q, q_expected, atol=1e-12)
        assert bundle.j == pytest.approx(float(chain.initial @ bundle.v), abs=1e-12)


class TestOptimalValues:
    def test_chain_exact(self, chain, chain_reward):
        bundle = optimal_values(chain, chain_reward)
        np.testing.assert_allclose(bundle.q_star, [[1.0, 2.0], [2.0, 1.0]], atol=1e-9)
        np.testing.assert_allclose(bundle.v_star, [2.0, 2.0], atol=1e-9)
        assert tuple(bundle.opt_sets) == ({1}, {0})
        assert bundle.residual <= 1e-10
        assert np.all(bundle.a_star <= 0)

    def test_zero_reward_everything_optimal(self, chain):
        bundle = optimal_values(chain, RewardTable(np.zeros((2, 2, 2))))
        assert np.all(bundle.a_star == 0.0)
        assert tuple(bundle.opt_sets) == ({0, 1}, {0, 1})

    def test_scaling_triples_q_keeps_sets(self, chain, chain_reward):
        scaled = RewardTable(3.0 * chain_reward.values)
        base = optimal_values(chain, chain_reward)
        bundle = optimal_values(chain, scaled)
        assert tuple(bundle.opt_sets) == tuple(base.opt_sets)
        np.testing.assert_allclose(bundle.q_star, 3.0 * base.q_star, atol=1e-8)
        assert tuple(bundle.opt_sets) == oracles.brute_force_opt_sets(chain, scaled)

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
    def test_agrees_with_enumeration_oracle(self, scale):
        for seed in range(12):
            mdp = random_mdp(3, 3, 0.8, seed=seed)
            r = RewardTable(scale * random_reward(mdp, seed=seed + 50).values)
            assert tuple(optimal_values(mdp, r).opt_sets) == oracles.brute_force_opt_sets(mdp, r)

    def test_exhausted_cap_reports_nonconvergence(self, monkeypatch):
        mdp, r = _deep_detour_instance()
        monkeypatch.setattr(solve, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as err:
            optimal_values(mdp, r)
        assert err.value.residual is not None
        monkeypatch.setattr(solve, "MAX_ITER", 2)
        bundle = optimal_values(mdp, r)
        assert tuple(bundle.opt_sets) == ({1},) + ({0, 1},) * 5
        np.testing.assert_allclose(bundle.v_star, 40.0 * 0.95 ** np.arange(5, -1, -1), atol=1e-12)


    @pytest.mark.parametrize("n_states, n_actions, scale", TIED_CASES)
    def test_opt_sets_match_per_state_reference_on_exact_ties(self, n_states, n_actions, scale):
        mdp, r = _tied_instance(n_states, n_actions, scale, seed=n_states + n_actions)
        bundle = optimal_values(mdp, r)
        a_star = bundle.a_star
        tie = max(TIE_TOL * float(np.abs(a_star).max()), IMPROVE_RTOL * float(np.abs(bundle.q_star).max()))
        expected = tuple(frozenset(np.flatnonzero(a_star[s] >= -tie).tolist()) for s in range(n_states))
        assert tuple(bundle.opt_sets) == expected
        assert np.array_equal(bundle.opt_sets.mask, a_star >= -tie)
        assert max(len(s) for s in expected) > 1
        assert all(type(a) is int for s in bundle.opt_sets for a in s)

    @pytest.mark.parametrize("n_states, n_actions, scale", TIED_CASES)
    def test_values_bit_equal_to_one_hot_howard(self, n_states, n_actions, scale):
        mdp, r = _tied_instance(n_states, n_actions, scale, seed=n_states + n_actions)
        bundle = optimal_values(mdp, r)
        q_ref, v_ref = _one_hot_howard(mdp, r)
        assert bundle.q_star.tobytes() == q_ref.tobytes()
        assert bundle.v_star.tobytes() == v_ref.tobytes()

    def test_near_tie_below_switch_margin(self):
        """Greedy-on-r keeps a0 at s0, which loses to a1 by 5e-9 in Q at |v| = 1e4.

        That gap is below Howard's switch margin, so the residual stays 5e-9: far
        inside the relative bound (1e-6 here), and both actions tie at s0.
        """
        mdp, _ = _detour_instance()
        r = RewardTable.from_sa(np.array([[900.0 - 5e-10, 0.0], [1000.0, 1000.0]]))
        bundle = optimal_values(mdp, r)
        assert bundle.residual <= DEFAULT_TOL * _value_scale(mdp, r)
        assert tuple(bundle.opt_sets) == ({0, 1}, {0, 1})
        np.testing.assert_allclose(bundle.v_star, [9000.0, 10000.0], rtol=1e-12, atol=0)

    def test_residual_above_relative_bound_raises(self, monkeypatch):
        """The near-tie's residual, 5e-9, misses DEFAULT_TOL * max|rv| / (1 - gamma) = 1e-10 at DEFAULT_TOL = 1e-14."""
        monkeypatch.setattr(solve, "DEFAULT_TOL", 1e-14)
        mdp, _ = _detour_instance()
        r = RewardTable.from_sa(np.array([[900.0 - 5e-10, 0.0], [1000.0, 1000.0]]))
        with pytest.raises(ConvergenceError) as err:
            optimal_values(mdp, r)
        assert err.value.residual > 1e-14 * _value_scale(mdp, r)


@pytest.mark.parametrize("solver", [optimal_values, partial(soft_optimal_values, alpha=0.5)],
                         ids=["optimal", "soft"])
def test_warm_start_needs_one_flow_solve(solver, monkeypatch):
    """The Bellman sweeps before policy iteration leave the optimal policy on this dense MDP.

    Starting from v = 0 (greedy on r for Howard), each solver needs two flow solves here.
    """
    mdp = random_mdp(60, 4, 0.98, seed=0)
    r = random_reward(mdp, seed=0)
    calls = []
    checked_solve = solve._solve_flow

    def counted_solve(flow, b, *unit):
        calls.append(len(b))
        return checked_solve(flow, b, *unit)

    monkeypatch.setattr(solve, "_solve_flow", counted_solve)
    solver(mdp, r)
    assert calls == [60]


@pytest.mark.parametrize("solver", [
    optimal_values,
    partial(soft_optimal_values, alpha=0.5),
    partial(policy_evaluate, pi=StochasticPolicy(np.full((2, 2), 0.5))),
], ids=["optimal", "soft", "evaluate"])
def test_values_beyond_float64_raise_structural_error(solver):
    """max|rv| / (1 - gamma) = 1e310 overflows, so no solve may start."""
    mdp = Mdp(np.array([[[0.9, 0.1], [0.2, 0.8]], [[0.6, 0.4], [0.3, 0.7]]]), np.array([0.5, 0.5]), 0.99)
    r = RewardTable.from_sa(np.array([[1e308, -1e308], [-1e308, 1e308]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructuralError, match="overflow float64"):
            solver(mdp, r)
        solver(mdp, RewardTable(r.values * 1e-3))  # 1e307 / (1 - gamma) stays finite


def test_refuse_overflow_restores_the_callers_error_state():
    """refuse_overflow raises on overflow or NaN inside its block only, and changes no other exception."""
    with np.errstate(over="ignore", invalid="warn", divide="raise"):
        caller = np.geterr()
        with solve.refuse_overflow("the product"):
            assert np.geterr() == {**caller, "over": "raise", "invalid": "raise"}
        assert np.geterr() == caller
        with pytest.raises(StructuralError, match="^the product overflows float64$"):
            with solve.refuse_overflow("the product"):
                np.float64(1e308) * 10.0
        assert np.geterr() == caller
        other = KeyError("not a floating-point error")
        with pytest.raises(KeyError) as raised:
            with solve.refuse_overflow("the product"):
                raise other
        assert raised.value is other and raised.value.__cause__ is None
        assert np.geterr() == caller


class TestSoftOptimalValues:
    def test_constant_reward_gives_uniform_policy(self, chain):
        bundle = soft_optimal_values(chain, RewardTable(np.full((2, 2, 2), 0.7)), alpha=1.3)
        probs = np.exp((bundle.q_soft - bundle.v_soft[:, None]) / 1.3)
        np.testing.assert_allclose(probs, 0.5, atol=1e-9)

    def test_small_alpha_recovers_argmax(self, chain, chain_reward):
        bundle = soft_optimal_values(chain, chain_reward, alpha=1e-3)
        hard = optimal_values(chain, chain_reward)
        assert tuple(np.argmax(bundle.q_soft, axis=1)) == tuple(
            next(iter(s)) for s in hard.opt_sets
        )

    def test_log_policy_reward_fixed_point(self):
        mdp = random_mdp(3, 2, 0.7, seed=5)
        pi0 = random_policy(3, 2, seed=6)
        alpha = 0.8
        r = RewardTable.from_sa(alpha * np.log(pi0.probs))
        bundle = soft_optimal_values(mdp, r, alpha)
        np.testing.assert_allclose(bundle.v_soft, 0.0, atol=1e-8)
        probs = np.exp((bundle.q_soft - bundle.v_soft[:, None]) / alpha)
        probs /= probs.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs, pi0.probs, atol=1e-8)

    def test_residual_and_row_sums(self):
        mdp = random_mdp(4, 3, 0.9, seed=9)
        r = oracles.uniform_reward(mdp, seed=10)
        bundle = soft_optimal_values(mdp, r, alpha=0.5)
        assert bundle.residual <= 1e-10
        probs = np.exp((bundle.q_soft - bundle.q_soft.max(axis=1, keepdims=True)) / 0.5)
        probs /= probs.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_small_alpha_does_not_overflow(self):
        mdp = random_mdp(5, 3, 0.8, seed=11)
        r = oracles.uniform_reward(mdp, seed=12)
        bundle = soft_optimal_values(mdp, r, alpha=1e-6)
        assert bundle.residual <= 1e-10
        assert np.all(np.isfinite(bundle.v_soft)) and np.all(np.isfinite(bundle.q_soft))


    def test_exhausted_cap_reports_nonconvergence(self, monkeypatch):
        mdp, r = _deep_detour_instance()
        monkeypatch.setattr(solve, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as err:
            soft_optimal_values(mdp, r, alpha=0.5)
        assert err.value.residual > 1e-10

class TestAgainstValueIterationOracle:
    """Policy-iteration solvers against plain value iteration run to 1e-13."""

    def test_stacked_series_matches_one_policy_at_a_time(self):
        mdp = random_mdp(3, 3, 0.95, seed=2)
        r = random_reward(mdp, seed=3)
        one_at_a_time = [
            oracles.truncated_j(mdp, r, oracles.one_hot(actions, 3))
            for actions in oracles.all_deterministic_policies(3, 3)
        ]
        np.testing.assert_allclose(oracles.brute_force_j_table(mdp, r), one_at_a_time, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("c", [1e-11, 1.0, 1e9])
    def test_truncated_j_scales_with_reward(self, c):
        mdp = random_mdp(3, 2, 0.95, seed=4)
        r = random_reward(mdp, seed=5)
        pi = random_policy(3, 2, seed=6).probs
        j_scaled = oracles.truncated_j(mdp, RewardTable(c * r.values), pi)
        assert j_scaled == pytest.approx(c * oracles.truncated_j(mdp, r, pi), rel=1e-10, abs=0)

    def test_seeded_instances(self):
        for mdp, r, alpha in _oracle_instances(200):
            hard = optimal_values(mdp, r)
            assert _sup_gap(hard.v_star, oracles.value_iteration(mdp, r)) <= 1e-9
            assert tuple(hard.opt_sets) == oracles.brute_force_opt_sets(mdp, r)
            soft = soft_optimal_values(mdp, r, alpha)
            assert _sup_gap(soft.v_soft, oracles.soft_value_iteration(mdp, r, alpha)) <= 1e-8

    def test_user_size(self):
        rng = np.random.default_rng(5)
        mdp = Mdp(rng.dirichlet(np.ones(100), size=(100, 8)), rng.dirichlet(np.ones(100)), 0.99)
        r = RewardTable(rng.uniform(-1.0, 1.0, size=(100, 8, 100)))
        hard = optimal_values(mdp, r)
        assert hard.residual <= 1e-10
        assert _sup_gap(hard.v_star, oracles.value_iteration(mdp, r)) <= 1e-9
        assert all(int(a) in hard.opt_sets[s] for s, a in enumerate(hard.q_star.argmax(axis=1)))
        soft = soft_optimal_values(mdp, r, alpha=0.5)
        assert soft.residual <= 1e-10
        assert _sup_gap(soft.v_soft, oracles.soft_value_iteration(mdp, r, 0.5)) <= 1e-8

    @pytest.mark.parametrize("c", [1e-9, 1e-6, 1e6, 1e9])
    def test_large_reward_scale_meets_tol(self, c):
        """Scaling the reward (and alpha) by c scales the residual bound and the values alike."""
        mdp = random_mdp(3, 2, 0.9, seed=0)
        r = random_reward(mdp, seed=1)
        r_c = RewardTable(c * r.values)
        hard = optimal_values(mdp, r_c)
        assert hard.residual <= DEFAULT_TOL * _value_scale(mdp, r_c)
        assert _rel_gap(hard.v_star, c * oracles.value_iteration(mdp, r)) <= 1e-11
        assert tuple(hard.opt_sets) == oracles.brute_force_opt_sets(mdp, r)
        soft = soft_optimal_values(mdp, r_c, 0.5 * c)
        entropy_scale = 0.5 * c * np.log(mdp.n_actions) / (1.0 - mdp.discount)
        assert soft.residual <= DEFAULT_TOL * (_value_scale(mdp, r_c) + entropy_scale)
        assert _rel_gap(soft.v_soft, c * oracles.soft_value_iteration(mdp, r, 0.5)) <= 1e-11


class TestOccupancy:
    def test_chain_always_stay_closed_form(self, chain):
        d = occupancy(chain, ALWAYS_STAY).d
        np.testing.assert_allclose(d[0, 0], 2.0, atol=1e-12)
        assert np.abs(d).sum() == pytest.approx(2.0, abs=1e-12)
        assert d[0, 1] == 0.0 and np.all(d[1] == 0.0)

    def test_chain_switch_then_stay(self, chain):
        d = occupancy(chain, SWITCH_THEN_STAY).d
        np.testing.assert_allclose(d[0, 1], 1.0, atol=1e-12)
        np.testing.assert_allclose(d[1, 0], 1.0, atol=1e-12)

    def test_total_mass(self, chain):
        for seed in range(5):
            pi = random_policy(2, 2, seed=seed)
            assert occupancy(chain, pi).d.sum() == pytest.approx(2.0, abs=1e-9)

    def test_matches_truncated_oracle_and_j_identity(self):
        for seed in range(10):
            mdp = random_mdp(4, 2, 0.8, seed=seed)
            pi = random_policy(4, 2, seed=seed + 1)
            r = oracles.uniform_reward(mdp, seed=seed + 2)
            d = occupancy(mdp, pi)
            np.testing.assert_allclose(d.d, oracles.truncated_occupancy(mdp, pi.probs), atol=1e-9)
            j = policy_evaluate(mdp, r, pi).j
            assert float((d.d * reward_vector(r, mdp)).sum()) == pytest.approx(j, abs=1e-8)

    def test_matches_truncated_oracle_near_gamma_one(self):
        """At gamma = 0.9999 the series needs ~4e5 steps to reach its 1e-12 tail."""
        mdp = random_mdp(4, 2, 0.9999, seed=3)
        pi = random_policy(4, 2, seed=4)
        np.testing.assert_allclose(occupancy(mdp, pi).d, oracles.truncated_occupancy(mdp, pi.probs),
                                   rtol=1e-9, atol=0)

    def test_injective_on_full_support_policies(self):
        for seed in range(100):
            mdp = random_mdp(int(2 + seed % 4), int(2 + seed % 2), 0.85, seed=seed)
            pi1 = random_policy(mdp.n_states, mdp.n_actions, seed=1000 + seed)
            pi2 = random_policy(mdp.n_states, mdp.n_actions, seed=2000 + seed)
            assert (pi1.probs > 0).all() and (pi2.probs > 0).all()
            gap = np.abs(occupancy(mdp, pi1).d - occupancy(mdp, pi2).d).max()
            assert gap > 1e-9

    @pytest.mark.parametrize("n_actions", [2, 3, 7])
    def test_uniform_flow_solves_the_uniform_policy_visitation(self, n_actions):
        for seed in range(5):
            mdp = random_mdp(6, n_actions, 0.9, seed=seed)
            w = np.linalg.solve(np.eye(6) - 0.9 * mdp.transition.mean(axis=1).T, mdp.initial)
            d = occupancy(mdp, StochasticPolicy(np.full((6, n_actions), 1.0 / n_actions))).d
            np.testing.assert_allclose(np.repeat(w[:, None] / n_actions, n_actions, axis=1), d, rtol=1e-12)

    def test_flow_solve_residual_is_checked(self, monkeypatch):
        mdp, pi = random_mdp(4, 2, 0.9, seed=0), random_policy(4, 2, seed=2)
        occupancy(mdp, pi)
        exact = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: exact(a, b) * (1.0 + 1e-6))
        with pytest.raises(ConvergenceError, match="residual"):
            occupancy(mdp, pi)


def _constant_column(mdp, state, mass=0.3):
    """Every (t, a) enters ``state`` with probability ``mass``: its entry measure is the same
    gamma*mass/(1-gamma) under every policy, whatever the rest of tau does."""
    tau = mdp.transition.copy()
    tau[:, :, (state + 1) % mdp.n_states] += tau[:, :, state]
    tau *= 1.0 - mass
    tau[:, :, state] = mass
    return mdp.with_transition(tau)


class TestControllableStates:
    def test_chain_both_states(self, chain):
        assert set(controllable_states(chain)) == {0, 1}

    def test_trivial_transition_none(self):
        mdp = Mdp(np.full((3, 2, 3), 1 / 3), np.full(3, 1 / 3), 0.9)
        assert is_trivial_transition(mdp)
        assert len(controllable_states(mdp)) == 0

    def test_flow_solve_residual_is_checked(self, monkeypatch):
        # Each of these solves leaves a nonzero float64 residual, which a zero allowance refuses.
        monkeypatch.setattr(solve, "ROUNDOFF_RTOL", 0.0)
        for seed in range(20):
            with pytest.raises(ConvergenceError, match="residual"):
                controllable_states(random_mdp(6, 3, 0.9, seed=seed))

    def test_single_action_none(self):
        tau = np.zeros((2, 1, 2))
        tau[0, 0] = [0.5, 0.5]
        tau[1, 0] = [1.0, 0.0]
        mdp = Mdp(tau, np.array([1.0, 0.0]), 0.9)
        assert len(controllable_states(mdp)) == 0

    def test_routes_of_equal_length_leave_the_target_uncontrollable(self):
        # s0 picks s1 or s2; both move on to the absorbing s3, so only s1 and s2 are steered.
        tau = np.zeros((4, 2, 4))
        tau[0, 0, 1] = tau[0, 1, 2] = 1.0
        tau[1:, :, 3] = 1.0
        mdp = Mdp(tau, np.array([1.0, 0.0, 0.0, 0.0]), 0.9)
        assert set(controllable_states(mdp)) == {1, 2}

    def test_long_chain_target_is_controllable(self):
        # Action 1 walks s0 -> s1 -> ... -> s16; every other action drops into the absorbing s19.
        # The uniform policy reaches s16 with probability 4^-15, but always taking action 1 enters
        # it with measure 0.9^16 and leaving the chain never does. s17 and s18 are unreachable,
        # so s17's action gap into s18 must not count.
        tau = np.zeros((20, 4, 20))
        tau[:, :, 19] = 1.0
        tau[:16, 1, 19] = 0.0
        tau[np.arange(16), 1, np.arange(1, 17)] = 1.0
        tau[17, 1] = np.eye(20)[18]
        mdp = Mdp(tau, np.eye(20)[0], 0.9)
        assert set(controllable_states(mdp)) == set(range(1, 17)) | {19}

    def test_exact_beyond_old_enumeration_cap(self):
        mdp = _constant_column(random_mdp(7, 4, 0.8, seed=3), state=5)  # 4^7 = 16384 policies
        assert set(controllable_states(mdp)) == {0, 1, 2, 3, 4, 6}
        spread = oracles.vertex_entry_spread(mdp)
        assert spread[5] <= 1e-12 and np.delete(spread, 5).min() > 1e-3

    def test_matches_vertex_oracle_sweep(self):
        partial = 0
        for seed in range(120):
            n, k = int(2 + seed % 4), int(2 + seed % 2)
            gamma = 0.3 + 0.65 * ((seed * 7) % 11) / 10
            mdp = oracles.sparse_mdp(n, k, gamma, seed=seed, sparsity=(0.0, 0.5, 0.8)[seed % 3])
            if seed % 4 == 1:
                mdp = _constant_column(mdp, state=seed % n)
            elif seed % 4 == 2:  # one (t, a) row differs from the rest of its state
                tau = np.repeat(mdp.transition[:, :1], k, axis=1)
                tau[seed % n, 1] = mdp.transition[seed % n, 1]
                mdp = mdp.with_transition(tau)
            expected = set(np.flatnonzero(oracles.vertex_entry_spread(mdp) > 1e-9).tolist())
            assert set(controllable_states(mdp)) == expected, seed
            partial += 0 < len(expected) < n
        assert partial >= 30


def _vertex_instances():
    """Seeded MDPs at the at-cap shapes: dense, sparse (0.5 and 0.8) and one row differing."""
    for i, (n, k) in enumerate([(10, 2), (5, 4), (4, 5)]):
        gamma = (0.6, 0.8, 0.9)[i]
        for j, sparsity in enumerate((0.0, 0.5, 0.8)):
            yield oracles.sparse_mdp(n, k, gamma, seed=10 * i + j, sparsity=sparsity)
        mdp = random_mdp(n, k, gamma, seed=10 * i + 3)
        tau = np.repeat(mdp.transition[:, :1], k, axis=1)
        tau[i % n, 1] = mdp.transition[i % n, 1]
        yield mdp.with_transition(tau)


def _indicators(mdp):
    """The S rewards 1[state = s], stacked (S, S, A): their J at a vertex is its state visitation w."""
    n = mdp.n_states
    return np.broadcast_to(np.eye(n)[:, :, None], (n, n, mdp.n_actions))


def _one_hot_transitions(mdp, seed):
    """``mdp`` with every (s, a) moved to one successor drawn at random."""
    rng = np.random.default_rng(seed)
    successors = rng.integers(mdp.n_states, size=mdp.transition.shape[:2])
    return mdp.with_transition(np.eye(mdp.n_states)[successors])


class TestVertexWeights:
    """J at every vertex (vertex_j), and the state visitation w as J of the indicator rewards."""

    @pytest.mark.parametrize("index", range(12))
    def test_matches_series_oracles(self, index):
        mdp = list(_vertex_instances())[index]
        r = oracles.uniform_reward(mdp, seed=100 + index)
        j = vertex_j(mdp, reward_vector(r, mdp)[None])[:, 0]
        expected = np.array(oracles.brute_force_j_table(mdp, r))
        np.testing.assert_allclose(j, expected, rtol=0, atol=1e-9 * max(1.0, np.abs(expected).max()))
        w = vertex_j(mdp, _indicators(mdp))
        spread = w.max(axis=0) - w.min(axis=0)  # mu0 cancels from the entry measure w - mu0
        atol = 1e-9 / (1.0 - mdp.discount)
        np.testing.assert_allclose(spread, oracles.vertex_entry_spread(mdp), rtol=0, atol=atol)

    def test_actions_in_product_order(self):
        mdp = random_mdp(4, 3, 0.8, seed=5)
        rewards = [oracles.uniform_reward(mdp, seed=s) for s in (6, 7)]
        j = vertex_j(mdp, np.stack([reward_vector(r, mdp) for r in rewards]))
        assert j.shape == (81, 2)
        for row, actions in zip(j, itertools.product(range(3), repeat=4)):
            pi = StochasticPolicy(oracles.one_hot(actions, 3))
            expected = [policy_evaluate(mdp, r, pi).j for r in rewards]
            np.testing.assert_allclose(row, expected, rtol=1e-12, atol=0)

    def test_above_cap_raises(self):
        mdp = random_mdp(17, 2, 0.8, seed=5)  # 2^17 > DEFAULT_ENUM_CAP
        rv = np.zeros((1000, 17, 2))  # its augmented array would take ~300 kB
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                vertex_j(mdp, rv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000  # raised before allocating anything of that size

    @pytest.mark.parametrize("gamma", [0.5, 0.99, 0.9999])
    @pytest.mark.parametrize("one_hot", [False, True])
    def test_matches_brute_force_at_every_scale(self, gamma, one_hot):
        mdp = random_mdp(3, 2, gamma, seed=11)
        if one_hot:
            mdp = _one_hot_transitions(mdp, seed=12)
        rewards = [RewardTable(c * oracles.uniform_reward(mdp, seed=20 + i).values)
                   for i, c in enumerate((1e-10, 1.0, 1e10))]
        stacked = vertex_j(mdp, np.stack([reward_vector(r, mdp) for r in rewards]))
        for col, r in zip(stacked.T, rewards):
            expected = np.array(oracles.brute_force_j_table(mdp, r, horizon=2**24))
            atol = 1e-9 * np.abs(expected).max()
            alone = vertex_j(mdp, reward_vector(r, mdp)[None])[:, 0]
            np.testing.assert_allclose(col, expected, rtol=0, atol=atol)
            np.testing.assert_allclose(alone, expected, rtol=0, atol=atol)

    @pytest.mark.parametrize("gamma", [0.9, 0.99999])
    @pytest.mark.parametrize("one_hot", [False, True])
    def test_indicator_rewards_meet_flow_equations(self, gamma, one_hot):
        mdp = random_mdp(4, 3, gamma, seed=13)
        if one_hot:
            mdp = _one_hot_transitions(mdp, seed=14)
        n = mdp.n_states
        w = vertex_j(mdp, _indicators(mdp))
        t_pi = mdp.transition[np.arange(n), enumerate_action_tuples(n, mdp.n_actions)]  # (A^S, S, S')
        residual = w - mdp.discount * np.einsum("ns,nsp->np", w, t_pi) - mdp.initial  # M w - mu0
        assert np.abs(residual).max() <= 1e-12 * np.abs(w).max()

    @pytest.mark.parametrize("n_states, n_actions",
                             [(n, k) for n in range(1, 11) for k in range(1, 6) if k**n <= 1024])
    def test_bitwise_equal_to_prefix_major_elimination(self, n_states, n_actions):
        """Storing the branch axis last changes no bit: same pivots, same operations, same row order."""
        mdp = random_mdp(n_states, n_actions, 0.9, seed=17 * n_states + n_actions)
        for k in (1, 2, 3):
            rv = np.random.default_rng(k).uniform(-1.0, 1.0, size=(k, n_states, n_actions))
            j = vertex_j(mdp, rv)
            expected = oracles.prefix_major_vertex_j(mdp, rv)
            assert j.shape == expected.shape == (n_actions**n_states, k)
            assert j.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_bitwise_equal_to_prefix_major_elimination_at_the_cap(self):
        mdp = random_mdp(16, 2, 0.95, seed=18)
        rv = np.random.default_rng(19).uniform(-1.0, 1.0, size=(2, 16, 2))
        expected = np.ascontiguousarray(oracles.prefix_major_vertex_j(mdp, rv))
        assert vertex_j(mdp, rv).tobytes() == expected.tobytes()

    def test_enumeration_cap_completes(self):
        mdp = random_mdp(16, 2, 0.9, seed=15)
        r = oracles.uniform_reward(mdp, seed=16)
        tracemalloc.start()
        try:
            j = vertex_j(mdp, reward_vector(r, mdp)[None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert j.shape == (DEFAULT_ENUM_CAP, 1)
        assert peak < 32e6  # one (A^S, S, S) batch of flow matrices alone would take 134 MB
        for index in (0, 12345, DEFAULT_ENUM_CAP - 1):
            pi = StochasticPolicy(oracles.one_hot(np.unravel_index(index, (2,) * 16), 2))
            assert j[index, 0] == pytest.approx(policy_evaluate(mdp, r, pi).j, rel=1e-12, abs=0)


class TestMcReturn:
    def test_chain_optimal_policy_close_to_exact(self, chain, chain_reward):
        mean, stderr = oracles.mc_return(
            chain, chain_reward, SWITCH_THEN_STAY, horizon=60, n=10000, seed=7
        )
        bias = oracles.truncation_bias(chain, chain_reward, 60)
        assert abs(mean - 2.0) <= 3 * stderr + bias

    def test_zero_reward_exact(self, chain):
        zero = RewardTable(np.zeros((2, 2, 2)))
        mean, stderr = oracles.mc_return(chain, zero, ALWAYS_STAY, 20, 500, 1)
        assert mean == 0.0

    def test_deterministic_in_seed(self, chain, chain_reward):
        mixed = StochasticPolicy(np.array([[0.3, 0.7], [0.6, 0.4]]))
        a = oracles.mc_return(chain, chain_reward, mixed, horizon=30, n=200, seed=42)
        b = oracles.mc_return(chain, chain_reward, mixed, horizon=30, n=200, seed=42)
        assert a == b
        c = oracles.mc_return(chain, chain_reward, mixed, horizon=30, n=200, seed=43)
        assert a != c

    def test_truncation_bias_formula(self, chain, chain_reward):
        assert oracles.truncation_bias(chain, chain_reward, 60) == pytest.approx(0.5**60 * 1.0 / 0.5)
