import numpy as np
import pytest

from rewardlab import (
    Chain,
    LinearScaling,
    RewardTable,
    apply,
    decompose_ps_ls,
    j_equal,
    opt_equivalent,
    ord_equivalent,
    reward_vector,
    sample_optimality_preserving,
    sample_potential_shaping,
    sample_s_redistribution,
)
from rewardlab.documents import load_transfer_pair
from rewardlab.errors import CapacityError, InternalConsistencyError
from rewardlab.lab import BOUNDS, ExperimentConfig, _child_seeds, _draw_env, random_mdp, random_reward
from rewardlab.mdp import DEFAULT_ENUM_CAP
from rewardlab.solve import deterministic_policies, occupancies

import oracles


def j_table(r, mdp, cap=DEFAULT_ENUM_CAP):
    probs = deterministic_policies(mdp, cap=cap)
    return occupancies(mdp, probs).reshape(len(probs), -1) @ reward_vector(r, mdp).ravel()


def witness_differences(witness, mdp, r1, r2):
    """J(first policy) - J(second policy) under r1 and under r2, per the series oracle."""
    assert witness["kind"] == "policy-pair"
    pa, pb = (np.array(p) for p in witness["policies"])
    d1 = oracles.truncated_j(mdp, r1, pa) - oracles.truncated_j(mdp, r1, pb)
    d2 = oracles.truncated_j(mdp, r2, pa) - oracles.truncated_j(mdp, r2, pb)
    return d1, d2


def assert_witness_flips(witness, mdp, r1, r2):
    """The two witness policies are ordered differently by r1 and r2, per the series oracle."""
    d1, d2 = witness_differences(witness, mdp, r1, r2)
    assert max(abs(d1), abs(d2)) > 1e-8
    assert np.sign(np.round(d1, 10)) != np.sign(np.round(d2, 10))


class TestOptEquivalent:
    def test_op_transform_preserves(self, chain, chain_reward):
        spec = sample_optimality_preserving(chain, chain_reward, 1.0, seed=3)
        r2 = apply(spec, chain_reward, chain)
        assert opt_equivalent(chain_reward, r2, chain).equivalent

    def test_negation_flips_with_witness(self, chain, chain_reward):
        verdict = opt_equivalent(chain_reward, RewardTable(-chain_reward.values), chain)
        assert not verdict.equivalent
        assert verdict.witness["state"] == 0

    def test_reflexive(self, chain, chain_reward):
        assert opt_equivalent(chain_reward, chain_reward, chain).equivalent

    def test_equivalence_relation_on_seeded_sample(self):
        mdp = random_mdp(3, 2, 0.8, seed=0)
        rewards = [random_reward(mdp, seed=s) for s in range(6)]
        rewards.append(apply(sample_optimality_preserving(mdp, rewards[0], 1.0, 7), rewards[0], mdp))
        verdicts = {}
        for i, ri in enumerate(rewards):
            for j, rj in enumerate(rewards):
                verdicts[i, j] = opt_equivalent(ri, rj, mdp).equivalent
        for i in range(len(rewards)):
            assert verdicts[i, i]
            for j in range(len(rewards)):
                assert verdicts[i, j] == verdicts[j, i]
                for k in range(len(rewards)):
                    if verdicts[i, j] and verdicts[j, k]:
                        assert verdicts[i, k]


class TestOrdEquivalent:
    def test_scaled_shaped_pair(self, chain, chain_reward):
        spec = Chain(
            (LinearScaling(2.0), sample_potential_shaping(chain, 1.0, False, seed=5))
        )
        r2 = apply(spec, chain_reward, chain)
        verdict = ord_equivalent(chain_reward, r2, chain)
        assert verdict.equivalent
        assert verdict.certificate.c == pytest.approx(2.0, abs=1e-8)

    def test_ord_implies_opt(self):
        for seed in range(10):
            mdp = random_mdp(3, 3, 0.85, seed=seed)
            r1 = random_reward(mdp, seed=seed + 10)
            steps = Chain(
                (
                    LinearScaling(0.5 + seed * 0.3),
                    sample_potential_shaping(mdp, 1.0, False, seed=seed + 20),
                )
            )
            r2 = apply(steps, r1, mdp)
            assert ord_equivalent(r1, r2, mdp).equivalent
            assert opt_equivalent(r1, r2, mdp).equivalent

    def test_inequivalent_has_policy_pair_witness(self, chain, chain_reward):
        negated = RewardTable(-chain_reward.values)
        verdict = ord_equivalent(chain_reward, negated, chain)
        assert not verdict.equivalent
        assert_witness_flips(verdict.witness, chain, chain_reward, negated)

    def test_independent_pair_with_no_deterministic_flip(self):
        # ORD-CHAR trial 108 at seed 811993661: two independent rewards whose
        # J tables over the 4 deterministic policies are ordered alike, yet no
        # scaling+shaping certificate exists. Only a stochastic pair flips.
        config = ExperimentConfig(claim_id="ORD-CHAR", seed=811993661)
        mdp = _draw_env(config, 108)
        seeds = _child_seeds(config.seed, 108, 11, n=4)
        r1 = random_reward(mdp, bounds=BOUNDS, seed=seeds[0])
        r3 = random_reward(mdp, bounds=BOUNDS, seed=seeds[3])
        verdict = ord_equivalent(r1, r3, mdp)
        assert not verdict.equivalent
        assert_witness_flips(verdict.witness, mdp, r1, r3)

    def test_near_equivalent_sweep_never_raises(self):
        # r2 = r1 + noise with log-uniform scale straddles the decider's
        # tolerance; the oracle must stay silent whichever way it rules, and
        # every refusal, under the cap or above it, must carry a witness that
        # holds up under the series oracle.
        rng = np.random.default_rng(20221207)
        refused = {"ord": 0, "jeq": 0}
        for trial in range(300):
            n, k = int(rng.integers(2, 9)), int(rng.integers(2, 4))
            mdp = random_mdp(n, k, float(rng.uniform(0.4, 0.95)), seed=trial)
            r1 = random_reward(mdp, seed=10_000 + trial, gap_floor=None)
            noise = rng.normal(0.0, 10.0 ** rng.uniform(-8, -3), size=r1.values.shape)
            r2 = RewardTable(r1.values + noise)
            verdict = ord_equivalent(r1, r2, mdp)
            if not verdict.equivalent:
                refused["ord"] += 1
                d1, d2 = witness_differences(verdict.witness, mdp, r1, r2)
                assert d1 > 0 > d2
            verdict = j_equal(r1, r2, mdp)
            if not verdict.equivalent:
                refused["jeq"] += 1
                pa, pb = (np.array(p) for p in verdict.witness["policies"])
                gaps = [oracles.truncated_j(mdp, r1, p) - oracles.truncated_j(mdp, r2, p) for p in (pa, pb)]
                assert max(abs(g) for g in gaps) > 1e-10
        assert min(refused.values()) > 50

    def test_cross_check_guard_raises_on_rigged_decider(self, chain, chain_reward, monkeypatch):
        import rewardlab.equiv as equiv_mod

        monkeypatch.setattr(equiv_mod, "decompose_ord", lambda *a, **k: None)
        with pytest.raises(InternalConsistencyError):
            ord_equivalent(chain_reward, chain_reward, chain)


class TestTransferPair:
    def test_fixture_values_match_quoted_construction(self):
        r1, r2, n_states, n_actions = load_transfer_pair()
        assert (n_states, n_actions) == (2, 2)
        assert r1.values[0, 0, 0] == 1.0 and r1.values[0, 0, 1] == 0.5
        assert r2.values[0, 0, 0] == 0.5 and r2.values[0, 0, 1] == 1.0
        mask = np.ones((2, 2, 2), dtype=bool)
        mask[0, 0, :] = False
        assert np.all(r1.values[mask] == 0.0) and np.all(r2.values[mask] == 0.0)

    def test_order_equivalent_for_each_sampled_transition(self):
        r1, r2, n_states, n_actions = load_transfer_pair()
        for seed in range(10):
            mdp = random_mdp(n_states, n_actions, 0.5, seed=seed)
            assert ord_equivalent(r1, r2, mdp).equivalent

    def test_transition_free_fit_fails(self):
        r1, r2, _, _ = load_transfer_pair()
        for gamma in (0.3, 0.5, 0.9):
            assert decompose_ps_ls(r1, r2, gamma) is None


class TestJEqual:
    def test_redistribution_preserves_j(self, chain, chain_reward):
        spec = sample_s_redistribution(chain, chain_reward, 1.0, seed=4)
        r2 = apply(spec, chain_reward, chain)
        assert j_equal(chain_reward, r2, chain).equivalent

    def test_scaling_changes_j(self, chain, chain_reward):
        r2 = apply(LinearScaling(2.0), chain_reward, chain)
        verdict = j_equal(chain_reward, r2, chain)
        assert not verdict.equivalent
        assert verdict.witness is not None

    def test_reflexive(self, chain, chain_reward):
        assert j_equal(chain_reward, chain_reward, chain).equivalent

    def test_j_equal_implies_ord(self):
        for seed in range(8):
            mdp = random_mdp(3, 2, 0.8, seed=seed)
            r1 = random_reward(mdp, seed=seed + 30, gap_floor=None)
            shaped = apply(sample_potential_shaping(mdp, 1.0, True, seed=seed + 40), r1, mdp)
            r2 = apply(sample_s_redistribution(mdp, shaped, 1.0, seed=seed + 50), shaped, mdp)
            assert j_equal(r1, r2, mdp).equivalent
            assert ord_equivalent(r1, r2, mdp).equivalent


class TestOrderSignature:
    """A reward's order signature: its J table over the deterministic-policy battery, d @ r."""

    def test_chain_values_match_brute_force_oracle(self, chain, chain_reward):
        j = j_table(chain_reward, chain)
        # Oracle-derived J per s0-major policy (a0a0, a0a1, a1a0, a1a1):
        # staying at s0 earns nothing, switch-then-stay earns 2, and the
        # alternating policy earns 1/(1 - gamma^2) = 4/3.
        np.testing.assert_allclose(j, [0.0, 0.0, 2.0, 4.0 / 3.0], atol=1e-9)
        np.testing.assert_allclose(j, oracles.brute_force_j_table(chain, chain_reward), atol=1e-9)

    def test_zero_reward_single_tie_group(self, chain):
        zero = RewardTable(np.zeros((2, 2, 2)))
        assert np.all(j_table(zero, chain) == 0.0)
        assert ord_equivalent(zero, zero, chain).equivalent

    def test_scaling_keeps_ranking(self, chain, chain_reward):
        base = j_table(chain_reward, chain)
        scaled = j_table(apply(LinearScaling(3.0), chain_reward, chain), chain)
        np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-9)

    def test_cap(self):
        mdp = random_mdp(4, 3, 0.8, seed=1)
        with pytest.raises(CapacityError):
            j_table(random_reward(mdp, seed=2, gap_floor=None), mdp, cap=10)
