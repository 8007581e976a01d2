import numpy as np
import pytest

from rewardlab import (
    LinearScaling,
    RewardTable,
    StochasticPolicy,
    apply,
    boltzmann_policy,
    fvariant_policy,
    invert_boltzmann,
    invert_mce,
    mce_policy,
    opt_equivalent,
    optimal_set_policy,
    optimal_values,
    sample_optimality_preserving,
    sample_potential_shaping,
    sample_s_redistribution,
    soft_optimal_values,
)
from rewardlab import models
from rewardlab.lab import random_mdp, random_reward
from rewardlab.errors import CertificationError, StructuralError
from rewardlab.mdp import ActionSetPolicy, Mdp
from rewardlab.models import _certify_argmax, _softmax_rows, soft_policy

import oracles

# Q* and the soft Q reach about 2 here, so beta * Q* overflows float64 from beta ~ 9e307,
# and Q / alpha below alpha ~ 1.5e-308.
TWO_STATE = Mdp(
    np.array([[[0.9, 0.1], [0.2, 0.8]], [[0.6, 0.4], [0.3, 0.7]]]), np.array([0.5, 0.5]), 0.5
)
TWO_STATE_REWARD = RewardTable.from_sa([[0.0, 1.0], [1.0, 0.0]])


class TestBoltzmann:
    def test_chain_beta_one(self, chain, chain_reward):
        pi = boltzmann_policy(chain, chain_reward, beta=1.0)
        expected = oracles.softmax_by_hand([1.0, 2.0])  # Q*(s0, .) = (1, 2)
        assert pi.probs[0, 1] == pytest.approx(0.731059, abs=1e-6)
        np.testing.assert_allclose(pi.probs[0], expected, atol=1e-9)

    def test_large_beta_dominates(self, chain, chain_reward):
        # exp(-100) ~ 4e-44, so the optimal action's probability rounds to 1.0
        # in float64; 1 - 1e-20 is likewise exactly 1.0, hence >= not >.
        pi = boltzmann_policy(chain, chain_reward, beta=100.0)
        assert pi.probs[0, 1] >= 1 - 1e-20
        # still mathematically full support, though exp(-100) sits far below
        # the 1e-12 flag threshold
        assert np.all(pi.probs > 0)

    def test_constant_reward_uniform(self, chain):
        pi = boltzmann_policy(chain, RewardTable(np.full((2, 2, 2), 2.0)), beta=3.0)
        np.testing.assert_allclose(pi.probs, 0.5, atol=1e-12)

    def test_softmax_shift_invariance(self, chain, chain_reward):
        bundle = optimal_values(chain, chain_reward)
        np.testing.assert_allclose(
            _softmax_rows(2.0 * bundle.q_star), _softmax_rows(2.0 * bundle.a_star), atol=1e-12
        )

    def test_beta_must_be_positive(self, chain, chain_reward):
        with pytest.raises(ValueError):
            boltzmann_policy(chain, chain_reward, beta=0.0)

    @pytest.mark.parametrize("beta", [-1.0, float("nan"), float("inf")])
    def test_beta_must_be_positive_and_finite(self, chain, chain_reward, beta):
        with pytest.raises(ValueError):
            boltzmann_policy(chain, chain_reward, beta=beta)

    def test_overflowing_beta_refused(self):
        assert boltzmann_policy(TWO_STATE, TWO_STATE_REWARD, beta=8e307).probs.max() == 1.0
        for beta in (9e307, 1e308):
            with pytest.raises(StructuralError, match="beta"):
                boltzmann_policy(TWO_STATE, TWO_STATE_REWARD, beta=beta)


class TestMce:
    def test_constant_reward_uniform(self, chain):
        pi = mce_policy(chain, RewardTable(np.full((2, 2, 2), 1.0)), alpha=0.5)
        np.testing.assert_allclose(pi.probs, 0.5, atol=1e-9)

    def test_small_alpha_matches_opt_sets(self, chain, chain_reward):
        pi = mce_policy(chain, chain_reward, alpha=1e-3)
        opt = optimal_values(chain, chain_reward).opt_sets
        for s in range(2):
            assert int(np.argmax(pi.probs[s])) in opt[s]

    def test_log_policy_fixed_point(self):
        mdp = random_mdp(4, 3, 0.8, seed=3)
        pi0 = StochasticPolicy(np.random.default_rng(4).dirichlet(np.ones(3), size=4))
        r = RewardTable.from_sa(0.6 * np.log(pi0.probs))
        pi = mce_policy(mdp, r, alpha=0.6)
        np.testing.assert_allclose(pi.probs, pi0.probs, atol=1e-8)

    def test_alpha_must_be_positive(self, chain, chain_reward):
        assert (mce_policy(chain, chain_reward, alpha=0.5).probs > 0).all()
        with pytest.raises(ValueError):
            mce_policy(chain, chain_reward, alpha=0.0)

    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
    def test_alpha_must_be_positive_and_finite(self, chain, chain_reward, alpha):
        with pytest.raises(ValueError):
            mce_policy(chain, chain_reward, alpha=alpha)

    def test_overflowing_alpha_refused(self):
        """The soft values overflow below alpha ~ 1e-308, and the policy's Q / alpha from there to ~1.5e-308."""
        assert mce_policy(TWO_STATE, TWO_STATE_REWARD, alpha=1.5e-308).probs.max() == 1.0
        soft = soft_optimal_values(TWO_STATE, TWO_STATE_REWARD, alpha=1e-308)
        with pytest.raises(StructuralError, match="alpha"):
            soft_policy(soft)
        for alpha in (5e-309, 1e-320):
            with pytest.raises(StructuralError, match="alpha"):
                soft_optimal_values(TWO_STATE, TWO_STATE_REWARD, alpha=alpha)


class TestOptimalSetPolicy:
    def test_chain(self, chain, chain_reward):
        assert tuple(optimal_set_policy(chain, chain_reward)) == ({1}, {0})

    def test_zero_reward_all_actions(self, chain):
        assert tuple(optimal_set_policy(chain, RewardTable(np.zeros((2, 2, 2))))) == (
            {0, 1},
            {0, 1},
        )

    def test_scaling_invariant(self, chain, chain_reward):
        scaled = apply(LinearScaling(5.0), chain_reward, chain)
        assert tuple(optimal_set_policy(chain, scaled)) == tuple(
            optimal_set_policy(chain, chain_reward)
        )
        assert tuple(optimal_set_policy(chain, scaled)) == oracles.brute_force_opt_sets(
            chain, scaled
        )


def _fvariant_instances(n):
    for seed in range(n):
        mdp = random_mdp(2 + seed % 6, 2 + seed % 3, 0.4 + 0.59 * (seed % 7) / 6, seed=seed)
        yield seed, mdp, random_reward(mdp, seed=seed + 7000)


class TestFVariant:
    def test_mixture_on_chain(self, chain, chain_reward):
        pi = fvariant_policy(chain, chain_reward, (0.5, 0.5), (1.0, 2.0))
        assert int(np.argmax(pi.probs[0])) == 1
        assert (pi.probs > 0).all()

    def test_tempered_rank_on_chain(self, chain, chain_reward):
        pi = fvariant_policy(chain, chain_reward, (1.0,), (2.0 * 1.0,))  # exp(beta*A*)^p at beta = 1, p = 2
        assert int(np.argmax(pi.probs[0])) == 1
        assert np.all(pi.probs > 0)

    def test_constant_reward_tie_handling(self, chain):
        pi = fvariant_policy(chain, RewardTable(np.zeros((2, 2, 2))), (0.3, 0.7), (1.0, 4.0))
        np.testing.assert_allclose(pi.probs, 0.5, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize(
        "variant, field",
        [("mixture", "beta1"), ("mixture", "beta2"), ("tempered-rank", "beta"), ("tempered-rank", "p")],
    )
    def test_non_finite_parameters_rejected(self, chain, chain_reward, variant, field, bad):
        x = {"beta1": 1.0, "beta2": 2.0, "beta": 1.0, "p": 2.0, field: bad}
        if variant == "mixture":
            weights, betas = (0.5, 0.5), (x["beta1"], x["beta2"])
        else:
            weights, betas = (1.0,), (x["p"] * x["beta"],)
        with pytest.raises(ValueError, match="positive finite"):
            fvariant_policy(chain, chain_reward, weights, betas)

    def test_certificate_names_first_mismatching_state(self):
        probs = np.array([[0.6, 0.4], [0.5, 0.5], [0.3, 0.7], [0.1, 0.9]])
        opt_sets = ActionSetPolicy([[True, False], [True, False], [True, False], [False, True]])
        with pytest.raises(CertificationError, match=r"state 1 is \[0, 1\], expected \[0\]"):
            _certify_argmax(probs, opt_sets)
        _certify_argmax(probs, ActionSetPolicy([[True, False], [True, True], [False, True], [False, True]]))

    def test_invalid_specs_rejected(self, chain, chain_reward, monkeypatch):
        def no_solve(*args):
            raise AssertionError("fvariant_policy solved before checking its parameters")

        monkeypatch.setattr(models, "optimal_values", no_solve)
        for weights, betas in [
            ((), ()),  # no component
            ((0.5, 0.5), (1.0,)),  # one temperature short
            ((1.5, -0.5), (1.0, 1.0)),  # mixing weight outside (0, 1)
            ((0.0, 1.0), (1.0, 1.0)),  # a zero weight
            ((1.0,), (-1.0,)),  # negative temperature
            ((1.0,), (0.0,)),  # zero temperature
        ]:
            with pytest.raises(ValueError):
                fvariant_policy(chain, chain_reward, weights, betas)

    def test_weights_off_the_simplex_refused(self, chain, chain_reward):
        with pytest.raises(StructuralError, match="sum to 1"):
            fvariant_policy(chain, chain_reward, (0.5, 0.6), (1.0, 2.0))

    def test_bitwise_equal_to_the_variant_formulas(self):
        """One component is exp(beta*A*)^p renormalised, two are a lam-mixture, both to the last bit."""
        for seed, mdp, r in _fvariant_instances(40):
            a_star = optimal_values(mdp, r).a_star
            lam, beta1, beta2, beta, p = 0.2 + 0.015 * seed, 0.3 + 0.1 * seed, 2.7, 0.05 * (seed + 1), 1.7
            tempered = fvariant_policy(mdp, r, (1.0,), (p * beta,)).probs
            assert np.array_equal(tempered, _softmax_rows(p * beta * a_star))
            mixture = fvariant_policy(mdp, r, (lam, 1 - lam), (beta1, beta2)).probs
            expected = lam * _softmax_rows(beta1 * a_star) + (1 - lam) * _softmax_rows(beta2 * a_star)
            assert np.array_equal(mixture, expected)

    def test_one_component_is_the_boltzmann_policy(self):
        """exp(beta*A*)^p renormalised is the Boltzmann policy at temperature p*beta, within round-off."""
        for seed, mdp, r in _fvariant_instances(40):
            beta, p = 0.05 * (seed + 1), 0.5 + 0.06 * seed
            tempered = fvariant_policy(mdp, r, (1.0,), (p * beta,)).probs
            assert np.abs(tempered - boltzmann_policy(mdp, r, p * beta).probs).max() <= 1e-12


class TestInvertBoltzmann:
    def test_round_trip(self, chain, chain_reward):
        pi = boltzmann_policy(chain, chain_reward, beta=1.0)
        r1 = invert_boltzmann(pi, 1.0, chain)
        pi2 = boltzmann_policy(chain, r1, beta=1.0)
        assert np.abs(pi.probs - pi2.probs).max() <= 1e-8

    def test_uniform_policy_all_optimal(self, chain):
        uniform = StochasticPolicy(np.full((2, 2), 0.5))
        r = invert_boltzmann(uniform, 2.0, chain)
        assert tuple(optimal_set_policy(chain, r)) == ({0, 1}, {0, 1})

    def test_temperature_absorbed(self, chain, chain_reward):
        pi = boltzmann_policy(chain, chain_reward, beta=2.0)
        for beta_prime in (0.5, 1.0, 7.0):
            r1 = invert_boltzmann(pi, beta_prime, chain)
            pi2 = boltzmann_policy(chain, r1, beta=beta_prime)
            assert np.abs(pi.probs - pi2.probs).max() <= 1e-8

    def test_zero_probability_rejected(self, chain):
        det = StochasticPolicy(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            invert_boltzmann(det, 1.0, chain)


class TestInvertMce:
    def test_round_trip(self, chain, chain_reward):
        pi = mce_policy(chain, chain_reward, alpha=1.0)
        r1 = invert_mce(pi, 1.0)
        pi2 = mce_policy(chain, r1, alpha=1.0)
        assert np.abs(pi.probs - pi2.probs).max() <= 1e-8

    def test_uniform_policy_constant_reward(self):
        uniform = StochasticPolicy(np.full((3, 2), 0.5))
        r = invert_mce(uniform, 0.7)
        assert np.all(r.values == r.values[:, :, :1])  # independent of s'
        np.testing.assert_allclose(r.values, 0.7 * np.log(0.5), atol=1e-12)

    def test_other_weight_round_trip(self, chain, chain_reward):
        pi = mce_policy(chain, chain_reward, alpha=0.4)
        for alpha_prime in (0.1, 2.5):
            r1 = invert_mce(pi, alpha_prime)
            pi2 = mce_policy(chain, r1, alpha=alpha_prime)
            assert np.abs(pi.probs - pi2.probs).max() <= 1e-8

    def test_preimage_environment_independent(self, chain, chain_reward):
        pi = mce_policy(chain, chain_reward, alpha=1.0)
        r1 = invert_mce(pi, 1.0)
        other = random_mdp(2, 2, 0.9, seed=12)
        pi2 = mce_policy(other, r1, alpha=1.0)
        assert np.abs(pi.probs - pi2.probs).max() <= 1e-8


class TestModelInvariances:
    """Seeded invariance battery for the robustness arguments."""

    N_TRIALS = 200

    def _env(self, seed):
        mdp = random_mdp(2 + seed % 3, 2 + seed % 2, 0.8, seed=seed)
        r = random_reward(mdp, seed=seed + 5000)
        return mdp, r

    def test_boltzmann_invariant_under_shaping_and_redistribution(self):
        for seed in range(self.N_TRIALS):
            mdp, r = self._env(seed)
            pi = boltzmann_policy(mdp, r, beta=1.5)
            shaped = apply(sample_potential_shaping(mdp, 1.0, False, seed + 1), r, mdp)
            sr = apply(sample_s_redistribution(mdp, shaped, 1.0, seed + 2), shaped, mdp)
            pi2 = boltzmann_policy(mdp, sr, beta=1.5)
            assert np.abs(pi.probs - pi2.probs).max() <= 1e-8

    def test_boltzmann_temperature_scale_exchange(self):
        for seed in range(0, self.N_TRIALS, 4):
            mdp, r = self._env(seed)
            c = 0.5 + (seed % 5)
            scaled = apply(LinearScaling(c), r, mdp)
            pi = boltzmann_policy(mdp, r, beta=2.0)
            pi2 = boltzmann_policy(mdp, scaled, beta=2.0 / c)
            assert np.abs(pi.probs - pi2.probs).max() <= 1e-8

    def test_mce_invariant_under_shaping_and_redistribution(self):
        for seed in range(0, self.N_TRIALS, 4):
            mdp, r = self._env(seed)
            pi = mce_policy(mdp, r, alpha=0.7)
            shaped = apply(sample_potential_shaping(mdp, 1.0, False, seed + 3), r, mdp)
            sr = apply(sample_s_redistribution(mdp, shaped, 1.0, seed + 4), shaped, mdp)
            pi2 = mce_policy(mdp, sr, alpha=0.7)
            assert np.abs(pi.probs - pi2.probs).max() <= 1e-8

    def test_mce_weight_scale_exchange(self):
        for seed in range(0, self.N_TRIALS, 4):
            mdp, r = self._env(seed)
            c = 0.5 + (seed % 5)
            scaled = apply(LinearScaling(c), r, mdp)
            pi = mce_policy(mdp, r, alpha=0.9)
            pi2 = mce_policy(mdp, scaled, alpha=0.9 * c)
            assert np.abs(pi.probs - pi2.probs).max() <= 1e-8

    def test_variant_family_membership(self):
        for seed in range(0, self.N_TRIALS, 4):
            mdp, r = self._env(seed)
            opt = optimal_values(mdp, r).opt_sets
            for weights, betas in (((0.4, 0.6), (1.0, 3.0)), ((1.0,), (1.5 * 1.5,))):
                pi = fvariant_policy(mdp, r, weights, betas)
                assert np.all(pi.probs > 0)
                for s in range(mdp.n_states):
                    assert frozenset(np.flatnonzero(
                        pi.probs[s] >= pi.probs[s].max() - 1e-12
                    ).tolist()) == opt[s]
            pib = boltzmann_policy(mdp, r, beta=2.0)
            for s in range(mdp.n_states):
                assert int(np.argmax(pib.probs[s])) in opt[s]

    def test_optimal_set_equality_iff_opt_equivalent(self):
        for seed in range(0, self.N_TRIALS, 4):
            mdp, r1 = self._env(seed)
            if seed % 8 == 0:
                r2 = apply(sample_optimality_preserving(mdp, 1.0, seed + 6), r1, mdp)
            else:
                r2 = random_reward(mdp, seed=seed + 7000)
            same_sets = optimal_set_policy(mdp, r1) == optimal_set_policy(mdp, r2)
            assert same_sets == opt_equivalent(r1, r2, mdp).equivalent

