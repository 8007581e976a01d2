import itertools

import numpy as np
import pytest

from rewardlab import (
    Chain,
    LinearScaling,
    OptimalityPreserving,
    PotentialFn,
    PotentialShaping,
    RewardTable,
    SuccessorRedistribution,
    apply,
    canonical_forms,
    j_equal,
    optimal_values,
    ord_equivalent,
    policy_evaluate,
    reward_vector,
    sample_optimality_preserving,
    sample_potential_shaping,
    sample_s_redistribution,
)
from rewardlab.errors import StructuralError
from rewardlab.solve import ROUNDOFF_RTOL
from rewardlab.transform import shaping_matrix
from rewardlab.lab import _successor_choice, random_mdp, random_policy, random_reward

import oracles


class TestApply:
    def test_zero_potential_is_identity(self, chain, chain_reward):
        out = apply(PotentialShaping(PotentialFn(np.zeros(2))), chain_reward, chain)
        assert np.array_equal(out.values, chain_reward.values)

    def test_shaping_formula(self, chain, chain_reward):
        out = apply(PotentialShaping(PotentialFn(np.array([0.0, 1.0]))), chain_reward, chain)
        # R'(s0,a1,s1) = 1 + 0.5*1 - 0
        assert out.values[0, 1, 1] == pytest.approx(1.5)
        assert out.values[1, 0, 1] == pytest.approx(1 + 0.5 - 1.0)

    def test_scaling_doubles_and_keeps_opt_sets(self, chain, chain_reward):
        out = apply(LinearScaling(2.0), chain_reward, chain)
        assert np.array_equal(out.values, 2.0 * chain_reward.values)
        assert oracles.brute_force_opt_sets(chain, out) == ({1}, {0})

    def test_scaling_must_be_positive(self):
        with pytest.raises(StructuralError):
            LinearScaling(0.0)
        with pytest.raises(StructuralError):
            LinearScaling(-2.0)

    def test_constant_shift(self):
        """R + k is shaping by phi = -k/(1 - gamma) at every state, up to round-off."""
        for seed, k in itertools.product(range(10), [-0.25, 1.0, 1e6]):
            mdp = random_mdp(4, 3, 0.9, seed=seed)
            r = random_reward(mdp, seed=seed + 100)
            out = apply(PotentialShaping(PotentialFn(np.full(4, -k / (1.0 - mdp.discount)))), r, mdp)
            scale = abs(k) / (1.0 - mdp.discount) + np.abs(r.values).max()
            assert np.abs(out.values - (r.values + k)).max() <= ROUNDOFF_RTOL * scale

    def test_chain_applies_left_to_right(self, chain, chain_reward):
        phi = np.array([0.3, -0.4])
        seq = Chain((LinearScaling(2.0), PotentialShaping(PotentialFn(phi))))
        out = apply(seq, chain_reward, chain)
        manual = 2.0 * chain_reward.values + 0.5 * phi[None, None, :] - phi[:, None, None]
        np.testing.assert_allclose(out.values, manual, atol=1e-15)

    def test_scaling_and_shaping_commute_with_scaled_potential(self, chain, chain_reward):
        # (shape by phi, then scale by c) equals (scale by c, then shape by c*phi)
        phi, c = np.array([0.7, -0.2]), 3.0
        left = apply(Chain((PotentialShaping(PotentialFn(phi)), LinearScaling(c))), chain_reward, chain)
        right = apply(Chain((LinearScaling(c), PotentialShaping(PotentialFn(c * phi)))), chain_reward, chain)
        np.testing.assert_allclose(left.values, right.values, atol=1e-14)

    def test_mismatched_replacement_rejected(self, chain, chain_reward):
        bad = SuccessorRedistribution(RewardTable(chain_reward.values + 1.0))
        with pytest.raises(ValueError):
            apply(bad, chain_reward, chain)

    @pytest.mark.parametrize(
        "spec",
        [
            PotentialShaping(PotentialFn([3.0])),
            OptimalityPreserving(psi=[1.0], slack=[[-1.0]]),
            OptimalityPreserving(psi=[1.0, 2.0], slack=[[-1.0], [-1.0]]),
            Chain((LinearScaling(2.0), PotentialShaping(PotentialFn([1.0, 2.0, 3.0])))),
        ],
        ids=["phi-1-state", "psi-1-state", "slack-1-action", "phi-3-states-in-chain"],
    )
    def test_spec_shapes_checked_against_the_mdp(self, chain, chain_reward, spec):
        # numpy would broadcast a 1-entry phi or an (S, 1) slack over the whole MDP
        with pytest.raises(StructuralError):
            apply(spec, chain_reward, chain)

    @pytest.mark.parametrize(
        "spec",
        [
            LinearScaling(1e308),
            LinearScaling(np.inf),
            PotentialShaping(PotentialFn([1.5e308, -1.5e308])),
            PotentialShaping(PotentialFn([np.inf, 0.0])),
            OptimalityPreserving(psi=[1.5e308, -1.5e308], slack=-np.ones((2, 2))),
        ],
        ids=["ls-1e308", "ls-inf", "ps-1.5e308", "ps-inf", "op-1.5e308"],
    )
    def test_overflowing_step_raises_structural_error(self, chain, spec):
        """A step whose arithmetic leaves float64 is refused with one message and no RuntimeWarning."""
        r = RewardTable.from_sa([[3.0, 0.0], [0.0, 3.0]])
        with pytest.raises(StructuralError, match="overflows float64"):
            apply(spec, r, chain)

    def test_output_is_sas_domain(self, chain):
        r_sa = RewardTable.from_sa([[1.0, 0.0], [0.0, 1.0]])
        out = apply(LinearScaling(2.0), r_sa, chain)
        assert out.values.shape == (2, 2, 2)
        assert np.array_equal(out.values, 2.0 * r_sa.values)


class TestPotentialSampler:
    def test_zero_bounds_gives_identity(self, chain):
        spec = sample_potential_shaping(chain, 0.0, False, seed=3)
        assert np.all(spec.potential.phi == 0.0)

    def test_zero_initial_projection_on_chain(self, chain):
        # mu0 = (1, 0): projection forces phi[s0] = 0
        spec = sample_potential_shaping(chain, 2.0, True, seed=5)
        assert spec.potential.phi[0] == pytest.approx(0.0, abs=1e-15)
        phi = spec.potential.phi
        assert abs(chain.initial @ phi) <= ROUNDOFF_RTOL * np.abs(phi).max()

    def test_seed_determinism(self, chain):
        a = sample_potential_shaping(chain, 1.0, False, seed=9)
        b = sample_potential_shaping(chain, 1.0, False, seed=9)
        assert np.array_equal(a.potential.phi, b.potential.phi)

    def test_zero_initial_expectation_tolerance(self):
        mdp = random_mdp(5, 2, 0.8, seed=1)
        spec = sample_potential_shaping(mdp, 10.0, True, seed=2)
        assert abs(float(mdp.initial @ spec.potential.phi)) <= 1e-10


class TestRedistributionSampler:
    def test_deterministic_rows_keep_support_entries(self, chain, chain_reward):
        spec = sample_s_redistribution(chain, chain_reward, 1.0, seed=4)
        out = apply(spec, chain_reward, chain)
        support = chain.transition > 0
        assert np.array_equal(out.values[support], chain_reward.values[support])
        assert np.array_equal(reward_vector(out, chain), reward_vector(chain_reward, chain))

    def test_two_support_row_preserves_expectation(self):
        tau = np.zeros((2, 1, 2))
        tau[0, 0] = [0.5, 0.5]
        tau[1, 0] = [0.0, 1.0]
        from rewardlab import Mdp

        mdp = Mdp(tau, np.array([1.0, 0.0]), 0.9)
        r = RewardTable(np.ones((2, 1, 2)))
        spec = sample_s_redistribution(mdp, r, 5.0, seed=8)
        out = apply(spec, r, mdp)
        assert not np.array_equal(out.values[0, 0], r.values[0, 0])  # actually redistributed
        np.testing.assert_allclose(
            reward_vector(out, mdp), reward_vector(r, mdp), atol=1e-12
        )

    def test_zero_magnitude_changes_nothing(self, chain, chain_reward):
        spec = sample_s_redistribution(chain, chain_reward, 0.0, seed=4)
        out = apply(spec, chain_reward, chain)
        assert np.array_equal(reward_vector(out, chain), reward_vector(chain_reward, chain))

    def test_per_pair_expectation_preservation(self):
        for seed in range(20):
            mdp = random_mdp(4, 3, 0.8, seed=seed)
            r = oracles.uniform_reward(mdp, seed=seed + 30)
            out = apply(sample_s_redistribution(mdp, r, 2.0, seed=seed), r, mdp)
            gap = np.abs(reward_vector(out, mdp) - reward_vector(r, mdp)).max()
            assert gap <= 1e-12
            # On full-support rows the sampler is the per-row loop, bit for bit.
            rng, expected = np.random.default_rng(seed), r.values.copy()
            for s, a in np.ndindex(4, 3):
                p, u = mdp.transition[s, a], rng.uniform(-2.0, 2.0, size=4)
                expected[s, a] += u - (p @ u) / p.sum()
            assert np.array_equal(out.values, expected)


class TestOptimalityPreserving:
    def test_value_profile_and_slack_realized(self, chain, chain_reward):
        # psi = 0, slack = -1 everywhere: expected new rewards are 0 on optimal
        # pairs and -1 elsewhere.
        spec = OptimalityPreserving(psi=np.zeros(2), slack=-np.ones((2, 2)))
        out = apply(spec, chain_reward, chain)
        rv = reward_vector(out, chain)
        np.testing.assert_allclose(rv, [[-1.0, 0.0], [0.0, -1.0]], atol=1e-12)
        assert oracles.brute_force_opt_sets(chain, out) == ({1}, {0})

    def test_optimal_values_as_profile(self, chain, chain_reward):
        base = optimal_values(chain, chain_reward)
        slack = np.where(base.a_star < 0, base.a_star, -1.0)
        spec = OptimalityPreserving(psi=base.v_star, slack=slack)
        out = apply(spec, chain_reward, chain)
        rebuilt = optimal_values(chain, out)
        np.testing.assert_allclose(rebuilt.v_star, base.v_star, atol=1e-8)
        assert tuple(rebuilt.opt_sets) == tuple(base.opt_sets)

    def test_slack_must_be_negative(self):
        with pytest.raises(StructuralError):
            OptimalityPreserving(psi=np.zeros(2), slack=np.zeros((2, 2)))

    def test_sampler_preserves_opt_sets_200_trials(self):
        for seed in range(200):
            mdp = random_mdp(2 + seed % 3, 2 + seed % 2, 0.75, seed=seed)
            r = random_reward(mdp, seed=seed + 1000)
            spec = sample_optimality_preserving(mdp, 1.0, seed=seed + 2000)
            out = apply(spec, r, mdp)
            assert oracles.brute_force_opt_sets(mdp, out) == oracles.brute_force_opt_sets(mdp, r)


class TestShapingValueIdentities:
    def test_shaping_shifts_values_by_potential(self):
        for seed in range(10):
            mdp = random_mdp(4, 2, 0.85, seed=seed)
            r = oracles.uniform_reward(mdp, seed=seed + 11)
            spec = sample_potential_shaping(mdp, 1.0, False, seed=seed + 22)
            shaped = apply(spec, r, mdp)
            pi = random_policy(4, 2, seed=seed + 33)
            before = policy_evaluate(mdp, r, pi)
            after = policy_evaluate(mdp, shaped, pi)
            np.testing.assert_allclose(after.v, before.v - spec.potential.phi, atol=1e-8)
            assert after.j == pytest.approx(
                before.j - float(mdp.initial @ spec.potential.phi), abs=1e-8
            )

    def test_redistribution_preserves_j_for_every_policy(self):
        mdp = random_mdp(3, 3, 0.8, seed=2)
        r = oracles.uniform_reward(mdp, seed=3)
        out = apply(sample_s_redistribution(mdp, r, 1.0, seed=4), r, mdp)
        for seed in range(6):
            pi = random_policy(3, 3, seed=seed)
            assert policy_evaluate(mdp, out, pi).j == pytest.approx(
                policy_evaluate(mdp, r, pi).j, abs=1e-10
            )

    def test_scaling_scales_advantages(self, chain, chain_reward):
        base = optimal_values(chain, chain_reward)
        scaled = optimal_values(chain, apply(LinearScaling(4.0), chain_reward, chain))
        np.testing.assert_allclose(scaled.a_star, 4.0 * base.a_star, atol=1e-8)
        assert tuple(scaled.opt_sets) == tuple(base.opt_sets)


CANONICAL_ROWS = {
    "2^-600": lambda base, mdp: RewardTable(np.ldexp(base.values, -600)),
    "2^0": lambda base, mdp: base,
    "2^600": lambda base, mdp: RewardTable(np.ldexp(base.values, 600)),
    "pure-shaping": lambda base, mdp: apply(
        PotentialShaping(PotentialFn(np.array([0.7, -1.3, 2.1]))), RewardTable(np.zeros((3, 2, 3))), mdp),
    "zero": lambda base, mdp: RewardTable(np.zeros((3, 2, 3))),
}

CANONICAL_GAMMAS = [2.0**-40, 0.5, 0.99, 1 - 2.0**-20]


class TestCanonicalForms:
    @pytest.mark.parametrize("row", CANONICAL_ROWS)
    def test_contract(self, row):
        """Each row's unit, split, normalisation and restatement, paired with a reward at 2^0."""
        mdp = random_mdp(3, 2, 0.9, seed=1)
        base = RewardTable(np.random.default_rng(0).uniform(-1, 1, (3, 2, 3)))
        rewards = (CANONICAL_ROWS[row](base, mdp), base)
        forms = canonical_forms(*rewards, mdp)
        rvs = np.array([reward_vector(r, mdp).ravel() for r in rewards])
        for rv, exp in zip(rvs, forms.exp):
            if rv.any():
                assert 0.5 <= np.ldexp(np.abs(rv).max(), -exp) < 1.0
            else:
                assert exp == -1073
        np.testing.assert_allclose(forms.c + forms.p @ shaping_matrix(mdp).T, forms.v, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(forms.size, np.linalg.norm(forms.c, axis=1))
        np.testing.assert_array_equal(forms.v_size, np.linalg.norm(forms.v, axis=1))
        for c, u, size, v_size in zip(forms.c, forms.u, forms.size, forms.v_size):
            if size > ROUNDOFF_RTOL * v_size:
                np.testing.assert_array_equal(u, c / size)
            else:
                assert not u.any()
        assert forms.u[0].any() == (row not in ("pure-shaping", "zero"))
        same = forms.common()
        if forms.exp[0] == forms.exp[1]:
            assert same is forms
            return
        shift = forms.exp - forms.exp.max()
        assert (same.exp == forms.exp.max()).all()
        for field in ("v", "c", "p", "size", "v_size"):
            np.testing.assert_array_equal(getattr(same, field).T, np.ldexp(getattr(forms, field).T, shift))
        # Every restated value here stays normal, so the restatement is exact.
        np.testing.assert_array_equal(same.v, np.ldexp(rvs, -same.exp[:, None]))

    @pytest.mark.parametrize("gamma", CANONICAL_GAMMAS, ids=["2^-40", "0.5", "0.99", "1-2^-20"])
    @pytest.mark.parametrize("row", CANONICAL_ROWS)
    def test_forms_average_to_zero_over_each_states_actions(self, row, gamma):
        """Levelling at the uniform policy: each form's mean over a state's actions is round-off of |v|."""
        mdp = random_mdp(3, 2, gamma, seed=1)
        base = RewardTable(np.random.default_rng(0).uniform(-1, 1, (3, 2, 3)))
        forms = canonical_forms(CANONICAL_ROWS[row](base, mdp), base, mdp)
        means = np.abs(forms.c.reshape(2, 3, 2).mean(axis=2)).max(axis=1)
        assert (means <= 1e-14 * forms.v_size).all(), means / forms.v_size

    @pytest.mark.parametrize("gamma", CANONICAL_GAMMAS, ids=["2^-40", "0.5", "0.99", "1-2^-20"])
    @pytest.mark.parametrize("exp", [-600, 0, 600], ids=["2^-600", "2^0", "2^600"])
    def test_scaling_shaping_and_redistribution_keep_the_direction(self, exp, gamma):
        """c*r plus shaping plus S'-redistribution has r's normalised form, and its form is c times as long."""
        for seed in range(10):
            mdp = random_mdp(4, 3, gamma, seed=seed)
            rng = np.random.default_rng(seed)
            r = RewardTable(np.ldexp(rng.uniform(-1, 1, (4, 3, 4)), exp))
            c = 10.0 ** rng.uniform(-3, 3)
            head = (LinearScaling(c), PotentialShaping(PotentialFn(np.ldexp(rng.uniform(-1, 1, 4), exp))))
            spread = sample_s_redistribution(mdp, apply(Chain(head), r, mdp), float(np.ldexp(1.0, exp)), seed)
            forms = canonical_forms(r, apply(Chain((*head, spread)), r, mdp), mdp)
            np.testing.assert_allclose(forms.u[1], forms.u[0], rtol=0, atol=1e-12)
            ratio = np.ldexp(forms.size[1] / forms.size[0], forms.exp[1] - forms.exp[0])
            assert ratio == pytest.approx(c, rel=1e-12), seed


class TestDecomposeOrd:
    def test_round_trip_recovers_scale(self):
        for seed in range(30):
            mdp = random_mdp(3 + seed % 3, 2, 0.8, seed=seed)
            r1 = random_reward(mdp, seed=seed + 40)
            c = 0.3 + (seed % 7) * 0.5
            cur = apply(LinearScaling(c), r1, mdp)
            cur = apply(sample_potential_shaping(mdp, 1.0, False, seed=seed + 50), cur, mdp)
            cur = apply(sample_s_redistribution(mdp, cur, 1.0, seed=seed + 60), cur, mdp)
            dec = ord_equivalent(r1, cur, mdp).certificate
            assert dec is not None
            assert dec.residual <= 1e-6
            assert dec.c == pytest.approx(c, abs=1e-6 * max(1.0, c))

    def test_opposite_orderings_return_none(self, chain, chain_reward):
        negated = RewardTable(-chain_reward.values)
        assert oracles.brute_force_opt_sets(chain, negated) != oracles.brute_force_opt_sets(
            chain, chain_reward
        )
        assert ord_equivalent(chain_reward, negated, chain).certificate is None

    def test_identity_fit(self, chain, chain_reward):
        dec = ord_equivalent(chain_reward, chain_reward, chain).certificate
        assert dec is not None
        assert dec.c == pytest.approx(1.0, abs=1e-9)
        assert dec.residual <= 1e-12

    def test_degenerate_branch(self, chain):
        # A pure shaping of the zero reward has constant (zero) J: c is
        # unidentifiable, and membership of r2 in the same span decides.
        zero = RewardTable(np.zeros((2, 2, 2)))
        r1 = apply(PotentialShaping(PotentialFn(np.array([1.0, -2.0]))), zero, chain)
        r2 = apply(PotentialShaping(PotentialFn(np.array([-0.5, 3.0]))), zero, chain)
        dec = ord_equivalent(r1, r2, chain).certificate
        assert dec is not None and dec.c == 1.0
        r3 = random_reward(chain, seed=77)
        assert ord_equivalent(r1, r3, chain).certificate is None


class TestDecomposeJ:
    def test_round_trip(self):
        for seed in range(15):
            mdp = random_mdp(3, 2, 0.8, seed=seed)
            r1 = oracles.uniform_reward(mdp, seed=seed + 40)
            shaped = apply(sample_potential_shaping(mdp, 1.0, True, seed=seed + 50), r1, mdp)
            r2 = apply(sample_s_redistribution(mdp, shaped, 1.0, seed=seed + 60), shaped, mdp)
            dec = j_equal(r1, r2, mdp).certificate
            assert dec is not None and dec.residual <= 1e-6

    def test_constant_shift_changes_j(self, chain, chain_reward):
        shifted = RewardTable(chain_reward.values + 1.0)
        # J moves by k/(1-gamma) = 2 for every policy, so no zero-mean fit exists.
        assert j_equal(chain_reward, shifted, chain).certificate is None

    def test_identity(self, chain, chain_reward):
        dec = j_equal(chain_reward, chain_reward, chain).certificate
        assert dec is not None
        np.testing.assert_allclose(dec.phi.phi, 0.0, atol=1e-9)


def sa_shaping(phi, r, mdp):
    """EX-SA-SHAPING's composite: potential shaping, then the redistribution to each row's expected value."""
    return RewardTable.from_sa(reward_vector(apply(PotentialShaping(phi), r, mdp), mdp))


class TestSaDomainShaping:
    def test_zero_potential_identity(self, chain):
        r = RewardTable.from_sa([[0.0, 1.0], [1.0, 0.0]])
        out = sa_shaping(PotentialFn(np.zeros(2)), r, chain)
        assert np.array_equal(out.values, r.values)

    def test_formula_on_chain(self, chain):
        r = RewardTable.from_sa([[0.0, 1.0], [1.0, 0.0]])
        out = sa_shaping(PotentialFn(np.array([0.0, 1.0])), r, chain)
        assert np.all(out.values == out.values[:, :, :1])  # still independent of s'
        # r'(s0,a1) = 1 + 0.5*1 - 0
        assert out.values[0, 1, 0] == pytest.approx(1.5)

    def test_certified_order_equivalent(self, chain):
        r = RewardTable.from_sa([[0.0, 1.0], [1.0, 0.0]])
        for seed in range(5):
            rng = np.random.default_rng(seed)
            phi = PotentialFn(rng.uniform(-1, 1, size=2))
            out = sa_shaping(phi, r, chain)
            dec = ord_equivalent(r, out, chain).certificate
            assert dec is not None and dec.c == pytest.approx(1.0, abs=1e-8)


class TestPsLsFit:
    """Scaling plus shaping alone: ord_equivalent on the successor-choice MDP, where every
    (s, a, s') entry is its own expected reward."""

    def test_recovers_constructed_fit(self, chain, chain_reward):
        phi = np.array([0.4, -0.9])
        target = RewardTable(
            2.0 * chain_reward.values + 0.5 * phi[None, None, :] - phi[:, None, None]
        )
        verdict = ord_equivalent(*_successor_choice(chain_reward, target, 0.5))
        assert verdict.equivalent
        assert verdict.certificate.c == pytest.approx(2.0, abs=1e-9)

    def test_redistribution_breaks_pointwise_fit(self, chain, chain_reward):
        spec = sample_s_redistribution(chain, chain_reward, 1.0, seed=5)
        out = apply(spec, chain_reward, chain)
        # Same expectations, different tensors: the pointwise fit must fail.
        assert not ord_equivalent(*_successor_choice(chain_reward, out, 0.5)).equivalent
