import json

import numpy as np
import pytest

from rewardlab import (
    Chain,
    LinearScaling,
    Mdp,
    RewardTable,
    StochasticPolicy,
    apply,
    j_equal,
    opt_equivalent,
    ord_equivalent,
    reward_vector,
    sample_optimality_preserving,
    sample_potential_shaping,
    sample_s_redistribution,
)
from rewardlab import documents, equiv
from rewardlab.errors import CapacityError, InternalConsistencyError, StructuralError
from rewardlab.lab import (
    TRANSFER_PAIR,
    ExperimentConfig,
    _child_seeds,
    _draw_env,
    _successor_choice,
    random_mdp,
    random_reward,
)
from rewardlab.solve import IMPROVE_RTOL, TIE_TOL, occupancy, optimal_values, vertex_j
from rewardlab.transform import shaping_matrix

import oracles
from test_solve import TIED_CASES, _tied_instance


def j_table(r, mdp):
    return vertex_j(mdp, reward_vector(r, mdp)[None])[:, 0]


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
        spec = sample_optimality_preserving(chain, 1.0, seed=3)
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
        rewards.append(apply(sample_optimality_preserving(mdp, 1.0, 7), rewards[0], mdp))
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


    @pytest.mark.parametrize("n_states, n_actions, scale", TIED_CASES)
    def test_witness_is_first_differing_state_on_ties(self, n_states, n_actions, scale):
        """Raising the last (copied) action's reward in the second half breaks its ties there."""
        mdp, r1 = _tied_instance(n_states, n_actions, scale, seed=n_states + n_actions)
        values = r1.values.copy()
        values[n_states // 2:, -1] += 1e-3 * np.abs(values).max()
        r2 = RewardTable(values)

        def per_state_sets(r):
            a_star = (bundle := optimal_values(mdp, r)).a_star
            tie = max(TIE_TOL * float(np.abs(a_star).max()), IMPROVE_RTOL * float(np.abs(bundle.q_star).max()))
            assert np.array_equal(bundle.opt_sets.mask, a_star >= -tie)
            return [frozenset(np.flatnonzero(a_star[s] >= -tie).tolist()) for s in range(n_states)]

        sets1, sets2 = per_state_sets(r1), per_state_sets(r2)
        first = next(s for s in range(n_states) if sets1[s] != sets2[s])
        verdict = opt_equivalent(r1, r2, mdp)
        assert not verdict.equivalent
        assert verdict.witness == {"state": first, "opt1": sorted(sets1[first]), "opt2": sorted(sets2[first])}
        assert type(verdict.witness["state"]) is int
        doc = json.loads(documents.dumps(documents.verdict_to_doc(verdict)))
        assert doc["witness"] == verdict.witness
        assert opt_equivalent(r1, RewardTable(2.0 * r1.values), mdp).witness is None


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
        r1 = random_reward(mdp, seed=seeds[0])
        r3 = random_reward(mdp, seed=seeds[3])
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
            r1 = oracles.uniform_reward(mdp, seed=10_000 + trial)
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

    @pytest.mark.parametrize("decider", [ord_equivalent, j_equal], ids=["ord", "jeq"])
    def test_cross_check_guard_raises_on_rigged_decider(self, decider, chain, chain_reward, monkeypatch):
        # A negative tolerance refuses every pair, so the oracle must catch r refused against itself.
        monkeypatch.setattr(equiv, "DIST_TOL", -1.0)
        with pytest.raises(InternalConsistencyError, match="decider said False"):
            decider(chain_reward, chain_reward, chain)


def lexsort_chord(j1, j2):
    """_chord's outputs with the extreme J1 vertices taken from a stable lexsort by (J1, J2)."""
    order = np.lexsort((j2, j1))
    lo, hi = order[0], order[-1]
    span = j1[hi] - j1[lo]
    t = (j1 - j1[lo]) / span if span > 0 else np.zeros_like(j1)
    rise = j2[hi] - j2[lo]
    return span, j2 - j2[lo] - t * rise, rise


class TestChord:
    def test_matches_the_lexsort_rule_on_tables_full_of_ties(self):
        """Integer-valued J tables tie in J1 and in (J1, J2) everywhere; ties are broken by J2."""
        rng = np.random.default_rng(29)
        for _ in range(2000):
            size, levels = int(rng.integers(1, 40)), int(rng.integers(1, 5))
            j1, j2 = rng.integers(-levels, levels + 1, size=(2, size)).astype(float)
            for got, want in zip(equiv._chord(j1, j2), lexsort_chord(j1, j2)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestPolicyPair:
    @pytest.mark.parametrize("decider", [ord_equivalent, j_equal])
    def test_uniform_occupancy_is_solve_occupancy_bit_for_bit(self, decider, monkeypatch):
        """The witness starts from the uniform policy's occupancy, bit for bit as solve.occupancy gives it."""
        mdp = random_mdp(4, 3, 0.9, seed=31)
        r1, r2 = (oracles.uniform_reward(mdp, seed=s) for s in (32, 33))
        seen, solve_occupancy = [], equiv._occupancy

        def recorded(*args):
            seen.append(solve_occupancy(*args))
            return seen[-1]

        monkeypatch.setattr(equiv, "_occupancy", recorded)
        assert not decider(r1, r2, mdp).equivalent
        uniform = StochasticPolicy(np.full((4, 3), 1.0 / 3))
        assert len(seen) == 1
        assert seen[0].tobytes() == occupancy(mdp, uniform).d.tobytes()

    @pytest.mark.parametrize("shape", [(4, 3), (11, 2)], ids=["under-cap", "above-cap"])
    @pytest.mark.parametrize("decider", [ord_equivalent, j_equal], ids=["ord", "jeq"])
    def test_witness_occupancies_average_to_the_uniform_occupancy(self, decider, shape):
        """The pair's occupancies are d0 +/- eps*w' with w' a flow direction, so they sum to twice d0."""
        n, k = shape
        assert (k**n > equiv.CROSS_CHECK_CAP) == (n == 11)
        for seed, gamma in enumerate((0.5, 0.9, 0.99)):
            mdp = random_mdp(n, k, gamma, seed=seed)
            r1, r2 = (oracles.uniform_reward(mdp, seed=10 * seed + s) for s in (1, 2))
            verdict = decider(r1, r2, mdp)
            assert not verdict.equivalent
            d0 = occupancy(mdp, StochasticPolicy(np.full((n, k), 1.0 / k))).d
            pair = sum(occupancy(mdp, StochasticPolicy(np.array(p))).d for p in verdict.witness["policies"])
            assert np.abs(pair - 2 * d0).max() <= 1e-12 * np.abs(2 * d0).max(), seed


class TestTransferPair:
    def test_fixture_values_match_quoted_construction(self):
        r1, r2 = TRANSFER_PAIR
        assert r1.values.shape == r2.values.shape == (2, 2, 2)
        assert r1.values[0, 0, 0] == 1.0 and r1.values[0, 0, 1] == 0.5
        assert r2.values[0, 0, 0] == 0.5 and r2.values[0, 0, 1] == 1.0
        mask = np.ones((2, 2, 2), dtype=bool)
        mask[0, 0, :] = False
        assert np.all(r1.values[mask] == 0.0) and np.all(r2.values[mask] == 0.0)

    def test_order_equivalent_for_each_sampled_transition(self):
        r1, r2 = TRANSFER_PAIR
        for seed in range(10):
            mdp = random_mdp(2, 2, 0.5, seed=seed)
            assert ord_equivalent(r1, r2, mdp).equivalent

    def test_transition_free_fit_fails(self):
        r1, r2 = TRANSFER_PAIR
        for gamma in (0.3, 0.5, 0.9):
            assert not ord_equivalent(*_successor_choice(r1, r2, gamma)).equivalent


class TestSuccessorChoice:
    """ord_equivalent on the successor-choice MDP against the pointwise least-squares oracle."""

    @staticmethod
    def agrees(r1, r2, gamma):
        """Decider and oracle give the same verdict, and the same c on an acceptance; returns the verdict."""
        verdict = ord_equivalent(*_successor_choice(r1, r2, gamma))
        c = oracles.pointwise_fit(r1, r2, gamma)
        assert verdict.equivalent == (c is not None), (gamma, c)
        if c is not None:
            assert verdict.certificate.c == pytest.approx(c, rel=1e-12, abs=0)
        return verdict.equivalent

    def test_expected_rewards_and_shaping_matrix_are_pointwise(self):
        r1, r2 = TRANSFER_PAIR
        s1, s2, mdp = _successor_choice(r1, r2, 0.7)
        assert np.array_equal(reward_vector(s1, mdp).ravel(), r1.values.ravel())
        assert np.array_equal(reward_vector(s2, mdp).ravel(), r2.values.ravel())
        s, _, s_next = np.indices((2, 2, 2))
        design = np.stack([(0.7 * (s_next == t) - (s == t)).ravel() for t in range(2)], axis=1)
        assert np.array_equal(shaping_matrix(mdp), design)

    def test_transfer_pair_at_twenty_discounts(self):
        r1, r2 = TRANSFER_PAIR
        for gamma in np.linspace(0.3, 0.95, 20):
            assert not self.agrees(r1, r2, float(gamma))

    @pytest.mark.parametrize("kind, accepted", [("scaled-shaped", True), ("independent", False),
                                                ("perturbed", False)])
    def test_random_pairs(self, kind, accepted):
        for seed in range(100):
            rng = np.random.default_rng([seed, 26])
            n, k, gamma = int(rng.integers(2, 5)), int(rng.integers(2, 4)), float(rng.uniform(0.3, 0.95))
            r1 = rng.uniform(-1.0, 1.0, (n, k, n))
            phi = rng.uniform(-1.0, 1.0, n)
            r2 = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0)))) * r1 + gamma * phi - phi[:, None, None]
            if kind == "independent":
                r2 = rng.uniform(-1.0, 1.0, (n, k, n))
            elif kind == "perturbed":
                r2 = r2 + 1e-3 * rng.uniform(-1.0, 1.0, (n, k, n))
            assert self.agrees(RewardTable(r1), RewardTable(r2), gamma) == accepted, (kind, seed)


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
            r1 = oracles.uniform_reward(mdp, seed=seed + 30)
            shaped = apply(sample_potential_shaping(mdp, 1.0, True, seed=seed + 40), r1, mdp)
            r2 = apply(sample_s_redistribution(mdp, shaped, 1.0, seed=seed + 50), shaped, mdp)
            assert j_equal(r1, r2, mdp).equivalent
            assert ord_equivalent(r1, r2, mdp).equivalent


class TestOrderSignature:
    """A reward's order signature: its J table over the deterministic policies, from vertex_j."""

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
        mdp = random_mdp(17, 2, 0.8, seed=1)  # 2^17 > DEFAULT_ENUM_CAP
        with pytest.raises(CapacityError):
            j_table(oracles.uniform_reward(mdp, seed=2), mdp)


def _unreachable_last_state(n_states, seed=0):
    """A dense MDP whose last state no policy reaches, and two rewards differing only there."""
    rng = np.random.default_rng(seed)
    tau = rng.dirichlet(np.ones(n_states - 1), size=(n_states, 2))
    tau = np.concatenate([tau, np.zeros((n_states, 2, 1))], axis=2)
    mu0 = np.append(rng.dirichlet(np.ones(n_states - 1)), 0.0)
    r1 = rng.uniform(-1.0, 1.0, size=(n_states, 2, n_states))
    r2 = r1.copy()
    r2[-1, 0] += 5.0
    return Mdp(tau, mu0, 0.9), RewardTable(r1), RewardTable(r2)


class TestUnreachableState:
    """Rewards that differ only at a state no policy visits give every policy the same J,
    yet their canonical forms differ: a refusal there must name the state, not raise an
    oracle disagreement (under the cap) or return one policy twice (above it)."""

    @pytest.mark.parametrize("n_states", [4, 12], ids=["under-cap", "above-cap"])
    @pytest.mark.parametrize("decider", [ord_equivalent, j_equal], ids=["ord", "jeq"])
    def test_refusal_names_the_unreachable_state(self, decider, n_states):
        mdp, r1, r2 = _unreachable_last_state(n_states)
        with pytest.raises(StructuralError, match=rf"\[{n_states - 1}\]"):
            decider(r1, r2, mdp)

    def test_equivalent_verdict_needs_no_reachability(self):
        mdp, r1, _ = _unreachable_last_state(4)
        assert ord_equivalent(r1, apply(LinearScaling(2.0), r1, mdp), mdp).equivalent
        assert j_equal(r1, r1, mdp).equivalent
