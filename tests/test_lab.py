import itertools
from dataclasses import replace

import numpy as np
import pytest

from rewardlab import (
    ExperimentConfig,
    Mdp,
    PotentialFn,
    PotentialShaping,
    RewardTable,
    apply,
    boltzmann_policy,
    misspec_counterexample,
    opt_equivalent,
    optimal_values,
    random_mdp,
    random_policy,
    random_reward,
    reward_vector,
    validate_mdp,
    verify_claim,
)
from rewardlab import documents, lab
from rewardlab.errors import GenerationError, UnknownClaimError
from rewardlab.mdp import DEFAULT_ENUM_CAP
from rewardlab.lab import (
    CLAIM_ORDER,
    CLAIMS,
    CounterexampleRecord,
    _invisible_directions,
    _run_trials,
    advantage_gap,
    oracle_opt_sets,
    run_registry,
)

import oracles


class TestGenerators:
    def test_random_mdp_deterministic_and_valid(self):
        a = random_mdp(3, 2, 0.8, seed=7)
        b = random_mdp(3, 2, 0.8, seed=7)
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.initial, b.initial)
        assert validate_mdp(a).ok
        c = random_mdp(3, 2, 0.8, seed=8)
        assert not np.array_equal(a.transition, c.transition)

    def test_random_mdp_is_the_dense_rejection_loop(self):
        """The one dense draw equals the per-(s, a) rejection loop at sparsity 0, bit for bit,
        so registry reports do not depend on how the Dirichlet draws are batched."""
        for n, k, seed in itertools.product(range(2, 8), range(2, 5), range(12)):  # 216 draws
            dense = random_mdp(n, k, 0.9, seed=seed)
            looped = oracles.sparse_mdp(n, k, 0.9, seed=seed, sparsity=0.0)
            assert dense.transition.tobytes() == looped.transition.tobytes(), (n, k, seed)
            assert dense.initial.tobytes() == looped.initial.tobytes(), (n, k, seed)

    def test_random_mdp_sparsity(self):
        mdp = oracles.sparse_mdp(4, 2, 0.8, seed=11, sparsity=0.5)
        assert validate_mdp(mdp).ok
        assert (mdp.transition == 0.0).any()

    def test_random_reward_gap_floor(self):
        mdp = random_mdp(3, 3, 0.85, seed=2)
        for seed in range(10):
            r = random_reward(mdp, seed=seed)
            assert advantage_gap(mdp, r) >= 1e-4

    def test_random_reward_determinism(self):
        mdp = random_mdp(3, 2, 0.8, seed=4)
        a = random_reward(mdp, seed=5)
        b = random_reward(mdp, seed=5)
        assert a.values.shape == (3, 2, 3)
        assert np.array_equal(a.values, b.values)

    def test_generation_error_when_impossible(self, monkeypatch):
        mdp = random_mdp(2, 2, 0.8, seed=1)
        # A gap is at most 2 * BOUNDS / (1 - gamma) = 10 in BOUNDS, far below the floor.
        monkeypatch.setattr(lab, "GAP_FLOOR", 1e3)
        with pytest.raises(GenerationError, match="gap floor"):
            random_reward(mdp, seed=1)

    def test_random_policy_full_support(self):
        pi = random_policy(4, 3, seed=9)
        assert (pi.probs > 0).all()


def gamma_pair(mdp, gamma1, gamma2, seed):
    """The counterexample for a model that assumes gamma1 where the truth is gamma2."""
    return misspec_counterexample(mdp.with_discount(gamma1), mdp.with_discount(gamma2), seed)


def tau_pair(mdp, tau2, seed):
    """The counterexample for a model that assumes mdp's transitions where the truth is tau2."""
    return misspec_counterexample(mdp, mdp.with_transition(tau2), seed)


class TestGammaCounterexample:
    def test_chain_pair_found_and_verified(self, chain):
        rec = gamma_pair(chain, 0.5, 0.9, seed=4)
        assert rec is not None
        assert rec.verify()
        assert rec.to_doc()["relation"] == "opt"
        assert rec.params["kind"] == "shaping"
        assert rec.mdp_model.discount == 0.5 and rec.mdp_true.discount == 0.9

    def test_model_cannot_distinguish_the_pair(self, chain):
        # shaping by x inflates Q* by O(|x|), so compare at temperature 1 / (1 + |x|)
        rec = gamma_pair(chain, 0.5, 0.9, seed=4)
        beta = 1.0 / (1.0 + abs(rec.params["x"]))
        b1 = boltzmann_policy(rec.mdp_model, rec.r1, beta)
        b2 = boltzmann_policy(rec.mdp_model, rec.r2, beta)
        assert np.abs(b1.probs - b2.probs).max() <= 1e-10

    def test_visible_rewrite_does_not_verify(self, chain):
        # 2*r2 still flips optimality under the true discount, but the model
        # sees the doubling; verify must not lean on params to notice.
        rec = gamma_pair(chain, 0.5, 0.9, seed=4)
        doubled = replace(rec, r2=RewardTable(2.0 * rec.r2.values), params={})
        assert not opt_equivalent(doubled.r1, doubled.r2, doubled.mdp_true).equivalent
        assert not doubled.verify()

    def test_true_environment_flips_opt_sets(self, chain):
        rec = gamma_pair(chain, 0.5, 0.9, seed=4)
        assert not opt_equivalent(rec.r1, rec.r2, rec.mdp_true).equivalent

    def test_found_on_dense_random_mdps(self):
        for seed in range(5):
            mdp = random_mdp(4, 3, 0.5, seed=seed)
            rec = gamma_pair(mdp, 0.5, 0.9, seed=seed + 100)
            assert rec is not None and rec.verify()
            # on full-support rows the J-based oracle matches the argmax sets
            assert tuple(optimal_values(rec.mdp_true, rec.r1).opt_sets) == (
                oracles.brute_force_opt_sets(rec.mdp_true, rec.r1)
            )

    def test_found_past_the_enumeration_cap(self):
        mdp = random_mdp(12, 3, 0.5, seed=3)  # 3^12 deterministic policies > DEFAULT_ENUM_CAP
        assert mdp.n_actions**mdp.n_states > DEFAULT_ENUM_CAP
        rec = gamma_pair(mdp, 0.5, 0.9, seed=5)
        assert rec is not None and rec.verify()
        assert rec.params["kind"] == "shaping"

    def test_tied_spreads_pick_the_first_state(self):
        # On two states w(0) + w(1) = 1/(1 - gamma) at every vertex, so both states are seen alike.
        for seed in range(30):
            rec = gamma_pair(random_mdp(2, 2, 0.7, seed=seed), 0.7, 0.9, seed=seed)
            assert rec.params["state"] == 0

    def test_success_monotone_in_x(self, chain):
        # once a shaping weight flips optimality, doubling it keeps the flip
        rec = gamma_pair(chain, 0.5, 0.9, seed=4)
        x, state = rec.params["x"], rec.params["state"]
        phi = np.zeros(chain.n_states)
        phi[state] = 2 * x
        r2 = apply(PotentialShaping(PotentialFn(phi)), rec.r1, rec.mdp_model)
        assert not opt_equivalent(rec.r1, r2, rec.mdp_true).equivalent

    def test_equal_discounts_return_none(self, chain):
        assert gamma_pair(chain, 0.7, 0.7, seed=4) is None

    def test_trivial_transition_returns_none(self):
        mdp = Mdp(np.full((3, 2, 3), 1 / 3), np.full(3, 1 / 3), 0.5)
        assert gamma_pair(mdp, 0.5, 0.9, seed=4) is None

    def test_out_of_range_discount_rejected(self, chain):
        with pytest.raises(ValueError):
            gamma_pair(chain, 0.5, 1.0, seed=4)

    def test_record_replays_from_documents(self, chain):
        rec = gamma_pair(chain, 0.5, 0.9, seed=4)
        doc = rec.to_doc()
        rebuilt = CounterexampleRecord(
            mdp_model=documents.mdp_from_doc(doc["mdp_model"]),
            mdp_true=documents.mdp_from_doc(doc["mdp_true"]),
            r1=documents.reward_from_doc(doc["r1"]),
            r2=documents.reward_from_doc(doc["r2"]),
            evidence=doc["evidence"],
            params=doc["params"],
        )
        assert rebuilt.verify()


class TestTauCounterexample:
    def test_tilted_row_found_and_verified(self):
        mdp1 = random_mdp(3, 2, 0.8, seed=5)
        tau2 = mdp1.transition.copy()
        tau2[0, 0] = np.random.default_rng(6).dirichlet(np.ones(3))
        rec = tau_pair(mdp1, tau2, seed=8)
        assert rec is not None and rec.verify()
        assert rec.params["kind"] == "redistribution"
        # invisible under tau1: expected rewards match bitwise
        assert np.array_equal(
            reward_vector(rec.r1, rec.mdp_model), reward_vector(rec.r2, rec.mdp_model)
        )
        assert not opt_equivalent(rec.r1, rec.r2, rec.mdp_true).equivalent

    def test_identical_transitions_return_none(self):
        mdp1 = random_mdp(3, 2, 0.8, seed=5)
        assert tau_pair(mdp1, mdp1.transition, seed=8) is None

    def test_uniform_two_support_row_tilted(self):
        # tau1 splits (s0, a0) evenly over two successors; tau2 tilts that row.
        tau1 = np.zeros((3, 2, 3))
        tau1[0, 0] = [0.5, 0.5, 0.0]
        tau1[0, 1] = [0.0, 0.0, 1.0]
        tau1[1, 0] = [0.0, 1.0, 0.0]
        tau1[1, 1] = [1.0, 0.0, 0.0]
        tau1[2, 0] = [1.0, 0.0, 0.0]
        tau1[2, 1] = [0.0, 1.0, 0.0]
        mdp1 = Mdp(tau1, np.array([1.0, 0.0, 0.0]), 0.8)
        tau2 = tau1.copy()
        tau2[0, 0] = [0.7, 0.3, 0.0]
        rec = tau_pair(mdp1, tau2, seed=11)
        assert rec is not None and rec.verify()
        assert tuple(rec.params["row"]) == (0, 0)

    def test_deterministic_tau1_uses_zero_probability_entries(self, chain):
        # tau1 is deterministic; tau2 moves mass onto entries tau1 never takes.
        tau2 = chain.transition.copy()
        tau2[0, 0] = [0.6, 0.4]
        rec = tau_pair(chain, tau2, seed=3)
        assert rec is not None and rec.verify()
        assert rec.params["row"] == [0, 0] and rec.params["successors"] == [1]

    def test_shared_deterministic_support_returns_none(self, chain):
        # same supports and deterministic rows: no usable kernel direction
        assert tau_pair(chain, chain.transition.copy(), seed=3) is None

    def test_invalid_tau2_rejected(self, chain):
        bad = chain.transition.copy()
        bad[0, 0] = [0.5, 0.4]
        with pytest.raises(ValueError):
            tau_pair(chain, bad, seed=1)
        with pytest.raises(ValueError):
            tau_pair(chain, np.ones((2, 2)), seed=1)


class TestMisspecCounterexample:
    @pytest.mark.parametrize("n_states, n_actions", [(4, 2), (12, 3)])
    def test_wrong_discount_and_transition(self, n_states, n_actions):
        mdp = random_mdp(n_states, n_actions, 0.5, seed=7)
        tau2 = mdp.transition.copy()
        tau2[1, 1] = np.random.default_rng(8).dirichlet(np.ones(n_states))
        rec = misspec_counterexample(mdp, mdp.with_discount(0.9).with_transition(tau2), seed=9)
        assert rec is not None and rec.verify()
        assert not opt_equivalent(rec.r1, rec.r2, rec.mdp_true).equivalent

    def test_each_kind_of_direction_needs_its_misspecification(self):
        # Shaping is invisible to a wrong transition function alone, and
        # redistribution to a wrong discount alone; both are seen when both are wrong.
        mdp = random_mdp(3, 2, 0.5, seed=2)
        tau2 = mdp.transition.copy()
        tau2[0, 1] = np.random.default_rng(3).dirichlet(np.ones(3))
        kinds = {
            name: {params["kind"] for _, params in _invisible_directions(mdp, true)}
            for name, true in (
                ("gamma", mdp.with_discount(0.9)),
                ("tau", mdp.with_transition(tau2)),
                ("both", mdp.with_discount(0.9).with_transition(tau2)),
            )
        }
        assert kinds == {
            "gamma": {"shaping"},
            "tau": {"redistribution"},
            "both": {"shaping", "redistribution"},
        }

    def test_mismatched_shapes_rejected(self, chain):
        with pytest.raises(ValueError):
            misspec_counterexample(chain, random_mdp(3, 2, 0.5, seed=1), seed=1)


class TestClaims:
    def test_unknown_claim(self):
        with pytest.raises(UnknownClaimError):
            verify_claim(ExperimentConfig(claim_id="NOPE", seed=1))

    @pytest.mark.parametrize("claim_id", CLAIM_ORDER)
    def test_claim_smoke(self, claim_id):
        rep = verify_claim(ExperimentConfig(claim_id=claim_id, trials=4, seed=123))
        assert rep.ok, rep.outcomes
        assert rep.claim_id == claim_id
        counts = rep.counts
        assert counts["pass"] + counts["fail"] + counts["skip"] == 4

    def test_report_deterministic_modulo_wall_clock(self):
        cfg = ExperimentConfig(claim_id="J-AMB", trials=5, seed=77)
        a = verify_claim(cfg).to_doc()
        b = verify_claim(cfg).to_doc()
        a.pop("wall_clock_s"), b.pop("wall_clock_s")
        assert documents.dumps(a) == documents.dumps(b)

    def test_exception_fails_only_its_trial(self):
        def trial(config, i, searching):
            if i == 1:
                raise ValueError("bad draw")
            return {"status": "pass"}

        rep = _run_trials(ExperimentConfig(claim_id="OCC-INJ", trials=3, seed=1), trial)
        assert [o["status"] for o in rep.outcomes] == ["pass", "fail", "pass"]
        assert rep.outcomes[1]["error"] == "ValueError: bad draw"
        assert not rep.ok

    @pytest.mark.parametrize("seed, trials", [(-1, 2), (1, -3), (1.5, 2), (1, 2.5), (True, 2), (1, False)])
    def test_seed_or_trials_not_a_non_negative_integer_is_bad_input(self, seed, trials):
        with pytest.raises(ValueError, match="non-negative integer"):
            ExperimentConfig(claim_id="OCC-INJ", trials=trials, seed=seed)
        with pytest.raises(ValueError, match="non-negative integer"):
            run_registry(seed=seed, trials=trials)

    def test_registry_covers_all_claims(self):
        assert set(CLAIMS) == set(CLAIM_ORDER)
        reports = run_registry(seed=5, trials=2)
        assert [r.claim_id for r in reports] == CLAIM_ORDER


class TestTrialHarness:
    CONFIG = ExperimentConfig(claim_id="OPT-MODEL", trials=4, seed=1)

    def test_existential_claim_without_counterexample_fails_last_trial(self):
        def trial(config, i, searching):
            return {"status": "pass"}

        rep = _run_trials(self.CONFIG, trial, witness="none found")
        assert [o["status"] for o in rep.outcomes] == ["pass", "pass", "pass", "fail"]
        assert rep.outcomes[-1]["error"] == "none found"
        assert rep.first_counterexample is None and not rep.ok

    def test_registered_witness_message(self, monkeypatch):
        # Equal oracle sets: no inverted probe can verify as a violation.
        monkeypatch.setattr(lab, "oracle_opt_sets", lambda mdp, *rewards: [0] * len(rewards))
        rep = verify_claim(ExperimentConfig(claim_id="BOLTZ-OPT", trials=2, seed=1))
        assert [o["status"] for o in rep.outcomes] == ["pass", "fail"]
        assert rep.outcomes[-1]["error"] == "no verified violation found"

    def test_only_first_counterexample_kept_and_search_stops(self):
        seen = []

        def trial(config, i, searching):
            seen.append(searching)
            return {"status": "pass", "counterexample": {"trial": i} if i >= 1 else None}

        rep = _run_trials(self.CONFIG, trial, witness="none found")
        assert seen == [True, True, False, False]
        assert rep.first_counterexample == {"trial": 1}
        assert all("counterexample" not in o for o in rep.outcomes)
        assert rep.ok

    def test_last_trial_that_raised_keeps_its_error(self):
        def trial(config, i, searching):
            if i == 3:
                raise KeyError("x")
            return {"status": "pass"}

        rep = _run_trials(self.CONFIG, trial, witness="none found")
        assert rep.outcomes[-1] == {"status": "fail", "error": "KeyError: 'x'", "trial": 3}


class TestOracleOptSets:
    def test_matches_value_iteration(self):
        for seed in range(10):
            mdp = random_mdp(3, 2, 0.8, seed=seed)
            r = random_reward(mdp, seed=seed + 20)
            r_neg = RewardTable(-r.values)
            # stacked rewards are solved side by side
            for reward, opt in zip((r, r_neg), oracle_opt_sets(mdp, r, r_neg)):
                assert opt == optimal_values(mdp, reward).opt_sets
                assert tuple(opt) == oracles.brute_force_opt_sets(mdp, reward)
