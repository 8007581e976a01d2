import json
from collections import Counter

import numpy as np
import pytest

from rewardlab import (
    Chain,
    LinearScaling,
    Mdp,
    PotentialFn,
    PotentialShaping,
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
from rewardlab import documents, equiv, transform
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
from rewardlab.solve import (
    IMPROVE_RTOL, ROUNDOFF_RTOL, TIE_TOL, occupancy, optimal_values, policy_evaluate, vertex_j,
)
from rewardlab.transform import shaping_matrix

import oracle_sweep
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
    """oracles.chord's outputs with the extreme J1 vertices taken from a stable lexsort by (J1, J2)."""
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
            for got, want in zip(oracles.chord(j1, j2), lexsort_chord(j1, j2)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


    def test_verdicts_agree_with_the_chord_oracle(self):
        """Away from DIST_TOL (oracle_sweep's battery), every ord/jeq verdict is the exact vertex oracle's."""
        outcomes = Counter()
        for _, mdp, r1, r2 in oracle_sweep.battery(250, seed=7):
            for relation, decider in oracle_sweep.DECIDERS.items():
                oracle = oracles.chord_oracle(mdp, r1, r2, relation)
                outcomes[oracle is None] += 1
                assert oracle is None or decider(r1, r2, mdp).equivalent == oracle, relation
        assert outcomes[False] > 3 * outcomes[True]


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
        for seed, gamma in enumerate((0.5, 0.9, 0.99)):
            mdp = random_mdp(n, k, gamma, seed=seed)
            r1, r2 = (oracles.uniform_reward(mdp, seed=10 * seed + s) for s in (1, 2))
            verdict = decider(r1, r2, mdp)
            assert not verdict.equivalent
            d0 = occupancy(mdp, StochasticPolicy(np.full((n, k), 1.0 / k))).d
            pair = sum(occupancy(mdp, StochasticPolicy(np.array(p))).d for p in verdict.witness["policies"])
            assert np.abs(pair - 2 * d0).max() <= 1e-12 * np.abs(2 * d0).max(), seed


    @pytest.mark.parametrize("magnitude", [1.0, 1e4, 1e8])
    def test_shift_only_witness_reports_each_policys_j(self, magnitude):
        """A shift moves no canonical form, so w' is only the projection's cancellation; the witness's J values
        must still be its policies' J. At 1e8 and seed 78, a scaled-up cancellation reported +-8.9e6 for 0.45."""
        for seed in range(70, 90):
            mdp = random_mdp(3, 2, 0.5, seed)
            r = random_reward(mdp, seed=seed)
            shaped = apply(sample_potential_shaping(mdp, magnitude, True, seed + 7), r, mdp)
            shifted = RewardTable(shaped.values + 1.0)
            witness = j_equal(shaped, shifted, mdp).witness
            bound = 1e-12 * float(np.abs(reward_vector(shaped, mdp)).max()) / (1.0 - mdp.discount)
            for policy, j1, j2 in zip(witness["policies"], witness["j1"], witness["j2"]):
                pi = StochasticPolicy(np.array(policy))
                assert abs(j1 - policy_evaluate(mdp, shaped, pi).j) <= bound, seed
                assert abs(j2 - policy_evaluate(mdp, shifted, pi).j) <= bound, seed


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

    def test_j_equal_implies_ord_near_the_threshold(self):
        """Noise of relative size 10^U(-9, -5) on shaped rewards reaches the band where jeq's J-scale test
        accepts and ord's form test refuses; jeq must refuse there too."""
        rng = np.random.default_rng(17)
        verdicts = Counter()
        for trial in range(300):
            n, k = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            mdp = random_mdp(n, k, float(rng.choice([0.5, 0.9, 0.99])), seed=trial)
            r1 = oracles.uniform_reward(mdp, seed=trial)
            r2 = RewardTable(r1.values + rng.normal(0.0, 10.0 ** rng.uniform(-9, -5), size=r1.values.shape))
            shaping = sample_potential_shaping(mdp, 10.0 ** rng.uniform(0, 8), False, trial)
            ord_holds, jeq_holds = (decider(apply(shaping, r1, mdp), apply(shaping, r2, mdp), mdp).equivalent
                                    for decider in (ord_equivalent, j_equal))
            assert ord_holds or not jeq_holds, trial
            verdicts[ord_holds, jeq_holds] += 1
        assert verdicts[True, True] > 30 and verdicts[False, False] > 30


def _reunit(forms, c):
    """The forms with canonical part c, its sizes and its normalised rows recomputed as canonical_forms does."""
    size = np.sqrt((c * c).sum(axis=1))
    return forms._replace(c=c, size=size, u=c / np.where(size > ROUNDOFF_RTOL * forms.v_size, size, np.inf)[:, None])


def _level_dropped(forms, mdp):
    """The forms without their level correction: p = z and c = v - M @ z, where p = z + mean(z)/(1 - gamma)."""
    gamma = mdp.discount
    level = forms.p.mean(axis=1) * (1.0 - gamma) / (2.0 - gamma)
    return _reunit(forms._replace(p=forms.p - (level / (1.0 - gamma))[:, None]), forms.c - level[:, None])


# Faults seeded into the canonical forms (each edits the true forms), into the shaping matrix they are built
# from, and into the decision tolerance.
FORM_FAULTS = {
    "shaping-sign-flipped": lambda f, mdp: _reunit(f, f.v + f.p @ shaping_matrix(mdp).T),
    "level-dropped": _level_dropped,
    "p-zeroed": lambda f, mdp: f._replace(p=0.0 * f.p),
    "c-is-v": lambda f, mdp: _reunit(f, f.v),
    "u-over-v": lambda f, mdp: f._replace(u=f.c / f.v_size[:, None]),
    "u-rows-equal": lambda f, mdp: f._replace(u=f.u[[0, 0]]),
    "size-doubled": lambda f, mdp: f._replace(size=f.size * [1.0, 2.0]),
}
MATRIX_FAULTS = {
    "matrix-negated": lambda mdp: -shaping_matrix(mdp),
    "matrix-gamma-squared": lambda mdp: (
        mdp.discount**2 * mdp.transition - np.eye(mdp.n_states)[:, None, :]).reshape(-1, mdp.n_states),
}


def _seed_fault(fault, monkeypatch):
    if fault in FORM_FAULTS:
        forms = equiv.canonical_forms
        monkeypatch.setattr(equiv, "canonical_forms", lambda r1, r2, mdp: FORM_FAULTS[fault](forms(r1, r2, mdp), mdp))
    elif fault in MATRIX_FAULTS:
        monkeypatch.setattr(transform, "shaping_matrix", MATRIX_FAULTS[fault])
    else:
        monkeypatch.setattr(equiv, "DIST_TOL", -1.0)


def _known_pairs(shape, count):
    """(mdp, r1, r2, (ord holds, jeq holds)): zero-mean shaped and redistributed, scaled and shaped, independent."""
    n, k = shape
    for seed in range(count):
        mdp = random_mdp(n, k, (0.5, 0.9, 0.99)[seed % 3], seed)
        r1 = random_reward(mdp, seed=100 + seed)
        shaped = apply(sample_potential_shaping(mdp, 1.0, True, 200 + seed), r1, mdp)
        same_j = apply(sample_s_redistribution(mdp, shaped, 1.0, 300 + seed), shaped, mdp)
        steps = (LinearScaling((0.3, 3.0)[seed % 2]), sample_potential_shaping(mdp, 1.0, False, 400 + seed))
        yield mdp, r1, same_j, (True, True)
        yield mdp, r1, apply(Chain(steps), same_j, mdp), (True, False)
        yield mdp, r1, random_reward(mdp, seed=500 + seed), (False, False)


def certificate_misfit(verdict, r1, r2, mdp):
    """|rv2 - c*rv1 - M @ phi| over |rv2| from the reward tensors, plus (1 - gamma)*|mu0 . phi| / |rv2| for jeq."""
    rv1, rv2 = (np.einsum("sap,sap->sa", mdp.transition, r.values).ravel() for r in (r1, r2))
    c, phi = verdict.certificate.c, verdict.certificate.phi.phi
    shaped = (mdp.discount * np.einsum("sap,p->sa", mdp.transition, phi) - phi[:, None]).ravel()
    misfit = np.linalg.norm(rv2 - c * rv1 - shaped)
    if verdict.relation == "jeq":
        misfit += (1.0 - mdp.discount) * abs(mdp.initial @ phi)
    return misfit / np.linalg.norm(rv2)


class TestVerdictChecks:
    """Each ord/jeq verdict is checked against its own certificate or witness at every size."""

    @pytest.mark.parametrize("shape", [(4, 3), (11, 2)], ids=["under-cap", "above-cap"])
    @pytest.mark.parametrize("fault", [*FORM_FAULTS, *MATRIX_FAULTS, "dist-tol-negative"])
    def test_a_seeded_fault_never_returns_a_wrong_verdict_or_certificate(self, fault, shape, monkeypatch):
        """Every verdict is right or raises InternalConsistencyError, and every certificate returned rebuilds r2.

        DIST_TOL = 0.1 is no such fault: it changes what the deciders promise, not their arithmetic.
        """
        pairs = list(_known_pairs(shape, 6))
        _seed_fault(fault, monkeypatch)
        raised = 0
        for mdp, r1, r2, holds in pairs:
            for decider, truth in zip((ord_equivalent, j_equal), holds):
                try:
                    verdict = decider(r1, r2, mdp)
                except InternalConsistencyError:
                    raised += 1
                    continue
                assert verdict.equivalent == truth, decider.__name__
                assert not truth or certificate_misfit(verdict, r1, r2, mdp) <= 1e-6, decider.__name__
        assert raised > 0

    def test_near_threshold_pairs_raise_nothing(self):
        """r2 = r1 + noise of relative size 10^U(-9, -5) straddles DIST_TOL. At reward sizes 2^-600 to 2^600,
        shaping up to 1e8 (mu0-mean zero or not), gamma up to 0.999 and 4 to 4^16 policies, no check raises."""
        rng = np.random.default_rng(38)
        verdicts = Counter()
        for trial in range(400):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2, {2: 12, 3: 10, 4: 17}[k]))
            mdp = random_mdp(n, k, float(rng.choice([0.5, 0.9, 0.99, 0.999])), trial)
            size = np.ldexp(1.0, int(rng.integers(-600, 601)))
            r1 = RewardTable(size * rng.uniform(-1.0, 1.0, size=(n, k, n)))
            noise = size * rng.normal(0.0, 10.0 ** rng.uniform(-9, -5), size=r1.values.shape)
            r2 = RewardTable((r1.values + noise) * (float(rng.uniform(0.2, 5.0)) if trial % 2 else 1.0))
            phi = size * rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(0, 8)
            shaping = PotentialShaping(PotentialFn(phi - mdp.initial @ phi if trial % 3 else phi))
            r1, r2 = apply(shaping, r1, mdp), apply(shaping, r2, mdp)
            for decider in (ord_equivalent, j_equal):
                verdicts[decider.__name__, decider(r1, r2, mdp).equivalent] += 1
        assert min(verdicts.values()) > 40


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
