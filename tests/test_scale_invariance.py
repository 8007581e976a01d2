"""Verdicts at every reward scale.

Positive scaling, potential shaping and S'-redistribution change no behaviour
(the paper's equivalence classes), so every verdict, and the recovered scaling
constant, must hold whatever the magnitude of the rewards: from 2^-1000 up to
where max|rv| / (1 - gamma) overflows, near 2^1024. This module turns every
RuntimeWarning into an error (see pyproject.toml), so no overflow or
underflow along the way goes unseen.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rewardlab import (
    Chain,
    LinearScaling,
    Mdp,
    PotentialFn,
    PotentialShaping,
    RewardTable,
    apply,
    boltzmann_policy,
    j_equal,
    mce_policy,
    opt_equivalent,
    optimal_values,
    ord_equivalent,
    policy_evaluate,
    reward_vector,
    sample_potential_shaping,
    sample_s_redistribution,
    soft_optimal_values,
)
from rewardlab import lab, solve
from rewardlab.errors import ConvergenceError, StructuralError
from rewardlab.lab import oracle_opt_sets, random_mdp, random_policy, random_reward
from rewardlab.solve import ROUNDOFF_RTOL, vertex_j

import oracles


def scaled(r, c):
    return RewardTable(c * r.values)


def shaped_and_redistributed(mdp, r, magnitude, zero_initial, seed):
    """r plus a potential of size ``magnitude``, then redistributed at that size."""
    out = apply(sample_potential_shaping(mdp, magnitude, zero_initial, seed), r, mdp)
    return apply(sample_s_redistribution(mdp, out, magnitude, seed + 1), out, mdp)


class TestReproductions:
    """Each case here failed while the deciders, the tie set and the checks used absolute tolerances."""

    @pytest.fixture
    def env(self):
        mdp = random_mdp(3, 2, 0.9, 0)
        return mdp, random_reward(mdp, seed=1)

    def test_tiny_reward_is_not_its_negation(self, env):
        mdp, r = env
        r1, r2 = scaled(r, 1e-9), scaled(r, -1e-9)
        assert not ord_equivalent(r1, r2, mdp).equivalent
        assert not j_equal(r1, r2, mdp).equivalent

    def test_tiny_reward_keeps_optimal_sets(self, env):
        mdp, r = env
        assert opt_equivalent(r, scaled(r, 1e-9), mdp).equivalent

    @pytest.mark.parametrize("c", [1e9, 1e10, 1e11, 1e12])
    def test_huge_reward_equivalent_to_its_double(self, c):
        for seed in range(40):
            mdp = random_mdp(3, 2, 0.9, seed)
            r = random_reward(mdp, seed=seed)
            verdict = ord_equivalent(scaled(r, c), scaled(r, 2 * c), mdp)
            assert verdict.equivalent
            assert verdict.certificate.c == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("c", [1e6, 1e12])
    def test_redistribution_of_huge_reward_applies(self, env, c):
        mdp, _ = env
        for seed in range(200):
            r = scaled(oracles.uniform_reward(mdp, seed=seed), c)
            apply(sample_s_redistribution(mdp, r, c, seed), r, mdp)

    def test_tiny_reward_oracle_keeps_optimal_sets(self, env):
        mdp, r = env
        tiny = scaled(r, 1e-10)
        expected = optimal_values(mdp, tiny).opt_sets
        assert tuple(expected) == ({0}, {0}, {0})
        assert oracle_opt_sets(mdp, tiny) == [expected]

    def test_gap_floor_scales_with_bounds(self, env, monkeypatch):
        mdp, _ = env
        monkeypatch.setattr(lab, "BOUNDS", 1e-7)
        r = random_reward(mdp)
        assert np.abs(r.values).max() <= 1e-7


@pytest.mark.parametrize(
    "n_states, n_actions, gamma, seed", [(3, 2, 0.9, 0), (4, 3, 0.5, 1), (2, 2, 0.99, 2)]
)
def test_verdicts_across_the_float64_range(n_states, n_actions, gamma, seed):
    """r against -r and against 2r at every scale 2^k whose values stay finite: the unit-scale verdicts.

    Then r at 2^k1 against r at 2^k2 for exponents drawn independently.
    """
    mdp = random_mdp(n_states, n_actions, gamma, seed)
    r = random_reward(mdp, seed=seed + 1)
    top = 1024 - np.log2(2.0 * np.abs(r.values).max() / (1.0 - gamma))  # 2r's |v| bound overflows at 2^top
    for k in range(-1000, 1021, 3):
        if k >= top:
            break
        c = 2.0**k
        assert not ord_equivalent(scaled(r, c), scaled(r, -c), mdp).equivalent, k
        assert not j_equal(scaled(r, c), scaled(r, -c), mdp).equivalent, k
        verdict = ord_equivalent(scaled(r, c), scaled(r, 2 * c), mdp)
        assert verdict.equivalent and verdict.certificate.c == pytest.approx(2.0, rel=1e-9), k
        witness = j_equal(scaled(r, c), scaled(r, 2 * c), mdp).witness
        assert witness is not None and np.isfinite(witness["j1"] + witness["j2"]).all(), k
        np.testing.assert_allclose(witness["j2"], 2 * np.array(witness["j1"]), rtol=1e-9)

    # Independent exponents: the two rewards differ in size by up to 2^1000.
    rng = np.random.default_rng(seed)
    pairs = [(500, -500), (600, -450), (300, -300), (-1000, 0), *rng.integers(-1000, 1001, size=(80, 2))]
    for k1, k2 in pairs:
        if max(k1, k2) >= top or abs(k2 - k1) > 1000:
            continue
        r1, r2 = scaled(r, 2.0**k1), scaled(r, 2.0**k2)
        verdict = ord_equivalent(r1, r2, mdp)
        assert verdict.equivalent and verdict.certificate.c == 2.0 ** (k2 - k1), (k1, k2)
        assert not ord_equivalent(r1, scaled(r2, -1.0), mdp).equivalent, (k1, k2)


@pytest.mark.parametrize("k1, k2", [(-1000, 1000), (1000, -1000)], ids=["c-overflows", "c-underflows"])
def test_ord_certificate_outside_float64_raises(k1, k2):
    """Sizes 2^2000 apart: c = 2^(k2 - k1) is no positive finite float64, so no certificate is returned."""
    mdp = random_mdp(3, 2, 0.9, 0)
    r = random_reward(mdp, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(StructuralError, match="outside float64"):
            ord_equivalent(scaled(r, 2.0**k1), scaled(r, 2.0**k2), mdp)


@pytest.mark.parametrize("c", [1e-9, 1e-6, 1e3, 1e6, 1e9])
def test_registry_passes_at_every_reward_scale(c, monkeypatch):
    """Rewards, potentials and model parameters are all drawn in units of BOUNDS."""
    monkeypatch.setattr(lab, "BOUNDS", c)
    failed = [(r.claim_id, r.counts) for r in lab.run_registry(seed=1, trials=8) if not r.ok]
    assert failed == []


@pytest.mark.parametrize("c", [1e-9, 1e9])
@pytest.mark.parametrize("claim_id", ["LEM-GAMMA", "LEM-TAU"])
def test_misspecification_counterexamples_are_drawn_in_bounds(c, claim_id, monkeypatch):
    monkeypatch.setattr(lab, "BOUNDS", c)
    rep = lab.verify_claim(lab.ExperimentConfig(claim_id=claim_id, trials=1, seed=1))
    assert rep.ok, rep.outcomes
    assert np.abs(rep.first_counterexample["r1"]["values"]).max() <= c


class TestHeavyShaping:
    """Shaping far larger than the reward changes no behaviour, so it must not move a verdict."""

    @pytest.mark.parametrize("magnitude", [1e6, 1e7, 1e8])
    def test_verdicts_ignore_shaping_magnitude(self, magnitude):
        for seed in range(20):
            mdp = random_mdp(3, 2, 0.9, seed)
            r = random_reward(mdp, seed=seed)
            shaping = sample_potential_shaping(mdp, magnitude, True, seed + 7)
            other = sample_potential_shaping(mdp, magnitude, True, seed + 9)
            shaped = apply(shaping, r, mdp)
            assert not ord_equivalent(shaped, apply(shaping, scaled(r, -1.0), mdp), mdp).equivalent
            assert not j_equal(shaped, RewardTable(shaped.values + 1.0), mdp).equivalent
            verdict = ord_equivalent(shaped, apply(other, scaled(r, 2.0), mdp), mdp)
            assert verdict.equivalent and verdict.certificate.c == pytest.approx(2.0, rel=1e-6)
            verdict = j_equal(shaped, apply(other, r, mdp), mdp)
            assert verdict.equivalent
            phi = verdict.certificate.phi.phi
            assert abs(mdp.initial @ phi) <= ROUNDOFF_RTOL * np.abs(phi).max()

    def test_large_shift_keeps_optimal_sets(self):
        for seed in range(20):
            mdp = random_mdp(3, 2, 0.99, seed)
            r = random_reward(mdp, seed=seed)
            assert opt_equivalent(r, RewardTable(r.values + 1e4), mdp).equivalent

    def test_large_potential_keeps_zero_initial_flag(self):
        mdp = random_mdp(5, 2, 0.9, 0)
        for seed in range(200):
            spec = sample_potential_shaping(mdp, 1e6, True, seed)
            phi = spec.potential.phi
            assert abs(mdp.initial @ phi) <= ROUNDOFF_RTOL * np.abs(phi).max()


def _one_action(mdp: Mdp, r: RewardTable) -> tuple[Mdp, RewardTable]:
    """One action, from s to s or s + 1 (mod S) with probability 1/2 each, rewarded 2 R(s, a0, .).

    The doubled reward keeps each half exact at 2^-1070, so the expected rewards are exact at both sizes.
    """
    eye = np.eye(mdp.n_states)
    halves = 0.5 * (eye + np.roll(eye, 1, axis=1))
    return Mdp(halves[:, None], mdp.initial, mdp.discount), RewardTable(np.ldexp(r.values[:, :1], 1))


# Each reward solver at the reward 2^k * R (and alpha * 2^k): its call, and the fields that scale with 2^k.
SOLVERS = {
    "optimal": (lambda mdp, r, k: optimal_values(mdp, r), ("q_star", "v_star", "a_star", "residual")),
    "evaluate": (
        lambda mdp, r, k: policy_evaluate(mdp, r, random_policy(mdp.n_states, mdp.n_actions, seed=3)),
        ("v", "q", "j"),
    ),
    "soft": (lambda mdp, r, k: soft_optimal_values(mdp, r, np.ldexp(0.5, k)), ("q_soft", "v_soft", "residual")),
    # One stochastic action, where alpha multiplies log 1 = 0 and so keeps its size whatever the reward's.
    "soft-one-action": (
        lambda mdp, r, k: soft_optimal_values(*_one_action(mdp, r), 1.0), ("q_soft", "v_soft", "residual")
    ),
}


class TestSubnormalRewards:
    """Rewards of size 2^-1070, whose values and expected rewards are subnormal."""

    @pytest.mark.parametrize("zero_first", [False, True], ids=["tiny-zero", "zero-tiny"])
    def test_jeq_against_zero_refuses_with_finite_witness(self, zero_first):
        """The zero reward must not set the common unit: restated in 2^0, the 2^-1070 reward sinks into subnormals."""
        mdp = random_mdp(3, 2, 0.9, 7)
        tiny = RewardTable(np.ldexp(random_reward(mdp, seed=1).values, -1070))
        zero = RewardTable(np.zeros_like(tiny.values))
        verdict = j_equal(*((zero, tiny) if zero_first else (tiny, zero)), mdp)
        assert not verdict.equivalent
        witness = verdict.witness
        assert np.isfinite(witness["policies"]).all() and np.isfinite(witness["j1"] + witness["j2"]).all()
        assert witness["j1"] != witness["j2"]

    @pytest.mark.parametrize("solver", list(SOLVERS))
    def test_optimal_values_match_the_exactly_rescaled_reward(self, solver):
        """Every reward solver's results at 2^-1070 are those of the same reward at 2^0, scaled back bit for bit.

        Deterministic rows keep the expected rewards exact at both sizes, so both solves see one rv.
        """
        rng = np.random.default_rng(5)
        mdp = Mdp(np.eye(4)[rng.integers(4, size=(4, 3))], np.full(4, 0.25), 0.9)
        tiny = RewardTable(np.ldexp(rng.uniform(-1.0, 1.0, size=(4, 3, 4)), -1070))
        unit = RewardTable(np.ldexp(tiny.values, 1070))
        call, fields = SOLVERS[solver]
        small, big = call(mdp, tiny, -1070), call(mdp, unit, 0)
        for field in fields:
            assert np.array_equal(getattr(small, field), np.ldexp(getattr(big, field), -1070)), field
        if solver == "optimal":
            assert small.opt_sets == big.opt_sets
            assert opt_equivalent(tiny, tiny, mdp).equivalent
            assert not opt_equivalent(tiny, RewardTable(np.zeros_like(tiny.values)), mdp).equivalent
        if solver == "soft":
            # q_soft is rounded to 2^-1074 and alpha = 2^-1071 is exact, so each q_soft / alpha is off by at
            # most 2^-4 and each probability by a factor of at most e^(2^-3).
            probs = mce_policy(mdp, tiny, np.ldexp(0.5, -1070)).probs
            np.testing.assert_allclose(probs, mce_policy(mdp, unit, 0.5).probs, rtol=np.expm1(2.0**-3), atol=0)
        if solver == "soft-one-action":
            assert np.array_equal(mce_policy(*_one_action(mdp, tiny), 1.0).probs, np.ones((4, 1)))

    @pytest.mark.parametrize(
        "solver, check",
        [("optimal", "ROUNDOFF_RTOL"), ("evaluate", "ROUNDOFF_RTOL"), ("soft", "ROUNDOFF_RTOL"),
         ("optimal", "DEFAULT_TOL"), ("soft", "DEFAULT_TOL")],
    )
    def test_convergence_error_residual_is_in_the_rewards_unit(self, solver, check, monkeypatch):
        """A forced failure of a flow-solve or Bellman check reports its residual in the reward's unit.

        At 2^-960 the solve runs in the unit 2^-957; stochastic rows keep the residuals off zero.
        """
        mdp = random_mdp(4, 3, 0.9, 0)
        r = random_reward(mdp, seed=1)
        monkeypatch.setattr(solve, check, -1.0)  # a negative tolerance fails every check
        monkeypatch.setattr(solve, "MAX_ITER", 2)
        call = SOLVERS[solver][0]
        with pytest.raises(ConvergenceError) as small:
            call(mdp, RewardTable(np.ldexp(r.values, -960)), -960)
        with pytest.raises(ConvergenceError) as big:
            call(mdp, r, 0)
        assert big.value.residual > 0 and small.value.residual == np.ldexp(big.value.residual, -960)


def _transition(kind: str, n: int, k: int, rng) -> np.ndarray:
    if kind == "dense":
        return rng.dirichlet(np.ones(n), size=(n, k))
    if kind == "sparse":
        return rng.dirichlet(np.full(n, 0.05), size=(n, k))
    return np.eye(n)[rng.integers(n, size=(n, k))]


@pytest.mark.parametrize("kind", ["dense", "sparse", "deterministic"])
@pytest.mark.parametrize("gamma", [1 - 2.0**-20, 1 - 2.0**-30], ids=["1-2^-20", "1-2^-30"])
def test_heavy_shaping_near_gamma_one(kind, gamma):
    """Scaling plus shaping up to 10^6 * max|r| is recovered, and mu0-mean-zero shaping keeps J, as gamma nears 1.

    The canonical forms project on an explicit orthonormal basis Q of the shaping design. Forms solved
    from the design's normal equations instead fail 63 of these 120 cases, by refusal or by an oracle error.
    """
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        mdp = Mdp(_transition(kind, n, k, rng), rng.dirichlet(np.ones(n)), gamma)
        r = RewardTable(rng.uniform(-1.0, 1.0, size=(n, k, n)))
        phi = rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.uniform(0.0, 6.0) * np.abs(r.values).max()
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        verdict = ord_equivalent(r, apply(Chain((LinearScaling(c), PotentialShaping(PotentialFn(phi)))), r, mdp), mdp)
        assert verdict.equivalent and verdict.certificate.c == pytest.approx(c, rel=1e-6), seed
        zero_mean = PotentialShaping(PotentialFn(phi - mdp.initial @ phi))
        assert j_equal(r, apply(zero_mean, r, mdp), mdp).equivalent, seed


@settings(max_examples=40, deadline=None)
@given(
    n_states=st.integers(2, 5),
    n_actions=st.integers(2, 3),
    gamma=st.floats(0.5, 0.95),
    log_c=st.floats(-12.0, 12.0),
    log_k=st.floats(-1.0, 1.0),
    seed=st.integers(0, 10_000),
)
def test_verdicts_hold_at_every_scale(n_states, n_actions, gamma, log_c, log_k, seed):
    c, k = 10.0**log_c, 10.0**log_k
    mdp = random_mdp(n_states, n_actions, gamma, seed)
    base = random_reward(mdp, seed=seed + 1)
    r1 = scaled(base, c)

    # ord: scaling by k, shaping and redistribution at the reward's own scale.
    r2 = shaped_and_redistributed(mdp, apply(LinearScaling(k), r1, mdp), c, False, seed + 2)
    verdict = ord_equivalent(r1, r2, mdp)
    assert verdict.equivalent
    assert verdict.certificate.c == pytest.approx(k, rel=1e-6)
    assert not ord_equivalent(r1, scaled(r2, -1.0), mdp).equivalent

    # c_fit scales with c: the certificate from the unit-scale reward recovers c * k.
    cert = ord_equivalent(base, r2, mdp).certificate
    assert cert is not None and cert.c == pytest.approx(c * k, rel=1e-6)

    # jeq: zero-mean shaping and redistribution keep J; a scaling by k != 1 does not.
    r3 = shaped_and_redistributed(mdp, r1, c, True, seed + 4)
    assert j_equal(r1, r3, mdp).equivalent
    assert not j_equal(r1, apply(LinearScaling(1.5), r3, mdp), mdp).equivalent

    # opt: every positive scaling keeps the optimal-action sets.
    assert opt_equivalent(base, r1, mdp).equivalent


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_states=st.integers(2, 5),
    n_actions=st.integers(2, 3),
    gamma=st.sampled_from([0.5, 0.9, 1 - 2.0**-20]),
    k=st.integers(-1000, 1000) | st.sampled_from([-1000, -901, -900, -899, 899, 900, 901, 1000]),
    shaped=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_power_of_two_scaling_is_exact(n_states, n_actions, gamma, k, shaped, seed):
    """2^k * R gives R's results times 2^k, bit for bit, at every k in [-1000, 1000].

    Solvers, models and vertex_j scale with the reward (alpha with it, beta against it); each verdict
    against a partner scaled the same way, shaped (equivalent) or perturbed (not), is unchanged.
    """
    mdp = random_mdp(n_states, n_actions, gamma, seed)
    r = random_reward(mdp, seed=seed + 1)
    if shaped:
        partner = apply(sample_potential_shaping(mdp, 1.0, True, seed + 2), r, mdp)
    else:
        partner = RewardTable(r.values + np.random.default_rng(seed + 2).uniform(-0.5, 0.5, size=r.values.shape))
    rk, partner_k = RewardTable(np.ldexp(r.values, k)), RewardTable(np.ldexp(partner.values, k))

    def same(x, xk):
        assert np.array_equal(np.ldexp(x, k), xk)

    for call, fields in SOLVERS.values():
        base, scaled_k = call(mdp, r, 0), call(mdp, rk, k)
        for field in fields:
            same(getattr(base, field), getattr(scaled_k, field))
    assert optimal_values(mdp, rk).opt_sets == optimal_values(mdp, r).opt_sets
    assert np.array_equal(mce_policy(mdp, rk, np.ldexp(0.5, k)).probs, mce_policy(mdp, r, 0.5).probs)
    assert np.array_equal(boltzmann_policy(mdp, rk, np.ldexp(2.0, -k)).probs, boltzmann_policy(mdp, r, 2.0).probs)
    same(vertex_j(mdp, reward_vector(r, mdp)[None]), vertex_j(mdp, reward_vector(rk, mdp)[None]))

    assert opt_equivalent(rk, partner_k, mdp).equivalent == opt_equivalent(r, partner, mdp).equivalent
    verdict, verdict_k = ord_equivalent(r, partner, mdp), ord_equivalent(rk, partner_k, mdp)
    assert verdict_k.equivalent == verdict.equivalent
    assert (verdict_k.certificate and verdict_k.certificate.c) == (verdict.certificate and verdict.certificate.c)
    assert j_equal(rk, partner_k, mdp).equivalent == j_equal(r, partner, mdp).equivalent
