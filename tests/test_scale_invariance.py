"""Verdicts at every reward scale.

Positive scaling, potential shaping and S'-redistribution change no behaviour
(the paper's equivalence classes), so every verdict, and the recovered scaling
constant, must hold whatever the magnitude of the rewards: from 1e-12 to 1e12.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rewardlab import (
    ConstantShift,
    LinearScaling,
    RewardTable,
    apply,
    j_equal,
    opt_equivalent,
    ord_equivalent,
    sample_potential_shaping,
    sample_s_redistribution,
)
from rewardlab.lab import random_mdp, random_reward


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
            r = scaled(random_reward(mdp, seed=seed, gap_floor=None), c)
            apply(sample_s_redistribution(mdp, r, c, seed), r, mdp)

    def test_gap_floor_scales_with_bounds(self, env):
        mdp, _ = env
        r = random_reward(mdp, bounds=1e-7)
        assert np.abs(r.values).max() <= 1e-7


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
            assert not j_equal(shaped, apply(ConstantShift(1.0), shaped, mdp), mdp).equivalent
            verdict = ord_equivalent(shaped, apply(other, scaled(r, 2.0), mdp), mdp)
            assert verdict.equivalent and verdict.certificate.c == pytest.approx(2.0, rel=1e-6)
            verdict = j_equal(shaped, apply(other, r, mdp), mdp)
            assert verdict.equivalent
            assert verdict.certificate.phi.zero_initial_expectation
            assert verdict.certificate.phi.check_zero_initial(mdp.initial)

    def test_large_shift_keeps_optimal_sets(self):
        for seed in range(20):
            mdp = random_mdp(3, 2, 0.99, seed)
            r = random_reward(mdp, seed=seed)
            assert opt_equivalent(r, apply(ConstantShift(1e4), r, mdp), mdp).equivalent

    def test_large_potential_keeps_zero_initial_flag(self):
        mdp = random_mdp(5, 2, 0.9, 0)
        for seed in range(200):
            spec = sample_potential_shaping(mdp, 1e6, True, seed)
            assert spec.potential.check_zero_initial(mdp.initial)


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
