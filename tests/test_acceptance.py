"""Acceptance gate: each test runs one criterion at its stated size and
tolerance and prints one PASS/FAIL line. Everything is seeded; nothing here
depends on wall-clock randomness."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from rewardlab import (
    ExperimentConfig,
    occupancy,
    policy_evaluate,
    random_mdp,
    random_policy,
    reward_vector,
    verify_claim,
)

import oracles


def _report(capsys, num, desc, ok, detail=""):
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _failures(report):
    return [o for o in report.outcomes if o["status"] == "fail"]


def test_criterion_01_ord_characterization(capsys):
    t0 = time.perf_counter()
    rep = verify_claim(ExperimentConfig(claim_id="ORD-CHAR", trials=200, seed=1))
    elapsed = time.perf_counter() - t0
    residuals = [o["residual"] for o in rep.outcomes if o.get("residual") is not None]
    ok = (
        rep.ok
        and rep.counts["pass"] == 200
        and max(residuals) <= 1e-6
        and elapsed < 60.0
    )
    _report(
        capsys, 1,
        f"order-equivalence round trips + 200 negative controls in {elapsed:.1f}s",
        ok, detail=str(_failures(rep)[:1]),
    )


def test_criterion_02_boltzmann_opt_robustness(capsys):
    rep = verify_claim(ExperimentConfig(claim_id="BOLTZ-OPT", trials=100, seed=2))
    ok = rep.ok and rep.counts["pass"] == 100 and rep.first_counterexample is not None
    _report(
        capsys, 2,
        "argmax-preserving probes stay OPT-equivalent; inverted probe violates",
        ok, detail=str(_failures(rep)[:1]),
    )


def test_criterion_03_boltzmann_ord_robustness(capsys):
    rep = verify_claim(ExperimentConfig(claim_id="BM-ORD", trials=100, seed=3))
    betas_distinct = all(o["beta1"] != o["beta2"] for o in rep.outcomes)
    ok = rep.ok and rep.counts["pass"] == 100 and betas_distinct
    _report(
        capsys, 3,
        "temperature misspecification preserves policy order (100 trials)",
        ok, detail=str(_failures(rep)[:1]),
    )


def test_criterion_04_mce_ord_robustness(capsys):
    rep = verify_claim(ExperimentConfig(claim_id="MCE-ORD", trials=100, seed=4))
    residuals_ok = all(o["soft_residual"] <= 1e-8 for o in rep.outcomes if "soft_residual" in o)
    ok = rep.ok and rep.counts["pass"] == 100 and residuals_ok
    _report(
        capsys, 4,
        "entropy-weight misspecification preserves policy order (100 trials)",
        ok, detail=str(_failures(rep)[:1]),
    )


def test_criterion_05_optimality_model_fragility(capsys):
    rep = verify_claim(ExperimentConfig(claim_id="OPT-MODEL", trials=200, seed=5))
    ok = rep.ok and rep.counts["pass"] == 200 and rep.first_counterexample is not None
    _report(
        capsys, 5,
        "optimal-set admissibility biconditional (200 pairs) + class-swap violation",
        ok, detail=str(_failures(rep)[:1]),
    )


def test_criterion_06_misspecified_gamma(capsys):
    rep = verify_claim(ExperimentConfig(claim_id="LEM-GAMMA", trials=20, seed=6))
    ok = rep.ok and rep.counts["pass"] == 20
    _report(
        capsys, 6,
        "discount counterexamples found on 20 MDPs x 2 pairs; controls return none",
        ok, detail=str(_failures(rep)[:1]),
    )


def test_criterion_07_misspecified_tau(capsys):
    rep = verify_claim(ExperimentConfig(claim_id="LEM-TAU", trials=20, seed=7))
    ok = rep.ok and rep.counts["pass"] == 20
    _report(
        capsys, 7,
        "transition counterexamples found on 20 perturbed pairs; identity controls none",
        ok, detail=str(_failures(rep)[:1]),
    )


def test_criterion_08_occupancy_machinery(capsys):
    sum_ok = j_ok = True
    worst_sum = worst_j = 0.0
    for i in range(500):
        mdp = random_mdp(2 + i % 4, 2 + i % 2, 0.5 + 0.09 * (i % 5), seed=9000 + i)
        pi = random_policy(mdp.n_states, mdp.n_actions, seed=9500 + i)
        r = oracles.uniform_reward(mdp, seed=10000 + i)
        d = occupancy(mdp, pi)
        mass = 1.0 / (1.0 - mdp.discount)
        gap_sum = abs(d.d.sum() - mass)
        worst_sum = max(worst_sum, gap_sum / max(1.0, mass))
        sum_ok &= gap_sum <= 1e-9 * max(1.0, mass)
        gap_j = abs(float((d.d * reward_vector(r, mdp)).sum()) - policy_evaluate(mdp, r, pi).j)
        worst_j = max(worst_j, gap_j)
        j_ok &= gap_j <= 1e-8

    inj_ok = True
    for i in range(100):
        mdp = random_mdp(2 + i % 4, 2 + i % 2, 0.85, seed=11000 + i)
        p1 = random_policy(mdp.n_states, mdp.n_actions, seed=11500 + i)
        p2 = random_policy(mdp.n_states, mdp.n_actions, seed=12000 + i)
        inj_ok &= np.abs(occupancy(mdp, p1).d - occupancy(mdp, p2).d).max() > 1e-9

    mc_ok = True
    for i in range(20):
        mdp = random_mdp(2 + i % 3, 2, 0.5 + 0.02 * i, seed=13000 + i)
        pi = random_policy(mdp.n_states, 2, seed=13500 + i)
        r = oracles.uniform_reward(mdp, seed=14000 + i)
        horizon = 1
        while oracles.truncation_bias(mdp, r, horizon) > 1e-3:
            horizon += 1
        mean, stderr = oracles.mc_return(mdp, r, pi, horizon=horizon, n=4000, seed=14500 + i)
        exact = policy_evaluate(mdp, r, pi).j
        mc_ok &= abs(mean - exact) <= 3 * stderr + oracles.truncation_bias(mdp, r, horizon)

    ok = sum_ok and j_ok and inj_ok and mc_ok
    _report(
        capsys, 8,
        f"occupancy mass/J identities on 500 cases (worst J gap {worst_j:.2e}), "
        "injectivity on 100 pairs, Monte-Carlo agreement on 20 cases",
        ok,
    )


def test_criterion_09_j_ambiguity(capsys):
    rep = verify_claim(ExperimentConfig(claim_id="J-AMB", trials=100, seed=8))
    ok = rep.ok and rep.counts["pass"] == 100
    _report(
        capsys, 9,
        "100 zero-mean-shaping round trips keep J; 100 scalings break it",
        ok, detail=str(_failures(rep)[:1]),
    )


def test_criterion_10_transfer_fixture(capsys):
    rep = verify_claim(ExperimentConfig(claim_id="EX-TRANSFER", trials=10, seed=10))
    ok = rep.ok and rep.counts["pass"] == 10
    _report(
        capsys, 10,
        "committed transfer pair: order-equivalent over 10 transitions, "
        "scaling+shaping-only fit fails",
        ok, detail=str(_failures(rep)[:1]),
    )


@pytest.mark.slow
def test_criterion_11_full_registry_cli(capsys, tmp_path):
    def run(name):
        out = tmp_path / name
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "rewardlab", "lab", "--claim", "all", "--seed", "1",
             "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        elapsed = time.perf_counter() - t0
        return proc, elapsed, out.read_bytes()

    proc1, t1, report1 = run("run1.json")
    proc2, t2, report2 = run("run2.json")
    ok = (
        proc1.returncode == 0
        and proc2.returncode == 0
        and t1 < 300.0
        and t2 < 300.0
        and report1 == report2
        and json.loads(report1)["ok"]
    )
    _report(
        capsys, 11,
        f"full registry exits 0 in {t1:.0f}s and {t2:.0f}s; reports byte-identical",
        ok, detail=proc1.stdout[-400:] + proc1.stderr[-400:],
    )
