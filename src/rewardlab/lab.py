"""Randomized verification harness: generators, claim registry, counterexamples.

Every claim in the registry packages one robustness statement as a seeded,
self-checking experiment: a plain trial function ``(config, trial, searching)
-> outcome`` run by the one trial loop, ``_run_trials``. The loop owns the
trial budget and keeps the first counterexample any trial returns;
``searching`` tells a trial whether one is still wanted. It also applies the
witness rule: an existential ("not robust") claim names a witness message,
and if none of its trials returned a counterexample its last trial fails
with that message, so budget exhaustion is a suite failure, never a silent
pass. Positive claims must pass every trial. BOLTZ-OPT, BM-ORD and MCE-ORD
share the paper's robustness test, ``_robustness_trial``: observe pi = g(R2),
fit R1 = f^-1(pi), decide R1 ≡ R2. LEM-GAMMA, LEM-TAU and MDP-MISSPEC
share one generator, ``misspec_counterexample``: the smallest reward change
that is shaping plus S'-redistribution in the model's MDP and flips optimal
actions in the true one, in closed form, or None when no such change exists
for the drawn reward. Trials draw their randomness from
substreams keyed on (seed, trial index), so reports are reproducible and
trials could run in any order.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import documents
from .equiv import j_equal, opt_equivalent, ord_equivalent
from .errors import GenerationError, InternalConsistencyError, UnknownClaimError
from .mdp import (
    DEFAULT_ENUM_CAP,
    ActionSetPolicy,
    Mdp,
    RewardTable,
    StochasticPolicy,
    enumerate_action_tuples,
    is_trivial_transition,
    validate_mdp,
)
from .models import (
    _softmax_rows,
    boltzmann_policy,
    fvariant_policy,
    invert_boltzmann,
    invert_mce,
    soft_policy,
)
from .solve import (
    ROUNDOFF_RTOL,
    controllable_states,
    occupancy,
    optimal_values,
    reward_vector,
    soft_optimal_values,
    vertex_j,
)
from .transform import (
    LinearScaling,
    PotentialFn,
    PotentialShaping,
    apply,
    canonical_forms,
    sample_optimality_preserving,
    sample_potential_shaping,
    sample_s_redistribution,
    shaping_matrix,
)

GAP_FLOOR = 1e-4       # minimum optimal-advantage gap of generated rewards, in BOUNDS
REWARD_TRIES = 200     # rejection-sampling budget of random_reward
STATES = (2, 5)        # inclusive range of n_states drawn per trial
ACTIONS = (2, 3)       # inclusive range of n_actions drawn per trial
BOUNDS = 1.0           # reward unit: size of generated rewards and potentials; model parameters follow it
GAMMA_PAIRS = ((0.5, 0.9), (0.9, 0.95))  # (model, true) discounts LEM-GAMMA searches on every drawn MDP
# EX-TRANSFER's two-state pair: the two successors of (s0, a0) pay 1 and 0.5 in r1, 0.5 and 1 in r2.
TRANSFER_PAIR = (
    RewardTable([[[1.0, 0.5], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
    RewardTable([[[0.5, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
)


def _substream(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *[int(p) for p in path]]))


def _child_seeds(seed: int, *path: int, n: int = 1) -> list[int]:
    ss = np.random.SeedSequence([int(seed), *[int(p) for p in path]])
    return [int(x) for x in ss.generate_state(n, dtype=np.uint64)]


def random_mdp(n_states: int, n_actions: int, gamma: float, seed: int) -> Mdp:
    """Dirichlet-sampled MDP. Every transition row and mu0 has full support, so every state is reachable."""
    rng = np.random.default_rng(seed)
    tau = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    return Mdp(transition=tau, initial=rng.dirichlet(np.ones(n_states)), discount=gamma)


def random_policy(n_states: int, n_actions: int, seed: int) -> StochasticPolicy:
    rng = np.random.default_rng(seed)
    return StochasticPolicy(rng.dirichlet(np.ones(n_actions), size=n_states))


def advantage_gap(mdp: Mdp, r: RewardTable) -> float:
    """Smallest margin by which a non-optimal action loses, over all states."""
    a_star = optimal_values(mdp, r).a_star
    losing = a_star[a_star < a_star.max(axis=1, keepdims=True)]
    return float(-losing.max()) if losing.size else np.inf


def random_reward(mdp: Mdp, seed: int = 0) -> RewardTable:
    """Uniform reward in [-BOUNDS, BOUNDS], redrawn until it meets the gap floor.

    A draw is kept only if every non-optimal action loses by at least
    GAP_FLOOR * BOUNDS, which keeps optimal-action decisions far from the
    solver tie tolerance. Raises GenerationError after REWARD_TRIES draws.
    """
    rng = np.random.default_rng(seed)
    n, k = mdp.n_states, mdp.n_actions
    for _ in range(REWARD_TRIES):
        r = RewardTable(rng.uniform(-BOUNDS, BOUNDS, size=(n, k, n)))
        if advantage_gap(mdp, r) >= GAP_FLOOR * BOUNDS:
            return r
    raise GenerationError(f"no reward met the gap floor after {REWARD_TRIES} tries")


@dataclass(frozen=True)
class ExperimentConfig:
    claim_id: str
    trials: int = 0  # 0 means "use the claim's default"
    seed: int = 0

    def __post_init__(self):
        for name in ("seed", "trials"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass
class TrialReport:
    claim_id: str
    outcomes: list
    ok: bool
    first_counterexample: dict | None
    wall_clock_s: float
    config: dict

    @property
    def counts(self) -> dict:
        statuses = [o["status"] for o in self.outcomes]
        return {k: statuses.count(k) for k in ("pass", "fail", "skip")}

    def to_doc(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "ok": self.ok,
            "counts": self.counts,
            "outcomes": self.outcomes,
            "first_counterexample": self.first_counterexample,
            "config": self.config,
        }


@dataclass(frozen=True)
class CounterexampleRecord:
    """A self-verifying misspecification witness.

    ``mdp_model`` is the environment the behavioural model assumed,
    ``mdp_true`` the one the policies are actually judged in. Replaying the
    deciders on the stored payload reproduces the recorded violation.
    """

    mdp_model: Mdp
    mdp_true: Mdp
    r1: RewardTable
    r2: RewardTable
    evidence: dict
    params: dict

    def verify(self) -> bool:
        """r1 and r2 look alike to every behavioural model in ``mdp_model`` but not in ``mdp_true``.

        Alike means equal canonical forms up to round-off (r2 = r1 + shaping +
        S'-redistribution under ``mdp_model``) at any reward unit; unlike means
        opt_equivalent refuses. ``params`` names the flipped (state, action)
        and the margin |r2 - r1| / |r1|; verify does not read it.
        """
        forms = canonical_forms(self.r1, self.r2, self.mdp_model).common()
        alike = np.linalg.norm(forms.c[1] - forms.c[0]) <= ROUNDOFF_RTOL * forms.v_size.max()
        return bool(alike) and not opt_equivalent(self.r1, self.r2, self.mdp_true).equivalent

    def to_doc(self) -> dict:
        return {
            "mdp_model": documents.mdp_to_doc(self.mdp_model),
            "mdp_true": documents.mdp_to_doc(self.mdp_true),
            "r1": documents.reward_to_doc(self.r1),
            "r2": documents.reward_to_doc(self.r2),
            "relation": "opt",  # the relation r1 and r2 fail in mdp_true
            "evidence": self.evidence,
            "params": self.params,
        }


def misspec_counterexample(mdp_model: Mdp, mdp_true: Mdp, seed: int) -> CounterexampleRecord | None:
    """The smallest change to a drawn r1 that ``mdp_model`` cannot see and that flips optimal actions in ``mdp_true``.

    r1 is drawn under ``mdp_true``, where the gap floor makes its optimal
    policy pi* unique. pi*'s advantages are A = L @ rv_true with L = I - M
    (M[rows])^-1 E[rows], M = shaping_matrix(mdp_true), so A(j)'s gradient g_j
    puts L[j, i] * tau_true(i) on reward row i. P projects onto the changes
    the model cannot see: those whose expectations under its rows
    tau_model(i) lie in range(shaping_matrix(mdp_model)). The losing (s, a)
    with the smallest |A| / |P g| is tied by delta* = |A| / |P g|^2 * P g, and
    no smaller invisible change ties any. None, when every P g is round-off,
    is exact for r1: equal MDPs, a trivial transition function under a wrong
    discount and identical rows give it. ``params`` holds the (state, action)
    and the margin |delta*| / |r1|. Raises ValueError unless both MDPs have
    the same (S, A) and pass validate_mdp.
    """
    if mdp_model.transition.shape != mdp_true.transition.shape:
        raise ValueError(f"MDPs of shapes {mdp_model.transition.shape} and {mdp_true.transition.shape}")
    for mdp in (mdp_model, mdp_true):
        report = validate_mdp(mdp)
        if not report.ok:
            raise ValueError(f"not a valid MDP: {report.rule_ids()}")
    n, k = mdp_true.n_states, mdp_true.n_actions
    r1 = random_reward(mdp_true, seed=_child_seeds(seed, 1)[0])
    a_star = optimal_values(mdp_true, r1).a_star
    rows = np.arange(n) * k + a_star.argmax(axis=1)
    shaping, lin = shaping_matrix(mdp_true), np.eye(n * k)
    lin[:, rows] -= np.linalg.solve(shaping[rows].T, shaping.T).T
    adv = lin @ reward_vector(r1, mdp_true).ravel()
    p, q = (m.transition.reshape(n * k, n) for m in (mdp_model, mdp_true))
    pp = (p * p).sum(axis=1)
    c = (q * p).sum(axis=1) / pp  # exactly 1 on identical rows, so their across parts are exactly 0
    across, along = q - c[:, None] * p, c * np.sqrt(pp)
    # Across p_i a row is free; the along coefficients must lie in range(shaping_matrix(mdp_model) / |p_i|).
    basis = np.linalg.qr(shaping_matrix(mdp_model) / np.sqrt(pp)[:, None])[0]
    coef = (lin * along) @ basis  # row j: the projection of g_j's along coefficients, in the basis
    moved = np.sqrt(lin**2 @ (across**2).sum(axis=1) + (coef**2).sum(axis=1))  # |P g_j|
    size = np.sqrt(lin**2 @ (q**2).sum(axis=1))  # |g_j|
    movable = (a_star < a_star.max(axis=1, keepdims=True)).ravel() & (moved > ROUNDOFF_RTOL * size)
    ratio = np.divide(-adv, moved, out=np.full(n * k, np.inf), where=movable)  # |delta| tying each (s, a)
    j = int(ratio.argmin())
    if ratio[j] == np.inf:
        return None
    step = lin[j, :, None] * across + (basis @ coef[j] / np.sqrt(pp))[:, None] * p
    r2 = RewardTable(r1.values + (ratio[j] / moved[j] * step).reshape(n, k, n))
    params = {"state": j // k, "action": j % k, "margin": float(ratio[j] / np.linalg.norm(r1.values))}
    record = CounterexampleRecord(mdp_model, mdp_true, r1, r2, opt_equivalent(r1, r2, mdp_true).witness, params)
    if not record.verify():
        raise InternalConsistencyError(f"closed-form counterexample at {params} does not verify")
    return record


# ---------------------------------------------------------------------------
# Claim registry
# ---------------------------------------------------------------------------


def _config_doc(config: ExperimentConfig, trials: int) -> dict:
    return {
        "claim_id": config.claim_id,
        "trials": trials,
        "seed": config.seed,
        "states": list(STATES),
        "actions": list(ACTIONS),
        "bounds": BOUNDS,
        "enum_cap": DEFAULT_ENUM_CAP,
    }


def _draw_env(config: ExperimentConfig, trial: int) -> Mdp:
    rng = _substream(config.seed, trial, 0)
    n = int(rng.integers(STATES[0], STATES[1] + 1))
    k = int(rng.integers(ACTIONS[0], ACTIONS[1] + 1))
    return random_mdp(n, k, float(rng.uniform(0.4, 0.95)), _child_seeds(config.seed, trial, 0, 1)[0])


def _loguniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def oracle_opt_sets(mdp: Mdp, *rewards: RewardTable) -> list[ActionSetPolicy]:
    """Optimal-action sets of each reward by brute force: union of argmax-J deterministic policies.

    Matches the argmax-of-Q* sets whenever every state is visited under every
    policy (full-support transition rows, as the generators here produce). On
    sparse transitions a J-optimal policy can behave arbitrarily at states it
    never reaches, which this enumeration cannot distinguish.
    """
    chosen = enumerate_action_tuples(mdp.n_states, mdp.n_actions)[:, :, None] == np.arange(mdp.n_actions)
    j = vertex_j(mdp, np.stack([reward_vector(r, mdp) for r in rewards]))
    return [ActionSetPolicy(chosen[col >= col.max() - 1e-9 * np.abs(col).max()].any(axis=0)) for col in j.T]


def _run_trials(config: ExperimentConfig, trial, witness: str | None = None) -> TrialReport:
    """The one trial loop: ``trial(config, i, searching)`` returns an outcome dict.

    ``searching`` stays true until some trial has returned a "counterexample";
    the first one returned becomes the report's ``first_counterexample``. A
    claim with a ``witness`` message is existential: if no trial returned a
    counterexample, its last trial fails with that message. An exception fails
    only its own trial and keeps its own error.
    """
    trials = config.trials if config.trials > 0 else DEFAULT_TRIALS[config.claim_id]
    t0 = time.perf_counter()
    outcomes = []
    counterexample = None
    for i in range(trials):
        try:
            outcome = trial(config, i, counterexample is None)
        except Exception as exc:  # one bad trial fails that trial, not the registry
            outcome = {"status": "fail", "error": f"{type(exc).__name__}: {exc}"}
        else:
            found = outcome.pop("counterexample", None)
            if counterexample is None:
                counterexample = found
            if witness is not None and counterexample is None and i == trials - 1:
                outcome.update(status="fail", error=witness)
        outcome["trial"] = i
        outcomes.append(outcome)
    ok = all(o["status"] != "fail" for o in outcomes)
    return TrialReport(
        claim_id=config.claim_id,
        outcomes=outcomes,
        ok=ok,
        first_counterexample=counterexample,
        wall_clock_s=time.perf_counter() - t0,
        config=_config_doc(config, trials),
    )


def _robustness_trial(config: ExperimentConfig, trial: int, salt: int, g, f_inv, relation):
    """The paper's robustness test on one drawn pair: does f(R1) = g(R2) give R1 ≡ R2?

    Draws the environment and R2 (the latter from ``salt + 1``), observes
    ``g(mdp, R2)``, fits ``R1 = f_inv(observed, mdp)`` and decides
    ``relation(R1, R2, mdp)``. The observation is a policy, or the solved
    values it is read off. The caller draws the parameters of g and f from
    ``_substream(seed, trial, salt)``. Returns (mdp, observed, R1, R2, verdict).
    """
    mdp = _draw_env(config, trial)
    r2 = random_reward(mdp, seed=_child_seeds(config.seed, trial, salt + 1)[0])
    observed = g(mdp, r2)
    r1 = f_inv(observed, mdp)
    return mdp, observed, r1, r2, relation(r1, r2, mdp)


def _ord_char(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """Round-trip construct/recover for the scaling+shaping+redistribution class."""
    rng = _substream(config.seed, trial, 10)
    mdp = _draw_env(config, trial)
    seeds = _child_seeds(config.seed, trial, 11, n=4)
    r1 = random_reward(mdp, seed=seeds[0])
    c = _loguniform(rng, 0.2, 5.0)
    cur = r1
    applied_order = [["ls", "ps", "sr"][k] for k in rng.permutation(3)]
    for step_kind in applied_order:
        if step_kind == "ls":
            spec = LinearScaling(c)
        elif step_kind == "ps":
            spec = sample_potential_shaping(mdp, BOUNDS, False, seeds[1])
        else:
            spec = sample_s_redistribution(mdp, cur, BOUNDS, seeds[2])
        cur = apply(spec, cur, mdp)
    verdict = ord_equivalent(r1, cur, mdp)
    cert = verdict.certificate
    pos_ok = (
        verdict.equivalent
        and abs(cert.c - c) <= 1e-6 * max(1.0, c)
    )
    # Negative control: an independent reward; the verdict must pass its own
    # certificate or witness check (ord_equivalent raises InternalConsistencyError otherwise).
    r3 = random_reward(mdp, seed=seeds[3])
    neg_verdict = ord_equivalent(r1, r3, mdp)
    status = "pass" if pos_ok else "fail"
    return {
        "status": status,
        "order": applied_order,
        "c_true": c,
        "c_fit": cert.c if cert else None,
        "residual": cert.residual if cert else None,
        "negative_equivalent": neg_verdict.equivalent,
    }


def _boltz_opt(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """Softmax-of-Q* model vs argmax-preserving probes, plus the argmax-inverting probe."""
    rng = _substream(config.seed, trial, 20)
    if trial % 2 == 0:
        variant, lam = "mixture", float(rng.uniform(0.2, 0.8))
        weights = (lam, 1 - lam)
        betas = (_loguniform(rng, 0.5, 5.0) / BOUNDS, _loguniform(rng, 0.5, 5.0) / BOUNDS)
    else:  # exp(b * A*)^p renormalised: the softmax at temperature p * b
        variant, b = "tempered-rank", _loguniform(rng, 0.5, 5.0) / BOUNDS
        weights, betas = (1.0,), (float(rng.uniform(0.5, 3.0)) * b,)
    beta = _loguniform(rng, 0.1, 10.0) / BOUNDS

    def f_inv(pi, mdp):
        return invert_boltzmann(pi, beta, mdp)

    verdict = _robustness_trial(
        config, trial, 20, lambda mdp, r2: fvariant_policy(mdp, r2, weights, betas), f_inv, opt_equivalent
    )[-1]
    outcome = {"status": "pass" if verdict.equivalent else "fail", "variant": variant}

    # Existential side: until a verified violation lands, the same pipeline
    # runs once per trial with the argmax-inverting g = softmax(-beta * Q*).
    if searching:
        def g_inverting(mdp, r2):
            return StochasticPolicy(_softmax_rows(-beta * optimal_values(mdp, r2).q_star))

        mdp, _, r1, r2, neg_verdict = _robustness_trial(
            config, trial, 20, g_inverting, f_inv, opt_equivalent
        )
        if not neg_verdict.equivalent and operator.ne(*oracle_opt_sets(mdp, r1, r2)):
            outcome["counterexample"] = {
                "claim": "BOLTZ-OPT",
                "note": "argmax-inverting probe produced an optimality flip",
                "witness": neg_verdict.witness,
                "mdp": documents.mdp_to_doc(mdp),
                "r1": documents.reward_to_doc(r1),
                "r2": documents.reward_to_doc(r2),
            }
    return outcome


def _bm_ord(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """Temperature misspecification preserves the policy ordering."""
    rng = _substream(config.seed, trial, 30)
    beta2 = _loguniform(rng, 0.1, 10.0) / BOUNDS
    beta1 = _loguniform(rng, 0.1, 10.0) / BOUNDS
    while beta1 == beta2:
        beta1 = _loguniform(rng, 0.1, 10.0) / BOUNDS
    verdict = _robustness_trial(
        config, trial, 30, lambda mdp, r2: boltzmann_policy(mdp, r2, beta2),
        lambda pi, mdp: invert_boltzmann(pi, beta1, mdp), ord_equivalent,
    )[-1]
    return {
        "status": "pass" if verdict.equivalent else "fail",
        "beta1": beta1,
        "beta2": beta2,
    }


def _mce_ord(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """Entropy-weight misspecification preserves the policy ordering."""
    rng = _substream(config.seed, trial, 40)
    alpha2 = _loguniform(rng, 0.1, 10.0) * BOUNDS
    alpha1 = _loguniform(rng, 0.1, 10.0) * BOUNDS
    while alpha1 == alpha2:
        alpha1 = _loguniform(rng, 0.1, 10.0) * BOUNDS
    # g solves the soft values once: the policy is read off them and their
    # residual is reported.
    _, soft, _, _, verdict = _robustness_trial(
        config, trial, 40, lambda mdp, r2: soft_optimal_values(mdp, r2, alpha2),
        lambda soft, mdp: invert_mce(soft_policy(soft), alpha1), ord_equivalent,
    )
    return {
        "status": "pass" if verdict.equivalent else "fail",
        "alpha1": alpha1,
        "alpha2": alpha2,
        "soft_residual": soft.residual,
    }


def _opt_model(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """Optimal-set model: admissibility biconditional plus the class-swap violation."""
    mdp = _draw_env(config, trial)
    seeds = _child_seeds(config.seed, trial, 51, n=3)
    r1 = random_reward(mdp, seed=seeds[0])
    related = trial % 2 == 1
    if related:
        op = sample_optimality_preserving(mdp, BOUNDS, seeds[1])
        r2 = apply(op, r1, mdp)
    else:
        r2 = random_reward(mdp, seed=seeds[2])
    decider = opt_equivalent(r1, r2, mdp).equivalent
    opt1, opt2 = oracle_opt_sets(mdp, r1, r2)
    ok = decider == (opt1 == opt2) and (decider or not related)
    outcome = {"status": "pass" if ok else "fail", "related": related, "equivalent": decider}

    # A map swapping two optimality classes witnesses non-robustness: it
    # sends r1 to the model output of r2 while the two are inequivalent.
    if searching and not decider:
        outcome["counterexample"] = {
            "claim": "OPT-MODEL",
            "note": "swapping the classes of r1 and r2 makes the learner land in the wrong class",
            "mdp": documents.mdp_to_doc(mdp),
            "r1": documents.reward_to_doc(r1),
            "r2": documents.reward_to_doc(r2),
            "opt1": [sorted(s) for s in opt1],
            "opt2": [sorted(s) for s in opt2],
        }
    return outcome


def _lem_gamma(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """Discount misspecification: counterexamples exist exactly when predicted."""
    mdp = _draw_env(config, trial)
    records = []
    for pi_idx, (g1, g2) in enumerate(GAMMA_PAIRS):
        seed = _child_seeds(config.seed, trial, 60 + pi_idx, 1)[0]
        rec = misspec_counterexample(mdp.with_discount(g1), mdp.with_discount(g2), seed)
        if rec is None:
            return {"status": "fail", "error": f"no verified counterexample for {(g1, g2)}"}
        records.append(rec)
    g1, g2 = GAMMA_PAIRS[0]
    trivial = mdp.with_transition(np.full_like(mdp.transition, 1.0 / mdp.n_states))
    if misspec_counterexample(trivial.with_discount(g1), trivial.with_discount(g2), config.seed) is not None:
        return {"status": "fail", "error": "trivial-transition control produced a counterexample"}
    if misspec_counterexample(mdp.with_discount(g1), mdp.with_discount(g1), config.seed) is not None:
        return {"status": "fail", "error": "equal-discount control produced a counterexample"}
    margins = [r.params["margin"] for r in records]
    return {"status": "pass", "margins": margins, "counterexample": records[0].to_doc()}


def _lem_tau(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """Transition misspecification: redistribution-invisible rewrites flip optimality."""
    rng = _substream(config.seed, trial, 70)
    mdp1 = _draw_env(config, trial)
    tau2 = mdp1.transition.copy()
    n_rows = int(rng.integers(1, mdp1.n_states * mdp1.n_actions + 1))
    flat = rng.choice(mdp1.n_states * mdp1.n_actions, size=n_rows, replace=False)
    for f in flat:
        s, a = divmod(int(f), mdp1.n_actions)
        tau2[s, a] = rng.dirichlet(np.ones(mdp1.n_states))
    rec = misspec_counterexample(mdp1, mdp1.with_transition(tau2), _child_seeds(config.seed, trial, 71, 1)[0])
    if rec is None:
        return {"status": "fail", "error": "no verified counterexample for differing rows"}
    if misspec_counterexample(mdp1, mdp1, config.seed) is not None:
        return {"status": "fail", "error": "identical-transition control produced a counterexample"}
    return {"status": "pass", "rows_changed": n_rows, "counterexample": rec.to_doc()}


def _mdp_misspec(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """Combined statement: the generator fires for a wrong discount, a wrong transition
    function or both, and never in the excluded cases."""
    mdp = _draw_env(config, trial)
    seeds = _child_seeds(config.seed, trial, 80, n=3)
    rng = _substream(config.seed, trial, 81)
    tau2 = mdp.transition.copy()
    tau2[0, 0] = rng.dirichlet(np.ones(mdp.n_states))
    true_tau = mdp.with_transition(tau2)
    for what, model, true, seed in (
        ("discount", mdp.with_discount(0.5), mdp.with_discount(0.9), seeds[0]),
        ("transition function", mdp, true_tau, seeds[1]),
        ("discount and transition function", mdp.with_discount(0.5), true_tau.with_discount(0.9), seeds[1]),
    ):
        if misspec_counterexample(model, true, seed) is None:
            return {"status": "fail", "error": f"no counterexample for a wrong {what}"}
    trivial = mdp.with_transition(np.full_like(mdp.transition, 1.0 / mdp.n_states))
    excluded = (
        misspec_counterexample(mdp.with_discount(0.7), mdp.with_discount(0.7), seeds[2]) is None
        and misspec_counterexample(trivial.with_discount(0.5), trivial.with_discount(0.9), seeds[2]) is None
        and misspec_counterexample(mdp, mdp, seeds[2]) is None
    )
    if not excluded:
        return {"status": "fail", "error": "an excluded case produced a counterexample"}
    return {"status": "pass"}


def _occ_inj(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """Distinct full-support policies have distinct occupancy vectors."""
    mdp = _draw_env(config, trial)
    seeds = _child_seeds(config.seed, trial, 90, n=8)
    pi1 = random_policy(mdp.n_states, mdp.n_actions, seeds[0])
    pi2 = random_policy(mdp.n_states, mdp.n_actions, seeds[1])
    k = 2
    while np.abs(pi1.probs - pi2.probs).max() < 1e-3:
        pi2 = random_policy(mdp.n_states, mdp.n_actions, seeds[k])
        k += 1
    d1, d2 = occupancy(mdp, pi1), occupancy(mdp, pi2)
    mass = 1.0 / (1.0 - mdp.discount)
    sums_ok = (
        abs(d1.d.sum() - mass) <= 1e-9 * max(1.0, mass)
        and abs(d2.d.sum() - mass) <= 1e-9 * max(1.0, mass)
    )
    gap = float(np.abs(d1.d - d2.d).max())
    ok = sums_ok and gap > 1e-9
    return {"status": "pass" if ok else "fail", "occupancy_gap": gap}


def _j_amb(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """J is blind to zero-mean shaping plus redistribution, and to nothing more."""
    rng = _substream(config.seed, trial, 100)
    mdp = _draw_env(config, trial)
    seeds = _child_seeds(config.seed, trial, 101, n=3)
    r1 = random_reward(mdp, seed=seeds[0])
    ps = sample_potential_shaping(mdp, BOUNDS, True, seeds[1])
    shaped = apply(ps, r1, mdp)
    sr = sample_s_redistribution(mdp, shaped, BOUNDS, seeds[2])
    r2 = apply(sr, shaped, mdp)
    if not j_equal(r1, r2, mdp).equivalent:
        return {"status": "fail", "error": "zero-mean shaping + redistribution changed J"}
    c = _loguniform(rng, 0.2, 5.0)
    while abs(c - 1.0) < 0.1:
        c = _loguniform(rng, 0.2, 5.0)
    r3 = apply(LinearScaling(c), r1, mdp)
    if j_equal(r1, r3, mdp).equivalent:
        return {"status": "fail", "error": f"scaling by {c} left J unchanged"}
    return {"status": "pass", "c": c}


def _control(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """Controllable states exist exactly when the transition function is non-trivial."""
    mdp = _draw_env(config, trial)
    if trial % 4 == 3:
        mdp = mdp.with_transition(np.full_like(mdp.transition, 1.0 / mdp.n_states))
    states = controllable_states(mdp)
    ok = bool(states) == (not is_trivial_transition(mdp))
    return {
        "status": "pass" if ok else "fail",
        "trivial": is_trivial_transition(mdp),
        "n_controllable": len(states),
    }


def _ex_sa_shaping(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """Shaping followed by the redistribution to each row's expected value stays inside the S x A
    domain and preserves the ordering: the certificate has c = 1 and the drawn (identified) potential."""
    rng = _substream(config.seed, trial, 110)
    mdp = _draw_env(config, trial)
    draw = np.random.default_rng(_child_seeds(config.seed, trial, 111)[0])
    r = RewardTable.from_sa(draw.uniform(-BOUNDS, BOUNDS, (mdp.n_states, mdp.n_actions)))
    phi = PotentialFn(rng.uniform(-BOUNDS, BOUNDS, size=mdp.n_states))
    shaped = RewardTable.from_sa(reward_vector(apply(PotentialShaping(phi), r, mdp), mdp))
    verdict = ord_equivalent(r, shaped, mdp)
    ok = verdict.equivalent and abs(verdict.certificate.c - 1.0) <= 1e-6
    ok = ok and np.abs(verdict.certificate.phi.phi - phi.phi).max() <= 1e-9 * BOUNDS
    return {"status": "pass" if ok else "fail"}


def _successor_choice(r1: RewardTable, r2: RewardTable, gamma: float):
    """(r1, r2, mdp) on the MDP at ``gamma`` where action (a, s') moves to s' with certainty; mu0 is uniform.

    Each reward's expected rewards there are its own (S, A, S') tensor and the
    shaping matrix is the pointwise design gamma*[s' = t] - [s = t], so
    ``ord_equivalent`` on the result accepts iff r2 = c*r1 + gamma*phi(s') -
    phi(s) with c > 0: scaling plus shaping alone, with no redistribution.
    """
    n, k = r1.n_states, r1.n_actions
    tau = np.broadcast_to(np.tile(np.eye(n), (k, 1)), (n, k * n, n))
    mdp = Mdp(transition=tau, initial=np.full(n, 1.0 / n), discount=gamma)
    return (*(RewardTable.from_sa(r.values.reshape(n, k * n)) for r in (r1, r2)), mdp)


def _ex_transfer(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """TRANSFER_PAIR: order-equivalent for every sampled transition function, yet
    inexpressible as scaling plus shaping alone."""
    r1, r2 = TRANSFER_PAIR
    rng = _substream(config.seed, trial, 120)
    gamma = float(rng.uniform(0.3, 0.95))
    mdp = random_mdp(r1.n_states, r1.n_actions, gamma, _child_seeds(config.seed, trial, 121, 1)[0])
    verdict = ord_equivalent(r1, r2, mdp)
    if not verdict.equivalent:
        return {"status": "fail", "error": "transfer pair not order-equivalent"}
    if ord_equivalent(*_successor_choice(r1, r2, gamma)).equivalent:
        return {"status": "fail", "error": "scaling+shaping-only fit unexpectedly succeeded"}
    return {"status": "pass", "gamma": gamma, "c_fit": verdict.certificate.c}


# One row per claim, in report order: (trial function, default trials, the
# witness message of an existential claim).
_REGISTRY = {
    "ORD-CHAR": (_ord_char, 200, None),
    "BOLTZ-OPT": (_boltz_opt, 100, "no verified violation found"),
    "BM-ORD": (_bm_ord, 100, None),
    "OPT-MODEL": (_opt_model, 200, "no class-swap violation found"),
    "MCE-ORD": (_mce_ord, 100, None),
    "LEM-GAMMA": (_lem_gamma, 20, None),
    "LEM-TAU": (_lem_tau, 20, None),
    "MDP-MISSPEC": (_mdp_misspec, 8, None),
    "OCC-INJ": (_occ_inj, 100, None),
    "J-AMB": (_j_amb, 100, None),
    "CONTROL": (_control, 200, None),
    "EX-SA-SHAPING": (_ex_sa_shaping, 100, None),
    "EX-TRANSFER": (_ex_transfer, 10, None),
}
DEFAULT_TRIALS = {cid: trials for cid, (_, trials, _) in _REGISTRY.items()}
CLAIMS = {cid: partial(_run_trials, trial=t, witness=w) for cid, (t, _, w) in _REGISTRY.items()}
CLAIM_ORDER = list(CLAIMS)


def verify_claim(config: ExperimentConfig) -> TrialReport:
    """Run one registered claim; an unknown id raises UnknownClaimError."""
    if config.claim_id not in CLAIMS:
        raise UnknownClaimError(
            f"unknown claim {config.claim_id!r}; registered: {', '.join(CLAIM_ORDER)}"
        )
    return CLAIMS[config.claim_id](config)


def run_registry(seed: int, trials: int = 0) -> list[TrialReport]:
    """Run every registered claim with the given seed, at its default size unless ``trials`` > 0.

    A negative seed or trial count raises ValueError before any trial runs.
    """
    configs = [ExperimentConfig(claim_id=cid, trials=trials, seed=seed) for cid in CLAIM_ORDER]
    return [CLAIMS[c.claim_id](c) for c in configs]
