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
fit R1 = f^-1(pi), decide R1 ≡ R2. Trials draw their randomness from
substreams keyed on (seed, trial index), so reports are reproducible and
trials could run in any order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import documents
from .equiv import j_equal, opt_equivalent, ord_equivalent
from .errors import GenerationError, StructuralError, UnknownClaimError
from .mdp import (
    DEFAULT_ENUM_CAP,
    Mdp,
    RewardTable,
    StochasticPolicy,
    is_trivial_transition,
    lift_reward,
    validate_mdp,
)
from .models import (
    FVariantSpec,
    _softmax_rows,
    boltzmann_policy,
    fvariant_policy,
    invert_boltzmann,
    invert_mce,
    optimal_set_policy,
    soft_policy,
)
from .solve import (
    controllable_states,
    deterministic_policies,
    entry_spread,
    occupancies,
    occupancy,
    optimal_values,
    reward_vector,
    soft_optimal_values,
)
from .transform import (
    LinearScaling,
    PotentialFn,
    PotentialShaping,
    apply,
    decompose_ps_ls,
    sample_optimality_preserving,
    sample_potential_shaping,
    sample_s_redistribution,
    shaping_on_sa_domain,
)

GAP_FLOOR = 1e-4       # minimum optimal-advantage gap of generated rewards, relative to bounds
BOLTZ_MATCH_ATOL = 1e-10
X_GRID = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)  # |X| tried by gamma_counterexample
MDP_TRIES = 100        # rejection-sampling budget of random_mdp
STATES = (2, 5)        # inclusive range of n_states drawn per trial
ACTIONS = (2, 3)       # inclusive range of n_actions drawn per trial
BOUNDS = 1.0           # magnitude of generated rewards and potentials


def _substream(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *[int(p) for p in path]]))


def _child_seeds(seed: int, *path: int, n: int = 1) -> list[int]:
    ss = np.random.SeedSequence([int(seed), *[int(p) for p in path]])
    return [int(x) for x in ss.generate_state(n, dtype=np.uint64)]


def random_mdp(
    n_states: int,
    n_actions: int,
    gamma: float,
    seed: int,
    sparsity: float = 0.0,
) -> Mdp:
    """Dirichlet-sampled MDP; reachability enforced by rejection."""
    rng = np.random.default_rng(seed)
    for _ in range(MDP_TRIES):
        tau = np.zeros((n_states, n_actions, n_states))
        for s in range(n_states):
            for a in range(n_actions):
                if sparsity > 0:
                    keep = rng.random(n_states) >= sparsity
                    if not keep.any():
                        keep[rng.integers(n_states)] = True
                    support = np.flatnonzero(keep)
                else:
                    support = np.arange(n_states)
                tau[s, a, support] = rng.dirichlet(np.ones(support.size))
        mu0 = rng.dirichlet(np.ones(n_states))
        mdp = Mdp(transition=tau, initial=mu0, discount=gamma)
        if validate_mdp(mdp).ok:
            return mdp
    raise GenerationError(f"no valid MDP after {MDP_TRIES} tries (sparsity={sparsity})")


def random_policy(n_states: int, n_actions: int, seed: int) -> StochasticPolicy:
    rng = np.random.default_rng(seed)
    return StochasticPolicy(rng.dirichlet(np.ones(n_actions), size=n_states))


def advantage_gap(mdp: Mdp, r: RewardTable) -> float:
    """Smallest margin by which a non-optimal action loses, over all states."""
    a_star = optimal_values(mdp, r).a_star
    gaps = []
    for s in range(mdp.n_states):
        row = a_star[s]
        non_opt = row[row < row.max()]
        if non_opt.size:
            gaps.append(float(-non_opt.max()))
    return min(gaps) if gaps else np.inf


def random_reward(
    mdp: Mdp,
    domain: str = "sas",
    bounds: float = 1.0,
    seed: int = 0,
    gap_floor: float | None = GAP_FLOOR,
    j_floor: float | None = None,
    max_tries: int = 200,
) -> RewardTable:
    """Uniform reward in [-bounds, bounds] with rejection floors.

    ``gap_floor`` (relative to ``bounds``) keeps optimal-action decisions far
    from the solver tie tolerance; ``j_floor`` additionally demands that some
    deterministic policy has |J| above the floor (rules out J-degenerate draws).
    """
    rng = np.random.default_rng(seed)
    n, k = mdp.n_states, mdp.n_actions
    if j_floor is not None:
        d = occupancies(mdp, deterministic_policies(mdp)).reshape(-1, n * k)
    for _ in range(max_tries):
        if domain == "sas":
            r = RewardTable(rng.uniform(-bounds, bounds, size=(n, k, n)))
        elif domain == "sa":
            r = RewardTable.from_sa(rng.uniform(-bounds, bounds, size=(n, k)))
        elif domain == "s":
            r = RewardTable.from_state(rng.uniform(-bounds, bounds, size=n), n_actions=k)
        else:
            raise ValueError(f"unknown domain {domain!r}")
        if gap_floor is not None and advantage_gap(mdp, r) < gap_floor * bounds:
            continue
        if j_floor is not None and np.abs(d @ reward_vector(r, mdp).ravel()).max() < j_floor:
            continue
        return r
    raise GenerationError(f"no reward met the floors after {max_tries} tries")


@dataclass(frozen=True)
class ExperimentConfig:
    claim_id: str
    trials: int = 0  # 0 means "use the claim's default"
    seed: int = 0
    params: dict = field(default_factory=dict)


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
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for o in self.outcomes:
            counts[o["status"]] += 1
        return counts

    def to_doc(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "ok": self.ok,
            "counts": self.counts,
            "outcomes": self.outcomes,
            "first_counterexample": self.first_counterexample,
            "wall_clock_s": self.wall_clock_s,
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
    relation: str
    evidence: dict
    params: dict

    def verify(self) -> bool:
        verdict = opt_equivalent(self.r1, self.r2, self.mdp_true)
        if verdict.equivalent:
            return False
        kind = self.params.get("kind")
        if kind == "gamma":
            gap = _model_identity_gap(self.mdp_model, self.r1, self.r2, self.params["x"])
            return bool(gap <= BOLTZ_MATCH_ATOL)
        if kind == "tau":
            rv1 = reward_vector(self.r1, self.mdp_model)
            rv2 = reward_vector(self.r2, self.mdp_model)
            return bool(np.array_equal(rv1, rv2))
        return True

    def to_doc(self) -> dict:
        return {
            "mdp_model": documents.mdp_to_doc(self.mdp_model),
            "mdp_true": documents.mdp_to_doc(self.mdp_true),
            "r1": documents.reward_to_doc(self.r1),
            "r2": documents.reward_to_doc(self.r2),
            "relation": self.relation,
            "evidence": self.evidence,
            "params": self.params,
        }


def _model_identity_gap(mdp_model: Mdp, r1: RewardTable, r2: RewardTable, x: float) -> float:
    """L-infinity gap between the softmax-of-Q* policies of r1 and r2 under mdp_model.

    Shaping with weight x inflates Q* by O(|x|) while leaving advantages
    untouched, so the comparison temperature shrinks as 1/(1+|x|) and the
    solver tolerance tracks the reward magnitude; otherwise float rounding at
    large |x| would swamp an identity that holds exactly in real arithmetic.
    """
    beta = 1.0 / (1.0 + abs(x))
    rmax = max(float(np.abs(r1.values).max()), float(np.abs(r2.values).max()), 1.0)
    tol = max(1e-12, 32 * np.finfo(float).eps * rmax / (1.0 - mdp_model.discount))
    b1 = boltzmann_policy(mdp_model, r1, beta, tol=tol)
    b2 = boltzmann_policy(mdp_model, r2, beta, tol=tol)
    return float(np.abs(b1.probs - b2.probs).max())


def _flip_search(
    mdp_model: Mdp, mdp_true: Mdp, r1: RewardTable, candidates
) -> CounterexampleRecord | None:
    """First candidate r2 whose optimal-action sets under ``mdp_true`` differ from r1's and verify.

    ``candidates`` yields (r2, params) pairs in search order; r1's sets are
    solved once for the whole search.
    """
    opt1 = optimal_values(mdp_true, r1).opt_sets
    for r2, params in candidates:
        opt2 = optimal_values(mdp_true, r2).opt_sets
        differing = [s for s in range(mdp_true.n_states) if opt1[s] != opt2[s]]
        if differing:
            record = CounterexampleRecord(
                mdp_model=mdp_model,
                mdp_true=mdp_true,
                r1=r1,
                r2=r2,
                relation="opt",
                evidence={
                    "state": differing[0],
                    "opt1": sorted(opt1[differing[0]]),
                    "opt2": sorted(opt2[differing[0]]),
                },
                params=params,
            )
            if record.verify():
                return record
    return None


def gamma_counterexample(
    mdp: Mdp,
    gamma1: float,
    gamma2: float,
    seed: int = 0,
) -> CounterexampleRecord | None:
    """Shape under gamma1, evaluate under gamma2, and search for an optimality flip.

    The potential puts weight X on one controllable state; the induced J gap
    X * n(pi) * (gamma1 - gamma2) varies across policies through the entry
    measure n, so growing |X| eventually reorders them. Returns None when the
    transition function is trivial, when gamma1 == gamma2, or if no |X| in
    X_GRID produces a flip.
    """
    for g in (gamma1, gamma2):
        if not (0.0 < g < 1.0):
            raise ValueError(f"discounts must lie in (0, 1), got {g}")
    if gamma1 == gamma2:
        return None
    if is_trivial_transition(mdp):
        return None

    mdp1 = mdp.with_discount(gamma1)
    mdp2 = mdp.with_discount(gamma2)
    spread, _ = entry_spread(mdp2, seed=seed)
    state = int(np.argmax(spread))
    if spread[state] <= 1e-9:
        return None

    r1 = random_reward(mdp2, bounds=1.0, seed=_child_seeds(seed, 1)[0])

    def shaped():
        for x_abs in X_GRID:
            for x in (x_abs, -x_abs):
                phi = np.zeros(mdp.n_states)
                phi[state] = x
                r2 = apply(PotentialShaping(PotentialFn(phi)), r1, mdp1)
                yield r2, {
                    "kind": "gamma",
                    "x": x,
                    "shaped_state": state,
                    "gamma1": gamma1,
                    "gamma2": gamma2,
                    "p": float(mdp.initial[state]),
                }

    return _flip_search(mdp1, mdp2, r1, shaped())


def tau_counterexample(mdp1: Mdp, tau2, seed: int = 0) -> CounterexampleRecord | None:
    """Redistribute rewards invisibly under tau1 so that optimality flips under tau2.

    Search directions lie in the kernel of the tau1-expectation: support pairs
    (p_j, -p_i) and entries where tau1 is zero but tau2 is not. Magnitudes are
    powers of two and the perturbed row of the base reward is zeroed first, so
    the tau1-expected rewards of r1 and r2 match bitwise. Returns None iff no
    kernel direction changes tau2-expectations (i.e. the rows coincide).
    """
    tau2 = np.array(tau2, dtype=float)
    if tau2.shape != mdp1.transition.shape:
        raise ValueError("tau2 must match the shape of mdp1's transition tensor")
    mdp2 = mdp1.with_transition(tau2)
    report = validate_mdp(mdp2)
    if not report.ok:
        raise ValueError(f"tau2 is not a valid transition function: {report.rule_ids()}")

    candidates = []  # (s, a, delta, |tau2-effect|)
    tau1 = mdp1.transition
    for s in range(mdp1.n_states):
        for a in range(mdp1.n_actions):
            p, q = tau1[s, a], tau2[s, a]
            if np.abs(p - q).max() <= 1e-12:
                continue
            for k in np.flatnonzero((p == 0.0) & (q > 0.0)):
                delta = np.zeros(mdp1.n_states)
                delta[k] = 1.0
                candidates.append((s, a, delta, float(q[k])))
            support = np.flatnonzero(p > 0.0)
            for ii in range(support.size):
                for jj in range(ii + 1, support.size):
                    i, j = int(support[ii]), int(support[jj])
                    effect = q[i] * p[j] - q[j] * p[i]
                    if abs(effect) > 1e-12:
                        delta = np.zeros(mdp1.n_states)
                        delta[i] = p[j]
                        delta[j] = -p[i]
                        candidates.append((s, a, delta, abs(effect)))
    if not candidates:
        return None

    base = random_reward(mdp2, bounds=1.0, seed=_child_seeds(seed, 2)[0])
    magnitudes = [float(2**k) for k in range(0, 31, 2)]

    def rewrites(vals1, s, a, delta):
        for m in magnitudes:
            for sign in (1.0, -1.0):
                vals2 = vals1.copy()
                vals2[s, a, :] = sign * m * delta
                yield RewardTable(vals2), {"kind": "tau", "row": [s, a], "magnitude": sign * m}

    for s, a, delta, _ in candidates:
        vals1 = base.values.copy()
        vals1[s, a, :] = 0.0
        record = _flip_search(mdp1, mdp2, RewardTable(vals1), rewrites(vals1, s, a, delta))
        if record is not None:
            return record
    return None


# ---------------------------------------------------------------------------
# Claim registry
# ---------------------------------------------------------------------------


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_discount(x) -> bool:
    return _is_number(x) and 0.0 < x < 1.0


def _is_positive(x) -> bool:
    return _is_number(x) and x > 0


def _is_gamma_pairs(x) -> bool:
    return (
        isinstance(x, (list, tuple))
        and len(x) > 0
        and all(isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_is_discount, p)) for p in x)
    )


# Every key a claim reads from ``params``, with the values it accepts.
PARAM_TYPES = {
    "gamma": ("a discount in (0, 1)", _is_discount),
    "probe_budget": ("a non-negative integer", lambda x: _is_number(x) and isinstance(x, int) and x >= 0),
    "beta1": ("a positive number", _is_positive),
    "beta2": ("a positive number", _is_positive),
    "gamma_pairs": ("a non-empty list of [gamma1, gamma2] discount pairs", _is_gamma_pairs),
}


def _check_params(params: dict, keys, reader: str) -> None:
    """Raise StructuralError on a key outside ``keys`` or a value PARAM_TYPES rejects."""
    for key, value in params.items():
        if key not in keys:
            accepted = ", ".join(sorted(keys)) or "none"
            raise StructuralError(f"params key {key!r} is not read by {reader}; accepted: {accepted}")
        what, accepts = PARAM_TYPES[key]
        if not accepts(value):
            raise StructuralError(f"params[{key!r}] must be {what}, got {value!r}")


def _config_doc(config: ExperimentConfig, trials: int) -> dict:
    return {
        "claim_id": config.claim_id,
        "trials": trials,
        "seed": config.seed,
        "states": list(STATES),
        "actions": list(ACTIONS),
        "bounds": BOUNDS,
        "enum_cap": DEFAULT_ENUM_CAP,
        "params": config.params,
    }


def _draw_env(config: ExperimentConfig, trial: int) -> Mdp:
    rng = _substream(config.seed, trial, 0)
    n = int(rng.integers(STATES[0], STATES[1] + 1))
    k = int(rng.integers(ACTIONS[0], ACTIONS[1] + 1))
    gamma = config.params.get("gamma") or float(rng.uniform(0.4, 0.95))
    return random_mdp(n, k, gamma, _child_seeds(config.seed, trial, 0, 1)[0])


def _loguniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def oracle_opt_sets(mdp: Mdp, r: RewardTable) -> tuple:
    """Optimal-action sets by brute force: union of argmax-J deterministic policies.

    Matches the argmax-of-Q* sets whenever every state is visited under every
    policy (full-support transition rows, as the generators here produce). On
    sparse transitions a J-optimal policy can behave arbitrarily at states it
    never reaches, which this enumeration cannot distinguish.
    """
    probs = deterministic_policies(mdp)
    j = occupancies(mdp, probs).reshape(len(probs), -1) @ reward_vector(r, mdp).ravel()
    best = j.max()
    tol = 1e-9 * max(1.0, abs(best))
    winners = probs[j >= best - tol].argmax(axis=2)
    return tuple(frozenset(winners[:, s].tolist()) for s in range(mdp.n_states))


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
    r2 = random_reward(mdp, bounds=BOUNDS, seed=_child_seeds(config.seed, trial, salt + 1)[0])
    observed = g(mdp, r2)
    r1 = f_inv(observed, mdp)
    return mdp, observed, r1, r2, relation(r1, r2, mdp)


def _ord_char(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """Round-trip construct/recover for the scaling+shaping+redistribution class."""
    rng = _substream(config.seed, trial, 10)
    mdp = _draw_env(config, trial)
    seeds = _child_seeds(config.seed, trial, 11, n=4)
    r1 = random_reward(mdp, bounds=BOUNDS, seed=seeds[0])
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
    # Negative control: an independent reward; decider and oracle must agree
    # (ord_equivalent raises InternalConsistencyError on any disagreement).
    r3 = random_reward(mdp, bounds=BOUNDS, seed=seeds[3])
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
        spec = FVariantSpec(
            variant="mixture",
            lam=float(rng.uniform(0.2, 0.8)),
            beta1=_loguniform(rng, 0.5, 5.0),
            beta2=_loguniform(rng, 0.5, 5.0),
        )
    else:
        spec = FVariantSpec(
            variant="tempered-rank",
            beta=_loguniform(rng, 0.5, 5.0),
            p=float(rng.uniform(0.5, 3.0)),
        )
    beta = _loguniform(rng, 0.1, 10.0)

    def f_inv(pi, mdp):
        return invert_boltzmann(pi, beta, mdp)

    verdict = _robustness_trial(
        config, trial, 20, lambda mdp, r2: fvariant_policy(mdp, r2, spec), f_inv, opt_equivalent
    )[-1]
    outcome = {"status": "pass" if verdict.equivalent else "fail", "variant": spec.variant}

    # Existential side: until a verified violation lands, the same pipeline
    # runs once per trial with the argmax-inverting g = softmax(-beta * Q*).
    if searching and trial < int(config.params.get("probe_budget", 1000)):
        def g_inverting(mdp, r2):
            return StochasticPolicy(_softmax_rows(-beta * optimal_values(mdp, r2).q_star))

        mdp, _, r1, r2, neg_verdict = _robustness_trial(
            config, trial, 20, g_inverting, f_inv, opt_equivalent
        )
        if not neg_verdict.equivalent and oracle_opt_sets(mdp, r1) != oracle_opt_sets(mdp, r2):
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
    forced_b1 = config.params.get("beta1")
    forced_b2 = config.params.get("beta2")
    if forced_b1 is not None and forced_b1 == forced_b2:
        return {"status": "skip", "note": "not misspecified"}
    rng = _substream(config.seed, trial, 30)
    beta2 = forced_b2 if forced_b2 is not None else _loguniform(rng, 0.1, 10.0)
    beta1 = forced_b1 if forced_b1 is not None else _loguniform(rng, 0.1, 10.0)
    while beta1 == beta2:
        beta1 = _loguniform(rng, 0.1, 10.0)
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
    alpha2 = _loguniform(rng, 0.1, 10.0)
    alpha1 = _loguniform(rng, 0.1, 10.0)
    while alpha1 == alpha2:
        alpha1 = _loguniform(rng, 0.1, 10.0)
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
    r1 = random_reward(mdp, bounds=BOUNDS, seed=seeds[0])
    related = trial % 2 == 0
    if related:
        op = sample_optimality_preserving(mdp, r1, BOUNDS, seeds[1])
        r2 = apply(op, r1, mdp)
    else:
        r2 = random_reward(mdp, bounds=BOUNDS, seed=seeds[2])
    decider = opt_equivalent(r1, r2, mdp).equivalent
    sets_equal = optimal_set_policy(mdp, r1) == optimal_set_policy(mdp, r2)
    oracle = oracle_opt_sets(mdp, r1) == oracle_opt_sets(mdp, r2)
    ok = decider == sets_equal == oracle and (decider or not related)
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
            "opt1": [sorted(s) for s in oracle_opt_sets(mdp, r1)],
            "opt2": [sorted(s) for s in oracle_opt_sets(mdp, r2)],
        }
    return outcome


def _lem_gamma(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """Discount misspecification: counterexamples exist exactly when predicted."""
    pairs = [tuple(p) for p in config.params.get("gamma_pairs", [(0.5, 0.9), (0.9, 0.95)])]
    mdp = _draw_env(config, trial)
    records = []
    for pi_idx, (g1, g2) in enumerate(pairs):
        rec = gamma_counterexample(mdp, g1, g2, seed=_child_seeds(config.seed, trial, 60 + pi_idx, 1)[0])
        if g1 == g2:
            # The statement's exclusion clause: no counterexample may exist.
            if rec is not None:
                return {"status": "fail", "error": f"equal discounts {g1} produced a counterexample"}
            continue
        if rec is None:
            return {"status": "fail", "error": f"no verified counterexample for {(g1, g2)}"}
        records.append(rec)
    trivial = mdp.with_transition(np.full_like(mdp.transition, 1.0 / mdp.n_states))
    if gamma_counterexample(trivial, pairs[0][0], pairs[0][1], seed=config.seed) is not None:
        return {"status": "fail", "error": "trivial-transition control produced a counterexample"}
    if gamma_counterexample(mdp, pairs[0][0], pairs[0][0], seed=config.seed) is not None:
        return {"status": "fail", "error": "equal-discount control produced a counterexample"}
    outcome = {"status": "pass", "x_values": [r.params["x"] for r in records]}
    if records:
        outcome["counterexample"] = records[0].to_doc()
    return outcome


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
    rec = tau_counterexample(mdp1, tau2, seed=_child_seeds(config.seed, trial, 71, 1)[0])
    if rec is None:
        return {"status": "fail", "error": "no verified counterexample for differing rows"}
    if tau_counterexample(mdp1, mdp1.transition, seed=config.seed) is not None:
        return {"status": "fail", "error": "identical-transition control produced a counterexample"}
    return {"status": "pass", "rows_changed": n_rows, "counterexample": rec.to_doc()}


def _mdp_misspec(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """Combined statement: both generators fire when allowed, never when excluded."""
    mdp = _draw_env(config, trial)
    seeds = _child_seeds(config.seed, trial, 80, n=3)
    rng = _substream(config.seed, trial, 81)
    if gamma_counterexample(mdp, 0.5, 0.9, seed=seeds[0]) is None:
        return {"status": "fail", "error": "gamma generator failed on a non-trivial MDP"}
    tau2 = mdp.transition.copy()
    tau2[0, 0] = rng.dirichlet(np.ones(mdp.n_states))
    if tau_counterexample(mdp, tau2, seed=seeds[1]) is None:
        return {"status": "fail", "error": "tau generator failed on differing rows"}
    trivial = mdp.with_transition(np.full_like(mdp.transition, 1.0 / mdp.n_states))
    excluded = (
        gamma_counterexample(mdp, 0.7, 0.7, seed=seeds[2]) is None
        and gamma_counterexample(trivial, 0.5, 0.9, seed=seeds[2]) is None
        and tau_counterexample(mdp, mdp.transition, seed=seeds[2]) is None
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
    r1 = random_reward(mdp, bounds=BOUNDS, seed=seeds[0], j_floor=1e-2)
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
    """The composite shaping that stays inside the S x A domain preserves the ordering."""
    rng = _substream(config.seed, trial, 110)
    mdp = _draw_env(config, trial)
    seeds = _child_seeds(config.seed, trial, 111, n=1)
    r = random_reward(mdp, domain="sa", bounds=BOUNDS, seed=seeds[0])
    phi = PotentialFn(rng.uniform(-BOUNDS, BOUNDS, size=mdp.n_states))
    shaped = shaping_on_sa_domain(phi, r, mdp)
    if shaped.domain != "sa":
        return {"status": "fail", "error": "output left the SA domain"}
    verdict = ord_equivalent(lift_reward(r), lift_reward(shaped), mdp)
    ok = verdict.equivalent and abs(verdict.certificate.c - 1.0) <= 1e-6
    return {"status": "pass" if ok else "fail"}


def _ex_transfer(config: ExperimentConfig, trial: int, searching: bool) -> dict:
    """The committed two-state pair: order-equivalent for every sampled transition
    function, yet inexpressible as scaling plus shaping alone."""
    r1, r2, n_states, n_actions = documents.load_transfer_pair()
    rng = _substream(config.seed, trial, 120)
    gamma = float(rng.uniform(0.3, 0.95))
    mdp = random_mdp(n_states, n_actions, gamma, _child_seeds(config.seed, trial, 121, 1)[0])
    verdict = ord_equivalent(r1, r2, mdp)
    if not verdict.equivalent:
        return {"status": "fail", "error": "transfer pair not order-equivalent"}
    if decompose_ps_ls(r1, r2, gamma) is not None:
        return {"status": "fail", "error": "scaling+shaping-only fit unexpectedly succeeded"}
    return {"status": "pass", "gamma": gamma, "c_fit": verdict.certificate.c}


# One row per claim, in report order: (trial function, default trials, the
# params keys it reads, the witness message of an existential claim). "gamma"
# fixes the discount of the drawn MDPs; LEM-GAMMA replaces that discount and
# EX-TRANSFER draws its own.
_REGISTRY = {
    "ORD-CHAR": (_ord_char, 200, ("gamma",), None),
    "BOLTZ-OPT": (
        _boltz_opt, 100, ("gamma", "probe_budget"), "no verified violation found within the probe budget"
    ),
    "BM-ORD": (_bm_ord, 100, ("gamma", "beta1", "beta2"), None),
    "OPT-MODEL": (_opt_model, 200, ("gamma",), "no class-swap violation found"),
    "MCE-ORD": (_mce_ord, 100, ("gamma",), None),
    "LEM-GAMMA": (_lem_gamma, 20, ("gamma_pairs",), None),
    "LEM-TAU": (_lem_tau, 20, ("gamma",), None),
    "MDP-MISSPEC": (_mdp_misspec, 8, ("gamma",), None),
    "OCC-INJ": (_occ_inj, 100, ("gamma",), None),
    "J-AMB": (_j_amb, 100, ("gamma",), None),
    "CONTROL": (_control, 200, ("gamma",), None),
    "EX-SA-SHAPING": (_ex_sa_shaping, 100, ("gamma",), None),
    "EX-TRANSFER": (_ex_transfer, 10, (), None),
}
DEFAULT_TRIALS = {cid: trials for cid, (_, trials, _, _) in _REGISTRY.items()}
CLAIM_PARAMS = {cid: keys for cid, (_, _, keys, _) in _REGISTRY.items()}
CLAIMS = {cid: partial(_run_trials, trial=t, witness=w) for cid, (t, _, _, w) in _REGISTRY.items()}
CLAIM_ORDER = list(CLAIMS)


def verify_claim(config: ExperimentConfig) -> TrialReport:
    """Run one registered claim.

    Unknown ids raise UnknownClaimError; a params key the claim does not read,
    or an ill-typed value, raises StructuralError.
    """
    if config.claim_id not in CLAIMS:
        raise UnknownClaimError(
            f"unknown claim {config.claim_id!r}; registered: {', '.join(CLAIM_ORDER)}"
        )
    _check_params(config.params, CLAIM_PARAMS[config.claim_id], config.claim_id)
    return CLAIMS[config.claim_id](config)


def run_registry(seed: int, trials: int = 0, params: dict | None = None) -> list[TrialReport]:
    """Run every registered claim at its default size with the given seed.

    Every claim sees the same ``params``; each key must be one that some
    claim reads (see CLAIM_PARAMS), or StructuralError is raised.
    """
    params = dict(params or {})
    _check_params(params, PARAM_TYPES, "any claim")
    return [
        CLAIMS[cid](ExperimentConfig(claim_id=cid, trials=trials, seed=seed, params=params))
        for cid in CLAIM_ORDER
    ]
