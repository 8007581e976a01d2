"""Workload inputs and their ground truth, built from numpy alone.

Nothing here imports rewardlab, so a change to the program's samplers,
rejection floors or tolerances cannot change what is measured or what counts
as a correct answer. Every expected verdict is either correct by construction
(positive scaling, potential shaping, S'-redistribution and
optimality-preserving rewrites, which the paper proves harmless) or carries an
explicit witness checked here with exact linear solves:

* ord negative: two policies (stochastic ones allowed) whose J order flips by
  a wide margin. Rank agreement over deterministic policies alone is never
  used, because it can coincide by chance for inequivalent rewards;
* jeq negative: one policy whose J differs by a wide margin;
* opt negative: one state whose optimal-action sets differ, with both rewards'
  optimal-action gaps far above any tie tolerance.

Solver references are exact solves of the Bellman policy equations and the
occupancy flow equations; optimal and soft-optimal values are checked later by
their Bellman residuals, which bound the error by residual / (1 - gamma).
"""

from __future__ import annotations

import hashlib

import numpy as np

# A^S bands of the decide workload; rewardlab's brute-force cross-check runs
# up to 1024 deterministic policies.
UNDER_CAP_SHAPES = [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (5, 3)]
NEAR_CAP_SHAPES = [(6, 3), (5, 4), (9, 2), (10, 2), (4, 5)]
ABOVE_CAP_SHAPES = [(11, 2), (7, 3), (6, 4), (12, 3), (16, 4), (24, 3), (32, 5), (40, 4)]
BAND_SHAPES = {"under_cap": UNDER_CAP_SHAPES, "near_cap": NEAR_CAP_SHAPES, "above_cap": ABOVE_CAP_SHAPES}

# One decide cycle: (band, relation) pairs. ord/jeq outweigh opt so the
# deciders, not the value-iteration solvers, hold most of the time. The
# under_cap ord queries fill the middle of the latency order (30%-70%), so the
# median sits inside one class of queries rather than on a boundary between
# two, where it would jump with small timing shifts.
DECIDE_CYCLE = (
    [("under_cap", r) for r in ("ord", "jeq", "ord", "ord", "opt", "ord", "jeq", "ord", "ord",
                                "ord", "ord")]
    + [("near_cap", r) for r in ("ord", "jeq", "ord", "opt")]
    + [("above_cap", r) for r in ("ord", "jeq", "opt", "jeq", "ord")]
)
DECIDE_CYCLES = 12
# Discounts are cycled, not drawn, so value-iteration lengths do not vary by seed.
DECIDE_GAMMAS = (0.6, 0.85, 0.95)

POSITIVE_KINDS = {"ord": ["chain"], "jeq": ["chain0"], "opt": ["op", "chain"]}
NEGATIVE_KINDS = {
    "ord": ["independent", "reversed"],
    "jeq": ["independent", "shift", "scale"],
    "opt": ["independent", "swap"],
}

OPT_GAP = 1e-3       # optimal-action gap demanded of every opt-query reward
SLACK_MIN = 1e-2     # smallest slack of an optimality-preserving rewrite
WITNESS_MARGIN = 1e-3  # J margins of witnesses, relative to max(1, |J|)
N_BATTERY = 48       # stochastic policies searched for ord/jeq witnesses

# solve-large: (S, A, gamma) of the instances, and one cycle of operations.
# Twenty sizes from S=60 to S=150, plus the S=100, A=8 case where policy
# iteration once measured slower than value iteration. With this many
# distinct sizes the value-iteration latencies form a continuum, so the median
# and the p90 do not sit on a gap between two sizes.
SOLVE_SHAPES = [(60 + round(90 * i / 19), (2, 4, 6, 8)[i % 4], (0.97, 0.98, 0.99)[i % 3])
                for i in range(20)] + [(100, 8, 0.99)]
CONTROL_SHAPES = [(20, 2), (24, 3), (30, 4)]
SOLVE_CYCLE = ["optimal", "soft", "evaluate", "optimal", "soft", "occupancy", "optimal", "soft",
               "evaluate", "controllable"]
SOLVE_ALPHAS = [0.5, 1.0, 2.0]


def dense_mdp(rng, n_states: int, n_actions: int):
    """Full-support Dirichlet transitions and initial distribution."""
    tau = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    mu0 = rng.dirichlet(np.ones(n_states))
    return tau, mu0


def expected_rewards(tau, r):
    """r[s, a] = E_{S' ~ tau(s, a)} R(s, a, S')."""
    return np.einsum("sap,sap->sa", tau, r)


def policy_values(tau, gamma, rsa, probs):
    """Exact V^pi for an (N, S, A) batch of policies."""
    n = tau.shape[0]
    t_pi = np.einsum("nsa,sap->nsp", probs, tau)
    r_pi = (probs * rsa[None]).sum(axis=2)
    return np.linalg.solve(np.eye(n)[None] - gamma * t_pi, r_pi[:, :, None])[:, :, 0]


def state_weights(tau, mu0, gamma, probs):
    """Discounted state visitation w solving w = mu0 + gamma * T_pi' w."""
    t_pi = np.einsum("sa,sap->sp", probs, tau)
    return np.linalg.solve(np.eye(tau.shape[0]) - gamma * t_pi.T, mu0)


def optimal_q(tau, gamma, rsa):
    """Q* by Howard policy iteration with exact solves; switches only on strict gain."""
    n = tau.shape[0]
    idx = np.arange(n)
    act = rsa.argmax(axis=1)
    for _ in range(10_000):
        v = np.linalg.solve(np.eye(n) - gamma * tau[idx, act], rsa[idx, act])
        q = rsa + gamma * (tau @ v)
        best = q.max(axis=1)
        improve = q[idx, act] < best - 1e-12 * max(1.0, float(np.abs(best).max()))
        if not improve.any():
            residual = float(np.abs(best - v).max())
            if residual > 1e-9 * max(1.0, float(np.abs(v).max())):
                raise ArithmeticError(f"policy iteration residual {residual:.3e}")
            return q
        act = np.where(improve, q.argmax(axis=1), act)
    raise ArithmeticError("policy iteration did not stabilise")


def opt_sets_and_gap(q):
    """Optimal-action sets (within 1e-9 of the max) and the smallest losing margin."""
    best = q.max(axis=1, keepdims=True)
    adv = q - best
    scale = max(1.0, float(np.abs(best).max()))
    member = adv >= -1e-9 * scale
    losing = np.where(member, -np.inf, adv)
    gap = float(-losing.max()) if np.isfinite(losing).any() else np.inf
    return [frozenset(np.flatnonzero(row).tolist()) for row in member], gap


def _battery(rng, n_states, n_actions):
    return rng.dirichlet(np.ones(n_actions), size=(N_BATTERY, n_states))


def ord_flip_witness(tau, mu0, gamma, r1, r2, battery):
    """Indices (i, k) with J1_i > J1_k and J2_i < J2_k by a wide margin, or None."""
    j1 = policy_values(tau, gamma, expected_rewards(tau, r1), battery) @ mu0
    j2 = policy_values(tau, gamma, expected_rewards(tau, r2), battery) @ mu0
    margin = WITNESS_MARGIN * max(1.0, float(np.abs(j1).max()), float(np.abs(j2).max()))
    d1 = j1[:, None] - j1[None, :]
    d2 = j2[:, None] - j2[None, :]
    score = np.minimum(d1, -d2)
    i, k = np.unravel_index(int(np.argmax(score)), score.shape)
    if score[i, k] < margin:
        return None
    return {"kind": "policy-pair", "i": int(i), "k": int(k),
            "j1": [float(j1[i]), float(j1[k])], "j2": [float(j2[i]), float(j2[k])]}


def j_gap_witness(tau, mu0, gamma, r1, r2, battery):
    """Index of a policy whose J differs between r1 and r2 by a wide margin, or None."""
    j1 = policy_values(tau, gamma, expected_rewards(tau, r1), battery) @ mu0
    j2 = policy_values(tau, gamma, expected_rewards(tau, r2), battery) @ mu0
    margin = WITNESS_MARGIN * max(1.0, float(np.abs(j1).max()), float(np.abs(j2).max()))
    gaps = np.abs(j1 - j2)
    i = int(np.argmax(gaps))
    if gaps[i] < margin:
        return None
    return {"kind": "policy", "i": i, "j_gap": float(gaps[i])}


def shaped(r, gamma, phi):
    return r + gamma * phi[None, None, :] - phi[:, None, None]


def redistributed(rng, tau, r, magnitude):
    """Add noise with zero tau-weighted mean on every (s, a) row."""
    u = rng.uniform(-magnitude, magnitude, size=r.shape)
    u -= np.einsum("sap,sap->sa", tau, u)[:, :, None]
    return r + u


def opt_rewrite(tau, gamma, sets, psi, slack):
    """Reward whose V* is psi and whose optimal-action sets are exactly ``sets``."""
    n, k = slack.shape
    off = np.ones((n, k), dtype=bool)
    for s, acts in enumerate(sets):
        off[s, sorted(acts)] = False
    rsa = psi[:, None] - gamma * (tau @ psi) + np.where(off, slack, 0.0)
    return np.repeat(rsa[:, :, None], n, axis=2)


def _gapped_reward(rng, tau, gamma, n, k):
    """A uniform [-1, 1] reward whose optimal-action gap exceeds OPT_GAP (oracle-side)."""
    for _ in range(1000):
        r = rng.uniform(-1.0, 1.0, size=(n, k, n))
        sets, gap = opt_sets_and_gap(optimal_q(tau, gamma, expected_rewards(tau, r)))
        if gap >= OPT_GAP and all(len(s) == 1 for s in sets):
            return r, sets
    raise ArithmeticError("no gapped reward drawn")


def _decide_query(rng, band, shape, gamma, relation, positive, kind):
    n, k = shape
    tau, mu0 = dense_mdp(rng, n, k)
    q = {"band": band, "relation": relation, "expected": positive, "kind": kind,
         "tau": tau, "mu0": mu0, "gamma": gamma, "steps": None, "witness": None, "c": None}
    battery = _battery(rng, n, k)
    if relation == "opt":
        r1, sets1 = _gapped_reward(rng, tau, gamma, n, k)
    else:
        r1 = rng.uniform(-1.0, 1.0, size=(n, k, n))
    q["r1"] = r1

    if positive:
        if kind == "chain":
            c = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
            phi = rng.uniform(-1.0, 1.0, size=n)
            names = ["ls", "ps", "sr"] if relation == "ord" else ["ls", "ps"]
            order = [names[i] for i in rng.permutation(len(names))]
            cur, steps = r1, []
            for name in order:
                if name == "ls":
                    cur = c * cur
                    steps.append(("ls", c))
                elif name == "ps":
                    cur = shaped(cur, gamma, phi)
                    steps.append(("ps", phi))
                else:
                    cur = redistributed(rng, tau, cur, 1.0)
                    steps.append(("sr", cur))
            q["c"] = c
        elif kind == "chain0":
            phi = rng.uniform(-1.0, 1.0, size=n)
            phi -= mu0 @ phi
            cur = shaped(r1, gamma, phi)
            steps = [("ps", phi)]
            cur = redistributed(rng, tau, cur, 1.0)
            steps.append(("sr", cur))
        else:  # op: optimality-preserving rewrite onto r1's own optimal sets
            psi = rng.uniform(-1.0, 1.0, size=n)
            slack = -rng.uniform(SLACK_MIN, 1.0, size=(n, k))
            cur = opt_rewrite(tau, gamma, sets1, psi, slack)
            steps = [("op", psi, slack)]
        q["r2"], q["steps"] = cur, steps
        return q

    for _ in range(100):
        if kind == "independent":
            if relation == "opt":
                r2, sets2 = _gapped_reward(rng, tau, gamma, n, k)
            else:
                r2 = rng.uniform(-1.0, 1.0, size=(n, k, n))
        elif kind == "reversed":
            c = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
            r2 = shaped(-c * r1, gamma, rng.uniform(-1.0, 1.0, size=n))
        elif kind == "shift":
            phi = rng.uniform(-1.0, 1.0, size=n)
            phi += np.sign(mu0 @ phi or 1.0) * 0.1 - mu0 @ phi  # mu0 . phi = +-0.1
            r2 = shaped(r1, gamma, phi)
        elif kind == "scale":
            c = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
            if abs(c - 1.0) < 0.1:
                continue
            r2 = c * r1
        else:  # swap: rewrite r1's optimal sets with a different action at one state
            s = int(rng.integers(n))
            sets2 = list(sets1)
            sets2[s] = frozenset({int((min(sets1[s]) + 1 + rng.integers(k - 1)) % k)})
            psi = rng.uniform(-1.0, 1.0, size=n)
            slack = -rng.uniform(SLACK_MIN, 1.0, size=(n, k))
            r2 = opt_rewrite(tau, gamma, sets2, psi, slack)

        if relation == "ord":
            witness = ord_flip_witness(tau, mu0, gamma, r1, r2, battery)
        elif relation == "jeq":
            witness = j_gap_witness(tau, mu0, gamma, r1, r2, battery)
        else:
            states = [s for s in range(n) if sets1[s] != sets2[s]]
            witness = {"kind": "state", "state": states[0]} if states else None
        if witness is not None:
            q["r2"], q["witness"] = r2, witness
            return q
    raise ArithmeticError(f"no witnessed {relation} negative ({kind}) at shape {shape}")


def decide_queries(seed: int) -> list[dict]:
    """The decide stream: DECIDE_CYCLES repetitions of DECIDE_CYCLE, seeded by ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    shape_at = {band: 0 for band in BAND_SHAPES}
    seen = {}  # (band, relation) -> occurrences so far, drives polarity and kind
    queries = []
    for _ in range(DECIDE_CYCLES):
        for band, relation in DECIDE_CYCLE:
            shapes = BAND_SHAPES[band]
            shape = shapes[shape_at[band] % len(shapes)]
            gamma = DECIDE_GAMMAS[shape_at[band] % len(DECIDE_GAMMAS)]
            shape_at[band] += 1
            m = seen.get((band, relation), 0)
            seen[(band, relation)] = m + 1
            positive = m % 2 == 0
            kinds = (POSITIVE_KINDS if positive else NEGATIVE_KINDS)[relation]
            kind = kinds[(m // 2) % len(kinds)]
            queries.append(_decide_query(rng, band, shape, gamma, relation, positive, kind))
    return queries


def solve_instances(seed: int) -> dict:
    """solve-large instances with exact references for V^pi and occupancy."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
    large = []
    for i, (n, k, gamma) in enumerate(SOLVE_SHAPES):
        tau, mu0 = dense_mdp(rng, n, k)
        r = rng.uniform(-1.0, 1.0, size=(n, k, n))
        pi = rng.dirichlet(np.ones(k), size=n)
        rsa = expected_rewards(tau, r)
        v_ref = policy_values(tau, gamma, rsa, pi[None])[0]
        w_ref = state_weights(tau, mu0, gamma, pi)
        large.append({"tau": tau, "mu0": mu0, "gamma": gamma, "r": r, "pi": pi, "rsa": rsa,
                      "alpha": SOLVE_ALPHAS[i % len(SOLVE_ALPHAS)], "v_ref": v_ref,
                      "q_ref": rsa + gamma * (tau @ v_ref), "d_ref": w_ref[:, None] * pi})
    control = []
    for i, (n, k) in enumerate(CONTROL_SHAPES):
        gamma = float(rng.uniform(0.8, 0.95))
        trivial = i % 2 == 1
        for _ in range(100):
            tau, mu0 = dense_mdp(rng, n, k)
            if trivial:
                # Every action shares one successor row: T_pi, hence the entry
                # measure, is the same for every policy.
                tau = np.repeat(tau[:, :1, :], k, axis=1)
                expected = frozenset()
                break
            # Each state needs a witness: two policies whose entry measures at
            # it differ by far more than any tolerance.
            battery = _battery(rng, n, k)
            w = np.stack([state_weights(tau, mu0, gamma, p) for p in battery])
            spread = w.max(axis=0) - w.min(axis=0)
            if spread.min() >= 1e-6:
                expected = frozenset(range(n))
                break
        else:
            raise ArithmeticError("no witnessed controllable instance")
        control.append({"tau": tau, "mu0": mu0, "gamma": gamma, "expected": expected})
    return {"large": large, "control": control}


def digest(obj) -> str:
    """sha256 over every array and scalar in a nested input structure, in order."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for key in sorted(x):
                h.update(str(key).encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
            h.update(b"]")
        elif isinstance(x, np.ndarray):
            h.update(str(x.shape).encode())
            h.update(np.ascontiguousarray(x, dtype=float).tobytes())
        elif isinstance(x, frozenset):
            h.update(repr(sorted(x)).encode())
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()
