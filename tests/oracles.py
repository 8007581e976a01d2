"""Independent oracles and input generators for the test suite.

Everything here is deliberately primitive: truncated power series, plain
value-iteration sweeps, exhaustive enumeration, Monte-Carlo rollouts and one
least-squares fit written out from its definition, no other linear solves and
no reuse of library internals.
The library's exact solvers are checked against these, never the other way
round. One function is the exception: prefix_major_vertex_j keeps the
library's earlier vertex elimination, as the bitwise reference for the
layout solve.vertex_j uses now; chord_oracle decides ord and jeq exactly
from its J tables, as the reference for the deciders' own checks. The
generators draw what the library's own do not: sparse MDPs and rewards
without the advantage-gap floor.
"""

import itertools
import math

import numpy as np

from rewardlab import Mdp, RewardTable, validate_mdp
from rewardlab.errors import GenerationError

SPARSE_TRIES = 100  # rejection-sampling budget of sparse_mdp


def sparse_mdp(n_states, n_actions, gamma, seed, sparsity):
    """Dirichlet-sampled MDP whose (s, a) rows keep each successor with probability
    1 - ``sparsity`` (at least one), redrawn until every state is reachable.

    At ``sparsity`` 0 this is lab.random_mdp, draw for draw.
    """
    rng = np.random.default_rng(seed)
    for _ in range(SPARSE_TRIES):
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
    raise GenerationError(f"no valid MDP after {SPARSE_TRIES} tries (sparsity={sparsity})")


def uniform_reward(mdp, seed):
    """(S, A, S) reward uniform in [-1, 1], with no floor: lab.random_reward's first draw."""
    rng = np.random.default_rng(seed)
    return RewardTable(rng.uniform(-1.0, 1.0, size=mdp.transition.shape))


def horizon_for(gamma: float, target: float = 1e-12) -> int:
    """Truncation horizon making the geometric tail below ``target`` times the largest |reward|.

    The tail after h steps is at most gamma^h * rmax / (1 - gamma), so the
    horizon depends on gamma alone and a series scales with its reward.
    """
    h = math.log(target * (1.0 - gamma)) / math.log(gamma)
    return max(int(h) + 1, 1)


def truncated_values(mdp, r, probs, horizon):
    """V^pi by the power series sum_{t < h} P^t r^pi, P = gamma*T^pi, for h = ``horizon``
    rounded up to a power of two.

    The series is summed by doubling, sum_{t < 2h} P^t r = (I + P^h) sum_{t < h} P^t r,
    so a horizon of 2^m costs m steps. ``probs`` is one (S, A) policy or an
    (N, S, A) stack, summed side by side.
    """
    power = mdp.discount * np.einsum("...sa,sap->...sp", probs, mdp.transition)
    rsa = np.einsum("sap,sap->sa", mdp.transition, r.values)
    v = (probs * rsa).sum(axis=-1)
    for _ in range(math.ceil(math.log2(horizon))):
        v = v + (power @ v[..., None])[..., 0]
        power = power @ power
    return v


def value_iteration(mdp, r, tol=1e-13, max_iter=10**6):
    """V* by sweeping v <- max_a [r(s,a) + gamma * tau(s,a,.) . v] until an update is <= tol."""
    rsa = np.einsum("sap,sap->sa", mdp.transition, r.values)
    v = np.zeros(mdp.n_states)
    for _ in range(max_iter):
        v_new = (rsa + mdp.discount * (mdp.transition @ v)).max(axis=1)
        delta = np.abs(v_new - v).max()
        v = v_new
        if delta <= tol:
            return v
    raise ArithmeticError(f"value iteration did not reach {tol} in {max_iter} sweeps")


def soft_value_iteration(mdp, r, alpha, tol=1e-13, max_iter=10**6):
    """Soft V* by sweeping v <- alpha * logsumexp_a(q / alpha), max-subtracted per state."""
    rsa = np.einsum("sap,sap->sa", mdp.transition, r.values)
    v = np.zeros(mdp.n_states)
    for _ in range(max_iter):
        q = rsa + mdp.discount * (mdp.transition @ v)
        m = q.max(axis=1)
        v_new = m + alpha * np.log(np.exp((q - m[:, None]) / alpha).sum(axis=1))
        delta = np.abs(v_new - v).max()
        v = v_new
        if delta <= tol:
            return v
    raise ArithmeticError(f"soft value iteration did not reach {tol} in {max_iter} sweeps")


def truncated_j(mdp, r, probs, horizon=None):
    if horizon is None:
        horizon = horizon_for(mdp.discount)
    return float(mdp.initial @ truncated_values(mdp, r, probs, horizon))


def _state_visitation(mdp, probs, horizon):
    """sum_{t < h} mu0 P^t, P = gamma*T^pi, for h = ``horizon`` rounded up to a power of two,
    summed by doubling as in truncated_values. ``probs`` is one (S, A) policy or an (N, S, A) stack."""
    power = mdp.discount * np.einsum("...sa,sap->...sp", probs, mdp.transition)
    w = np.broadcast_to(mdp.initial, probs.shape[:-1])
    for _ in range(math.ceil(math.log2(horizon))):
        w = w + (w[..., None, :] @ power)[..., 0, :]
        power = power @ power
    return w


def truncated_occupancy(mdp, probs, horizon=None):
    """d[s,a] = sum_t gamma^t P(S_t = s, A_t = a), from the truncated state visitation."""
    if horizon is None:
        horizon = horizon_for(mdp.discount)
    return _state_visitation(mdp, probs, horizon)[:, None] * probs


def all_deterministic_policies(n_states, n_actions):
    """Every deterministic policy as an actions tuple, itertools order (s0-major)."""
    return list(itertools.product(range(n_actions), repeat=n_states))


def one_hot(actions, n_actions):
    p = np.zeros((len(actions), n_actions))
    for s, a in enumerate(actions):
        p[s, a] = 1.0
    return p


def one_hot_batch(mdp):
    """Every deterministic policy as an (A^S, S, A) one-hot stack, s0-major."""
    policies = all_deterministic_policies(mdp.n_states, mdp.n_actions)
    return np.stack([one_hot(actions, mdp.n_actions) for actions in policies])


def brute_force_j_table(mdp, r, horizon=None):
    """J of every deterministic policy, in s0-major order, from one stacked power series."""
    if horizon is None:
        horizon = horizon_for(mdp.discount)
    return (truncated_values(mdp, r, one_hot_batch(mdp), horizon) @ mdp.initial).tolist()


def prefix_major_vertex_j(mdp, rv):
    """J at every deterministic policy (s0-major) of each reward vector in rv (K, S, A), by the
    library's prefix-shared elimination with the branch axis first: the layout solve.vertex_j
    used before it moved that axis last. Same pivots, same operations, so its bits are the
    reference for vertex_j's."""
    n, k = mdp.n_states, mdp.n_actions
    m = len(rv)
    g = np.zeros((1, n * k + 1, n + m))  # (shared action prefixes, (state, action) rows + J row, v | rv)
    g[0, :-1, :n] = np.repeat(np.eye(n), k, axis=0) - mdp.discount * mdp.transition.reshape(n * k, n)
    g[0, :-1, n:] = rv.reshape(m, n * k).T
    g[0, -1, :n] = -mdp.initial
    for _ in range(n):
        piv = g[:, :k, 1:] / g[:, :k, :1]
        rest = g[:, None, k:]
        new = rest[..., :1] * piv[:, :, None]
        g = np.subtract(rest[..., 1:], new, out=new).reshape(-1, new.shape[2], new.shape[3])
    return g[:, 0]


def chord(j1, j2):
    """J1's span, each vertex's J2 deviation from the chord through the extreme J1 vertices, and its rise.

    Ties in J1 are broken by J2, so a vertex level with the lowest never lies
    below the chord and one level with the highest never above it.
    """
    lows, highs = ((j1 == j1[i]).nonzero()[0] for i in (j1.argmin(), j1.argmax()))
    lo, hi = lows[j2[lows].argmin()], highs[j2[highs].argmax()]
    span = j1[hi] - j1[lo]
    t = (j1 - j1[lo]) / span if span > 0 else np.zeros_like(j1)
    rise = j2[hi] - j2[lo]
    return span, j2 - j2[lo] - t * rise, rise


CHORD_SURE, CHORD_FAR = 1e-9, 1e-4  # chord_oracle's relative gaps for a sure yes and a sure no


def chord_oracle(mdp, r1, r2, relation):
    """The exact vertex oracle's ord or jeq verdict: True, False, or None when the gap is between
    CHORD_SURE and CHORD_FAR.

    J is linear in the occupancy measure, whose polytope has the deterministic
    policies as vertices, so relations on J hold everywhere iff they hold at every
    vertex (J from prefix_major_vertex_j). ord: J2 is a positive affine function of
    J1, measured off the chord through the extreme J1 vertices as a fraction of J2's
    spread, or both tables are flat (a spread within CHORD_SURE of their size).
    jeq: J1 = J2, as a fraction of the larger |J|. Both gaps are unitless. The ord
    gap is blind to shaping, which moves every J by one constant; that constant
    enlarges |J|, so heavy shaping with a nonzero mean under mu0 leaves the jeq
    oracle silent more often.
    """
    rv = np.stack([np.einsum("sap,sap->sa", mdp.transition, r.values) for r in (r1, r2)])
    j1, j2 = prefix_major_vertex_j(mdp, rv).T
    if relation == "jeq":
        size = max(np.abs(j1).max(), np.abs(j2).max())
        gap = np.abs(j1 - j2).max() / size if size > 0 else 0.0
    else:
        flat1, flat2 = (np.ptp(j) <= CHORD_SURE * np.abs(j).max() for j in (j1, j2))
        if flat1 or flat2:
            gap = 0.0 if flat1 and flat2 else 1.0
        else:
            _, dev, rise = chord(j1, j2)
            gap = max(np.abs(dev).max(), -rise) / np.ptp(j2)
    return True if gap <= CHORD_SURE else False if gap >= CHORD_FAR else None


def vertex_entry_spread(mdp):
    """Per-state spread of the discounted entry measure sum_{t>=1} gamma^t P(S_t = s) over
    every deterministic policy, from each policy's truncated state visitation."""
    entry = _state_visitation(mdp, one_hot_batch(mdp), horizon_for(mdp.discount)) - mdp.initial
    return entry.max(axis=0) - entry.min(axis=0)


def brute_force_opt_sets(mdp, r, tol=1e-9):
    """Per-state optimal-action sets: union of the choices of argmax-J policies.

    Policies tie with the best within ``tol`` times the largest |J|, so the sets
    do not depend on the reward's unit.
    """
    policies = all_deterministic_policies(mdp.n_states, mdp.n_actions)
    js = brute_force_j_table(mdp, r)
    best = max(js)
    floor = tol * max(abs(j) for j in js)
    winners = [p for p, j in zip(policies, js) if j >= best - floor]
    return tuple(frozenset(p[s] for p in winners) for s in range(mdp.n_states))


POINTWISE_RTOL = 1e-9  # pointwise_fit accepts a misfit up to this fraction of |r2|


def pointwise_fit(r1, r2, gamma):
    """Fit r2 = c*r1 + gamma*phi(s') - phi(s) entry by entry over the (S, A, S') tensors.

    Least squares against r1 and, for each state t, the column
    gamma*[s' = t] - [s = t]. Returns c when the fit holds (c > 0 and a misfit
    within POINTWISE_RTOL of |r2|), else None.
    """
    n, k, _ = r1.values.shape
    s, _, s_next = np.indices((n, k, n))
    columns = [r1.values.ravel()] + [(gamma * (s_next == t) - (s == t)).ravel() for t in range(n)]
    design = np.stack(columns, axis=1)
    x = np.linalg.lstsq(design, r2.values.ravel(), rcond=None)[0]
    misfit = np.linalg.norm(design @ x - r2.values.ravel())
    return float(x[0]) if x[0] > 0 and misfit <= POINTWISE_RTOL * np.linalg.norm(r2.values) else None


def softmax_by_hand(row):
    m = max(row)
    exps = [math.exp(z - m) for z in row]
    total = sum(exps)
    return [e / total for e in exps]


def truncation_bias(mdp, r, horizon):
    """Upper bound on |J - E[truncated return]| for a rollout cut at ``horizon``."""
    rmax = float(np.abs(r.values).max())
    return mdp.discount**horizon * rmax / (1.0 - mdp.discount)


def mc_return(mdp, r, pi, horizon, n, seed):
    """Monte-Carlo estimate of J from n truncated rollouts; deterministic in seed."""
    rng = np.random.default_rng(seed)
    gamma = mdp.discount
    cdf_pi = np.cumsum(pi.probs, axis=1)
    cdf_tau = np.cumsum(mdp.transition, axis=2)

    states = np.searchsorted(np.cumsum(mdp.initial), rng.random(n), side="right")
    states = np.minimum(states, mdp.n_states - 1)
    totals = np.zeros(n)
    disc = 1.0
    for _ in range(horizon):
        u = rng.random(n)
        acts = (u[:, None] > cdf_pi[states]).sum(axis=1)
        acts = np.minimum(acts, mdp.n_actions - 1)
        u = rng.random(n)
        nxt = (u[:, None] > cdf_tau[states, acts]).sum(axis=1)
        nxt = np.minimum(nxt, mdp.n_states - 1)
        totals += disc * r.values[states, acts, nxt]
        disc *= gamma
        states = nxt
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, stderr
