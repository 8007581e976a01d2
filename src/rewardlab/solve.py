"""Exact solvers: values, optimal values, soft values, occupancies, controllability.

Every value comes from a direct dense solve of (I - gamma*T^pi) v = r^pi (at
most S unknowns, strictly diagonally dominant for gamma < 1), so policy
evaluation and occupancies carry no iteration error. The optimal and
entropy-regularized optima are found by policy iteration on top of that solve:
Howard's algorithm for the hard Bellman equation, and soft policy iteration
(Newton's method on v = alpha*logsumexp(q/alpha)) for the soft one. Where the
exact policy value still misses ``tol`` (round-off at large |v|, or a near-tie
finer than Howard's switch margin), Bellman sweeps settle it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .mdp import (
    DEFAULT_ENUM_CAP,
    ActionSetPolicy,
    Mdp,
    RewardTable,
    StochasticPolicy,
    enumerate_action_tuples,
)

DEFAULT_TOL = 1e-10       # Bellman residual the optimisers must reach
MAX_ITER = 1000           # policy-iteration steps (evaluate, then improve)
SOLVE_RTOL = 1e-10        # round-off bound on an exact solve's residual, relative to max(1, |v|)
IMPROVE_RTOL = 1e-12      # strict-improvement margin of Howard's switch, relative to max(1, |v|)
SETTLE_SWEEPS = 10**6     # cap on the Bellman sweeps that settle a residual left above tol
TIE_TOL = 1e-8            # membership tolerance for optimal-action sets, relative to the largest |a*|
CONTROL_ATOL = 1e-9       # entry-measure spread above which a state counts as controllable
CONTROL_ENUM_CAP = 4096   # controllability enumerates policies up to here
CONTROL_SAMPLES = 512     # random policies used beyond the cap


@dataclass(frozen=True)
class ValueBundle:
    v: np.ndarray   # (S,)
    q: np.ndarray   # (S, A)
    j: float


@dataclass(frozen=True)
class OptimalBundle:
    q_star: np.ndarray      # (S, A)
    v_star: np.ndarray      # (S,)
    a_star: np.ndarray      # (S, A), <= 0
    opt_sets: ActionSetPolicy
    residual: float


@dataclass(frozen=True)
class SoftBundle:
    q_soft: np.ndarray  # (S, A)
    v_soft: np.ndarray  # (S,)
    alpha: float
    residual: float


@dataclass(frozen=True)
class OccupancyVector:
    """Discounted state-action visitation d[s,a]; sums to 1/(1-gamma)."""

    d: np.ndarray  # (S, A)


@dataclass(frozen=True)
class ControllableStates:
    """Set-like result of controllable_states; ``sampled`` flags the fallback path."""

    states: frozenset
    sampled: bool = False

    def __contains__(self, s) -> bool:
        return int(s) in self.states

    def __iter__(self):
        return iter(sorted(self.states))

    def __len__(self) -> int:
        return len(self.states)

    def __bool__(self) -> bool:
        return bool(self.states)


def reward_vector(r: RewardTable, mdp: Mdp) -> np.ndarray:
    """Expected immediate reward per (s, a): r[s,a] = E_{S'~tau(s,a)}[R(s,a,S')], shape (S, A)."""
    return np.einsum("sap,sap->sa", mdp.transition, r.values)


def _policy_values(mdp: Mdp, probs: np.ndarray, r_pi: np.ndarray) -> np.ndarray:
    """Exact v = r_pi + gamma*T^pi v for the (S, A) policy ``probs`` by one dense solve."""
    gamma = mdp.discount
    t_pi = np.einsum("sa,sap->sp", probs, mdp.transition)
    v = np.linalg.solve(np.eye(mdp.n_states) - gamma * t_pi, r_pi)
    residual = float(np.abs(v - (r_pi + gamma * (t_pi @ v))).max())
    if residual > SOLVE_RTOL * max(1.0, float(np.abs(v).max())):
        raise ConvergenceError("policy evaluation residual too large", residual=residual)
    return v


def policy_evaluate(mdp: Mdp, r: RewardTable, pi: StochasticPolicy) -> ValueBundle:
    """Exact V^pi, Q^pi, and J via the (I - gamma*T^pi) linear system."""
    rsa = reward_vector(r, mdp)
    v = _policy_values(mdp, pi.probs, (pi.probs * rsa).sum(axis=1))
    q = rsa + mdp.discount * (mdp.transition @ v)
    return ValueBundle(v=v, q=q, j=float(mdp.initial @ v))


def _settle(bellman, v: np.ndarray, residual: float, gamma: float, tol: float):
    """Sweep v <- bellman(v) until one sweep moves v by at most ``tol``; return (q, v, residual).

    ``v`` is a policy's exact value, which lies at or below the fixed point;
    starting 2*residual/(1-gamma) lower keeps the sweeps below it despite
    round-off. Both Bellman operators are monotone, so the sweeps rise towards
    the fixed point and, like value iteration from zero, stop on a
    floating-point fixed point once round-off dominates.
    """
    v = v - 2.0 * residual / (1.0 - gamma)
    for _ in range(SETTLE_SWEEPS):
        q, v_new = bellman(v)
        residual = float(np.abs(v_new - v).max())
        if residual <= tol:
            return q, v_new, residual
        v = v_new
    raise ConvergenceError(
        f"Bellman residual {residual:.3e} above tol={tol} after {SETTLE_SWEEPS} sweeps",
        residual=residual,
        iterations=SETTLE_SWEEPS,
    )


def optimal_values(
    mdp: Mdp,
    r: RewardTable,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
) -> OptimalBundle:
    """Howard policy iteration from the greedy policy on r, with tie-tolerant argmax sets.

    A state switches action only on a strict improvement, so the iteration
    cannot cycle; it stops when no state improves. Raises ConvergenceError if
    that takes more than ``max_iter`` steps, or if the Bellman residual still
    exceeds ``tol`` after settling (see _settle).
    """
    gamma = mdp.discount
    rsa = reward_vector(r, mdp)
    states = np.arange(mdp.n_states)
    one_hot = np.eye(mdp.n_actions)
    act = rsa.argmax(axis=1)
    for _ in range(max_iter):
        v = _policy_values(mdp, one_hot[act], rsa[states, act])
        q_star = rsa + gamma * (mdp.transition @ v)
        v_star = q_star.max(axis=1)
        residual = float(np.abs(v_star - v).max())
        margin = IMPROVE_RTOL * max(1.0, float(np.abs(v).max()))
        improve = q_star[states, act] < v_star - margin
        if not improve.any():
            break
        act = np.where(improve, q_star.argmax(axis=1), act)
    else:
        raise ConvergenceError(
            f"policy iteration still improving after {max_iter} steps",
            residual=residual,
            iterations=max_iter,
        )
    if residual > tol:

        def bellman(u):
            q = rsa + gamma * (mdp.transition @ u)
            return q, q.max(axis=1)

        q_star, v_star, residual = _settle(bellman, v, residual, gamma, tol)
    a_star = q_star - v_star[:, None]
    # Shifts and shaping leave a* unchanged but not q*, whose round-off floors the tie.
    tie = max(TIE_TOL * float(np.abs(a_star).max()), IMPROVE_RTOL * float(np.abs(q_star).max()))
    opt_sets = ActionSetPolicy(
        tuple(frozenset(np.flatnonzero(a_star[s] >= -tie).tolist()) for s in range(mdp.n_states))
    )
    return OptimalBundle(q_star=q_star, v_star=v_star, a_star=a_star, opt_sets=opt_sets, residual=residual)


def soft_optimal_values(
    mdp: Mdp,
    r: RewardTable,
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
) -> SoftBundle:
    """Soft policy iteration for v(s) = alpha*log sum_a exp(q(s,a)/alpha).

    Each step evaluates pi = softmax(q/alpha) exactly, with the entropy bonus
    -alpha*log pi in the reward; this is Newton's method on the soft Bellman
    equation. Far from the fixed point a step can raise the sup-norm residual;
    one that fails to fall while already at the solve's round-off level ends
    the iteration, and soft-Bellman sweeps settle the rest (see _settle).
    Raises ConvergenceError after ``max_iter`` steps, or if settling fails.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    gamma = mdp.discount
    rsa = reward_vector(r, mdp)

    def soft_bellman(u):
        q = rsa + gamma * (mdp.transition @ u)
        m = q.max(axis=1)
        z = (q - m[:, None]) / alpha
        log_norm = np.log(np.exp(z).sum(axis=1))
        return q, m + alpha * log_norm, z - log_norm[:, None]

    v = np.zeros(mdp.n_states)
    last = np.inf
    for _ in range(max_iter):
        q_soft, v_soft, log_pi = soft_bellman(v)
        residual = float(np.abs(v_soft - v).max())
        if residual <= tol:
            break
        if residual >= last and residual <= SOLVE_RTOL * max(1.0, float(np.abs(v_soft).max())):
            q_soft, v_soft, residual = _settle(lambda u: soft_bellman(u)[:2], v, residual, gamma, tol)
            break
        last = residual
        pi = np.exp(log_pi)
        v = _policy_values(mdp, pi, (pi * (rsa - alpha * log_pi)).sum(axis=1))
    else:
        raise ConvergenceError(
            f"soft policy iteration did not reach tol={tol} within {max_iter} steps",
            residual=residual,
            iterations=max_iter,
        )
    return SoftBundle(q_soft=q_soft, v_soft=v_soft, alpha=float(alpha), residual=residual)


def occupancy(mdp: Mdp, pi: StochasticPolicy) -> OccupancyVector:
    """Solve w = mu0 + gamma*(T^pi)' w, then d[s,a] = w[s] * pi(a|s)."""
    return OccupancyVector(occupancies(mdp, pi.probs[None])[0])


def occupancies(mdp: Mdp, probs: np.ndarray) -> np.ndarray:
    """d[n, s, a] for an (N, S, A) batch of policies, from one batched flow solve.

    J(pi_n) = d[n].ravel() @ reward_vector(r, mdp).ravel(), so one batch serves
    every reward on the same MDP.
    """
    gamma = mdp.discount
    n = mdp.n_states
    t = np.einsum("nsa,sap->nsp", probs, mdp.transition)
    lhs = np.eye(n)[None, :, :] - gamma * np.swapaxes(t, 1, 2)
    rhs = np.broadcast_to(mdp.initial, (probs.shape[0], n))
    w = np.linalg.solve(lhs, rhs[:, :, None])
    return w * probs


def deterministic_policies(mdp: Mdp, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """One-hot (A^S, S, A) batch of every deterministic policy, s0-major.

    Their occupancies are the vertices of the occupancy polytope, so a linear
    function of the occupancy is extremal, and affine in another, iff it is so
    on this batch.
    """
    actions = enumerate_action_tuples(mdp.n_states, mdp.n_actions, cap=cap)
    return np.eye(mdp.n_actions)[actions]


def entry_spread(mdp: Mdp, seed: int = 0) -> tuple[np.ndarray, bool]:
    """Per-state spread of the discounted entry measure (the t>=1 part of w) across policies.

    Enumerates all deterministic policies when A^S fits under CONTROL_ENUM_CAP;
    otherwise uses CONTROL_SAMPLES seeded random policies, and the returned
    flag says so.
    """
    if mdp.n_actions**mdp.n_states <= CONTROL_ENUM_CAP:
        batch = deterministic_policies(mdp, cap=CONTROL_ENUM_CAP)
        sampled = False
    else:
        rng = np.random.default_rng(seed)
        batch = rng.dirichlet(np.ones(mdp.n_actions), size=(CONTROL_SAMPLES, mdp.n_states))
        sampled = True
    entry = occupancies(mdp, batch).sum(axis=2) - mdp.initial[None, :]
    return entry.max(axis=0) - entry.min(axis=0), sampled


def controllable_states(mdp: Mdp) -> ControllableStates:
    """States whose discounted entry measure varies with the policy (see entry_spread)."""
    spread, sampled = entry_spread(mdp)
    states = frozenset(np.flatnonzero(spread > CONTROL_ATOL).tolist())
    return ControllableStates(states=states, sampled=sampled)
