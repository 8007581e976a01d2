"""Exact solvers: values, optimal values, soft values, occupancy, controllability.

Values and occupancies come from one dense solve of a flow system, (I -
gamma*T^pi) v = r^pi or (I - gamma*T^pi') w = mu0 (at most S unknowns,
strictly diagonally dominant for gamma < 1), checked to a residual of
ROUNDOFF_RTOL * max|x|, so they carry no iteration error. The optima come
from policy iteration on that solve: Howard's algorithm for the hard Bellman
equation (its T^pi is a row gather; the optimal-action sets are one tie mask
of a*), and soft policy iteration (Newton's method on v =
alpha*logsumexp(q/alpha)) for the soft one. Both start after WARM_SWEEPS
(soft) Bellman sweeps from v = 0 (modified policy iteration, Puterman & Shin
1978), whose greedy policy is often optimal already. Both bound the Bellman
residual by DEFAULT_TOL in units of the largest possible |v|, (max|rv| +
alpha*log A) / (1 - gamma) (alpha = 0 for the hard one). policy_evaluate,
optimal_values and soft_optimal_values all solve in that scale's power-of-two
unit (_reward_unit), alpha with it, so no result depends on the reward's unit
and no tolerance underflows; an overflowing value scale raises StructuralError.

J at all A^S deterministic policies comes from one prefix-shared elimination
that needs no row exchanges (see vertex_j). Controllability needs one
factorisation of the uniform policy's flow matrix: a state's entry measure is
constant over all policies iff the uniform policy's action gaps for the reward
1[state = s] vanish at every reachable state (see ControllableStates).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConvergenceError, StructuralError
from .mdp import (
    DEFAULT_ENUM_CAP,
    ActionSetPolicy,
    Mdp,
    RewardTable,
    StochasticPolicy,
    reachable_states,
)

DEFAULT_TOL = 1e-10       # Bellman residual the optimisers must reach, relative to the value scale
MAX_ITER = 1000           # policy-iteration steps (evaluate, then improve)
WARM_SWEEPS = 3           # Bellman sweeps before the first step; each costs S^2*A against ~S^3 for a solve
ROUNDOFF_RTOL = 1e-10     # a difference within this fraction of the magnitudes compared is round-off
IMPROVE_RTOL = 1e-12      # strict-improvement margin of Howard's switch, relative to max|v|
TIE_TOL = 1e-8            # membership tolerance for optimal-action sets, relative to the largest |a*|
CONTROL_RTOL = 1e-9       # action gap marking a controllable state, relative to 1/(1-gamma)


@dataclass(frozen=True, eq=False)
class ValueBundle:
    v: np.ndarray   # (S,)
    q: np.ndarray   # (S, A)
    j: float


@dataclass(frozen=True, eq=False)
class OptimalBundle:
    q_star: np.ndarray      # (S, A)
    v_star: np.ndarray      # (S,)
    a_star: np.ndarray      # (S, A), <= 0
    opt_sets: ActionSetPolicy
    residual: float


@dataclass(frozen=True, eq=False)
class SoftBundle:
    q_soft: np.ndarray  # (S, A)
    v_soft: np.ndarray  # (S,)
    alpha: float
    residual: float


@dataclass(frozen=True, eq=False)
class OccupancyVector:
    """Discounted state-action visitation d[s,a]; sums to 1/(1-gamma)."""

    d: np.ndarray  # (S, A)


@dataclass(frozen=True)
class ControllableStates:
    """Set-like result of controllable_states: the states whose entry measure the policy moves.

    The entry measure e_s(pi) = w_pi(s) - mu0(s) is the value of the reward
    1[state = s] minus a constant. At the uniform policy pi0 that reward's
    action gaps are Q(t,a) - Q(t,0) = gamma * [M^-1 D(t,a)]_s (M and D as in
    controllable_states). If every gap is zero at every state some policy
    reaches, which pi0 reaches too, the performance-difference lemma gives
    the same e_s under every policy. If some gap at a reachable t is not zero,
    the derivative w(t) * gap of e_s along pi(a|t) - pi(0|t) is not zero
    either, since w(t) > 0, so e_s moves. Only the sign of w(t) enters, never
    its size, which can be as small as (1/A)^depth. The same lemma bounds the
    spread of e_s by 4 * max|gap| / (1 - gamma), so a state left out by the
    round-off threshold spreads by less than 4 * gamma * CONTROL_RTOL / (1 - gamma)^2.
    """

    states: frozenset

    def __iter__(self):
        return iter(sorted(self.states))

    def __len__(self) -> int:
        return len(self.states)


class refuse_overflow(np.errstate):
    """Raise StructuralError naming ``what`` where float64 arithmetic in the block overflows or makes a NaN."""

    def __init__(self, what: str):
        super().__init__(over="raise", invalid="raise")
        self.what = what

    def __exit__(self, *exc_info):
        super().__exit__(*exc_info)
        if isinstance(exc_info[1], FloatingPointError):
            raise StructuralError(f"{self.what} overflows float64") from None


def reward_vector(r: RewardTable, mdp: Mdp) -> np.ndarray:
    """Expected immediate reward per (s, a): r[s,a] = E_{S'~tau(s,a)}[R(s,a,S')], shape (S, A)."""
    mdp.check_reward(r)
    return np.einsum("sap,sap->sa", mdp.transition, r.values)


def _policy_transition(mdp: Mdp, probs: np.ndarray) -> np.ndarray:
    """T^pi[s, s'] = sum_a pi(a|s) tau(s, a, s'); raises StructuralError unless ``probs`` is (S, A)."""
    if probs.shape != mdp.transition.shape[:2]:
        raise StructuralError(f"policy is {probs.shape} but the MDP has (S, A) = {mdp.transition.shape[:2]}")
    return np.einsum("sa,sap->sp", probs, mdp.transition)


def _solve_flow(flow: np.ndarray, b: np.ndarray, unit: int = 0) -> np.ndarray:
    """x = flow^-1 b by one dense solve; ConvergenceError (its residual times 2^unit) if above ROUNDOFF_RTOL*max|x|."""
    x = np.linalg.solve(flow, b)
    residual = float(np.abs(flow @ x - b).max(initial=0.0))
    if not residual <= ROUNDOFF_RTOL * float(np.abs(x).max(initial=0.0)):
        raise ConvergenceError("flow solve residual too large", residual=math.ldexp(residual, unit))
    return x


def _reward_unit(mdp: Mdp, rv: np.ndarray, bonus: float = 0.0) -> tuple[np.ndarray, int, float]:
    """rv / 2^e, e and the Bellman bound DEFAULT_TOL * scale / 2^e, 2^e bringing the value scale into [0.5, 1)."""
    scale = float(np.abs(rv).max() + bonus) / (1.0 - mdp.discount)  # the largest possible |v|
    if not scale < np.inf:
        raise StructuralError(f"reward too large: values up to max|rv| / (1 - {mdp.discount}) overflow float64")
    unit = math.frexp(scale)[1]
    if -900 < unit < 900:  # no solve nears the subnormal or overflow range: a rescale would change no bit
        return rv, 0, DEFAULT_TOL * scale
    return np.ldexp(rv, -unit), unit, DEFAULT_TOL * math.ldexp(scale, -unit)


def _restated(unit: int, *xs):
    """Each x scaled back from a solve's unit 2^unit to the reward's own."""
    return xs if unit == 0 else tuple(np.ldexp(x, unit) for x in xs)


def policy_evaluate(mdp: Mdp, r: RewardTable, pi: StochasticPolicy) -> ValueBundle:
    """Exact V^pi, Q^pi, and J via the (I - gamma*T^pi) linear system, solved in the reward's unit."""
    rsa, unit, _ = _reward_unit(mdp, reward_vector(r, mdp))
    flow = np.eye(mdp.n_states) - mdp.discount * _policy_transition(mdp, pi.probs)
    v = _solve_flow(flow, (pi.probs * rsa).sum(axis=1), unit)
    q = rsa + mdp.discount * (mdp.transition @ v)
    v, q, j = _restated(unit, v, q, mdp.initial @ v)
    return ValueBundle(v=v, q=q, j=float(j))


def optimal_values(mdp: Mdp, r: RewardTable) -> OptimalBundle:
    """Howard policy iteration from the greedy policy after WARM_SWEEPS sweeps, with tie-tolerant argmax sets.

    A state switches action only on a strict improvement, so the iteration
    cannot cycle; it stops when no state improves. Raises ConvergenceError if
    that takes more than MAX_ITER steps, or if the final policy's Bellman
    residual exceeds ``DEFAULT_TOL * max|rv| / (1 - gamma)``. It solves in the
    reward's unit (_reward_unit) and reports every result and residual in its own.
    """
    gamma = mdp.discount
    rsa, unit, bound = _reward_unit(mdp, reward_vector(r, mdp))
    states, eye, q = np.arange(mdp.n_states), np.eye(mdp.n_states), rsa  # q = rv + gamma*tau v at v = 0
    for _ in range(WARM_SWEEPS):
        q = rsa + gamma * (mdp.transition @ q.max(axis=1))
    act = q.argmax(axis=1)
    for _ in range(MAX_ITER):
        v = _solve_flow(eye - gamma * mdp.transition[states, act], rsa[states, act], unit)
        q_star = rsa + gamma * (mdp.transition @ v)
        v_star = q_star.max(axis=1)
        residual = float(np.abs(v_star - v).max())
        improve = q_star[states, act] < v_star - IMPROVE_RTOL * float(np.abs(v).max())
        if not improve.any():
            break
        act = np.where(improve, q_star.argmax(axis=1), act)
    a_star = q_star - v_star[:, None]
    # Shifts and shaping leave a* unchanged but not q*, whose round-off floors the tie.
    tie = max(TIE_TOL * float(np.abs(a_star).max()), IMPROVE_RTOL * float(np.abs(q_star).max()))
    opt_sets = ActionSetPolicy(a_star >= -tie)
    q_star, v_star, a_star, restated = _restated(unit, q_star, v_star, a_star, residual)
    if improve.any():
        raise ConvergenceError(f"policy iteration still improving after {MAX_ITER} steps", restated)
    if residual > bound:
        raise ConvergenceError(f"Bellman residual {restated:.3e} above {DEFAULT_TOL:g} of the value scale", restated)
    return OptimalBundle(q_star, v_star, a_star, opt_sets, float(restated))


def soft_optimal_values(mdp: Mdp, r: RewardTable, alpha: float) -> SoftBundle:
    """Soft policy iteration for v(s) = alpha*log sum_a exp(q(s,a)/alpha), after WARM_SWEEPS soft sweeps.

    Each step evaluates pi = softmax(q/alpha) exactly, with the entropy bonus
    -alpha*log pi in the reward (Newton's method on the soft Bellman equation),
    until the residual is at most ``DEFAULT_TOL * (max|rv| + alpha*log A) / (1 - gamma)``.
    ConvergenceError after MAX_ITER steps; StructuralError where the soft values
    overflow float64 (q/alpha at a tiny alpha). It solves in the reward's unit,
    alpha with it where alpha stays exact there (any alpha does with one action).
    """
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
    gamma, rv = mdp.discount, reward_vector(r, mdp)
    rsa, unit, bound = _reward_unit(mdp, rv, alpha * np.log(mdp.n_actions))
    if mdp.n_actions > 1 and not -1022 < math.frexp(alpha)[1] - unit <= 1024:  # alpha / 2^unit would lose bits
        rsa, unit, bound = rv, 0, math.ldexp(bound, unit)
    # alpha in the solve's unit; with one action it multiplies log 1 = 0, so 1.0 stands in for any alpha
    a = math.ldexp(alpha, -unit) if mdp.n_actions > 1 else 1.0
    eye, q_soft = np.eye(mdp.n_states), rsa  # q_soft = rv + gamma*tau v at v = 0
    with refuse_overflow(f"the soft Bellman update at alpha={alpha}"):
        for _ in range(WARM_SWEEPS):
            m = q_soft.max(axis=1)
            v = m + a * np.log(np.exp((q_soft - m[:, None]) / a).sum(axis=1))
            q_soft = rsa + gamma * (mdp.transition @ v)
        for _ in range(MAX_ITER):
            m = q_soft.max(axis=1)
            z = (q_soft - m[:, None]) / a
            log_norm = np.log(np.exp(z).sum(axis=1))
            v_soft = m + a * log_norm
            residual = float(np.abs(v_soft - v).max())
            if residual <= bound:
                break
            log_pi = z - log_norm[:, None]
            pi = np.exp(log_pi)
            v = _solve_flow(eye - gamma * _policy_transition(mdp, pi), (pi * (rsa - a * log_pi)).sum(axis=1), unit)
            q_soft = rsa + gamma * (mdp.transition @ v)
    q_soft, v_soft, restated = _restated(unit, q_soft, v_soft, residual)
    if residual > bound:
        raise ConvergenceError(f"soft policy iteration at residual {restated:.3e} after {MAX_ITER} steps", restated)
    return SoftBundle(q_soft=q_soft, v_soft=v_soft, alpha=float(alpha), residual=float(restated))


def _occupancy(mdp: Mdp, probs: np.ndarray) -> np.ndarray:
    """d[s,a] = w[s] * pi(a|s) for the (S, A) policy table ``probs``, with w = mu0 + gamma*(T^pi)' w."""
    w = _solve_flow(np.eye(mdp.n_states) - mdp.discount * _policy_transition(mdp, probs).T, mdp.initial)
    return w[:, None] * probs


def occupancy(mdp: Mdp, pi: StochasticPolicy) -> OccupancyVector:
    """Discounted state-action visitation of ``pi`` (see _occupancy)."""
    return OccupancyVector(_occupancy(mdp, pi.probs))


def vertex_j(mdp: Mdp, rv: np.ndarray) -> np.ndarray:
    """J at every deterministic policy (s0-major rows) of each of the K reward vectors rv (K, S, A).

    Eliminates v_0, ..., v_{S-1} in turn from v = rv^pi + gamma*T^pi v, with
    J - mu0.v = 0 as an extra row and the K reward columns on the right. Each
    state keeps a row per action until its pivot branches on the action, so
    policies agreeing on actions 0..s-1 share all work before state s. The
    branch (shared-prefix) axis is stored last, so every round runs along rows
    of up to A^S/A entries; each round's action goes ahead of it, and one final
    reorder of the action digits gives the s0-major (A^S, K) table. Every pivot
    is >= 1 - gamma (I - gamma*T^pi and its Schur complements are strictly
    row-diagonally dominant), so no row is exchanged. Raises CapacityError,
    before allocating, when A^S exceeds DEFAULT_ENUM_CAP.
    """
    n, k = mdp.n_states, mdp.n_actions
    if k**n > DEFAULT_ENUM_CAP:
        raise CapacityError(f"{k}^{n} = {k**n} deterministic policies exceeds cap {DEFAULT_ENUM_CAP}")
    m = len(rv)
    g = np.zeros((n + m, n * k + 1, 1))  # (v | rv, (state, action) rows + J row, shared action prefixes)
    g[:n, :-1, 0] = (np.eye(n)[:, :, None] - mdp.discount * mdp.transition.transpose(2, 0, 1)).reshape(n, -1)
    g[n:, :-1, 0] = rv.reshape(m, n * k)
    g[:n, -1, 0] = -mdp.initial
    for _ in range(n):
        piv = g[1:, None, :k] / g[:1, None, :k]  # the eliminated state's row per action, pivot scaled to 1
        rest = g[:, k:, None]
        new = rest[:1] * piv
        g = np.subtract(rest[1:], new, out=new).reshape(len(new), new.shape[1], -1)
    return g.reshape((m,) + (k,) * (n if k > 1 else 0)).T.reshape(-1, m)


def controllable_states(mdp: Mdp) -> ControllableStates:
    """States whose entry measure varies with the policy, from one factorisation.

    With M = I - gamma*T^pi0' at the uniform policy pi0 and D(t,a) =
    tau(t,a,.) - tau(t,0,.), state s is controllable iff |[M^-1 D(t,a)]_s|
    exceeds CONTROL_RTOL / (1 - gamma) for some action a at some reachable state t.
    The solve's residual is checked as every flow solve's is (ConvergenceError).
    """
    n, gamma, tau = mdp.n_states, mdp.discount, mdp.transition
    reached = reachable_states(mdp)
    diffs = (tau[reached, 1:, :] - tau[reached, :1, :]).reshape(-1, n)  # rows D(t,a), t-major
    flow = np.eye(n) - gamma * tau.mean(axis=1).T
    gaps = np.abs(_solve_flow(flow, diffs.T)).max(axis=1, initial=0.0)
    return ControllableStates(frozenset(np.flatnonzero(gaps > CONTROL_RTOL / (1.0 - gamma)).tolist()))
