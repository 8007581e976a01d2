"""Behavioural models as maps from rewards to policies, plus their inversions.

Three standard families (softmax-of-Q*, entropy-regularized, optimal-set) and
a probe family of argmax-preserving full-support policies, the mixtures of
softmax(beta * A*). The inversion oracles construct, for a given policy, a
reward under which the corresponding model reproduces that policy exactly;
they are what make the robustness theorems checkable end to end.
"""

from __future__ import annotations

import numpy as np

from .errors import CertificationError
from .mdp import ActionSetPolicy, Mdp, RewardTable, StochasticPolicy
from .solve import SoftBundle, optimal_values, refuse_overflow, soft_optimal_values

ARGMAX_ATOL = 1e-12  # probability tie tolerance used when certifying argmax sets


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def boltzmann_policy(mdp: Mdp, r: RewardTable, beta: float) -> StochasticPolicy:
    """pi(a|s) proportional to exp(beta * Q*(s,a)); StructuralError where beta * Q* overflows float64."""
    if not 0 < beta < np.inf:
        raise ValueError("beta must be positive and finite")
    q_star = optimal_values(mdp, r).q_star
    with refuse_overflow(f"beta * Q* at beta={beta}"):
        return StochasticPolicy(_softmax_rows(beta * q_star))


def mce_policy(mdp: Mdp, r: RewardTable, alpha: float) -> StochasticPolicy:
    """The unique entropy-regularized optimum: softmax of the soft Q at weight alpha."""
    return soft_policy(soft_optimal_values(mdp, r, alpha))


def soft_policy(soft: SoftBundle) -> StochasticPolicy:
    """The entropy-regularized optimum softmax(q_soft / alpha); StructuralError where that overflows float64."""
    with refuse_overflow(f"q_soft / alpha at alpha={soft.alpha}"):
        return StochasticPolicy(_softmax_rows(soft.q_soft / soft.alpha))


def optimal_set_policy(mdp: Mdp, r: RewardTable) -> ActionSetPolicy:
    """Map each state to the set of all optimal actions."""
    return optimal_values(mdp, r).opt_sets


def _certify_argmax(probs: np.ndarray, opt_sets: ActionSetPolicy) -> None:
    if np.any(probs <= 0):
        raise CertificationError("generated policy is not full support")
    got = ActionSetPolicy(probs >= probs.max(axis=1, keepdims=True) - ARGMAX_ATOL)
    if got != opt_sets:
        s = int((got.mask != opt_sets.mask).any(axis=1).argmax())
        raise CertificationError(f"argmax set at state {s} is {sorted(got[s])}, expected {sorted(opt_sets[s])}")


def fvariant_policy(
    mdp: Mdp, r: RewardTable, weights: tuple[float, ...], betas: tuple[float, ...]
) -> StochasticPolicy:
    """The mixture sum_i weights[i] * softmax(betas[i] * A*), certified argmax-preserving.

    Every component has full support and puts its largest probabilities on
    the optimal actions, so any mixture does too. Weights that do not sum to
    one are refused by StochasticPolicy. Certification (full support plus
    argmax sets matching the optimal-action sets) runs on every synthesis.
    """
    if len(weights) == 0 or len(weights) != len(betas):
        raise ValueError("need one or more weights and one temperature per weight")
    if not all(0 < x < np.inf for x in (*weights, *betas)):
        raise ValueError("weights and temperatures must be positive finite")
    bundle = optimal_values(mdp, r)
    probs = sum(w * _softmax_rows(b * bundle.a_star) for w, b in zip(weights, betas))
    _certify_argmax(probs, bundle.opt_sets)
    return StochasticPolicy(probs)


def _require_positive(probs: np.ndarray) -> None:
    if np.any(probs <= 0):
        raise ValueError("policy must assign positive probability to every action")


def invert_boltzmann(pi: StochasticPolicy, beta: float, mdp: Mdp) -> RewardTable:
    """A reward whose softmax-of-Q* policy at temperature beta is exactly ``pi``.

    Q(s,a) = log(pi(a|s)) / beta is its own optimal Q-function for the reward
    R(s,a,s') = Q(s,a) - gamma * max_a' Q(s',a') (the one-step backup returns Q
    unchanged), so re-synthesizing reproduces pi up to solver tolerance. The
    per-state free constant is fixed to zero; any shift gives another valid
    preimage, which is exactly the shaping/redistribution ambiguity.
    """
    if not 0 < beta < np.inf:
        raise ValueError("beta must be positive and finite")
    _require_positive(pi.probs)
    q = np.log(pi.probs) / beta
    v = q.max(axis=1)
    vals = q[:, :, None] - mdp.discount * v[None, None, :]
    return RewardTable(np.broadcast_to(vals, (pi.n_states, pi.n_actions, pi.n_states)).copy())


def invert_mce(pi: StochasticPolicy, alpha: float) -> RewardTable:
    """A reward whose entropy-regularized optimum at weight alpha is exactly ``pi``.

    With R(s,a,.) = alpha * log(pi(a|s)), the soft values vanish identically
    (logsumexp of log-probabilities is zero), making the fixed point immediate.
    The output is SA-domain, so the preimage works in any environment sharing
    the state and action sets.
    """
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
    _require_positive(pi.probs)
    return RewardTable.from_sa(alpha * np.log(pi.probs))

