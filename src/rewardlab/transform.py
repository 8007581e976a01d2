"""Reward-transformation algebra: constructors, samplers, appliers and canonical forms.

Four transformation families are supported, plus left-to-right chains of them:

* potential shaping       R'(s,a,s') = R(s,a,s') + gamma*phi(s') - phi(s) (phi = -k/(1-gamma): R + k)
* successor redistribution: any rewrite preserving E_{S'~tau(s,a)}[R(s,a,S')]
* positive linear scaling R' = c*R with c > 0
* optimality preserving   rewrites keeping the optimal-action sets while
                          retargeting an arbitrary value profile psi

A reward's expected-reward vector rv splits into a shaping part M @ phi
(M = ``shaping_matrix(mdp)``) and its canonical form C = (I - QQ^T) rv, Q an
orthonormal basis of M's range (Ng, Harada & Russell 1999); ``rewardlab.equiv``
decides ord and jeq on these forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import StructuralError
from .mdp import Mdp, RewardTable, _freeze
from .solve import ROUNDOFF_RTOL, optimal_values, refuse_overflow, reward_vector

SLACK_FLOOR_FRAC = 1e-3    # slack magnitudes stay >= this fraction of bounds


@dataclass(frozen=True, eq=False)
class PotentialFn:
    """State potential phi."""

    phi: np.ndarray

    def __post_init__(self):
        phi = _freeze(self, "phi")
        if phi.ndim != 1:
            raise StructuralError(f"potential must be a state vector, got shape {phi.shape}")


class TransformSpec:
    """Base tag for the transformation union; see the concrete kinds below."""


@dataclass(frozen=True)
class PotentialShaping(TransformSpec):
    potential: PotentialFn


@dataclass(frozen=True)
class SuccessorRedistribution(TransformSpec):
    """Carries the full replacement table; apply() checks it preserves expectations."""

    replacement: RewardTable


@dataclass(frozen=True)
class LinearScaling(TransformSpec):
    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise StructuralError(f"scaling constant must be positive, got {self.c}")


@dataclass(frozen=True, eq=False)
class OptimalityPreserving(TransformSpec):
    """New value profile psi plus strictly negative slack for non-optimal pairs.

    The slack table covers all (s, a); only the entries at non-optimal pairs
    (judged against the source reward at apply time) are used.
    """

    psi: np.ndarray
    slack: np.ndarray

    def __post_init__(self):
        psi, slack = _freeze(self, "psi"), _freeze(self, "slack")
        if psi.ndim != 1 or slack.ndim != 2 or slack.shape[0] != psi.shape[0]:
            raise StructuralError("psi must be (S,) and slack (S, A)")
        if not np.all(slack < 0):
            raise StructuralError("slack entries must be strictly negative")


@dataclass(frozen=True)
class Chain(TransformSpec):
    """Transformations applied left-to-right: steps[0] first."""

    steps: tuple[TransformSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


def _check_shape(name: str, a: np.ndarray, shape: tuple) -> None:
    if a.shape != shape:
        raise StructuralError(f"{name} is {a.shape} but the MDP needs {shape}")


def apply(t: TransformSpec, r: RewardTable, mdp: Mdp) -> RewardTable:
    """Apply one transformation (or a chain) to a reward.

    Raises StructuralError when the reward, a potential, psi or slack does not
    fit the MDP's states and actions, or when a step's arithmetic overflows float64.
    """
    mdp.check_reward(r)
    gamma = mdp.discount
    if isinstance(t, Chain):
        out = r
        for step in t.steps:
            out = apply(step, out, mdp)
        return out
    if isinstance(t, PotentialShaping):
        phi = t.potential.phi
        _check_shape("potential", phi, (mdp.n_states,))
        with refuse_overflow("the reward shaped by the potential"):
            return RewardTable(r.values + gamma * phi[None, None, :] - phi[:, None, None])
    if isinstance(t, SuccessorRedistribution):
        rv = reward_vector(r, mdp)
        gap = np.abs(reward_vector(t.replacement, mdp) - rv).max()
        bound = ROUNDOFF_RTOL * max(np.abs(rv).max(), np.abs(t.replacement.values).max())
        if gap > bound:
            raise ValueError(f"replacement changes expected rewards by {gap:.3e} (> {bound:.3e})")
        return t.replacement
    if isinstance(t, LinearScaling):
        with refuse_overflow(f"the reward scaled by {t.c:g}"):
            return RewardTable(t.c * r.values)
    if isinstance(t, OptimalityPreserving):
        _check_shape("psi", t.psi, (mdp.n_states,))
        _check_shape("slack", t.slack, (mdp.n_states, mdp.n_actions))
        non_opt = ~optimal_values(mdp, r).opt_sets.mask
        # E[R2(s,a,.) + gamma*psi(S')] = psi(s), minus slack off the optimal sets.
        with refuse_overflow("the optimality-preserving reward"):
            rsa2 = t.psi[:, None] - gamma * (mdp.transition @ t.psi) + np.where(non_opt, t.slack, 0.0)
        return RewardTable.from_sa(rsa2)
    raise StructuralError(f"unknown transformation {t!r}")


def sample_potential_shaping(
    mdp: Mdp, bounds: float, zero_initial: bool, seed: int
) -> PotentialShaping:
    """Uniform potential in [-bounds, bounds]; optionally projected to mu0-mean zero."""
    if bounds < 0:
        raise ValueError("bounds must be non-negative")
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-bounds, bounds, size=mdp.n_states)
    if zero_initial:
        phi = phi - float(mdp.initial @ phi)
    return PotentialShaping(PotentialFn(phi))


def sample_s_redistribution(
    mdp: Mdp, r: RewardTable, magnitude: float, seed: int
) -> SuccessorRedistribution:
    """Perturb rewards without moving any tau-conditional expectation.

    One uniform draw in [-magnitude, magnitude] per (s, a, s'): on each
    row's support it is recentred to zero tau-weighted mean, and
    zero-probability transitions take it at 10x the size. On deterministic
    rows only the zero-probability entries change.
    """
    if magnitude < 0:
        raise ValueError("magnitude must be non-negative")
    tau = mdp.transition
    u = np.random.default_rng(seed).uniform(-magnitude, magnitude, size=tau.shape)
    # The batched matmul is each row's p @ u, bit for bit; einsum sums in another order.
    mean = (tau[:, :, None, :] @ u[..., None])[..., 0] / tau.sum(axis=2, keepdims=True)
    vals = r.values + np.where(tau > 0.0, u - mean, 10 * u)
    return SuccessorRedistribution(RewardTable(vals))


def sample_optimality_preserving(mdp: Mdp, bounds: float, seed: int) -> OptimalityPreserving:
    """Random value profile plus slack with magnitudes in [1e-3*bounds, bounds]."""
    if bounds <= 0:
        raise ValueError("bounds must be positive")
    rng = np.random.default_rng(seed)
    psi = rng.uniform(-bounds, bounds, size=mdp.n_states)
    slack = -rng.uniform(SLACK_FLOOR_FRAC * bounds, bounds, size=(mdp.n_states, mdp.n_actions))
    return OptimalityPreserving(psi=psi, slack=slack)


def shaping_matrix(mdp: Mdp) -> np.ndarray:
    """(S*A, S) matrix M with M[(s,a), s'] = gamma*tau(s,a,s') - [s'==s].

    M @ phi is the change a potential phi induces in the expected-reward
    vector. M has full column rank: M @ phi = 0 forces phi = gamma*T^pi phi.
    """
    n, k = mdp.n_states, mdp.n_actions
    return mdp.discount * mdp.transition.reshape(n * k, n) - np.repeat(np.eye(n), k, axis=0)


class CanonicalForms(NamedTuple):
    """Expected-reward vectors split against one QR of M = ``shaping_matrix(mdp)``: v[i] = c[i] + M @ p[i].

    Row i of v, c, p, size and v_size is in units of 2^exp[i], the power of
    two that brings that input's largest entry into [0.5, 1), so no norm
    overflows or underflows at any input size; a zero input takes the smallest
    unit, 2^-1073, so it never sets the common unit. ``common`` restates rows
    in one unit for comparisons across them, and certificates and witnesses
    scale back. u[i] is c[i] normalised, or zero when |c[i]| <=
    ROUNDOFF_RTOL * |v[i]|; ``size`` holds the |c[i]| and ``v_size`` the |v[i]|.
    """

    v: np.ndarray
    c: np.ndarray
    u: np.ndarray
    p: np.ndarray
    size: np.ndarray
    v_size: np.ndarray
    exp: np.ndarray  # (K,)

    def common(self) -> CanonicalForms:
        """These forms with every row restated from its own unit in the unit of the largest row."""
        shift = self.exp - self.exp.max()
        if not shift.any():
            return self
        restated = {f: np.ldexp(getattr(self, f).T, shift).T for f in ("v", "c", "p", "size", "v_size")}
        return self._replace(**restated, exp=self.exp - shift)


def canonical_forms(r1: RewardTable, r2: RewardTable, mdp: Mdp) -> CanonicalForms:
    """Canonical forms of both rewards' expected-reward vectors against ``shaping_matrix(mdp)``."""
    vectors = np.array([reward_vector(r, mdp).ravel() for r in (r1, r2)])
    exp = np.frexp(np.abs(vectors).max(axis=1, initial=5e-324))[1]
    q, rr = np.linalg.qr(shaping_matrix(mdp))
    v = np.ldexp(vectors, -exp[:, None]).T
    shaped = q.T @ v
    c = v - q @ shaped
    size, v_size = np.linalg.norm(c, axis=0), np.linalg.norm(v, axis=0)
    keep = size > ROUNDOFF_RTOL * v_size
    u = c / np.where(keep, size, np.inf)
    return CanonicalForms(v.T, c.T, u.T, np.linalg.solve(rr, shaped).T, size, v_size, exp)
