"""Reward-transformation algebra: constructors, samplers, appliers, decomposers.

Five transformation families are supported, plus left-to-right chains of them:

* potential shaping       R'(s,a,s') = R(s,a,s') + gamma*phi(s') - phi(s)
* successor redistribution: any rewrite preserving E_{S'~tau(s,a)}[R(s,a,S')]
* positive linear scaling R' = c*R with c > 0
* constant shift          R' = R + k
* optimality preserving   rewrites keeping the optimal-action sets while
                          retargeting an arbitrary value profile psi

The decomposition solvers run the other way: given two rewards they search for
a scaling-plus-shaping certificate whose leftover is exactly a successor
redistribution, which is the linear-algebra test for "same policy ordering".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .mdp import Mdp, RewardTable, lift_reward
from .solve import optimal_values, reward_vector

SR_CHECK_ATOL = 1e-10      # expected-reward preservation demanded of replacements
DECOMP_TOL = 1e-6          # acceptance residual for decomposition certificates
ZERO_INITIAL_ATOL = 1e-10  # |mu0 . phi| bound for the zero-initial-expectation flag
SLACK_FLOOR_FRAC = 1e-3    # slack magnitudes stay >= this fraction of bounds


@dataclass(frozen=True)
class PotentialFn:
    """State potential phi; flag asserts E_{S0~mu0}[phi(S0)] = 0 (checked in context)."""

    phi: np.ndarray
    zero_initial_expectation: bool = False

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)
        if phi.ndim != 1:
            raise StructuralError(f"potential must be a state vector, got shape {phi.shape}")
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    def check_zero_initial(self, initial: np.ndarray) -> bool:
        return abs(float(initial @ self.phi)) <= ZERO_INITIAL_ATOL


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


@dataclass(frozen=True)
class ConstantShift(TransformSpec):
    k: float


@dataclass(frozen=True)
class OptimalityPreserving(TransformSpec):
    """New value profile psi plus strictly negative slack for non-optimal pairs.

    The slack table covers all (s, a); only the entries at non-optimal pairs
    (judged against the source reward at apply time) are used.
    """

    psi: np.ndarray
    slack: np.ndarray

    def __post_init__(self):
        psi = np.array(self.psi, dtype=float)
        slack = np.array(self.slack, dtype=float)
        if psi.ndim != 1 or slack.ndim != 2 or slack.shape[0] != psi.shape[0]:
            raise StructuralError("psi must be (S,) and slack (S, A)")
        if not np.all(slack < 0):
            raise StructuralError("slack entries must be strictly negative")
        psi.setflags(write=False)
        slack.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "slack", slack)


@dataclass(frozen=True)
class Chain(TransformSpec):
    """Transformations applied left-to-right: steps[0] first."""

    steps: tuple[TransformSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


@dataclass(frozen=True)
class Decomposition:
    """Certificate (c, phi) with the L-infinity residual of the fitted system."""

    c: float
    phi: PotentialFn
    residual: float
    degenerate: bool = False


def apply(t: TransformSpec, r: RewardTable, mdp: Mdp) -> RewardTable:
    """Apply one transformation (or a chain) to a reward; output is SAS-domain."""
    gamma = mdp.discount
    if isinstance(t, Chain):
        out = r
        for step in t.steps:
            out = apply(step, out, mdp)
        return lift_reward(out)
    if isinstance(t, PotentialShaping):
        phi = t.potential.phi
        vals = r.values + gamma * phi[None, None, :] - phi[:, None, None]
        return RewardTable(vals, domain="sas")
    if isinstance(t, SuccessorRedistribution):
        gap = np.abs(reward_vector(t.replacement, mdp) - reward_vector(r, mdp)).max()
        if gap > SR_CHECK_ATOL:
            raise ValueError(
                f"replacement changes expected rewards by {gap:.3e} (> {SR_CHECK_ATOL})"
            )
        return RewardTable(t.replacement.values.copy(), domain="sas")
    if isinstance(t, LinearScaling):
        return RewardTable(t.c * r.values, domain="sas")
    if isinstance(t, ConstantShift):
        return RewardTable(r.values + t.k, domain="sas")
    if isinstance(t, OptimalityPreserving):
        opt = optimal_values(mdp, r).opt_sets
        non_opt = np.ones((mdp.n_states, mdp.n_actions), dtype=bool)
        for s in range(mdp.n_states):
            for a in opt[s]:
                non_opt[s, a] = False
        # E[R2(s,a,.) + gamma*psi(S')] = psi(s), minus slack off the optimal sets.
        rsa2 = t.psi[:, None] - gamma * (mdp.transition @ t.psi) + np.where(non_opt, t.slack, 0.0)
        return lift_reward(RewardTable.from_sa(rsa2))
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
    return PotentialShaping(PotentialFn(phi, zero_initial_expectation=zero_initial))


def sample_s_redistribution(
    mdp: Mdp, r: RewardTable, magnitude: float, seed: int
) -> SuccessorRedistribution:
    """Perturb rewards without moving any tau-conditional expectation.

    On each support row the perturbation is recentred to zero weighted mean;
    zero-probability transitions are perturbed freely (10x the magnitude).
    On deterministic rows only the zero-probability entries can change.
    """
    if magnitude < 0:
        raise ValueError("magnitude must be non-negative")
    rng = np.random.default_rng(seed)
    vals = lift_reward(r).values.copy()
    tau = mdp.transition
    for s in range(mdp.n_states):
        for a in range(mdp.n_actions):
            row = tau[s, a]
            support = row > 0.0
            off = ~support
            if off.any():
                vals[s, a, off] += rng.uniform(-10 * magnitude, 10 * magnitude, size=off.sum())
            if support.sum() >= 2:
                u = rng.uniform(-magnitude, magnitude, size=int(support.sum()))
                p = row[support]
                u -= (p @ u) / p.sum()
                vals[s, a, support] += u
    return SuccessorRedistribution(RewardTable(vals, domain="sas"))


def sample_optimality_preserving(
    mdp: Mdp, r: RewardTable, bounds: float, seed: int
) -> OptimalityPreserving:
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
    vector, so expected-reward fits reduce to least squares against [r1 | M].
    """
    n, k = mdp.n_states, mdp.n_actions
    m = mdp.discount * mdp.transition.reshape(n * k, n).copy()
    for s in range(n):
        m[s * k : (s + 1) * k, s] -= 1.0
    return m


def _lstsq_residual(a: np.ndarray, b: np.ndarray):
    if a.shape[1] == 0:
        return np.zeros(0), float(np.abs(b).max(initial=0.0))
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return x, float(np.abs(a @ x - b).max(initial=0.0))


def decompose_ord(r1: RewardTable, r2: RewardTable, mdp: Mdp) -> Decomposition | None:
    """Fit r2's expected rewards as c*r1 + shaping; certificate for same policy order.

    Returns None when no fit with positive c exists. When r1's expected-reward
    vector already lies in the shaping span (its J is constant across policies,
    so c is unidentifiable) the fit degenerates: r2 is accepted iff it lies in
    the same span, with c reported as 1 and the degenerate flag set.
    """
    rv1 = reward_vector(r1, mdp).ravel()
    rv2 = reward_vector(r2, mdp).ravel()
    m = shaping_matrix(mdp)

    _, deg_res = _lstsq_residual(m, rv1)
    if deg_res <= DECOMP_TOL:
        phi, residual = _lstsq_residual(m, rv2 - rv1)
        if residual <= DECOMP_TOL:
            return Decomposition(c=1.0, phi=PotentialFn(phi), residual=residual, degenerate=True)
        return None

    design = np.hstack([rv1[:, None], m])
    x, residual = _lstsq_residual(design, rv2)
    if residual > DECOMP_TOL:
        return None
    c = float(x[0])
    if c <= 0:
        # The fit is unique here, so a non-positive c genuinely means the
        # policy order is reversed rather than preserved.
        return None
    return Decomposition(c=c, phi=PotentialFn(x[1:]), residual=residual)


def _initial_nullspace(initial: np.ndarray) -> np.ndarray:
    """Orthonormal basis (S, S-1) of {phi : mu0 . phi = 0}."""
    _, _, vt = np.linalg.svd(initial[None, :])
    return vt[1:].T


def decompose_j(r1: RewardTable, r2: RewardTable, mdp: Mdp) -> Decomposition | None:
    """Like decompose_ord with c fixed to 1 and phi constrained to mu0-mean zero.

    Success certifies that the two rewards give every policy the same J.
    """
    rv1 = reward_vector(r1, mdp).ravel()
    rv2 = reward_vector(r2, mdp).ravel()
    m = shaping_matrix(mdp)
    z = _initial_nullspace(mdp.initial)
    y, residual = _lstsq_residual(m @ z, rv2 - rv1)
    if residual > DECOMP_TOL:
        return None
    phi = z @ y if z.shape[1] else np.zeros(mdp.n_states)
    return Decomposition(c=1.0, phi=PotentialFn(phi, zero_initial_expectation=True), residual=residual)


def shaping_on_sa_domain(phi: PotentialFn, r: RewardTable, mdp: Mdp) -> RewardTable:
    """Potential shaping composed with the redistribution that stays inside S x A.

    r'(s,a) = r(s,a) + gamma*E_{S'~tau(s,a)}[phi(S')] - phi(s); the output keeps
    the SA domain and is order-equivalent to the input.
    """
    if r.domain != "sa":
        raise ValueError(f"expected an SA-domain reward, got domain {r.domain!r}")
    rsa = r.values[:, :, 0]
    out = rsa + mdp.discount * (mdp.transition @ phi.phi) - phi.phi[:, None]
    return RewardTable.from_sa(out)


def decompose_ps_ls(r1: RewardTable, r2: RewardTable, gamma: float) -> Decomposition | None:
    """Transition-free fit R2 = c*R1 + gamma*phi(s') - phi(s) over full tensors.

    Unlike decompose_ord this works pointwise on (s,a,s') with no
    redistribution slack, so it is a strictly stronger requirement.
    """
    n, k = r1.n_states, r1.n_actions
    v1 = r1.values.reshape(-1)
    v2 = r2.values.reshape(-1)
    cols = [v1[:, None]]
    eye = np.eye(n)
    for state in range(n):
        coef = gamma * eye[state][None, None, :] - eye[state][:, None, None]
        cols.append(np.broadcast_to(coef, (n, k, n)).reshape(-1, 1))
    design = np.hstack(cols)
    x, residual = _lstsq_residual(design, v2)
    if residual > DECOMP_TOL or x[0] <= 0:
        return None
    return Decomposition(c=float(x[0]), phi=PotentialFn(x[1:]), residual=residual)
