"""Reward-transformation algebra: constructors, samplers, appliers, decomposers.

Five transformation families are supported, plus left-to-right chains of them:

* potential shaping       R'(s,a,s') = R(s,a,s') + gamma*phi(s') - phi(s)
* successor redistribution: any rewrite preserving E_{S'~tau(s,a)}[R(s,a,S')]
* positive linear scaling R' = c*R with c > 0
* constant shift          R' = R + k
* optimality preserving   rewrites keeping the optimal-action sets while
                          retargeting an arbitrary value profile psi

The decomposers run the other way. A reward's expected-reward vector rv
splits into a shaping part M @ phi (M = ``shaping_matrix(mdp)``) and its
canonical form C = (I - QQ^T) rv, Q an orthonormal basis of M's range (Ng,
Harada & Russell 1999). Rewards order all policies alike iff their forms are
positive multiples (or both zero), and give every policy the same J iff
C1 = C2 and mu0 . (phi2 - phi1) = 0. Both tests are unitless and ignore |rv|,
whose shaping part changes no behaviour; a form or misfit within
ROUNDOFF_RTOL of |rv| counts as zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import StructuralError
from .mdp import Mdp, RewardTable, lift_reward
from .solve import optimal_values, reward_vector

ROUNDOFF_RTOL = 1e-10      # a difference within this fraction of the quantities compared is round-off
DIST_TOL = 1e-6            # unitless acceptance bound of the canonical-form tests
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
        return abs(float(initial @ self.phi)) <= ROUNDOFF_RTOL * float(np.abs(self.phi).max(initial=0.0))


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
    """Certificate (c, phi) with the unitless residual its test compared against DIST_TOL."""

    c: float
    phi: PotentialFn
    residual: float


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
        rv = reward_vector(r, mdp)
        gap = np.abs(reward_vector(t.replacement, mdp) - rv).max()
        bound = ROUNDOFF_RTOL * max(np.abs(rv).max(), np.abs(t.replacement.values).max())
        if gap > bound:
            raise ValueError(f"replacement changes expected rewards by {gap:.3e} (> {bound:.3e})")
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
    vector. M has full column rank: M @ phi = 0 forces phi = gamma*T^pi phi.
    """
    n, k = mdp.n_states, mdp.n_actions
    return mdp.discount * mdp.transition.reshape(n * k, n) - np.repeat(np.eye(n), k, axis=0)


class CanonicalForms(NamedTuple):
    """Two vectors split against one QR of a shaping design D: v[i] = c[i] + D @ p[i].

    u[i] is c[i] normalised, or zero when |c[i]| <= ROUNDOFF_RTOL * |v[i]|;
    ``size`` holds the |c[i]| and ``v_size`` the |v[i]|.
    """

    v: np.ndarray
    c: np.ndarray
    u: np.ndarray
    p: np.ndarray
    size: np.ndarray
    v_size: np.ndarray


def _canonical(design: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> CanonicalForms:
    q, rr = np.linalg.qr(design)
    v = np.array([v1, v2]).T
    shaped = q.T @ v
    c = v - q @ shaped
    size, v_size = np.linalg.norm(c, axis=0), np.linalg.norm(v, axis=0)
    keep = size > ROUNDOFF_RTOL * v_size
    u = c / np.where(keep, size, np.inf)
    return CanonicalForms(v.T, c.T, u.T, np.linalg.solve(rr, shaped).T, size, v_size)


def canonical_forms(r1: RewardTable, r2: RewardTable, mdp: Mdp) -> CanonicalForms:
    """Canonical forms of both rewards' expected-reward vectors against ``shaping_matrix(mdp)``."""
    rv1, rv2 = (reward_vector(r, mdp).ravel() for r in (r1, r2))
    return _canonical(shaping_matrix(mdp), rv1, rv2)


def decompose_ord(forms: CanonicalForms) -> Decomposition | None:
    """Certificate v2 = c*v1 + M @ phi with c > 0, i.e. the same policy order, or None.

    Accepted iff the normalised forms lie within DIST_TOL of each other (the
    STARC distance of Skalse et al., arXiv 2309.15257); both zero means J is
    constant for both rewards. c = |c2| / |c1|, or 1 when both forms are zero.
    """
    residual = float(np.linalg.norm(forms.u[0] - forms.u[1]))
    if residual > DIST_TOL:
        return None
    c = float(forms.size[1] / forms.size[0]) if forms.u[0].any() else 1.0
    return Decomposition(c=c, phi=PotentialFn(forms.p[1] - c * forms.p[0]), residual=residual)


def j_scale(forms: CanonicalForms, mdp: Mdp) -> float:
    """The larger bound on (1 - gamma)*|J| of the two rewards: |c[i]| + (1 - gamma)*|mu0 . p[i]|.

    J_i(pi) = <d_pi, c[i]> - mu0 . p[i], and (1 - gamma)*d_pi sums to one.
    Shaping with mu0-mean zero leaves this scale unchanged.
    """
    offsets = (1.0 - mdp.discount) * np.abs(forms.p @ mdp.initial)
    return float((forms.size + offsets).max())


def decompose_j(forms: CanonicalForms, mdp: Mdp) -> Decomposition | None:
    """Certificate v2 = v1 + M @ phi with mu0 . phi = 0, i.e. the same J for every policy, or None.

    The misfit is the larger of |c[1] - c[0]| and (1 - gamma)*|mu0 . phi|; no
    policy's (1 - gamma)*|J2 - J1| exceeds twice the misfit. The residual is the
    misfit relative to ``j_scale``, or 0 when the misfit is round-off
    (within ROUNDOFF_RTOL of the larger reward vector); accepted iff it is at
    most DIST_TOL.
    """
    phi = forms.p[1] - forms.p[0]
    shift = (1.0 - mdp.discount) * abs(float(mdp.initial @ phi))
    misfit = max(float(np.linalg.norm(forms.c[1] - forms.c[0])), shift)
    residual = 0.0 if misfit <= ROUNDOFF_RTOL * forms.v_size.max() else misfit / j_scale(forms, mdp)
    if residual > DIST_TOL:
        return None
    zero_initial = PotentialFn(phi).check_zero_initial(mdp.initial)
    return Decomposition(c=1.0, phi=PotentialFn(phi, zero_initial), residual=residual)


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

    The same canonical-form test as decompose_ord, against the pointwise
    shaping design on (s,a,s') instead of expected rewards, so it leaves no
    redistribution slack and is a strictly stronger requirement.
    """
    n, k = r1.n_states, r1.n_actions
    eye = np.eye(n)
    design = gamma * eye[None, None, :, :] - eye[:, None, None, :]
    design = np.broadcast_to(design, (n, k, n, n)).reshape(-1, n)
    return decompose_ord(_canonical(design, r1.values.reshape(-1), r2.values.reshape(-1)))
