"""Reward-transformation algebra: constructors, samplers, appliers, decomposers.

Four transformation families are supported, plus left-to-right chains of them:

* potential shaping       R'(s,a,s') = R(s,a,s') + gamma*phi(s') - phi(s) (phi = -k/(1-gamma): R + k)
* successor redistribution: any rewrite preserving E_{S'~tau(s,a)}[R(s,a,S')]
* positive linear scaling R' = c*R with c > 0
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
from .mdp import Mdp, RewardTable
from .solve import ROUNDOFF_RTOL, optimal_values, reward_vector

DIST_TOL = 1e-6            # unitless acceptance bound of the canonical-form tests
SLACK_FLOOR_FRAC = 1e-3    # slack magnitudes stay >= this fraction of bounds


@dataclass(frozen=True)
class PotentialFn:
    """State potential phi."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)
        if phi.ndim != 1:
            raise StructuralError(f"potential must be a state vector, got shape {phi.shape}")
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)


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


def _check_shape(name: str, a: np.ndarray, shape: tuple) -> None:
    if a.shape != shape:
        raise StructuralError(f"{name} is {a.shape} but the MDP needs {shape}")


def apply(t: TransformSpec, r: RewardTable, mdp: Mdp) -> RewardTable:
    """Apply one transformation (or a chain) to a reward.

    Raises StructuralError when the reward, a potential, psi or slack does not
    fit the MDP's states and actions.
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
        vals = r.values + gamma * phi[None, None, :] - phi[:, None, None]
        return RewardTable(vals)
    if isinstance(t, SuccessorRedistribution):
        rv = reward_vector(r, mdp)
        gap = np.abs(reward_vector(t.replacement, mdp) - rv).max()
        bound = ROUNDOFF_RTOL * max(np.abs(rv).max(), np.abs(t.replacement.values).max())
        if gap > bound:
            raise ValueError(f"replacement changes expected rewards by {gap:.3e} (> {bound:.3e})")
        return t.replacement
    if isinstance(t, LinearScaling):
        return RewardTable(t.c * r.values)
    if isinstance(t, OptimalityPreserving):
        _check_shape("psi", t.psi, (mdp.n_states,))
        _check_shape("slack", t.slack, (mdp.n_states, mdp.n_actions))
        non_opt = ~optimal_values(mdp, r).opt_sets.mask
        # E[R2(s,a,.) + gamma*psi(S')] = psi(s), minus slack off the optimal sets.
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
    """A stack of vectors split against one QR of a shaping design D: v[i] = c[i] + D @ p[i].

    Row i of v, c, p, size and v_size is in units of 2^exp[i], the power of
    two that brings that input's largest entry into [0.5, 1), so no norm
    overflows or underflows at any input size; ``common`` restates rows in
    one unit for comparisons across them, and certificates and witnesses
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

    def common(self, x: np.ndarray) -> np.ndarray:
        """Rows of ``x`` (one per vector) restated from their own units in the unit of the largest row."""
        return np.ldexp(x.T, self.exp - self.exp.max()).T


def _canonical(design: np.ndarray, vectors: np.ndarray) -> CanonicalForms:
    """Canonical forms of the rows of ``vectors`` (K, rows of ``design``)."""
    exp = np.frexp(np.abs(vectors).max(axis=1, initial=0.0))[1]
    q, rr = np.linalg.qr(design)
    v = np.ldexp(vectors, -exp[:, None]).T
    shaped = q.T @ v
    c = v - q @ shaped
    size, v_size = np.linalg.norm(c, axis=0), np.linalg.norm(v, axis=0)
    keep = size > ROUNDOFF_RTOL * v_size
    u = c / np.where(keep, size, np.inf)
    return CanonicalForms(v.T, c.T, u.T, np.linalg.solve(rr, shaped).T, size, v_size, exp)


def canonical_forms(r1: RewardTable, r2: RewardTable, mdp: Mdp) -> CanonicalForms:
    """Canonical forms of both rewards' expected-reward vectors against ``shaping_matrix(mdp)``."""
    return _canonical(shaping_matrix(mdp), np.array([reward_vector(r, mdp).ravel() for r in (r1, r2)]))


def decompose_ord(forms: CanonicalForms) -> Decomposition | None:
    """Certificate v2 = c*v1 + M @ phi with c > 0, i.e. the same policy order, or None.

    Accepted iff the normalised forms lie within DIST_TOL of each other (the
    STARC distance of Skalse et al., arXiv 2309.15257); both zero means J is
    constant for both rewards. c = |c2| / |c1| in true units, or 1 when both are zero.
    Raises StructuralError when c or phi is outside float64 (c = 0 or inf, phi not finite).
    """
    residual = float(np.linalg.norm(forms.u[0] - forms.u[1]))
    if residual > DIST_TOL:
        return None
    e1, e2 = forms.exp
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        c = float(np.ldexp(forms.size[1] / forms.size[0], e2 - e1)) if forms.u[0].any() else 1.0
        phi = np.ldexp(forms.p[1], e2) - c * np.ldexp(forms.p[0], e1)
    if not (0.0 < c < np.inf and np.isfinite(phi).all()):
        raise StructuralError(f"ord certificate outside float64: the rewards differ in size by ~2^{e2 - e1}")
    return Decomposition(c=c, phi=PotentialFn(phi), residual=residual)


def j_scale(forms: CanonicalForms, mdp: Mdp) -> float:
    """The larger bound on (1 - gamma)*|J| of the two rewards: |c[i]| + (1 - gamma)*|mu0 . p[i]|.

    J_i(pi) = <d_pi, c[i]> - mu0 . p[i], and (1 - gamma)*d_pi sums to one.
    Shaping with mu0-mean zero leaves this scale unchanged; it is in ``forms.common``'s unit.
    """
    return float(forms.common(forms.size + (1.0 - mdp.discount) * np.abs(forms.p @ mdp.initial)).max())


def decompose_j(forms: CanonicalForms, mdp: Mdp) -> Decomposition | None:
    """Certificate v2 = v1 + M @ phi with mu0 . phi = 0, i.e. the same J for every policy, or None.

    The misfit is the larger of |c[1] - c[0]| and (1 - gamma)*|mu0 . phi|; no
    policy's (1 - gamma)*|J2 - J1| exceeds twice the misfit. The residual is the
    misfit relative to ``j_scale``, or 0 when the misfit is round-off
    (within ROUNDOFF_RTOL of the larger reward vector); accepted iff it is at
    most DIST_TOL.
    """
    c, p = forms.common(forms.c), forms.common(forms.p)
    phi = p[1] - p[0]
    shift = (1.0 - mdp.discount) * abs(float(mdp.initial @ phi))
    misfit = max(float(np.linalg.norm(c[1] - c[0])), shift)
    roundoff = ROUNDOFF_RTOL * forms.common(forms.v_size).max()
    residual = 0.0 if misfit <= roundoff else misfit / j_scale(forms, mdp)
    if residual > DIST_TOL:
        return None
    return Decomposition(c=1.0, phi=PotentialFn(np.ldexp(phi, forms.exp.max())), residual=residual)
