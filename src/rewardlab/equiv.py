"""Deciders for reward equivalence relations, with certificates, witnesses and an exact oracle.

Three relations over rewards in a fixed environment:

* ``opt`` - same optimal-action sets in every state;
* ``ord`` - same ordering of all policies by J;
* ``jeq`` - identical J for every policy.

ord and jeq are decided on the canonical forms of the two rewards, levelled at
the uniform policy (``transform.canonical_forms``): rewards order all policies
alike iff their forms are positive multiples (or both zero), and give every
policy the same J iff C1 = C2 and mu0 . (phi2 - phi1) = 0. Both tests are
unitless and ignore |rv|, whose shaping part changes no behaviour; a form or
misfit within ROUNDOFF_RTOL of |rv| counts as zero. So verdicts hold at every
reward scale, and a negative one carries two policies built from the same forms
(_policy_pair).

Whenever the A^S deterministic policies fit under the cap, the ord/jeq
verdicts are cross-checked against an exact vertex oracle. J(pi) = <d^pi, r>
is linear in the occupancy d^pi, whose polytope has the deterministic
policies as vertices. solve.vertex_j gives J at every vertex by eliminating
the states one at a time, branching on each state's action, so vertices that
agree on a prefix of actions share that work; I - gamma*T^pi is strictly
diagonally dominant, so every pivot is at least 1 - gamma and none is swapped.
Rewards order all policies alike iff J2 is a positive affine function of J1
on every vertex (measured off the chord through the extreme J1 vertices, or
both tables flat), and give every policy the same J iff J1 = J2 there. The
oracle takes J from the reward vectors but measures it on the deciders'
scales (|C|, or jeq's J scale), since |rv| grows with shaping that
changes no behaviour. It raises InternalConsistencyError, which means a bug,
only on a confident disagreement: a deviation beyond what an accepted
certificate permits plus the round-off of J at the size of rv, or agreement
within ROUNDOFF_RTOL when the decider refused. In between it stays silent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, StructuralError
from .mdp import Mdp, RewardTable
from .solve import ROUNDOFF_RTOL, _occupancy, optimal_values, vertex_j
from .transform import CanonicalForms, PotentialFn, canonical_forms, shaping_matrix

CROSS_CHECK_CAP = 1024   # the oracle runs when A^S fits under this
DIST_TOL = 1e-6          # unitless acceptance bound of the canonical-form tests


@dataclass(frozen=True)
class Decomposition:
    """Certificate (c, phi) with the unitless residual its test compared against DIST_TOL."""

    c: float
    phi: PotentialFn
    residual: float


@dataclass(frozen=True)
class EquivVerdict:
    equivalent: bool
    relation: str  # "opt" | "ord" | "jeq"
    certificate: Decomposition | None = None
    witness: dict | None = None


def _chord(j1: np.ndarray, j2: np.ndarray):
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


def _policy_pair(forms: CanonicalForms, w: np.ndarray, mdp: Mdp) -> dict:
    """The policies with occupancies d0 + eps*w' and d0 - eps*w', and their J under r1 and r2.

    d0 is the uniform policy's occupancy; it is zero exactly at the states no
    policy reaches, which this raises StructuralError for. w' is w less y(s) at
    every action of state s, with (sum_a M)^T y = M^T w, so M^T w' = 0: both points
    satisfy the flow equations M^T d = -mu0, and eps keeps them above d0/2 > 0, so
    each is the occupancy of its per-state normalisation. Canonical forms sum to
    zero over each state's actions, so <w', C_i> = <w, C_i>. For w = C1^ - C2^,
    <w, C1^> >= 0 >= <w, C2^> with at least one strict, so one reward ranks the
    two policies strictly and the other ranks them the other way or ties them
    (when its form is zero); for w = C2 - C1, J2 - J1 rises by 2*eps*|w|^2.
    Each J scales back from its own reward's unit; one that overflows is inf.
    """
    n, k = mdp.n_states, mdp.n_actions
    d0 = _occupancy(mdp, np.full((n, k), 1.0 / k)).ravel()
    if (d0 <= 0).any():
        raise StructuralError(f"states {np.flatnonzero(d0[::k] <= 0).tolist()} are unreachable from mu0")
    m = shaping_matrix(mdp)
    w = w - np.repeat(np.linalg.solve(m.reshape(n, k, n).sum(axis=1).T, w @ m), k)
    peak = float(np.abs(w).max())
    eps = 0.5 * float(d0.min()) / peak if peak > 0 else 0.0
    d = np.array([d0 + eps * w, d0 - eps * w])
    policies = d.reshape(2, n, k) / d.reshape(2, n, k).sum(axis=2, keepdims=True)
    with np.errstate(over="ignore"):
        j1, j2 = (np.ldexp(d @ v, e).tolist() for v, e in zip(forms.v, forms.exp))
    return {"kind": "policy-pair", "policies": policies.tolist(), "j1": j1, "j2": j2}


def opt_equivalent(r1: RewardTable, r2: RewardTable, mdp: Mdp) -> EquivVerdict:
    """Same optimal-action sets per state; witness is the first differing state."""
    opt1 = optimal_values(mdp, r1).opt_sets
    opt2 = optimal_values(mdp, r2).opt_sets
    if opt1 == opt2:
        return EquivVerdict(equivalent=True, relation="opt")
    s = int((opt1.mask != opt2.mask).any(axis=1).argmax())
    witness = {"state": s, "opt1": sorted(opt1[s]), "opt2": sorted(opt2[s])}
    return EquivVerdict(equivalent=False, relation="opt", witness=witness)


def ord_equivalent(r1: RewardTable, r2: RewardTable, mdp: Mdp) -> EquivVerdict:
    """Same policy ordering: certificate v2 = c*v1 + M @ phi with c > 0, or a policy-pair witness.

    Accepted iff the normalised forms lie within DIST_TOL of each other (the
    STARC distance of Skalse et al., arXiv 2309.15257, here with value-adjusted
    levelling at the uniform policy as its canonicalisation); both zero means J is
    constant for both rewards. c = |c2| / |c1| in true units, or 1 when both are
    zero. Raises StructuralError when c or phi is outside float64 (c = 0 or inf,
    phi not finite), and on a refusal when a state is unreachable from mu0
    (validate_mdp): a reward there moves the forms but no J.
    """
    forms = canonical_forms(r1, r2, mdp)
    u_gap = forms.u[0] - forms.u[1]
    residual = float(np.linalg.norm(u_gap))
    if residual > DIST_TOL:
        cert, witness = None, _policy_pair(forms, u_gap, mdp)
    else:
        e1, e2 = forms.exp
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            c = float(np.ldexp(forms.size[1] / forms.size[0], e2 - e1)) if forms.u[0].any() else 1.0
            phi = np.ldexp(forms.p[1], e2) - c * np.ldexp(forms.p[0], e1)
        if not (0.0 < c < np.inf and np.isfinite(phi).all()):
            raise StructuralError(f"ord certificate outside float64: the rewards differ in size by ~2^{e2 - e1}")
        cert, witness = Decomposition(c=c, phi=PotentialFn(phi), residual=residual), None
    equivalent = cert is not None
    if mdp.n_actions**mdp.n_states <= CROSS_CHECK_CAP:
        unit = np.where(forms.u.any(axis=1), forms.size, forms.v_size)
        unit = np.where(unit > 0, unit, 1.0)
        j1, j2 = (vertex_j(mdp, forms.v) * ((1.0 - mdp.discount) / unit)).T
        span, dev, rise = _chord(j1, j2)
        off_chord = float(np.abs(dev).max())
        if span <= ROUNDOFF_RTOL:
            oracle_agrees = float(np.ptp(j2)) <= ROUNDOFF_RTOL
        else:
            oracle_agrees = rise > ROUNDOFF_RTOL and off_chord <= ROUNDOFF_RTOL
        gap = max(off_chord, -float(rise))
        if equivalent and gap > 4 * DIST_TOL + ROUNDOFF_RTOL * float((forms.v_size / unit).sum()):
            raise InternalConsistencyError(
                f"ord decider said True but J2 leaves the positive chord through J1 by {gap:.3e}")
        if not equivalent and oracle_agrees:
            raise InternalConsistencyError(
                "ord decider said False but J2 is a positive affine function of J1 on every vertex")
    return EquivVerdict(equivalent=equivalent, relation="ord", certificate=cert, witness=witness)


def j_equal(r1: RewardTable, r2: RewardTable, mdp: Mdp) -> EquivVerdict:
    """Identical J for every policy: certificate v2 = v1 + M @ phi with mu0 . phi = 0, or a policy-pair witness.

    The misfit is the larger of |c[1] - c[0]| and (1 - gamma)*|mu0 . phi|; no
    policy's (1 - gamma)*|J2 - J1| exceeds twice it. The residual is the misfit
    over the J scale, the larger bound |c[i]| + (1 - gamma)*|mu0 . p[i]| on
    (1 - gamma)*|J_i| (J_i(pi) = <d_pi, c[i]> - mu0 . p[i]), or 0 when the misfit
    is within ROUNDOFF_RTOL of the larger reward vector; accepted iff it is at
    most DIST_TOL. States must be reachable from mu0, as for ord_equivalent.
    """
    forms = canonical_forms(r1, r2, mdp)
    same = forms.common()  # restated once, for the certificate, the witness and the oracle
    phi, c_gap = same.p[1] - same.p[0], same.c[1] - same.c[0]
    shift = (1.0 - mdp.discount) * abs(float(mdp.initial @ phi))
    misfit = max(float(np.linalg.norm(c_gap)), shift)
    roundoff = ROUNDOFF_RTOL * float(same.v_size.max())
    scale = float((same.size + (1.0 - mdp.discount) * np.abs(same.p @ mdp.initial)).max())
    residual = 0.0 if misfit <= roundoff else misfit / scale
    if residual > DIST_TOL:
        cert, witness = None, _policy_pair(forms, c_gap, mdp)
    else:
        cert, witness = Decomposition(1.0, PotentialFn(np.ldexp(phi, same.exp.max())), residual), None
    equivalent = cert is not None
    if mdp.n_actions**mdp.n_states <= CROSS_CHECK_CAP:
        j_diff = vertex_j(mdp, same.v[:1] - same.v[1:])
        gap = (1.0 - mdp.discount) * float(np.abs(j_diff).max())
        if equivalent and gap > 2 * max(DIST_TOL * scale, roundoff) + roundoff:
            raise InternalConsistencyError(
                f"jeq decider said True but (1 - gamma)*J differs by {gap:.3e} at a vertex")
        if not equivalent and gap <= ROUNDOFF_RTOL * scale:
            raise InternalConsistencyError("jeq decider said False but J1 = J2 on every vertex")
    return EquivVerdict(equivalent=equivalent, relation="jeq", certificate=cert, witness=witness)
