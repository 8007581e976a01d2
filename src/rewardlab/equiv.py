"""Deciders for reward equivalence relations, with certificates, witnesses and an exact oracle.

Three relations over rewards in a fixed environment:

* ``opt`` - same optimal-action sets in every state;
* ``ord`` - same ordering of all policies by J;
* ``jeq`` - identical J for every policy.

ord and jeq are decided on the canonical forms of the two rewards (see
``rewardlab.transform``), so verdicts hold at every reward scale. At any
size, a negative verdict carries two policies built from the same forms
(see _policy_pair).

Whenever the A^S deterministic policies fit under the cap, the ord/jeq
verdicts are cross-checked against an exact vertex oracle. J(pi) = <d^pi, r>
is linear in the occupancy d^pi, whose polytope has the deterministic
policies as vertices, so one batched occupancy solve gives every J table.
Rewards order all policies alike iff J2 is a positive affine function of J1
on every vertex (measured off the chord through the extreme J1 vertices, or
both tables flat), and give every policy the same J iff J1 = J2 there. The
oracle takes J from the reward vectors but measures it on the deciders'
scales (|C|, or ``j_scale`` for jeq), since |rv| grows with shaping that
changes no behaviour. It raises InternalConsistencyError, which means a bug,
only on a confident disagreement: a deviation beyond what an accepted
certificate permits plus the round-off of J at the size of rv, or agreement
within ROUNDOFF_RTOL when the decider refused. In between it stays silent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError
from .mdp import Mdp, RewardTable
from .solve import deterministic_policies, occupancies, optimal_values
from .transform import (
    DIST_TOL,
    ROUNDOFF_RTOL,
    CanonicalForms,
    Decomposition,
    canonical_forms,
    decompose_j,
    decompose_ord,
    j_scale,
)

CROSS_CHECK_CAP = 1024   # the oracle runs when A^S fits under this


@dataclass(frozen=True)
class EquivVerdict:
    equivalent: bool
    relation: str  # "opt" | "ord" | "jeq"
    certificate: Decomposition | None = None
    witness: dict | None = None


def _occupancies(mdp: Mdp, equivalent: bool):
    """Flattened occupancies of the uniform policy and of every deterministic policy under the cap.

    Only a refusal's witness needs the uniform policy, so an equivalent
    verdict skips it, and past the cap then solves nothing.
    """
    n, k = mdp.n_states, mdp.n_actions
    probs = np.full((0 if equivalent else 1, n, k), 1.0 / k)
    if k**n <= CROSS_CHECK_CAP:
        probs = np.concatenate([probs, deterministic_policies(mdp, cap=CROSS_CHECK_CAP)])
    d = occupancies(mdp, probs).reshape(len(probs), -1) if len(probs) else np.zeros((0, n * k))
    return (None, d) if equivalent else (d[0], d[1:])


def _chord(j1: np.ndarray, j2: np.ndarray):
    """J1's span, each vertex's J2 deviation from the chord through the extreme J1 vertices, and its rise.

    Ties in J1 are broken by J2, so a vertex level with the lowest never lies
    below the chord and one level with the highest never above it.
    """
    order = np.lexsort((j2, j1))
    lo, hi = order[0], order[-1]
    span = j1[hi] - j1[lo]
    t = (j1 - j1[lo]) / span if span > 0 else np.zeros_like(j1)
    rise = j2[hi] - j2[lo]
    return span, j2 - j2[lo] - t * rise, rise


def _policy_pair(forms: CanonicalForms, w: np.ndarray, d0: np.ndarray, mdp: Mdp) -> dict:
    """The policies with occupancies d0 + eps*w and d0 - eps*w, and their J under r1 and r2.

    d0 is the uniform policy's occupancy. A combination w of canonical forms
    has M^T w = 0, so both points satisfy the flow equations M^T d = -mu0, and
    eps keeps them above d0/2 > 0: each is the occupancy of its per-state
    normalisation (uniform at a state it never visits). For w = C1^ - C2^,
    <w, C1^> > 0 >= <w, C2^>, so J1 rises from the second policy to the first
    while J2 falls (or stays level when C2 is zero); for w = C2 - C1, J2 - J1
    rises by 2*eps*|w|^2.
    """
    n, k = mdp.n_states, mdp.n_actions
    peak = float(np.abs(w).max())
    eps = 0.5 * float(d0.min()) / peak if peak > 0 else 0.0
    d = np.array([d0 + eps * w, d0 - eps * w])
    mass = d.reshape(2, n, k).sum(axis=2, keepdims=True)
    policies = np.divide(d.reshape(2, n, k), mass, out=np.full((2, n, k), 1.0 / k), where=mass > 0)
    return {
        "kind": "policy-pair",
        "policies": policies.tolist(),
        "j1": (d @ forms.v[0]).tolist(),
        "j2": (d @ forms.v[1]).tolist(),
    }


def opt_equivalent(r1: RewardTable, r2: RewardTable, mdp: Mdp) -> EquivVerdict:
    """Same optimal-action sets per state; witness is the first differing state."""
    opt1 = optimal_values(mdp, r1).opt_sets
    opt2 = optimal_values(mdp, r2).opt_sets
    for s in range(mdp.n_states):
        if opt1[s] != opt2[s]:
            witness = {"state": s, "opt1": sorted(opt1[s]), "opt2": sorted(opt2[s])}
            return EquivVerdict(equivalent=False, relation="opt", witness=witness)
    return EquivVerdict(equivalent=True, relation="opt")


def ord_equivalent(r1: RewardTable, r2: RewardTable, mdp: Mdp) -> EquivVerdict:
    """Same policy ordering, decided on the canonical forms (see decompose_ord)."""
    forms = canonical_forms(r1, r2, mdp)
    cert = decompose_ord(forms)
    equivalent = cert is not None
    d0, d = _occupancies(mdp, equivalent)
    if len(d):
        unit = np.where(forms.u.any(axis=1), forms.size, forms.v_size)
        unit = np.where(unit > 0, unit, 1.0)
        j1, j2 = (d @ forms.v.T * ((1.0 - mdp.discount) / unit)).T
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
    witness = None if equivalent else _policy_pair(forms, forms.u[0] - forms.u[1], d0, mdp)
    return EquivVerdict(equivalent=equivalent, relation="ord", certificate=cert, witness=witness)


def j_equal(r1: RewardTable, r2: RewardTable, mdp: Mdp) -> EquivVerdict:
    """Identical J for every policy, decided on the canonical forms (see decompose_j)."""
    forms = canonical_forms(r1, r2, mdp)
    cert = decompose_j(forms, mdp)
    equivalent = cert is not None
    d0, d = _occupancies(mdp, equivalent)
    if len(d):
        scale = j_scale(forms, mdp)
        roundoff = ROUNDOFF_RTOL * float(forms.v_size.max())
        gap = (1.0 - mdp.discount) * float(np.abs(d @ (forms.v[0] - forms.v[1])).max())
        if equivalent and gap > 2 * max(DIST_TOL * scale, roundoff) + roundoff:
            raise InternalConsistencyError(
                f"jeq decider said True but (1 - gamma)*J differs by {gap:.3e} at a vertex")
        if not equivalent and gap <= ROUNDOFF_RTOL * scale:
            raise InternalConsistencyError("jeq decider said False but J1 = J2 on every vertex")
    witness = None if equivalent else _policy_pair(forms, forms.c[1] - forms.c[0], d0, mdp)
    return EquivVerdict(equivalent=equivalent, relation="jeq", certificate=cert, witness=witness)
