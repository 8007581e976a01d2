"""Deciders for reward equivalence relations, with certificates and an exact oracle.

Three relations over rewards in a fixed environment:

* ``opt`` - same optimal-action sets in every state;
* ``ord`` - same ordering of all policies by J (decided by the linear
  scaling-plus-shaping certificate, which scales past brute force);
* ``jeq`` - identical J for every policy.

The ord/jeq deciders carry a standing cross-check against an exact vertex
oracle whenever the A^S deterministic policies fit under the cap. J(pi) =
<d^pi, r> is linear in the occupancy d^pi, and the vertices of the occupancy
polytope are the deterministic policies, so one batched occupancy solve gives
every J table as ``d @ r``. Two rewards order all policies alike iff, relative
to the chord between the argmin-J1 and argmax-J1 vertices, J2 is a positive
affine function of J1 on every vertex (or both tables are flat); they give
every policy the same J iff J1 = J2 on every vertex.

The oracle has two thresholds. It disagrees confidently only beyond the
deviation an accepted certificate permits: a certificate with residual at
most DECOMP_TOL moves each J by at most DECOMP_TOL/(1 - gamma), hence a
vertex off the chord by at most twice that. It agrees confidently only within
the tie floor TIE_ATOL. In the band between the two it never raises. A
confident disagreement with the decider raises InternalConsistencyError: it
means a bug, never bad user input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError
from .mdp import Mdp, RewardTable
from .solve import deterministic_policies, occupancies, optimal_values, reward_vector
from .transform import DECOMP_TOL, Decomposition, decompose_j, decompose_ord

TIE_ATOL = 1e-9          # vertex J deviations within this count as exact agreement
CROSS_CHECK_CAP = 1024   # the oracle runs when A^S fits under this


@dataclass(frozen=True)
class EquivVerdict:
    equivalent: bool
    relation: str  # "opt" | "ord" | "jeq"
    certificate: Decomposition | None = None
    witness: dict | None = None


def _vertex_tables(r1: RewardTable, r2: RewardTable, mdp: Mdp):
    """(policies, occupancies, J1, J2) over every deterministic policy, or None past the cap."""
    if mdp.n_actions**mdp.n_states > CROSS_CHECK_CAP:
        return None
    probs = deterministic_policies(mdp, cap=CROSS_CHECK_CAP)
    d = occupancies(mdp, probs)
    flat = d.reshape(len(d), -1)
    return probs, d, flat @ reward_vector(r1, mdp).ravel(), flat @ reward_vector(r2, mdp).ravel()


def _chord(j1: np.ndarray, j2: np.ndarray):
    """Extreme J1 vertices, each vertex's position along them and its J2 deviation from the chord.

    Ties in J1 are broken by J2, so a vertex level with ``lo`` never lies
    below the chord and one level with ``hi`` never above it.
    """
    order = np.lexsort((j2, j1))
    lo, hi = order[0], order[-1]
    span = j1[hi] - j1[lo]
    t = (j1 - j1[lo]) / span if span > 0 else np.zeros_like(j1)
    rise = j2[hi] - j2[lo]
    return lo, hi, t, j2 - j2[lo] - t * rise, rise


def _flip_pair(j1: np.ndarray, j2: np.ndarray):
    """Vertices (i, k) with J1(i) < J1(k) and J2(i) > J2(k), both beyond the tie floor, or None."""
    order = np.argsort(j1, kind="stable")
    s1, s2 = j1[order], j2[order]
    best = np.maximum.accumulate(s2)
    below = np.searchsorted(s1, s1 - TIE_ATOL, side="left")  # s1[:below[k]] < s1[k] - TIE_ATOL
    margin = np.where(below > 0, best[below - 1] - s2, -np.inf)
    k = int(np.argmax(margin))
    if margin[k] <= TIE_ATOL:
        return None
    return int(order[np.argmax(s2[: below[k]])]), int(order[k])


def _policy_from_occupancy(d: np.ndarray) -> np.ndarray:
    """pi(a|s) = d(s,a) / sum_a d(s,a); uniform at states d never visits."""
    w = d.sum(axis=1, keepdims=True)
    return np.divide(d, w, out=np.full_like(d, 1.0 / d.shape[1]), where=w > 0)


def _ord_witness(probs, d, j1, j2, chord) -> dict:
    """Two policies whose J order differs under r1 and r2.

    A flipping deterministic pair when one exists. Otherwise every vertex is
    ordered alike, so the vertex ``v`` farthest from the chord is set against
    the occupancy mixture of the two extreme vertices that sits just past
    ``v`` in J1 and on the chord in J2, hence on the other side of ``v``. With
    no vertex off the chord, J2 is flat where J1 is not: the extremes differ.
    """
    lo, hi, t, dev, rise = chord
    v = int(np.argmax(np.abs(dev)))
    pair = _flip_pair(j1, j2)
    if pair is None and dev[v] == 0:
        pair = (lo, hi)
    if pair is not None:
        a, b = pair
        policies = [probs[a], probs[b]]
        ja, jb = (j1[a], j1[b]), (j2[a], j2[b])
    else:
        room = abs(dev[v]) / rise if rise > 0 else np.inf
        if dev[v] > 0:
            lam = t[v] + 0.5 * min(1.0 - t[v], room)
        else:
            lam = t[v] - 0.5 * min(t[v], room)
        mix = (1.0 - lam) * d[lo] + lam * d[hi]
        policies = [probs[v], _policy_from_occupancy(mix)]
        ja = (j1[v], (1.0 - lam) * j1[lo] + lam * j1[hi])
        jb = (j2[v], (1.0 - lam) * j2[lo] + lam * j2[hi])
    return {
        "kind": "policy-pair",
        "policies": [p.tolist() for p in policies],
        "j1": [float(x) for x in ja],
        "j2": [float(x) for x in jb],
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
    """Same policy ordering, decided by the decomposition certificate."""
    cert = decompose_ord(r1, r2, mdp)
    equivalent = cert is not None
    witness = None
    tables = _vertex_tables(r1, r2, mdp)
    if tables is not None:
        probs, d, j1, j2 = tables
        chord = lo, hi, _, dev, rise = _chord(j1, j2)
        off_chord = float(np.abs(dev).max())
        if j1[hi] - j1[lo] <= TIE_ATOL:
            oracle_agrees = float(np.ptp(j2)) <= TIE_ATOL
        else:
            oracle_agrees = rise > TIE_ATOL and off_chord <= TIE_ATOL
        gap = max(off_chord, -float(rise))
        if equivalent and gap > 2 * DECOMP_TOL / (1.0 - mdp.discount):
            raise InternalConsistencyError(
                f"ord decider said True but J2 leaves the positive chord through J1 by {gap:.3e}")
        if not equivalent and oracle_agrees:
            raise InternalConsistencyError(
                "ord decider said False but J2 is a positive affine function of J1 on every vertex")
        if not equivalent:
            witness = _ord_witness(probs, d, j1, j2, chord)
    elif not equivalent:
        witness = {"kind": "fit-residual", "note": "no scaling+shaping certificate exists"}
    return EquivVerdict(equivalent=equivalent, relation="ord", certificate=cert, witness=witness)


def j_equal(r1: RewardTable, r2: RewardTable, mdp: Mdp) -> EquivVerdict:
    """Identical J for every policy, decided by the constrained shaping fit."""
    cert = decompose_j(r1, r2, mdp)
    equivalent = cert is not None
    witness = None
    tables = _vertex_tables(r1, r2, mdp)
    if tables is not None:
        _, _, j1, j2 = tables
        gaps = np.abs(j1 - j2)
        gap = float(gaps.max())
        if equivalent and gap > DECOMP_TOL / (1.0 - mdp.discount):
            raise InternalConsistencyError(f"jeq decider said True but a vertex J differs by {gap:.3e}")
        if not equivalent and gap <= TIE_ATOL:
            raise InternalConsistencyError("jeq decider said False but J1 = J2 on every vertex")
        if not equivalent:
            witness = {"kind": "policy", "index": int(np.argmax(gaps)), "j_gap": gap}
    elif not equivalent:
        witness = {"kind": "fit-residual", "note": "no zero-mean shaping fit exists"}
    return EquivVerdict(equivalent=equivalent, relation="jeq", certificate=cert, witness=witness)
