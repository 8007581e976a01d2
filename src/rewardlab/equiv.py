"""Deciders for reward equivalence relations, each verdict checked against its own certificate or witness.

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
(_policy_pair). jeq also refuses whenever ord's test does, so jeq implies ord.

Every ord/jeq verdict is checked at every size on the expected-reward vectors
(the forms' v: reward_vector times an exact power of two) and the transition
array, never on the forms' c, p or u, which set only the tolerances' sizes.
J(pi) = <d, rv> for pi's occupancy d, which meets the flow equations
M^T d = -mu0, so |d|_1 = 1/(1 - gamma). An accepted certificate must rebuild v2
as c*v1 + M @ phi within what DIST_TOL allows plus round-off (_misfit), which
bounds (1 - gamma)*|J2 - c*J1 + mu0 . phi| at every policy. A refusal's witness
points must meet the flow equations, and the rewards must rank them apart (ord)
or give them different J (jeq) beyond round-off. A failed check raises
InternalConsistencyError, which means a bug; tests/oracles.py keeps the exact
vertex oracle as the test suite's reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, StructuralError
from .mdp import Mdp, RewardTable
from .solve import ROUNDOFF_RTOL, _occupancy, optimal_values
from .transform import CanonicalForms, PotentialFn, canonical_forms

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


def _factors(forms: CanonicalForms) -> tuple[float, float]:
    """2^(exp - max(exp)): the factors that restate each reward's own unit in the unit of the larger."""
    top = max(forms.exp.tolist())
    return tuple(math.ldexp(1.0, e - top) for e in forms.exp.tolist())


def _policy_pair(forms: CanonicalForms, w: np.ndarray, mdp: Mdp, j_scale: float | None = None) -> dict:
    """The policies with occupancies d0 + eps*w' and d0 - eps*w', and their J under r1 and r2, checked.

    d0 is the uniform policy's occupancy; it is zero exactly at the states no
    policy reaches, which this raises StructuralError for. w' is w less y(s) at
    every action of state s, with (sum_a M)^T y = M^T w, so M^T w' = 0: both points
    satisfy the flow equations M^T d = -mu0, and eps keeps them above d0/2 > 0, so
    each is the occupancy of its per-state normalisation. Canonical forms sum to
    zero over each state's actions, so <w', C_i> = <w, C_i>. For w = C1^ - C2^,
    <w, C1^> >= 0 >= <w, C2^> with at least one strict, so one reward ranks the
    two policies strictly and the other ranks them the other way or ties them
    (when its form is zero); for w = C2 - C1, J2 - J1 rises by 2*eps*|w|^2. A w'
    within ROUNDOFF_RTOL of w is only the projection's cancellation, so eps is 0
    and the uniform policy alone witnesses a shift in J. Each J scales back from
    its own reward's unit; one that overflows is inf. Raises
    InternalConsistencyError unless both points meet the flow equations within
    ROUNDOFF_RTOL of max d0 and, for ord (no j_scale), the policies differ and
    neither reward ranks them the wrong way by over 4*ROUNDOFF_RTOL*|v| /
    (1 - gamma), or, for jeq (forms in one unit), (1 - gamma)*|J2 - J1| exceeds
    ROUNDOFF_RTOL*j_scale at one.
    """
    n, k, gamma = mdp.n_states, mdp.n_actions, mdp.discount
    d0 = _occupancy(mdp, np.full((n, k), 1.0 / k)).ravel()
    if (d0 <= 0).any():
        raise StructuralError(f"states {np.flatnonzero(d0[::k] <= 0).tolist()} are unreachable from mu0")
    tau = mdp.transition.reshape(n * k, n)
    summed = gamma * mdp.transition.sum(axis=1) - k * np.eye(n)  # sum_a M
    flow = w - np.repeat(np.linalg.solve(summed.T, gamma * (w @ tau) - w.reshape(n, k).sum(axis=1)), k)
    peak = float(np.abs(flow).max())
    eps = 0.5 * float(d0.min()) / peak if peak > ROUNDOFF_RTOL * float(np.abs(w).max()) else 0.0
    d = np.array([d0 + eps * flow, d0 - eps * flow])
    j1, j2 = (d @ v for v in forms.v)  # each reward's J at both policies, in its own unit
    visits = d.reshape(2, n, k).sum(axis=2, keepdims=True)
    imbalance = float(np.abs(gamma * (d @ tau) - visits[..., 0] + mdp.initial).max()) / float(d0.max())
    if j_scale is None:  # ord: two policies, neither ranked the wrong way beyond round-off
        slack = 4 * ROUNDOFF_RTOL / (1.0 - gamma) * forms.v_size
        holds = eps > 0 and j1[1] - j1[0] <= slack[0] and j2[0] - j2[1] <= slack[1]
    else:  # jeq, on forms in one unit: J1 != J2 beyond round-off at one of them
        holds = (1.0 - gamma) * float(np.abs(j2 - j1).max()) > ROUNDOFF_RTOL * j_scale
    if not holds or imbalance > ROUNDOFF_RTOL:
        raise InternalConsistencyError(f"{'ord' if j_scale is None else 'jeq'} decider said False but its witness"
                                       f" pair fails its check (flow imbalance {imbalance:.1e} of max d0)")
    policies = d.reshape(2, n, k) / visits
    with np.errstate(over="ignore"):
        j1, j2 = (np.ldexp(j, e).tolist() for j, e in zip((j1, j2), forms.exp))
    return {"kind": "policy-pair", "policies": policies.tolist(), "j1": j1, "j2": j2}


def _misfit(forms: CanonicalForms, cert: Decomposition, mdp: Mdp) -> float:
    """|v2 - c*v1 - M @ phi| for a certificate (c, phi) in the larger reward's unit, M @ phi = gamma*tau@phi - phi."""
    a1, a2 = _factors(forms)
    phi = np.ldexp(cert.phi.phi, -max(forms.exp.tolist()))
    e = np.array([-cert.c * a1, a2]) @ forms.v + phi.repeat(mdp.n_actions)
    e -= mdp.discount * (mdp.transition.reshape(-1, mdp.n_states) @ phi)
    return math.sqrt(e @ e)


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
    STARC distance of Skalse et al., arXiv 2309.15257, with value-adjusted
    levelling at the uniform policy); both zero means J is constant for both
    rewards. c = |c2| / |c1| in true units, or 1 when both are zero. Raises
    InternalConsistencyError when the certificate misses v2 by over 2*DIST_TOL*
    |C2| + ROUNDOFF_RTOL*(|v2| + c*|v1|); StructuralError when c or phi is outside
    float64 (c = 0 or inf, phi not finite), and on a refusal when a state is
    unreachable from mu0 (validate_mdp): a reward there moves the forms but no J.
    """
    forms = canonical_forms(r1, r2, mdp)
    u_gap = forms.u[0] - forms.u[1]
    residual = math.sqrt(u_gap @ u_gap)
    if residual > DIST_TOL:
        return EquivVerdict(equivalent=False, relation="ord", witness=_policy_pair(forms, u_gap, mdp))
    e1, e2 = forms.exp
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        c = float(np.ldexp(forms.size[1] / forms.size[0], e2 - e1)) if forms.u[0].any() else 1.0
        phi = np.ldexp(forms.p[1], e2) - c * np.ldexp(forms.p[0], e1)
    if not (0.0 < c < np.inf and np.isfinite(phi).all()):
        raise StructuralError(f"ord certificate outside float64: the rewards differ in size by ~2^{e2 - e1}")
    cert = Decomposition(c=c, phi=PotentialFn(phi), residual=residual)
    (a1, a2), misfit = _factors(forms), _misfit(forms, cert, mdp)
    if misfit > 2 * DIST_TOL * a2 * forms.size[1] + ROUNDOFF_RTOL * (a2 * forms.v_size[1] + c * a1 * forms.v_size[0]):
        raise InternalConsistencyError(f"ord decider said True but its certificate misses v2 by {misfit:.3e}")
    return EquivVerdict(equivalent=True, relation="ord", certificate=cert)


def j_equal(r1: RewardTable, r2: RewardTable, mdp: Mdp) -> EquivVerdict:
    """Identical J for every policy: certificate v2 = v1 + M @ phi with mu0 . phi = 0, or a policy-pair witness.

    The misfit is the larger of |c[1] - c[0]| and (1 - gamma)*|mu0 . phi|; no
    policy's (1 - gamma)*|J2 - J1| exceeds twice it. The residual is the misfit
    over the J scale, the larger bound |c[i]| + (1 - gamma)*|mu0 . p[i]| on
    (1 - gamma)*|J_i| (J_i(pi) = <d_pi, c[i]> - mu0 . p[i]), or 0 when the misfit
    is within ROUNDOFF_RTOL of the larger reward vector; accepted iff it is at
    most DIST_TOL and ord_equivalent's test accepts. Raises InternalConsistencyError
    when the certificate's misfit plus the shift exceeds twice the larger of
    DIST_TOL*scale and that round-off, plus the round-off. States must be
    reachable from mu0, as for ord_equivalent.
    """
    forms = canonical_forms(r1, r2, mdp)
    same = forms.common()  # restated once, for the test and the certificate
    phi, c_gap = same.p[1] - same.p[0], same.c[1] - same.c[0]
    shift = (1.0 - mdp.discount) * abs(float(mdp.initial @ phi))
    misfit = max(math.sqrt(c_gap @ c_gap), shift)
    roundoff = ROUNDOFF_RTOL * float(same.v_size.max())
    scale = float((same.size + (1.0 - mdp.discount) * np.abs(same.p @ mdp.initial)).max())
    residual = 0.0 if misfit <= roundoff else misfit / scale
    if residual > DIST_TOL:
        return EquivVerdict(equivalent=False, relation="jeq", witness=_policy_pair(same, c_gap, mdp, scale))
    u_gap = same.u[0] - same.u[1]
    if math.sqrt(u_gap @ u_gap) > DIST_TOL:  # ord's witness pair, ranked apart, has J1 != J2 at one policy
        return EquivVerdict(equivalent=False, relation="jeq", witness=_policy_pair(same, u_gap, mdp))
    cert = Decomposition(1.0, PotentialFn(np.ldexp(phi, same.exp.max())), residual)
    gap = _misfit(forms, cert, mdp) + shift
    if gap > 2 * max(DIST_TOL * scale, roundoff) + roundoff:
        raise InternalConsistencyError(f"jeq decider said True but its certificate misses (1 - gamma)*J by {gap:.3e}")
    return EquivVerdict(equivalent=True, relation="jeq", certificate=cert)
