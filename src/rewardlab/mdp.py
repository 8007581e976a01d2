"""Finite MDP, reward, and policy data model.

Conventions used throughout the package:

* transition tensors are indexed ``[s, a, s']`` and each ``[s, a, :]`` row is a
  probability vector;
* rewards are always stored as a full ``(S, A, S)`` tensor; a reward on the
  restricted domain ``S x A`` or ``S`` is built broadcast over the rest
  (``RewardTable.from_sa``, ``RewardTable.from_state``);
* all values are immutable after construction and all operations are pure;
  a value object holding an array compares and hashes by identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError, StructuralError

PROB_ATOL = 1e-9            # validation tolerance for probability vectors
TRIVIAL_ATOL = 1e-12        # tolerance for "all actions share a successor row"
DEFAULT_ENUM_CAP = 65536    # deterministic-policy enumeration cap


def _freeze(obj, field: str, dtype=float) -> np.ndarray:
    """Store ``obj.field`` as a read-only array copy of ``dtype`` and return it."""
    arr = np.array(getattr(obj, field), dtype=dtype)
    arr.setflags(write=False)
    object.__setattr__(obj, field, arr)
    return arr


@dataclass(frozen=True, eq=False)
class Mdp:
    """A finite MDP without its reward: (S, A, tau, mu0, gamma).

    The reward is carried separately (see :class:`RewardTable`) because the
    whole point of the package is to vary it against a fixed environment.
    """

    transition: np.ndarray
    initial: np.ndarray
    discount: float

    def __post_init__(self):
        tau = _freeze(self, "transition")
        if tau.ndim != 3 or tau.shape[0] != tau.shape[2]:
            raise StructuralError(f"transition must be (S, A, S), got {tau.shape}")
        mu0 = _freeze(self, "initial")
        if mu0.shape != tau.shape[:1]:
            raise StructuralError(f"initial: expected shape {tau.shape[:1]}, got {mu0.shape}")
        if not (0.0 < float(self.discount) < 1.0):
            # The solvers all rely on the geometric series converging.
            raise StructuralError(f"discount must lie in (0, 1), got {self.discount}")
        object.__setattr__(self, "discount", float(self.discount))

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]

    def check_reward(self, r: "RewardTable") -> None:
        """Raise StructuralError unless ``r`` is defined on this MDP's (S, A, S') grid."""
        if r.values.shape != self.transition.shape:
            raise StructuralError(f"reward is {r.values.shape} but the MDP is {self.transition.shape}")

    def with_discount(self, gamma: float) -> "Mdp":
        return replace(self, discount=gamma)

    def with_transition(self, tau) -> "Mdp":
        return replace(self, transition=tau)


@dataclass(frozen=True, eq=False)
class RewardTable:
    """An (S, A, S') reward tensor; a restricted-domain reward is stored fully broadcast."""

    values: np.ndarray

    def __post_init__(self):
        vals = _freeze(self, "values")
        if vals.ndim != 3 or vals.shape[0] != vals.shape[2]:
            raise StructuralError(f"reward values must be (S, A, S), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise StructuralError("reward values must be finite")

    @classmethod
    def from_sa(cls, table) -> "RewardTable":
        """The reward of an (S, A) table, broadcast over s'."""
        arr = np.array(table, dtype=float)
        if arr.ndim != 2:
            raise StructuralError(f"expected (S, A) table, got shape {arr.shape}")
        return cls(np.repeat(arr[:, :, None], arr.shape[0], axis=2))

    @classmethod
    def from_state(cls, vec, n_actions: int) -> "RewardTable":
        """The reward of a per-state vector, broadcast over (a, s')."""
        arr = np.array(vec, dtype=float)
        if arr.ndim != 1:
            raise StructuralError(f"expected (S,) vector, got shape {arr.shape}")
        n = arr.shape[0]
        return cls(np.broadcast_to(arr[:, None, None], (n, n_actions, n)))

    @property
    def n_states(self) -> int:
        return self.values.shape[0]

    @property
    def n_actions(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class StochasticPolicy:
    """Row-stochastic pi[s, a] table."""

    probs: np.ndarray

    def __post_init__(self):
        p = _freeze(self, "probs")
        if p.ndim != 2:
            raise StructuralError(f"policy must be (S, A), got shape {p.shape}")
        if not np.all(p >= 0):  # also rejects NaN; +-inf fails the row-sum test
            raise StructuralError("policy probabilities must be non-negative")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > PROB_ATOL:
            raise StructuralError("policy rows must sum to 1")

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def n_actions(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True, eq=False)
class ActionSetPolicy:
    """Per-state non-empty action sets as one read-only (S, A) mask; ``policy[s]`` is a frozenset of ints."""

    mask: np.ndarray

    def __post_init__(self):
        mask = _freeze(self, "mask", bool)
        if mask.ndim != 2 or not mask.any(axis=1).all():
            raise StructuralError(f"need an (S, A) mask with no empty action set, got shape {mask.shape}")

    def __getitem__(self, s: int) -> frozenset:
        return frozenset(np.flatnonzero(self.mask[s]).tolist())

    def __len__(self) -> int:
        return len(self.mask)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        return isinstance(other, ActionSetPolicy) and np.array_equal(self.mask, other.mask)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_mdp: ok iff no rule was violated."""

    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def rule_ids(self) -> list[str]:
        return [v[0] for v in self.violations]


def reachable_states(mdp: Mdp) -> np.ndarray:
    """Boolean mask of the states some policy reaches from supp(mu0).

    Fixed point of support expansion; action probabilities are irrelevant,
    only the support graph matters.
    """
    support = (mdp.transition > 0.0).any(axis=1)
    reached = mdp.initial > 0.0
    while True:
        grown = reached | support[reached].any(axis=0)
        if (grown == reached).all():
            return reached
        reached = grown


def validate_mdp(mdp: Mdp) -> ValidationReport:
    """Check probability invariants and reachability, reporting every violation.

    Violations are (rule-id, location, magnitude) triples, with a finite
    magnitude: a non-finite transition or mu0 reports its count of non-finite
    entries, and no other rule is checked then. Shape problems are structural
    and already raise at construction time.
    """
    tau, mu0 = mdp.transition, mdp.initial
    violations = []
    for name, arr in (("transition", tau), ("mu0", mu0)):
        bad = np.count_nonzero(~np.isfinite(arr))
        if bad:
            violations.append(("non-finite", name, float(bad)))
    if violations:
        return ValidationReport(tuple(violations))

    neg, gap = -tau.min(axis=2), np.abs(tau.sum(axis=2) - 1.0)
    for s, a in zip(*np.nonzero((neg > 0) | (gap > PROB_ATOL))):
        if neg[s, a] > 0:
            violations.append(("negative-entry", f"(s{s},a{a})", float(neg[s, a])))
        if gap[s, a] > PROB_ATOL:
            violations.append(("row-sum", f"(s{s},a{a})", float(gap[s, a])))

    if mu0.min() < 0:
        violations.append(("mu0-negative", "mu0", float(-mu0.min())))
    gap = abs(mu0.sum() - 1.0)
    if gap > PROB_ATOL:
        violations.append(("mu0-sum", "mu0", float(gap)))

    if not violations:
        for s in np.flatnonzero(~reachable_states(mdp)):
            violations.append(("unreachable-state", f"s{s}", 1.0))

    return ValidationReport(tuple(violations))


def is_trivial_transition(mdp: Mdp) -> bool:
    """True iff every state's actions share one successor distribution."""
    tau = mdp.transition
    diff = np.abs(tau[:, :, None, :] - tau[:, None, :, :]).max()
    return bool(diff <= TRIVIAL_ATOL)


def enumerate_action_tuples(n_states: int, n_actions: int) -> np.ndarray:
    """All deterministic action assignments as an (A^S, S) int array, s0-major; at most DEFAULT_ENUM_CAP."""
    count = n_actions**n_states
    if count > DEFAULT_ENUM_CAP:
        raise CapacityError(
            f"{n_actions}^{n_states} = {count} deterministic policies exceeds cap {DEFAULT_ENUM_CAP}"
        )
    return np.indices((n_actions,) * n_states).reshape(n_states, count).T
