"""Tabular-MDP toolkit for reward transformations, equivalence, and robustness checks."""

from .equiv import (
    EquivVerdict,
    j_equal,
    opt_equivalent,
    ord_equivalent,
)
from .lab import (
    CounterexampleRecord,
    ExperimentConfig,
    TrialReport,
    misspec_counterexample,
    random_mdp,
    random_policy,
    random_reward,
    run_registry,
    verify_claim,
)
from .mdp import (
    ActionSetPolicy,
    Mdp,
    RewardTable,
    StochasticPolicy,
    ValidationReport,
    is_trivial_transition,
    validate_mdp,
)
from .models import (
    boltzmann_policy,
    fvariant_policy,
    invert_boltzmann,
    invert_mce,
    mce_policy,
    optimal_set_policy,
)
from .solve import (
    ControllableStates,
    OccupancyVector,
    OptimalBundle,
    SoftBundle,
    ValueBundle,
    controllable_states,
    occupancy,
    optimal_values,
    policy_evaluate,
    reward_vector,
    soft_optimal_values,
)
from .transform import (
    Chain,
    Decomposition,
    LinearScaling,
    OptimalityPreserving,
    PotentialFn,
    PotentialShaping,
    SuccessorRedistribution,
    TransformSpec,
    apply,
    canonical_forms,
    decompose_j,
    decompose_ord,
    sample_optimality_preserving,
    sample_potential_shaping,
    sample_s_redistribution,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
