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
    gamma_counterexample,
    random_mdp,
    random_policy,
    random_reward,
    run_registry,
    tau_counterexample,
    verify_claim,
)
from .mdp import (
    ActionSetPolicy,
    Mdp,
    RewardTable,
    StochasticPolicy,
    ValidationReport,
    is_trivial_transition,
    lift_reward,
    validate_mdp,
)
from .models import (
    FVariantSpec,
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
    ConstantShift,
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
    decompose_ps_ls,
    sample_optimality_preserving,
    sample_potential_shaping,
    sample_s_redistribution,
    shaping_on_sa_domain,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
