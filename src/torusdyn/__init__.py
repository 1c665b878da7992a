"""Variational and symbolic dynamics on tori.

Mechanical Lagrangians and their Euler-Lagrange flow, discretized action
potentials and Mane critical values, subshifts of finite type with block
recodings and short-periodic-orbit bounds, suspension flows with lifted
measures, Bowen-style entropy estimators, exact shadowing on linear
hyperbolic toral automorphisms, and canal-potential perturbation
experiments.
"""

from .action import (
    ActionValue,
    BrokenPath,
    NegativeLoopSearch,
    action,
    action_potential,
    critical_value,
    staticity_defect,
    tonelli_minimizer,
)
from .entropy import (
    FinitePartition,
    LabeledOrbitEnsemble,
    WeightedMeasure,
    build_inner_partition,
    conditional_entropy,
    entropy_estimate,
    gamma_set,
    gamma_sets,
    h_expansivity_probe,
    jensen_bound,
    partition_entropy,
    refine_entropy,
    separated_count,
    spanning_count,
)
from .fields import FourierSeries, OneForm, SumField, grid_maximum
from .hyperbolic import (
    PseudoOrbit,
    Specification,
    ToralAutomorphism,
    bracket,
    cat_map,
    expansivity_gap,
    orbit_ensemble,
    periodic_shadow,
    shadow,
    shadow_specification,
)
from .lagrangian import (
    MechanicalLagrangian,
    PhaseState,
    Trajectory,
    apriori_speed_bound,
    el_flow,
    energy,
)
from .perturbation import CanalPotential, experiment_localization, perturb
from .sft import (
    GOLDEN_MEAN,
    BlockRecoding,
    PeriodicOrbit,
    PerronPair,
    TransitionMatrix,
    block_recode,
    bq_bound,
    count_words,
    d_a_distance,
    full_shift,
    perron_pair,
    project_cycle,
    shortest_cycle,
    top_entropy,
)
from .suspension import (
    CeilingFunction,
    MarkovMeasure,
    OrbitMeasure,
    SuspensionPoint,
    SymbolWindow,
    lift_measure,
    orbit_weight,
    parry_measure,
    suspend_flow,
)

__version__ = "0.1.0"
