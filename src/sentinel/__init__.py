"""Data-driven identification of attack-free sensors for networked LTI plants.

The package learns one-step predictors of stacked input/output histories
from attack-free recordings and uses them online to certify which sensors
of a plant remain trustworthy under data-injection, replay and
network-delay attacks on the sensor channels.
"""

__version__ = "0.1.0"

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    matrix_exponential,
    numerical_rank,
)
from .plant import (
    ContinuousStateSpace,
    StateSpace,
    discretize_zoh,
    is_controllable,
    is_observable,
    load_state_space,
    msd_benchmark,
    relative_degree,
    save_state_space,
    simulate,
)
from .datamat import (
    ExcitationError,
    ExcitationSignal,
    SubsetDataMatrices,
    Trajectory,
    TrajectoryLengthError,
    WindowError,
    build_subset_matrices,
    excitation_rank,
    generate_pe_input,
    hankel,
    is_persistently_exciting,
    load_trajectory,
    save_trajectory,
)
from .attacks import (
    AttackBudgetError,
    DelayAttack,
    InjectionAttack,
    ReplayAttack,
    SensorSubset,
    apply_attack,
    enumerate_subsets,
    load_scenario,
    save_scenario,
    seeded_injection_signal,
)
from .ddmodel import (
    DataDrivenModel,
    LearningError,
    RankReport,
    SubsetPredictor,
    certifying_rank,
    learn_lambda,
    learn_model,
    load_learned_model,
    predict,
    rank_condition,
    save_learned_model,
)
from .identify import (
    IdentificationVerdict,
    InjectionMonitor,
    NoResponseError,
    SubsetScore,
    identify_delay,
    identify_replay,
    injection_bootstrap,
    injection_step,
    run_injection,
    verdict_to_dict,
)
