"""Exact tabular laboratory for cooperative multi-agent optimality.

Models and oracles live in `core`, the sequential transformation and
distillation in `transform`, gradient-descent learners and single-agent
solvers in `learners`, benchmark games and counterexample constructions in
`constructions`, certificates in `analysis`, the four optimality claims'
checks in `claims`, and the experiment runner and claim verifier in `cli`.
"""

from .core import (
    CoordinationPolicy,
    DecentralizedPolicySet,
    Mdp,
    Mmdp,
    SizeGuardError,
    bellman_backup,
    brute_force_optimal,
    evaluate_policy,
    greedy_codes,
    joint_code,
    joint_digits,
    load_env_file,
    matrix_game,
    mmdp_from_dict,
    mmdp_to_dict,
    policy_slices,
    validate,
)
from .transform import (
    greedy_distill,
    inverse_transform,
    kl_distill,
    layered_optimal_values,
    lift_policy,
    lower_policy,
    sequential_transform,
    size_report,
    value_relation_check,
)
from .learners import (
    GdDivergenceError,
    MapgParams,
    ReplicaTraces,
    TrainTrace,
    VdParams,
    duplex_decompose,
    gd_run,
    igm_check,
    layered_q_learning,
    mapg_loss_and_grad,
    mapg_objective,
    q_learning,
    run_mapg,
    run_vd,
    softmax_pg,
    tad_run,
    value_iteration,
    vd_loss_and_grad,
    vd_objective,
)
from .constructions import (
    builtin_game,
    builtin_names,
    construct_local_minima,
    random_matrix_game,
    random_mmdp,
    restricted_minimizer,
    undercut_diag_payoff,
    undercut_diag_values,
    undercut_recurrence,
)
from .analysis import (
    duplex_trap_certificate,
    grad_check,
    local_min_certificate,
    ne_count_exact,
    ne_count_expectation,
    stationarity_certificate,
    suboptimality_gap,
)

__version__ = "0.1.0"
