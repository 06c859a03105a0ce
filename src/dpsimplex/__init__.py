"""Differentially private stochastic optimization over probability simplices.

Library layout:

* :mod:`dpsimplex.simplex` - simplex points, the one mirror-descent loop, vertex
  sampling and sparsification
* :mod:`dpsimplex.oracles` - the saddle objective interface, datasets,
  truncated geometric levels and the bias-reduced gradient estimator
* :mod:`dpsimplex.privacy` - budgets, composition rules, the exponential
  mechanism and the schedule planners
* :mod:`dpsimplex.solvers` - the private saddle-point solvers and the
  non-private baseline
* :mod:`dpsimplex.sco` - the private convex solver with anytime averaging
* :mod:`dpsimplex.problems` - benchmark problems, synthetic-data generation and
  the exact bilinear duality gap
* :mod:`dpsimplex.verify` - Monte-Carlo verification of the sparsification
  bounds
* :mod:`dpsimplex.cli` - seeded experiment runner

The package carries what its solvers and its CLI run. Reference oracles that
tests compare against live with the tests.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    ConfigError,
    DatasetError,
    DpSimplexError,
    OracleError,
    PlannerError,
)
from .oracles import (
    Dataset,
    PerSampleObjective,
    SaddleGradient,
    TruncGeom,
    batch_gradient,
    bias_reduced_gradient,
    sample_trunc_geom,
)
from .privacy import (
    BrPlan,
    PrivacyParams,
    ScoPlan,
    SsmdPlan,
    adaptive_budget_ok,
    advanced_composition_eps,
    exp_mech_sample,
    max_step_anytime_sco,
    max_step_vertex_smd,
    max_stop_weight_bias_reduced,
    plan_anytime_sco,
    plan_bias_reduced,
    plan_vertex_smd,
)
from .problems import (
    BilinearObjective,
    GapReport,
    MatrixGame,
    SeparableQuadratic,
    SynthDataProblem,
    SynthReport,
    exact_gap_bilinear,
    synth_data_generate,
)
from .rng import RngStream
from .sco import (
    ConvexObjective,
    ScoBatch,
    ScoSolution,
    solve_dp_sco,
)
from .simplex import (
    SimplexPoint,
    mwu_step,
    running_average,
    sample_vertex,
    sparsify,
    to_point,
)
from .solvers import (
    BrRunTrace,
    SaddleSolution,
    boosting_shape,
    solve_boosted,
    solve_smd_bias_reduced,
    solve_smd_nonprivate,
    solve_smd_vertex,
    solve_smd_vertex_batch,
)
from .verify import SUITE_NAMES, SuiteReport, run_all_suites, verify_maurey_suite

__all__ = [
    "BilinearObjective",
    "BrPlan",
    "BrRunTrace",
    "BudgetError",
    "ConfigError",
    "ConvexObjective",
    "Dataset",
    "DatasetError",
    "DpSimplexError",
    "GapReport",
    "MatrixGame",
    "OracleError",
    "PerSampleObjective",
    "PlannerError",
    "PrivacyParams",
    "RngStream",
    "SUITE_NAMES",
    "SaddleGradient",
    "SaddleSolution",
    "ScoPlan",
    "ScoBatch",
    "ScoSolution",
    "SeparableQuadratic",
    "SimplexPoint",
    "SsmdPlan",
    "SuiteReport",
    "SynthDataProblem",
    "SynthReport",
    "TruncGeom",
    "adaptive_budget_ok",
    "advanced_composition_eps",
    "batch_gradient",
    "bias_reduced_gradient",
    "boosting_shape",
    "exact_gap_bilinear",
    "exp_mech_sample",
    "max_step_anytime_sco",
    "max_step_vertex_smd",
    "max_stop_weight_bias_reduced",
    "mwu_step",
    "plan_anytime_sco",
    "plan_bias_reduced",
    "plan_vertex_smd",
    "run_all_suites",
    "running_average",
    "sample_trunc_geom",
    "sample_vertex",
    "solve_boosted",
    "solve_dp_sco",
    "solve_smd_bias_reduced",
    "solve_smd_nonprivate",
    "solve_smd_vertex",
    "solve_smd_vertex_batch",
    "sparsify",
    "synth_data_generate",
    "to_point",
    "verify_maurey_suite",
]
