"""The public API: ``dpsimplex`` exports what its solvers and its CLI run.

Reference oracles and fixtures that only tests read live in ``tests/reference.py``.
"""
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import dpsimplex
from dpsimplex.oracles import Dataset, PerSampleObjective
from dpsimplex.sco import ScoSolution, solve_dp_sco

PUBLIC = [
    "BilinearObjective", "BrPlan", "BrRunTrace", "BudgetError", "ConfigError",
    "ConvexObjective", "Dataset", "DatasetError", "DpSimplexError", "GapReport", "MatrixGame",
    "OracleError", "PerSampleObjective", "PlannerError", "PrivacyParams",
    "RngStream", "SUITE_NAMES", "SaddleGradient", "SaddleSolution", "ScoBatch", "ScoPlan",
    "ScoSolution", "SeparableQuadratic", "SimplexPoint", "SsmdPlan", "SuiteReport",
    "SynthDataProblem", "SynthReport", "TruncGeom",
    "advanced_composition_eps", "batch_gradient", "bias_reduced_gradient", "boosting_shape",
    "exact_gap_bilinear", "exp_mech_sample", "max_step_anytime_sco", "max_step_vertex_smd",
    "max_stop_weight_bias_reduced", "mwu_step", "plan_anytime_sco", "plan_bias_reduced",
    "plan_vertex_smd", "run_all_suites", "running_average",
    "sample_trunc_geom", "sample_vertex", "solve_boosted", "solve_dp_sco",
    "solve_smd_bias_reduced", "solve_smd_nonprivate", "solve_smd_vertex",
    "solve_smd_vertex_batch", "sparsify", "synth_data_generate", "to_point",
    "verify_maurey_suite",
]

# test-side now (tests/reference.py), deleted with the one test that checked only them, or
# deleted with no caller left
GONE = [
    "record_trace", "ScoTrace", "RegretDecomposition", "anytime_average_regret_decomposition",
    "gap_general", "_entropic_best_response", "NashReport", "nash_value_bruteforce",
    "SmokeReport", "first_release_distribution", "_first_release_rows", "dp_smoke_first_vertex",
    "check_objective", "ComponentLoss", "MaxLossProblem", "MaxLossObjective",
    "make_max_loss_objective", "smoothed_max_bilinear", "make_synth_data_objective",
    "_dense_average", "PopulationObjective", "population", "_mean_sign", "_point",
    "adaptive_budget_ok",
]

# parameter lists of the solver API: no option that no caller sets, and one form each
SIGNATURES = {
    dpsimplex.solve_smd_vertex: ["obj", "dataset", "plan", "rng"],
    dpsimplex.solve_smd_vertex_batch: ["obj", "dataset", "plan", "rngs"],
    dpsimplex.solve_smd_nonprivate: ["payoff", "T", "tau"],
    dpsimplex.batch_gradient: ["obj", "X", "Y", "batches"],
    dpsimplex.solve_boosted: ["obj", "dataset", "I", "J", "privacy", "rng"],
    dpsimplex.verify_maurey_suite: ["name", "reps", "rng"],
    dpsimplex.run_all_suites: ["reps", "rng"],
    dpsimplex.SsmdPlan.validate: ["self"],
    dpsimplex.ScoPlan.validate: ["self"],
}


# functions that take points: inside the library a point is a (d,) or an (R, d) array
POINT_PARAMETERS = {
    dpsimplex.sample_vertex: ["x", "rng"],
    dpsimplex.sparsify: ["x", "k", "rng"],
    dpsimplex.bias_reduced_gradient: ["obj", "x", "y", "N", "batch", "tg", "rng"],
    dpsimplex.exact_gap_bilinear: ["A", "x", "y"],
    PerSampleObjective.batch_value: ["self", "X", "Y", "zs"],
}

def test_public_names_are_pinned():
    assert len(PUBLIC) == 56
    assert sorted(dpsimplex.__all__) == sorted(PUBLIC)
    assert all(hasattr(dpsimplex, name) for name in PUBLIC)


def test_no_module_carries_a_test_only_name():
    modules = [dpsimplex] + [importlib.import_module(f"dpsimplex.{info.name}")
                             for info in pkgutil.iter_modules(dpsimplex.__path__)]
    assert len(modules) > 5
    left = [(m.__name__, name) for m in modules for name in GONE if hasattr(m, name)]
    assert left == []
    assert not hasattr(Dataset, "subset")
    assert not hasattr(dpsimplex.MatrixGame, "population")
    assert "trace" not in ScoSolution.__dataclass_fields__
    assert list(inspect.signature(solve_dp_sco).parameters) == [
        "obj", "dataset", "plan", "rngs"]


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda fn: fn.__qualname__)
def test_solver_api_parameters_are_pinned(fn):
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn]


@pytest.mark.parametrize("fn", list(POINT_PARAMETERS), ids=lambda fn: fn.__qualname__)
def test_point_parameters_are_arrays(fn):
    params = inspect.signature(fn).parameters
    assert list(params) == POINT_PARAMETERS[fn]
    points = [p for name, p in params.items() if name in ("x", "y", "X", "Y")]
    assert points and all(p.annotation == "np.ndarray" for p in points)

def test_synth_problem_fields_are_pinned():
    assert list(dpsimplex.SynthDataProblem.__dataclass_fields__) == ["queries", "data",
                                                                       "true_dist"]


def test_saddle_objective_has_no_per_sample_defaults():
    # an objective supplies its own batch gradient and value, like ConvexObjective
    assert not any(hasattr(PerSampleObjective, name) for name in ("value", "grad_x", "grad_y"))
    obj, x = PerSampleObjective(), np.full((1, 2), 0.5)
    with pytest.raises(NotImplementedError):
        obj.batch_grad_xy_rows(x, x, np.array([[1.0]]))
    with pytest.raises(NotImplementedError):
        obj.batch_value(x, x, np.array([1.0]))
