"""Faults in the descent loop, its step functions and their gradients, each caught by a named check.

Each case applies one fault by monkeypatch, with no source edit, and runs an
existing test of the suite that must then fail. None of the checks is a byte
pin: a pin fails for any change, benign or not, so it shows nothing about a
fault. Each check passes in its own module on the unbroken code.
"""
import math

import numpy as np
import pytest

import test_oracles
import test_sco
import test_solvers
from dpsimplex import problems, sco, simplex, solvers
from dpsimplex.problems import BilinearObjective
from test_oracles import game  # noqa: F401  (the fixture test_oracles' checks take)
from test_sco import quad  # noqa: F401  (the fixture test_sco's checks take)

CHECK_FAILED = (AssertionError, pytest.fail.Exception)  # a failed assert or "DID NOT RAISE"


def y_block_ascends(monkeypatch):
    """The saddle solvers' y log-weights move against the direction their step returns."""
    loop = solvers.mirror_descent

    def ascending(dims, rows, tau, schedule, step):
        def y_flipped(item, x_t, y_t):
            dx, dy = step(item, x_t, y_t)
            return dx, -dy

        return loop(dims, rows, tau, schedule, y_flipped)

    monkeypatch.setattr(solvers, "mirror_descent", ascending)


def surrogate_never_refreshed_after_q(monkeypatch):
    """The SCO surrogate is redrawn on steps 1..q only, never on a later multiple of q."""
    monkeypatch.setattr(sco, "_rounds", lambda T, q: ((t, t <= q) for t in range(1, T + 1)))


def mwu_step_without_finiteness_check(monkeypatch):
    """``mwu_step`` keeps its step-size and width raises but accepts non-finite log-weights."""

    def unchecked(logw, g, tau=1.0):
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"step size must be positive and finite, got {tau!r}")
        if g.shape[-1:] != logw.shape[-1:]:
            raise ValueError(f"gradient shape {g.shape} does not match {logw.shape}")
        return logw + tau * g

    monkeypatch.setattr(simplex, "mwu_step", unchecked)


def drift_check_reads_row_0_only(monkeypatch):
    """The SCO drift check sees row 0 of a batch and misses a hop in any other row."""
    check = sco._check_drift
    monkeypatch.setattr(sco, "_check_drift", lambda w_next, w, t: check(w_next[:1], w[:1], t))


def rows_draw_from_row_0_stream(monkeypatch):
    """Every row of an SCO batch redraws its surrogate from row 0's stream."""
    sparsify_rows = sco._sparsify_rows
    monkeypatch.setattr(sco, "_sparsify_rows",
                        lambda w, k, rngs: sparsify_rows(w, k, rngs[:1] * len(rngs)))


def gradient_rows_take_row_0_batch(monkeypatch):
    """The batched vertex kernel's one gradient call gives every row row 0's batch."""
    gradient = solvers.batch_gradient

    def row_0_batch(obj, x, y, batch):
        return gradient(obj, x, y, [batch[0]] * len(batch) if isinstance(batch, list) else batch)

    monkeypatch.setattr(solvers, "batch_gradient", row_0_batch)


def sco_rows_take_row_0_partner(monkeypatch):
    """Every row of an SCO batch takes its gradient with row 0's frozen partner."""
    row_gradients = sco._row_gradients
    monkeypatch.setattr(sco, "_row_gradients", lambda objs: row_gradients(objs[:1] * len(objs)))


def stacked_product_drops_mean_sign(monkeypatch):
    """The stacked dense product builds every row's matrix as A, without z̄ E."""
    monkeypatch.setattr(problems, "_mean_signs", lambda batches: np.zeros(len(batches)))


def gather_drops_mean_sign(monkeypatch):
    """The sparse support gather reads A's columns and rows without z̄ E."""
    for name in ("_grad_x", "_grad_y"):
        block = getattr(BilinearObjective, name)

        def no_mean_sign(self, p, z, idx, M=None, block=block):
            return block(self, p, z if idx is None else 0.0, idx, M)

        monkeypatch.setattr(BilinearObjective, name, no_mean_sign)


FAULTS = {
    "y_block_ascends": (
        y_block_ascends,
        lambda request: test_solvers.test_baseline_gap_decreases_with_horizon(),
    ),
    "sco_surrogate_never_refreshed_after_q": (
        surrogate_never_refreshed_after_q,
        lambda request: test_sco.test_refresh_count_matches_schedule(
            request.getfixturevalue("quad")),
    ),
    "sco_drift_check_reads_row_0_only": (
        drift_check_reads_row_0_only,
        lambda request: test_sco.test_average_drift_violation_in_one_row_raises_budget_error(
            request.getfixturevalue("quad"), request.getfixturevalue("monkeypatch")),
    ),
    "sco_rows_draw_from_row_0_stream": (
        rows_draw_from_row_0_stream,
        lambda request: test_sco.test_batched_rows_equal_one_row_runs(exact_iterates=False),
    ),
    "gradient_rows_take_row_0_batch": (
        gradient_rows_take_row_0_batch,
        lambda request: test_solvers.test_batched_kernel_equals_the_step_by_step_reference(
            request.getfixturevalue("monkeypatch"), rows=3, K=2, past_chunk=0),
    ),
    "sco_rows_take_row_0_partner": (
        sco_rows_take_row_0_partner,
        lambda request: test_sco.test_batched_rows_equal_one_row_runs(exact_iterates=False),
    ),
    "sco_stacked_rows_take_row_0_partner": (
        sco_rows_take_row_0_partner,
        lambda request: test_sco.test_rows_sharing_a_saddle_objective_equal_one_row_runs(
            request.getfixturevalue("monkeypatch"), sco.FrozenXObjective),
    ),
    "stacked_product_drops_mean_sign": (
        stacked_product_drops_mean_sign,
        lambda request: test_oracles.test_batch_gradient_singleton_flips_y_sign(
            request.getfixturevalue("game")),
    ),
    "gather_drops_mean_sign": (
        gather_drops_mean_sign,
        lambda request: test_solvers.test_vertex_solver_sparse_gradients_match_dense_reference(),
    ),
    **{
        f"mwu_step_finiteness_check_dropped-{solver}": (
            mwu_step_without_finiteness_check,
            lambda request, solver=solver: test_solvers.test_non_finite_gradient_stops_the_run(
                solver),
        )
        for solver in ("smd_vertex", "bias_reduced", "dp_sco")
    },
}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("fault", FAULTS)
def test_named_check_fails_under_loop_fault(monkeypatch, request, fault):
    apply, check = FAULTS[fault]
    apply(monkeypatch)
    with pytest.raises(CHECK_FAILED):
        check(request)
