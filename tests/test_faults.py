"""Faults in the descent loop, its step functions, their gradients (the frozen-row table among
them), the points that reach the data, the vertex sampler, the privacy planner, verify's
block statistics and the chunked sign draw, each caught by a named check.

Each case applies one fault by monkeypatch, with no source edit, and runs an
existing test of the suite that must then fail. None of the checks is a byte
pin: a pin fails for any change, benign or not, so it shows nothing about a
fault. Each check passes in its own module on the unbroken code.
"""
import math

import numpy as np
import pytest

import test_acceptance
import test_oracles
import test_problems
import test_sco
import test_simplex
import test_solvers
import test_verify
from dpsimplex import oracles, privacy, problems, sco, simplex, solvers, verify
from dpsimplex.errors import BudgetError
from dpsimplex.oracles import Dataset, TruncGeom
from dpsimplex.problems import BilinearObjective
from test_oracles import game  # noqa: F401  (the fixture test_oracles' checks take)
from test_sco import quad  # noqa: F401  (the fixture test_sco's checks take)

CHECK_FAILED = (AssertionError, pytest.fail.Exception)  # a failed assert or "DID NOT RAISE"
AUDIT_FAILED = CHECK_FAILED + (BudgetError,)  # or the post-run release audit stops the run


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
    release_rows = sco.release_rows
    monkeypatch.setattr(sco, "release_rows",
                        lambda w, k, rngs: release_rows(w, k, rngs[:1] * len(rngs)))


def sco_rows_read_row_0_batch(monkeypatch):
    """Every row of an SCO batch reads row 0's columns of its row dataset."""
    take = Dataset.take

    def row_0_batch(self, k):
        batch = take(self, k)
        return batch if batch.ndim == 1 else np.broadcast_to(batch[:1], batch.shape)

    monkeypatch.setattr(Dataset, "take", row_0_batch)


def gradient_rows_take_row_0_batch(monkeypatch):
    """The batched vertex kernel's one gradient call gives every row row 0's batch."""
    gradient = solvers.batch_gradient

    def row_0_batch(obj, x, y, batch):
        return gradient(obj, x, y, np.broadcast_to(batch[:1], batch.shape))

    monkeypatch.setattr(solvers, "batch_gradient", row_0_batch)


def sco_rows_take_row_0_partner(monkeypatch):
    """Every row of an SCO batch takes its gradient with row 0's frozen partner."""
    init = sco.FrozenBlock.__init__

    def row_0_partner(self, obj, free, partners):
        partners = np.asarray(partners)
        init(self, obj, free, np.broadcast_to(partners[:1], partners.shape))

    monkeypatch.setattr(sco.FrozenBlock, "__init__", row_0_partner)


def stacked_product_drops_mean_sign(monkeypatch):
    """Every row's batch mean z̄ reads 0: the stacked dense product builds A, without z̄ E.

    ``_mean_signs`` feeds the support gather's z̄ too, so the gather path drops z̄ E
    under this fault as well.
    """
    monkeypatch.setattr(problems, "_mean_signs", lambda batches: np.zeros(len(batches)))


def gather_drops_mean_sign(monkeypatch):
    """The sparse support gather reads A's columns and rows without z̄ E."""
    for name in ("_grad_x", "_grad_y"):
        block = getattr(BilinearObjective, name)

        def no_mean_sign(self, p, z, idx, M=None, block=block):
            return block(self, p, z if idx is None else 0.0, idx, M)

        monkeypatch.setattr(BilinearObjective, name, no_mean_sign)


def bias_reduced_scale_without_c_m(monkeypatch):
    """The bias-reduced estimator scales its level difference by 2^N, not C_M 2^N.

    ``pmf`` normalizes itself, so the level law stays the same.
    """
    monkeypatch.setattr(TruncGeom, "C_M", property(lambda tg: 1.0))

    def pmf(tg):
        weights = tg.p ** np.arange(tg.M + 1)
        return weights / weights.sum()

    monkeypatch.setattr(TruncGeom, "pmf", pmf)


def vertex_smd_cap_doubled(monkeypatch):
    """The vertex solver's step-size cap is twice what its 2T(K+1) releases allow."""
    cap = privacy.max_step_vertex_smd
    monkeypatch.setattr(privacy, "max_step_vertex_smd", lambda *args: 2.0 * cap(*args))


def sco_sparsify_draws_one_extra(monkeypatch):
    """Each SCO surrogate refresh draws one vertex more per row than it uses."""
    release_rows = sco.release_rows

    def extra_draw(w, k, rngs):
        release_rows(w, 1, rngs)
        return release_rows(w, k, rngs)

    monkeypatch.setattr(sco, "release_rows", extra_draw)


def search_path_shifted_one_index(monkeypatch):
    """``inverse_cdf``'s binary search returns the index after the right one (clamped)."""

    def shifted(cdf, u):
        if u.size >= simplex.GUIDE_BUCKETS:
            table = simplex._guide_table(cdf)
            if table[1] <= cdf.shape[0].bit_length():
                return simplex._guide_search(cdf, u, table)
        return np.minimum(cdf[:-1].searchsorted(u, side="left") + 1, cdf.shape[0] - 1)

    monkeypatch.setattr(simplex, "inverse_cdf", shifted)


def guide_search_shifted_one_index(monkeypatch):
    """The guide-table search returns the index after the right one (clamped)."""
    guide_search = simplex._guide_search
    monkeypatch.setattr(simplex, "_guide_search", lambda cdf, u, table=None: np.minimum(
        guide_search(cdf, u, table) + 1, cdf.shape[0] - 1))


def release_rows_shifted_one_index(monkeypatch):
    """``release_rows`` returns the vertex after each one it draws (clamped at d - 1)."""
    release_rows = simplex.release_rows
    monkeypatch.setattr(simplex, "release_rows", lambda points, k, rngs: np.minimum(
        release_rows(points, k, rngs) + 1, points.shape[1] - 1))


def release_rows_ignores_its_point(monkeypatch):
    """``release_rows`` draws each row's vertices uniformly, whatever its point."""
    release_rows = simplex.release_rows
    monkeypatch.setattr(simplex, "release_rows", lambda points, k, rngs: release_rows(
        np.full(points.shape, 1.0 / points.shape[1]), k, rngs))


def block_walk_drops_final_partial_block(monkeypatch):
    """verify's row-block walk stops before a final block shorter than ``BLOCK_ROWS``."""
    blocks = verify._blocks
    monkeypatch.setattr(verify, "_blocks", lambda counts, T: blocks(
        counts[:len(counts) - len(counts) % verify.BLOCK_ROWS], T))


def sign_draw_drops_final_partial_chunk(monkeypatch):
    """The chunked ±1 draw stops before a final chunk shorter than ``SIGN_CHUNK``."""
    chunks = problems._sign_chunks
    monkeypatch.setattr(problems, "_sign_chunks", lambda size: chunks(
        size - size % problems.SIGN_CHUNK))


def frozen_table_keyed_by_row_only(monkeypatch):
    """The bilinear frozen-row table keys a row by the row alone, without its batch mean."""
    sign_count = problems._sign_count

    def row_only(z, B):
        k, exact = sign_count(z, B)
        return np.zeros_like(k), exact

    monkeypatch.setattr(problems, "_sign_count", row_only)


def kernel_gradient_at_dense_iterates(monkeypatch):
    """The vertex kernel takes its gradient at the dense iterates (x_t, y_t), not at (x̂, ŷ)."""
    loop, gradient = solvers.mirror_descent, solvers.batch_gradient
    dense = []

    def keeping_iterates(dims, rows, tau, schedule, step):
        def kept(item, *points):
            dense[:] = points
            return step(item, *points)

        return loop(dims, rows, tau, schedule, kept)

    monkeypatch.setattr(solvers, "mirror_descent", keeping_iterates)
    monkeypatch.setattr(solvers, "batch_gradient",
                        lambda obj, x, y, batches: gradient(obj, *dense, batches))


def _means_at_dense_points(monkeypatch, module):
    """``module``'s sparsified means are the points their vertices were drawn from.

    The draws still happen, so every count and stream stays as it was.
    """
    release_rows, dense = module.release_rows, {}

    def keeping_points(points, k, rngs):
        indices = release_rows(points, k, rngs)
        dense[id(indices)] = points
        return indices

    monkeypatch.setattr(module, "release_rows", keeping_points)
    monkeypatch.setattr(module, "mean_one_hots", lambda indices, dim: dense[
        id(indices if indices.base is None else indices.base)])  # a column slice's owner


def estimator_rows_at_dense_points(monkeypatch):
    """The bias-reduced estimator takes its three gradient rows at (x, y), not at its draws."""
    _means_at_dense_points(monkeypatch, oracles)


def sco_surrogate_dense(monkeypatch):
    """The SCO surrogate ŵ is the dense running average w, though its K draws are taken."""
    _means_at_dense_points(monkeypatch, sco)


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
        lambda request: test_sco.test_batched_rows_equal_one_row_runs(
            request.getfixturevalue("monkeypatch"), identity=False, kind="frozen"),
    ),
    "sco_rows_read_row_0_batch": (
        sco_rows_read_row_0_batch,
        lambda request: test_sco.test_batched_rows_equal_one_row_runs(
            request.getfixturevalue("monkeypatch"), identity=False, kind="frozen"),
    ),
    "gradient_rows_take_row_0_batch": (
        gradient_rows_take_row_0_batch,
        lambda request: test_solvers.test_batched_kernel_equals_the_step_by_step_reference(
            request.getfixturevalue("monkeypatch"), rows=3, K=2, past_chunk=0),
    ),
    "sco_rows_take_row_0_partner": (
        sco_rows_take_row_0_partner,
        lambda request: test_sco.test_batched_rows_equal_one_row_runs(
            request.getfixturevalue("monkeypatch"), identity=False, kind="frozen"),
    ),
    "sco_stacked_rows_take_row_0_partner": (
        sco_rows_take_row_0_partner,
        lambda request: test_sco.test_rows_sharing_a_saddle_objective_equal_one_row_runs(
            request.getfixturevalue("monkeypatch"), "y"),
    ),
    "sign_draw_drops_final_partial_chunk": (
        sign_draw_drops_final_partial_chunk,
        lambda request: test_problems.test_chunked_signs_equal_the_one_shot_draw(),
    ),
    "frozen_table_keyed_by_row_only": (
        frozen_table_keyed_by_row_only,
        lambda request: test_sco.test_frozen_table_rows_equal_direct_calls(
            request.getfixturevalue("monkeypatch"), "y", 3, "mixed"),
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
    "bias_reduced_scale_without_c_m": (
        bias_reduced_scale_without_c_m,
        lambda request: test_oracles.test_bias_reduced_mean_is_exact_on_a_nonlinear_objective(),
    ),
    "vertex_smd_cap_doubled": (
        vertex_smd_cap_doubled,
        lambda request: test_acceptance.test_criterion_6_privacy_precondition_audit(),
        AUDIT_FAILED,
    ),
    "sco_sparsify_draws_one_extra": (
        sco_sparsify_draws_one_extra,
        lambda request: test_sco.test_solution_reports_steps_and_vertex_draws(
            request.getfixturevalue("quad")),
    ),
    "inverse_cdf_search_shifted_one_index": (
        search_path_shifted_one_index,
        lambda request: test_simplex.test_sample_vertex_degenerate(),
    ),
    "inverse_cdf_guide_shifted_one_index": (
        guide_search_shifted_one_index,
        lambda request: test_verify.test_sparsified_means_are_unbiased_and_sum_to_one(),
    ),
    "release_rows_shifted_one_index": (
        release_rows_shifted_one_index,
        lambda request: test_simplex.test_release_rows_fit_their_points(1000),
    ),
    "release_rows_ignores_its_point": (
        release_rows_ignores_its_point,
        lambda request: test_simplex.test_release_rows_fit_their_points(simplex.GUIDE_BUCKETS),
    ),
    "verify_block_walk_drops_final_partial_block": (
        block_walk_drops_final_partial_block,
        lambda request: test_verify.test_blocked_statistics_equal_the_whole_array_formulas(
            "grad_bias_first_order", 2 * verify.BLOCK_ROWS + 3),
    ),
    "kernel_gradient_at_dense_iterates": (
        kernel_gradient_at_dense_iterates,
        lambda request: test_solvers.test_only_released_points_reach_the_data(
            request.getfixturevalue("monkeypatch"), "smd_vertex-second_order"),
    ),
    "bias_reduced_estimator_rows_at_dense_points": (
        estimator_rows_at_dense_points,
        lambda request: test_solvers.test_only_released_points_reach_the_data(
            request.getfixturevalue("monkeypatch"), "smd_bias_reduced"),
    ),
    "sco_surrogate_dense": (
        sco_surrogate_dense,
        lambda request: test_solvers.test_only_released_points_reach_the_data(
            request.getfixturevalue("monkeypatch"), "dp_sco"),
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
    apply, check, *caught = FAULTS[fault]
    apply(monkeypatch)
    with pytest.raises(caught[0] if caught else CHECK_FAILED):
        check(request)
