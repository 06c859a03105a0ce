import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpsimplex import sco, solvers
from dpsimplex.errors import BudgetError, OracleError
from dpsimplex.oracles import Dataset, TruncGeom, batch_gradient
from dpsimplex.privacy import (
    BrPlan,
    PrivacyParams,
    ScoPlan,
    SsmdPlan,
    max_step_anytime_sco,
    max_step_vertex_smd,
    plan_anytime_sco,
    plan_bias_reduced,
    plan_vertex_smd,
)
from dpsimplex.problems import (BilinearObjective, MatrixGame, SeparableQuadratic,
                                exact_gap_bilinear)
from dpsimplex.rng import RngStream
from dpsimplex.sco import FrozenBlock, solve_dp_sco
from dpsimplex.simplex import (
    SimplexPoint,
    mwu_step,
    sample_vertex,
    sparsify,
    to_point,
)
from dpsimplex.solvers import (
    SaddleSolution,
    boosting_shape,
    score_candidate_pairs,
    select_pair,
    solve_boosted,
    solve_smd_bias_reduced,
    solve_smd_nonprivate,
    solve_smd_vertex,
    solve_smd_vertex_batch,
)
from reference import assert_released_points, record_points, score_candidate_pairs_loop


def small_plan(n, T, K, L0, eps=1.0, delta=1e-5, mode="quadratic"):
    B = max(1, n // T)
    tau = min(0.05, max_step_vertex_smd(B, eps, delta, L0, T, K))
    return SsmdPlan(T=T, tau=tau, K=K, B_batch=B, mode=mode,
                    epsilon=eps, delta=delta, L0=L0, n=n)


# ---- vertex-sampling solver -----------------------------------------------------


def test_single_step_output_is_vertex_pair():
    game = MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]), 0.25 * np.ones((2, 2)))
    obj = game.objective()
    plan = small_plan(10, 1, 1, obj.L0)
    sol = solve_smd_vertex(obj, game.sample_dataset(10, RngStream(0)), plan, RngStream(1))
    assert set(np.unique(sol.x.coords)) <= {0.0, 1.0}
    assert set(np.unique(sol.y.coords)) <= {0.0, 1.0}
    assert sol.steps_run == 1 and sol.vertex_draws == 4
    assert sol.samples_used == plan.B_batch


def test_vertex_solver_accounting():
    game = MatrixGame.random(4, 6, RngStream(2))
    obj = game.objective()
    plan = small_plan(500, 20, 3, obj.L0)
    sol = solve_smd_vertex(obj, game.sample_dataset(500, RngStream(3)), plan, RngStream(4))
    assert sol.samples_used == plan.T * plan.B_batch <= 500
    assert sol.vertex_draws == plan.T * (2 * plan.K + 2)


def test_vertex_solver_is_deterministic():
    game = MatrixGame.random(5, 5, RngStream(5))
    obj = game.objective()
    plan = small_plan(400, 16, 2, obj.L0)

    def run():
        data = game.sample_dataset(400, RngStream(6))
        return solve_smd_vertex(obj, data, plan, RngStream(7))

    a, b = run(), run()
    assert np.array_equal(a.x.coords, b.x.coords)
    assert np.array_equal(a.y.coords, b.y.coords)


def test_vertex_solver_records_released_categories():
    game = MatrixGame.random(6, 3, RngStream(40))
    obj = game.objective()
    plan = small_plan(300, 12, 2, obj.L0)
    sol = solve_smd_vertex(obj, game.sample_dataset(300, RngStream(41)), plan, RngStream(42))
    assert sol.x_vertex_indices.shape == (plan.T,)
    assert set(sol.x_vertex_indices) <= set(range(6))
    # the recorded draws are exactly the ones averaged into the output
    counts = np.bincount(sol.x_vertex_indices, minlength=6)
    assert np.allclose(sol.x.coords, counts / plan.T)


def reference_smd_vertex(obj, dataset, plan, rng):
    """The step-by-step vertex solver the batched kernel replaces, on the public helpers:
    one sparsify per block, one sample_vertex per output, one-hot sums, mwu_step."""
    xw, yw = np.zeros(obj.d_x), np.zeros(obj.d_y)
    x_acc, y_acc = np.zeros(obj.d_x), np.zeros(obj.d_y)
    draws, released = rng.vertex_draws, []
    for _ in range(plan.T):
        x_t, y_t = to_point(xw), to_point(yw)
        x_hat, y_hat = sparsify(x_t, plan.K, rng), sparsify(y_t, plan.K, rng)
        xi, yi = sample_vertex(x_t, rng), sample_vertex(y_t, rng)
        released.append(xi)
        g = batch_gradient(obj, x_hat[None], y_hat[None], dataset.take(plan.B_batch)[None])
        x_acc += np.eye(obj.d_x)[xi]
        y_acc += np.eye(obj.d_y)[yi]
        xw, yw = mwu_step(xw, -g.g_x[0], plan.tau), mwu_step(yw, -g.g_y[0], plan.tau)
    return SaddleSolution(x=SimplexPoint(x_acc / plan.T), y=SimplexPoint(y_acc / plan.T),
                          samples_used=plan.T * plan.B_batch, steps_run=plan.T,
                          vertex_draws=rng.vertex_draws - draws,
                          x_vertex_indices=np.array(released, dtype=np.int64))


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("K", [1, 2, 21])
@pytest.mark.parametrize("past_chunk", [-1, 0, 1])
def test_batched_kernel_equals_the_step_by_step_reference(monkeypatch, rows, K, past_chunk):
    # a tape chunk of 4 steps per batch; T ends one step before, at, or one step past it
    monkeypatch.setattr(solvers, "TAPE_UNIFORMS", 4 * rows * (2 * K + 2))
    game = MatrixGame.random(7, 5, RngStream(70))
    obj = game.objective()
    T = 4 + past_chunk
    plan = small_plan(40 * T, T, K, obj.L0)
    data = Dataset(np.array([game.sample_dataset(40 * T, RngStream(71, r)).take(40 * T)
                             for r in range(rows)]))  # row r: trial r's samples
    sols = solve_smd_vertex_batch(obj, data, plan, [RngStream(72, r) for r in range(rows)])
    for r, sol in enumerate(sols):
        ref = reference_smd_vertex(obj, game.sample_dataset(40 * T, RngStream(71, r)), plan,
                                   RngStream(72, r))
        assert np.array_equal(sol.x.coords, ref.x.coords)
        assert np.array_equal(sol.y.coords, ref.y.coords)
        assert np.array_equal(sol.x_vertex_indices, ref.x_vertex_indices)
        assert (sol.vertex_draws, sol.steps_run, sol.samples_used) == (
            ref.vertex_draws, ref.steps_run, ref.samples_used)


def test_exact_vertex_run_checks_its_schedule():
    # an empty batch or zero sparsity is refused before the first step
    game = MatrixGame.random(3, 3, RngStream(80))
    obj = game.objective()
    for B_batch, K in ((0, 1), (20, 0)):
        plan = SsmdPlan(T=5, tau=0.1, K=K, B_batch=B_batch, mode="quadratic",
                        epsilon=1.0, delta=1e-5, L0=obj.L0, n=100)
        with pytest.raises(BudgetError):
            solve_smd_vertex(obj, game.sample_dataset(100, RngStream(81)), plan, RngStream(82))


def test_batch_needs_one_stream_per_dataset():
    game = MatrixGame.random(3, 3, RngStream(76))
    obj = game.objective()
    plan = small_plan(100, 10, 1, obj.L0)
    with pytest.raises(ValueError, match="one stream per dataset"):
        solve_smd_vertex_batch(obj, Dataset(np.zeros((0, 100))), plan, [])
    with pytest.raises(ValueError, match="one stream per dataset"):
        solve_smd_vertex_batch(obj, game.sample_dataset(100, RngStream(79)), plan,
                               [RngStream(77), RngStream(78)])


def test_tape_takes_at_least_one_step_per_refill(monkeypatch):
    monkeypatch.setattr(solvers, "TAPE_UNIFORMS", 1)
    game = MatrixGame.random(3, 4, RngStream(73))
    obj = game.objective()
    plan = small_plan(60, 6, 2, obj.L0)
    sol = solve_smd_vertex(obj, game.sample_dataset(60, RngStream(74)), plan, RngStream(75))
    ref = reference_smd_vertex(obj, game.sample_dataset(60, RngStream(74)), plan,
                               RngStream(75))
    assert np.array_equal(sol.x.coords, ref.x.coords)
    assert np.array_equal(sol.x_vertex_indices, ref.x_vertex_indices)


class DenseBilinear(BilinearObjective):
    """Reference batch gradients through the full ``A + mean(z) E``."""

    def batch_grad_xy_rows(self, X, Y, batches):
        dense = [self.A + np.mean(zs) * self.E for zs in batches]
        return (np.array([M @ y for M, y in zip(dense, Y)]),
                np.array([M.T @ x for M, x in zip(dense, X)]))


def test_vertex_solver_sparse_gradients_match_dense_reference():
    game = MatrixGame.random(200, 200, RngStream(43))
    n = 20_000
    plan = plan_vertex_smd(n, 1.0, 1e-5, game.objective().L0, 0.0, 0.0, game.ell, "quadratic")
    assert plan.K == 1
    sparse, dense = (
        solve_smd_vertex(obj, game.sample_dataset(n, RngStream(44)), plan, RngStream(45))
        for obj in (game.objective(), DenseBilinear(game.payoff, game.perturbation))
    )
    assert np.array_equal(sparse.x.coords, dense.x.coords)
    assert np.array_equal(sparse.y.coords, dense.y.coords)
    assert np.array_equal(sparse.x_vertex_indices, dense.x_vertex_indices)


def test_vertex_solver_validates_only_boundary_points(monkeypatch):
    # iterates are valid by construction; only the returned pair is checked,
    # so the number of checks does not grow with the number of steps
    game = MatrixGame.random(5, 5, RngStream(46))
    obj = game.objective()
    check = SimplexPoint.__post_init__
    checks = []
    monkeypatch.setattr(SimplexPoint, "__post_init__", lambda p: checks.append(1) or check(p))
    counts = []
    for T in (10, 100):
        data = game.sample_dataset(10 * T, RngStream(47))
        before = len(checks)
        sol = solve_smd_vertex(obj, data, small_plan(10 * T, T, 2, obj.L0), RngStream(48))
        assert sol.steps_run == T
        counts.append(len(checks) - before)
    assert counts[0] == counts[1] > 0


def test_vertex_solver_rejects_short_dataset():
    game = MatrixGame.random(3, 3, RngStream(8))
    obj = game.objective()
    plan = small_plan(300, 30, 1, obj.L0)
    with pytest.raises(BudgetError):
        solve_smd_vertex(obj, game.sample_dataset(100, RngStream(9)), plan, RngStream(10))


# ---- non-private baseline --------------------------------------------------------


def test_baseline_single_step_returns_uniform():
    game = MatrixGame.random(3, 5, RngStream(14))
    sol = solve_smd_nonprivate(game.payoff, 1, 0.1)
    assert np.allclose(sol.x.coords, 1 / 3)
    assert np.allclose(sol.y.coords, 1 / 5)


def test_baseline_matching_pennies():
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    T = 10**4
    sol = solve_smd_nonprivate(A, T, math.sqrt(2 * math.log(2) / T))
    assert np.abs(sol.x.coords - 0.5).sum() <= 1e-2
    assert np.abs(sol.y.coords - 0.5).sum() <= 1e-2


def test_baseline_gap_decreases_with_horizon():
    game = MatrixGame.random(20, 20, RngStream(15))
    L0 = np.abs(game.payoff).max()
    ell = game.ell
    gaps = []
    for T in (256, 1024, 4096, 16384):
        sol = solve_smd_nonprivate(game.payoff, T, math.sqrt(ell / T) / L0)
        gaps.append(exact_gap_bilinear(game.payoff, sol.x.coords, sol.y.coords).gap_estimate)
        assert gaps[-1] <= 3 * L0 * math.sqrt(ell / T)
    assert gaps[-1] < gaps[0]


# ---- bias-reduced solver ----------------------------------------------------------


@pytest.fixture(scope="module")
def br_setup():
    game = MatrixGame.random(10, 10, RngStream(16))
    obj = game.objective()
    n = 10**4
    plan = plan_bias_reduced(n, 1.0, 1e-5, obj.L0, obj.L1, obj.L2, game.ell)
    return game, obj, n, plan

def test_bias_reduced_deterministic_stopping_at_m_zero(br_setup):
    game, obj, _, _ = br_setup
    # U = 7.3, M = 0: weights are all 1 and the threshold is U - 1, so the
    # loop executes exactly floor(U) - 1 = 6 steps
    plan = BrPlan(U=7.3, M=0, alpha=0.5, tau=1e-3, C=obj.L0**2,
                  epsilon=1.0, delta=1e-5, L0=obj.L0, n=100, ell=game.ell)
    plan.validate()
    for seed in range(5):
        data = game.sample_dataset(100, RngStream(17, seed))
        sol, trace = solve_smd_bias_reduced(obj, data, plan, RngStream(18, seed))
        assert trace.stop_step == 6
        assert trace.N_sequence == (0,) * 6
        assert trace.total_weight == 6


def test_bias_reduced_stopping_rule_properties(br_setup):
    game, obj, n, plan = br_setup
    tg = TruncGeom(0.5, plan.M)
    steps = []
    for seed in range(200):
        data = game.sample_dataset(n, RngStream(19, seed))
        sol, trace = solve_smd_bias_reduced(obj, data, plan, RngStream(20, seed))
        assert trace.total_weight <= plan.U
        assert sum(2**v for v in trace.N_sequence) == trace.total_weight
        assert sum(2**v for v in trace.N_sequence[:-1]) <= plan.U - 2**plan.M
        assert sol.samples_used <= n
        assert sol.steps_run == trace.stop_step
        steps.append(trace.stop_step)
    # Wald bound: E[steps + 1] <= U / E[2^N], checked with 20% headroom
    assert np.mean(steps) + 1 <= 1.2 * plan.U / tg.mean_pow2()


def test_bias_reduced_is_deterministic(br_setup):
    game, obj, n, plan = br_setup

    def run():
        data = game.sample_dataset(n, RngStream(21))
        return solve_smd_bias_reduced(obj, data, plan, RngStream(22))

    (sa, ta), (sb, tb) = run(), run()
    assert np.array_equal(sa.x.coords, sb.x.coords)
    assert ta == tb


# ---- boosted solver ------------------------------------------------------------


def test_boosting_shape_defaults():
    assert boosting_shape(0.05) == (7, 11)
    with pytest.raises(ValueError):
        boosting_shape(1.5)


def test_boosted_single_candidate_equals_bias_reduced_run():
    game = MatrixGame.random(5, 5, RngStream(23))
    obj = game.objective()
    n = 16_000
    priv = PrivacyParams(2.0, 1e-4)
    data = game.sample_dataset(n, RngStream(24))
    sol = solve_boosted(obj, data, I=1, J=1, privacy=priv, rng=RngStream(25))

    data2 = game.sample_dataset(n, RngStream(24))
    shard = Dataset(data2.take(n // 4))
    plan = plan_bias_reduced(shard.n, priv.epsilon, priv.delta, obj.L0, obj.L1, obj.L2, game.ell)
    ref, _ = solve_smd_bias_reduced(obj, shard, plan, RngStream(25).child("candidate", 0))
    assert np.array_equal(sol.x.coords, ref.x.coords)
    assert np.array_equal(sol.y.coords, ref.y.coords)
    assert sol.samples_used <= n


def test_boosted_counts_include_inner_solves():
    # with I = J = 1 the run is one candidate and two inner convex solves;
    # replay each on its own shard and stream and add up what they did
    game = MatrixGame.random(5, 5, RngStream(23))
    obj = game.objective()
    n = 16_000
    priv = PrivacyParams(2.0, 1e-4)
    sol = solve_boosted(obj, game.sample_dataset(n, RngStream(24)), I=1, J=1, privacy=priv,
                        rng=RngStream(25))

    data = game.sample_dataset(n, RngStream(24))
    quarter = n // 4
    parts = [Dataset(data.take(quarter)) for _ in range(3)]
    plan = plan_bias_reduced(quarter, priv.epsilon, priv.delta, obj.L0, obj.L1, obj.L2, game.ell)
    cand, _ = solve_smd_bias_reduced(obj, parts[0], plan, RngStream(25).child("candidate", 0))
    steps, draws = cand.steps_run, cand.vertex_draws
    inner = (
        (FrozenBlock(obj, "x", cand.y.coords[None]), parts[1], obj.d_x, "inner_x"),
        (FrozenBlock(obj, "y", cand.x.coords[None]), parts[2], obj.d_y, "inner_y"),
    )
    for f, shard, dim, tag in inner:
        p = plan_anytime_sco(quarter, priv.epsilon, priv.delta, f.L0, f.L1, f.L2,
                             math.log(dim), "second_order")
        s = solve_dp_sco(f, shard, p, [RngStream(25).child(tag, 0, 0)])[0]
        steps += p.T
        draws += p.K * s.refresh_count
    assert sol.steps_run == steps > cand.steps_run
    assert sol.vertex_draws == draws > cand.vertex_draws


def test_boosted_takes_one_batch_per_sco_step(monkeypatch):
    # each side's I*J inner solves read one row dataset: one take per step for all rows
    takes = []
    take = Dataset.take
    monkeypatch.setattr(Dataset, "take", lambda self, k: takes.append(self.rows) or take(self, k))
    solves = []
    solve = solvers.solve_dp_sco

    def counted(obj, dataset, plan, rngs):
        before = len(takes)
        batch = solve(obj, dataset, plan, rngs)
        solves.append((obj.rows, plan.T, takes[before:]))
        return batch

    monkeypatch.setattr(solvers, "solve_dp_sco", counted)
    game = MatrixGame.random(5, 5, RngStream(23))
    solve_boosted(game.objective(), game.sample_dataset(32_000, RngStream(24)), I=2, J=3,
                  privacy=PrivacyParams(2.0, 1e-4), rng=RngStream(25))
    assert len(solves) == 2
    for rows, T, rows_taken in solves:
        assert rows == 6 and rows_taken == [6] * T


def test_boosted_rejects_small_shards():
    game = MatrixGame.random(4, 4, RngStream(26))
    obj = game.objective()
    data = game.sample_dataset(64, RngStream(27))
    with pytest.raises(BudgetError):
        solve_boosted(obj, data, I=4, J=4, privacy=PrivacyParams(1.0, 1e-5), rng=RngStream(28))


def test_score_sensitivity_bound():
    # swapping one holdout sample moves every candidate score by <= 4B/|holdout|
    game = MatrixGame.random(6, 6, RngStream(29))
    obj = game.objective()
    gen = RngStream(30).gen
    holdout = (gen.integers(0, 2, size=200) * 2 - 1).astype(float)
    pairs = [(gen.dirichlet(np.ones(6)), gen.dirichlet(np.ones(6))) for _ in range(4)]
    table = [[gen.dirichlet(np.ones(6)) for _ in range(3)] for _ in range(4)]
    base = score_candidate_pairs(obj, holdout, pairs, table, table)
    for swap in range(10):
        neighbor = holdout.copy()
        neighbor[int(gen.integers(200))] *= -1
        moved = score_candidate_pairs(obj, neighbor, pairs, table, table)
        assert np.abs(moved - base).max() <= 4 * obj.B / 200 + 1e-12


@pytest.mark.parametrize("I, J", [(1, 1), (4, 3), (3, 7)])
def test_scores_equal_the_per_pair_loop_bit_for_bit(I, J):
    game = MatrixGame.random(7, 5, RngStream(31).child(I, J))
    gen = RngStream(32).gen
    holdout = (gen.integers(0, 2, size=501) * 2 - 1).astype(float)
    pairs = [(gen.dirichlet(np.ones(7)), gen.dirichlet(np.ones(5))) for _ in range(I)]
    x_table = [[gen.dirichlet(np.ones(7)) for _ in range(J)] for _ in range(I)]
    y_table = [[gen.dirichlet(np.ones(5)) for _ in range(J)] for _ in range(I)]
    args = game.objective(), holdout, pairs, x_table, y_table
    assert score_candidate_pairs(*args).tobytes() == score_candidate_pairs_loop(*args).tobytes()


def test_boosted_scores_each_side_in_one_value_call(monkeypatch):
    # the I*J table entries of a side share the holdout: one batch_value call per side
    calls, scored = [], []
    value, score = BilinearObjective.batch_value, solvers.score_candidate_pairs
    monkeypatch.setattr(BilinearObjective, "batch_value",
                        lambda self, X, Y, zs: calls.append(len(X)) or value(self, X, Y, zs))

    def recorded(*args):
        scored.append((args, score(*args)))
        return scored[-1][1]

    monkeypatch.setattr(solvers, "score_candidate_pairs", recorded)
    game = MatrixGame.random(5, 5, RngStream(23))
    solve_boosted(game.objective(), game.sample_dataset(32_000, RngStream(24)), I=2, J=3,
                  privacy=PrivacyParams(2.0, 1e-4), rng=RngStream(25))
    assert calls == [6, 6]
    (args, scores), = scored
    assert scores.tobytes() == score_candidate_pairs_loop(*args).tobytes()


def test_selection_prefers_planted_low_score():
    scores = np.array([1.0, 0.02, 1.2, 0.9])
    picks = [
        select_pair(scores, B=1.0, holdout_size=4000, eps=1.0, rng=RngStream(31, s))
        for s in range(50)
    ]
    assert np.mean(np.array(picks) == 1) >= 0.95


# ---- only released points reach the data ------------------------------------------


RELEASED_POINT_RUNS = ["smd_vertex-quadratic", "smd_vertex-second_order",
                       "smd_vertex-first_order", "smd_bias_reduced", "dp_sco", "boosted"]


@pytest.mark.parametrize("run", RELEASED_POINT_RUNS)
def test_only_released_points_reach_the_data(monkeypatch, run):
    # the privacy argument needs the data to enter only at released points, means of k
    # counted vertex draws; the dense iterates stay inside the solver. Every point row
    # an objective's gradient or value gets must lie on the 1/k grid of its k
    game = MatrixGame.random(6, 5, RngStream(140))
    obj = game.objective()
    seen = record_points(monkeypatch, obj, "batch_grad_xy_rows", "batch_value")
    rngs = [RngStream(141, r) for r in range(2)]
    rows = Dataset(np.array([game.sample_dataset(3000, rng.child("data")).take(3000)
                             for rng in rngs]))
    if run.startswith("smd_vertex"):
        plan = plan_vertex_smd(3000, 1.0, 1e-5, obj.L0, obj.L1, obj.L2, game.ell,
                               run.split("-")[1])
        solve_smd_vertex_batch(obj, rows, plan, rngs)
        ks = [plan.K]
    elif run == "smd_bias_reduced":  # rows average 1, 2^N or 2^(N+1) draws, N <= M
        n = 20_000
        plan = plan_bias_reduced(n, 1.0, 1e-5, obj.L0, obj.L1, obj.L2, game.ell)
        assert plan.M >= 1
        solve_smd_bias_reduced(obj, game.sample_dataset(n, RngStream(142)), plan, rngs[0])
        ks = [2 ** (plan.M + 1)]
    elif run == "dp_sco":
        quad = SeparableQuadratic(np.linspace(0.5, 1.5, 8), np.full(8, 1 / 8),
                                  np.linspace(-0.3, 0.3, 8))
        seen = record_points(monkeypatch, quad, "batch_grad_rows")
        plan = plan_anytime_sco(3000, 1.0, 1e-5, quad.L0, quad.L1, quad.L2, math.log(8),
                                "second_order")
        solve_dp_sco(quad, rows, plan, rngs)
        ks = [plan.K]
    else:  # candidates (means of their steps' vertices, and the estimator's draws) are
        # the frozen partners and scored pairs; the free rows are SCO surrogates
        ks = []
        candidate, inner = solvers.solve_smd_bias_reduced, solvers.solve_dp_sco

        def recorded_candidate(obj, data, plan, rng):
            sol, trace = candidate(obj, data, plan, rng)
            ks.extend([2 ** (plan.M + 1), sol.steps_run])
            return sol, trace

        monkeypatch.setattr(solvers, "solve_smd_bias_reduced", recorded_candidate)
        monkeypatch.setattr(solvers, "solve_dp_sco", lambda block, data, plan, rngs: (
            ks.append(plan.K) or inner(block, data, plan, rngs)))
        solve_boosted(obj, game.sample_dataset(32_000, RngStream(143)), I=2, J=2,
                      privacy=PrivacyParams(2.0, 1e-4), rng=RngStream(144))
        assert len(ks) == 2 * 2 + 2
    assert_released_points(seen, ks)


# ---- non-finite gradients --------------------------------------------------------


class BadGradientBilinear(BilinearObjective):
    """Bilinear game whose x-gradient holds ``bad`` in one entry from step 3 on."""

    def __init__(self, game, bad, calls_per_step):
        super().__init__(game.payoff, game.perturbation)
        self.bad = bad
        self.first_bad_call = 2 * calls_per_step + 1
        self.calls = 0

    def batch_grad_xy_rows(self, X, Y, batches):
        self.calls += 1
        gx, gy = super().batch_grad_xy_rows(X, Y, batches)
        if self.calls >= self.first_bad_call:
            gx = gx.copy()
            gx[:, 0] = self.bad
        return gx, gy


def run_with_bad_gradient(solver, bad):
    """Run ``solver`` on a 4x4 game whose gradient goes ``bad`` on step 3."""
    game = MatrixGame.random(4, 4, RngStream(50))
    data = game.sample_dataset(2000, RngStream(51))
    if solver == "smd_vertex":
        obj = BadGradientBilinear(game, bad, calls_per_step=1)
        return solve_smd_vertex(obj, data, small_plan(200, 10, 1, obj.L0), RngStream(52))
    if solver == "bias_reduced":
        obj = BadGradientBilinear(game, bad, calls_per_step=1)
        plan = BrPlan(U=7.3, M=0, alpha=0.5, tau=1e-3, C=obj.L0**2,
                      epsilon=1.0, delta=1e-5, L0=obj.L0, n=100, ell=game.ell)
        return solve_smd_bias_reduced(obj, data, plan, RngStream(52))
    f = FrozenBlock(BadGradientBilinear(game, bad, calls_per_step=1), "x", np.full((1, 4), 0.25))
    plan = plan_anytime_sco(2000, 1.0, 1e-5, f.L0, f.L1, f.L2, math.log(4), "second_order")
    return solve_dp_sco(f, data, plan, [RngStream(52)])[0]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("solver", ["smd_vertex", "bias_reduced", "dp_sco"])
def test_non_finite_gradient_stops_the_run(solver):
    run_with_bad_gradient(solver, 0.0)  # a finite fault runs to the end
    for bad in (np.nan, np.inf):
        with pytest.raises((ValueError, OracleError)):
            run_with_bad_gradient(solver, bad)


def test_non_finite_gradient_guard_survives_python_O():
    # dp_sco's only guard is mwu_step's finiteness check: it must not be an assert
    tests = Path(__file__).resolve().parent
    code = (
        f"import sys; sys.path.insert(0, {str(tests)!r})\n"
        "from test_solvers import run_with_bad_gradient\n"
        "try:\n"
        "    run_with_bad_gradient('dp_sco', float('nan'))\n"
        "except ValueError:\n"
        "    print(sys.flags.optimize, 'raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.stdout.split() == ["1", "raised"], done.stderr


def test_raw_loop_finiteness_guard_survives_python_O():
    # smd_vertex steps raw arrays; its guard is mwu_step's explicit raise, not an assert
    tests = Path(__file__).resolve().parent
    code = (
        f"import sys; sys.path.insert(0, {str(tests)!r})\n"
        "from test_solvers import run_with_bad_gradient\n"
        "for bad in (float('nan'), float('inf')):\n"
        "    try:\n"
        "        run_with_bad_gradient('smd_vertex', bad)\n"
        "    except ValueError:\n"
        "        print(sys.flags.optimize, 'raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.stdout.split() == ["1", "raised"] * 2, done.stderr


# ---- realized release audit ------------------------------------------------------


def release_at_cap(solver, tau_scale):
    """A run whose plan puts tau at ``tau_scale`` times its privacy cap."""
    game = MatrixGame.random(4, 4, RngStream(60))
    eps, delta = 1.0, 1e-5
    if solver == "smd_vertex":
        obj = game.objective()
        n, T, K = 4000, 40, 1
        B = n // T
        tau = tau_scale * max_step_vertex_smd(B, eps, delta, obj.L0, T, K)
        plan = SsmdPlan(T=T, tau=tau, K=K, B_batch=B, mode="quadratic",
                        epsilon=eps, delta=delta, L0=obj.L0, n=n)
        return lambda: solve_smd_vertex(obj, game.sample_dataset(n, RngStream(61)), plan,
                                        RngStream(62))
    f = FrozenBlock(game.objective(), "x", np.full((1, 4), 0.25))
    n, T, q, K = 1200, 60, 6, 30  # 16 refreshes: q + T/q, as the planned cap counts them
    B = n // T
    tau = tau_scale * max_step_anytime_sco(B, eps, delta, f.L0, T, K, q)
    assert tau < 1.0 / (4.0 * f.L0 * q)  # the privacy cap binds, not the drift cap
    plan = ScoPlan(T=T, tau=tau, K=K, q=q, B_batch=B, mode="second_order",
                   epsilon=eps, delta=delta, L0=f.L0, n=n)
    return lambda: solve_dp_sco(f, game.sample_dataset(n, RngStream(61)), plan,
                                [RngStream(62)])[0]


@pytest.mark.parametrize("solver, module, draws, extra", [
    ("smd_vertex", solvers, 40 * 4, 40 * 2),
    ("dp_sco", sco, 30 * 16, 16),
])
def test_audit_composes_the_counted_releases(monkeypatch, solver, module, draws, extra):
    assert release_at_cap(solver, 1.0)().vertex_draws == draws
    if solver == "smd_vertex":  # the kernel takes its releases from a counted tape
        real_uniforms = module.vertex_uniforms

        def tape_releasing_two_more_per_step(rng, shape):
            tape = real_uniforms(rng, shape)
            real_uniforms(rng, (shape[0], 2))  # one more per sparsified block and step
            return tape

        monkeypatch.setattr(module, "vertex_uniforms", tape_releasing_two_more_per_step)
    else:  # the refreshes release through release_rows, the returned point through sparsify
        real_rows, real = module.release_rows, module.sparsify

        def rows_releasing_one_more(w, k, rngs):
            real_rows(w, 1, rngs)
            return real_rows(w, k, rngs)

        def sparsify_releasing_one_more(x, k, rng):
            sample_vertex(x, rng)
            return real(x, k, rng)

        monkeypatch.setattr(module, "release_rows", rows_releasing_one_more)
        monkeypatch.setattr(module, "sparsify", sparsify_releasing_one_more)
    assert release_at_cap(solver, 0.5)().vertex_draws == draws + extra
    with pytest.raises(BudgetError, match="realized vertex releases"):
        release_at_cap(solver, 1.0)()
