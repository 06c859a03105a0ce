import math

import numpy as np
import pytest

from dpsimplex.errors import BudgetError
from dpsimplex.oracles import Dataset
from dpsimplex.privacy import ScoPlan, plan_anytime_sco
from dpsimplex.problems import SeparableQuadratic
from dpsimplex.rng import RngStream
from dpsimplex.simplex import SimplexPoint, sparsify
from dpsimplex.sco import FrozenBlock, solve_dp_sco
from dpsimplex.problems import BilinearObjective, MatrixGame
from reference import anytime_average_regret_decomposition, identity_surrogates, solve_recorded


@pytest.fixture(scope="module")
def quad():
    r = RngStream(100)
    d = 20
    c = r.child("c").gen.uniform(0.5, 1.5, size=d)
    a = r.child("a").gen.dirichlet(np.ones(d) * 5)
    eta = 0.3 * r.child("e").gen.uniform(-1.0, 1.0, size=d)
    return SeparableQuadratic(c, a, eta)


def row_dataset(datasets):
    """One row Dataset whose row r holds the samples of ``datasets[r]``."""
    return Dataset(np.array([data.take(data.remaining) for data in datasets]))


def manual_plan(obj, n, T, q, K, tau=None, eps=1.0, delta=1e-5):
    from dpsimplex.privacy import max_step_anytime_sco

    cap = min(
        max_step_anytime_sco(max(1, n // T), eps, delta, obj.L0, T, K, q),
        1.0 / (4 * obj.L0 * q),
    )
    return ScoPlan(T=T, tau=tau if tau is not None else cap, K=K, q=q,
                   B_batch=max(1, n // T), mode="second_order",
                   epsilon=eps, delta=delta, L0=obj.L0, n=n)


# ---- core behavior ---------------------------------------------------------


def test_refresh_count_matches_schedule(quad):
    n = 2000
    for T, q in ((60, 6), (60, 7), (50, 50), (9, 3)):
        plan = manual_plan(quad, n, T, q, K=2)
        data = quad.sample_dataset(n, RngStream(101))
        sol = solve_dp_sco(quad, data, plan, [RngStream(102)])[0]
        expected = q + math.floor((T - q) / q) + 1
        assert abs(sol.refresh_count - expected) <= 1
        assert sol.samples_used == plan.T * plan.B_batch


def test_surrogate_cached_between_refreshes(quad):
    # the gradient is evaluated at a point that changes only on refresh steps:
    # between refreshes the recorded gradients differ only through the batch
    n = 1200
    plan = manual_plan(quad, n, T=40, q=8, K=3)
    data = Dataset(np.zeros(n))  # constant samples isolate the surrogate
    tr = solve_recorded(quad, data, plan, [RngStream(103)])[1][0]
    for t in range(1, plan.T):
        if not tr.refreshed[t]:
            assert np.array_equal(tr.grads[t], tr.grads[t - 1])


def test_run_is_plain_anytime_descent_at_its_surrogates(quad):
    # q = T refreshes every step; the run must equal a hand-rolled anytime
    # mirror-descent loop whose gradients are taken at K-draw sparsifications of
    # the running average, drawn from a stream with the solver's key
    n, T, K = 900, 30, 3
    plan = manual_plan(quad, n, T=T, q=T, K=K)
    data = quad.sample_dataset(n, RngStream(104))
    sol = solve_dp_sco(quad, data, plan, [RngStream(105)])[0]

    ref_data, rng = quad.sample_dataset(n, RngStream(104)), RngStream(105)
    logw = np.zeros(quad.dim)
    w = None
    for t in range(1, T + 1):
        e = np.exp(logw - logw.max())
        x_t = e / e.sum()
        w = x_t if t == 1 else ((t - 1) * w + x_t) / t
        w_hat = sparsify(w, K, rng)
        g = quad.batch_grad_rows(w_hat[None], ref_data.take(plan.B_batch)[None])[0]
        logw = logw - plan.tau * g
    assert np.array_equal(sol.w_hat.coords, sparsify(w, K, rng))
    assert sol.vertex_draws == rng.vertex_draws == K * (T + 1)


def test_average_drift_assertion_is_active(quad):
    # the 2/t drift bound is asserted on every step of a normal run
    n = 800
    plan = manual_plan(quad, n, T=25, q=5, K=2)
    trace = solve_recorded(quad, quad.sample_dataset(n, RngStream(106)), plan,
                           [RngStream(107)])[1][0]
    w = trace.w_points
    for t in range(1, w.shape[0]):
        assert np.abs(w[t] - w[t - 1]).sum() <= 2.0 / (t + 1) + 1e-12


def test_average_drift_violation_raises_budget_error(quad, monkeypatch):
    # a running average that hops between vertices breaks the 2/t drift bound
    # the cached-surrogate privacy cap relies on; the run must refuse
    import dpsimplex.sco as sco

    monkeypatch.setattr(sco, "running_average",
                        lambda w_prev, x_t, t: SimplexPoint.vertex(x_t.size, t % 2).coords[None])
    n = 800
    plan = manual_plan(quad, n, T=25, q=5, K=2)
    with pytest.raises(BudgetError):
        solve_dp_sco(quad, quad.sample_dataset(n, RngStream(106)), plan, [RngStream(107)])


def test_average_drift_violation_in_one_row_raises_budget_error(quad, monkeypatch):
    # the drift bound is checked on every row of a batch: a hop in row 1 alone must stop it
    import dpsimplex.sco as sco

    average = sco.running_average

    def row_1_hops(w_prev, x_t, t):
        w = np.array(average(w_prev, x_t, t))
        w[1] = SimplexPoint.vertex(x_t.shape[1], t % 2).coords
        return w

    monkeypatch.setattr(sco, "running_average", row_1_hops)
    n = 800
    plan = manual_plan(quad, n, T=25, q=5, K=2)
    with pytest.raises(BudgetError):
        solve_dp_sco(quad, row_dataset(quad.sample_dataset(n, RngStream(106, r))
                                       for r in range(3)),
                     plan, [RngStream(107, r) for r in range(3)])


@pytest.mark.parametrize("identity, kind", [
    (False, "frozen"), (True, "frozen"), (False, "quad"), (True, "quad"),
], ids=["False", "True", "quad-False", "quad-True"])
def test_batched_rows_equal_one_row_runs(monkeypatch, identity, kind):
    # rows with their own shard, stream and (frozen) partner step as one block; each
    # row must get the bits a one-row call with the same inputs gets, at every step's
    # gradient and not only in its returned point (with identity surrogates: exact
    # gradients at the dense averages)
    if identity:
        identity_surrogates(monkeypatch)
    game = MatrixGame.random(6, 6, RngStream(120))
    base = game.objective()
    partners = RngStream(121).gen.dirichlet(np.ones(6), size=3)
    quad = SeparableQuadratic(np.linspace(0.5, 1.5, 6), np.full(6, 1 / 6),
                              np.linspace(-0.3, 0.3, 6))
    n = 600
    plan = manual_plan(base if kind == "frozen" else quad, n, T=23, q=5, K=3)
    assert plan.T % plan.q != 0

    def run(rows):
        data = [game.sample_dataset(n, RngStream(122, r)) for r in rows]
        data = data[0] if len(data) == 1 else row_dataset(data)  # a one-row call reads 1-d data
        obj = FrozenBlock(base, "x", partners[list(rows)]) if kind == "frozen" else quad
        return solve_recorded(obj, data, plan, [RngStream(123, r) for r in rows])

    batch, traces = run(range(3))
    assert len(batch) == len(traces) == 3
    assert not np.array_equal(batch[0].w_hat.coords, batch[1].w_hat.coords)
    for r in range(3):
        (one,), (trace,) = run([r])
        assert np.array_equal(traces[r].grads, trace.grads)
        assert np.array_equal(batch[r].w_hat.coords, one.w_hat.coords)
        assert batch[r].vertex_draws == one.vertex_draws
        assert batch[r].refresh_count == one.refresh_count == batch.refresh_count


@pytest.mark.parametrize("free", ["x", "y"])
def test_rows_sharing_a_saddle_objective_equal_one_row_runs(monkeypatch, free):
    # boosting's rows freeze one block of the same objective; a step takes one stacked
    # call for the rows whose (row, batch mean) key is new; each row must still get its
    # one-row bits
    game = MatrixGame.random(6, 6, RngStream(124))
    base = game.objective()
    partners = RngStream(125).gen.dirichlet(np.ones(6), size=3)
    n = 600
    plan = manual_plan(base, n, T=23, q=5, K=3)

    def run(rows):
        data = [game.sample_dataset(n, RngStream(126, r)) for r in rows]
        data = data[0] if len(data) == 1 else row_dataset(data)  # a one-row call reads 1-d data
        return solve_dp_sco(FrozenBlock(base, free, partners[list(rows)]), data, plan,
                            [RngStream(127, r) for r in rows])

    stacked_calls = []  # the frozen partners of each call's rows
    rows_of = base.batch_grad_xy_rows
    monkeypatch.setattr(base, "batch_grad_xy_rows",
                        lambda *a: stacked_calls.append(a[1] if free == "x" else a[0])
                        or rows_of(*a))
    batch = run(range(3))
    samples = np.array([game.sample_dataset(n, RngStream(126, r)).take(n) for r in range(3)])
    sums = samples[:, : plan.T * plan.B_batch].reshape(3, plan.T, -1).sum(axis=2)
    seen, new_rows = set(), []  # per step with a new key, the rows that have one
    for t in range(plan.T):
        new = [r for r in range(3) if (r, sums[r, t]) not in seen]
        seen.update((r, sums[r, t]) for r in new)
        if new:
            new_rows.append(new)
    assert len(stacked_calls) == len(new_rows) < plan.T
    for partners_of_call, new in zip(stacked_calls, new_rows):
        assert np.array_equal(partners_of_call, partners[new])
    for r in range(3):
        (one,) = run([r])
        assert np.array_equal(batch[r].w_hat.coords, one.w_hat.coords)


@pytest.mark.parametrize("free", ["x", "y"])
@pytest.mark.parametrize("rows, samples", [
    (1, "signs"), (1, "reals"), (3, "signs"), (3, "reals"), (3, "mixed"),
])
def test_frozen_table_rows_equal_direct_calls(monkeypatch, free, rows, samples):
    # a bilinear game serves frozen rows from a table keyed by (row, batch mean); at every
    # step its rows must be the bits of a direct batch_grad_xy_rows call. A mean of B signs
    # is computed once per row; any other mean ("reals", and row 1 of "mixed") every step
    game = MatrixGame.random(6, 5, RngStream(128))
    base = game.objective()
    partners = RngStream(129).gen.dirichlet(np.ones(5 if free == "x" else 6), size=rows)
    n = 600
    plan = manual_plan(base, n, T=40, q=5, K=3)
    reals = [samples == "reals" or (samples == "mixed" and r == 1) for r in range(rows)]
    data = np.array([RngStream(130, r).gen.uniform(-1.0, 1.0, size=n) if reals[r]
                     else game.sample_dataset(n, RngStream(130, r)).take(n) for r in range(rows)])
    computed = []  # rows per call of the objective
    rows_of = base.batch_grad_xy_rows
    monkeypatch.setattr(base, "batch_grad_xy_rows",
                        lambda X, Y, zs: computed.append(len(zs)) or rows_of(X, Y, zs))
    checked = []

    class Checked(FrozenBlock):
        def batch_grad_rows(self, W, batches):
            g = super().batch_grad_rows(W, batches)
            X, Y = (W, partners) if free == "x" else (partners, W)
            gx, gy = BilinearObjective.batch_grad_xy_rows(base, X, Y, batches)
            assert np.array_equal(g, gx if free == "x" else -gy)
            checked.append(len(g))
            return g

    solve_dp_sco(Checked(base, free, partners), Dataset(data[0] if rows == 1 else data), plan,
                 [RngStream(131, r) for r in range(rows)])
    assert checked == [rows] * plan.T
    sums = data[:, : plan.T * plan.B_batch].reshape(rows, plan.T, -1).sum(axis=2)
    assert sum(computed) == sum(plan.T if reals[r] else len(set(sums[r])) for r in range(rows))
    assert (len(computed) == plan.T) == any(reals)


def test_frozen_table_starts_over_at_a_new_batch_size():
    # the table's key k stands for the mean (2k - B)/B, so a call with another B must
    # not read rows stored under the old one
    base = MatrixGame.random(4, 3, RngStream(132)).objective()
    partners = RngStream(133).gen.dirichlet(np.ones(3), size=2)
    W = RngStream(134).gen.dirichlet(np.ones(4), size=2)
    block = FrozenBlock(base, "x", partners)
    for batches in ([[1.0, -1.0], [1.0, 1.0]],  # k = 1 and 2 stand for means 0 and 1
                    [[-1.0, -1.0, -1.0, 1.0], [-1.0, -1.0, 1.0, 1.0]],  # and here -0.5 and 0
                    [[1.0, 1.0], [-1.0, -1.0]]):
        direct = base.batch_grad_xy_rows(W, partners, np.array(batches))[0]
        assert np.array_equal(block.batch_grad_rows(W, np.array(batches)), direct)


def test_exact_run_checks_its_schedule(quad, monkeypatch):
    # a run with exact gradients (identity surrogates) still checks its whole plan:
    # a zero round length and a step size past the privacy cap are refused
    identity_surrogates(monkeypatch)
    n = 100
    for q, tau in ((0, 0.01), (5, 10.0)):
        plan = ScoPlan(T=5, tau=tau, K=1, q=q, B_batch=20, mode="second_order",
                       epsilon=1.0, delta=1e-5, L0=quad.L0, n=n)
        with pytest.raises(BudgetError):
            solve_dp_sco(quad, quad.sample_dataset(n, RngStream(115)), plan, [RngStream(116)])


def test_solution_reports_steps_and_vertex_draws(quad):
    n = 800
    plan = manual_plan(quad, n, T=25, q=5, K=2)
    sol = solve_dp_sco(quad, quad.sample_dataset(n, RngStream(106)), plan, [RngStream(107)])[0]
    assert sol.steps_run == plan.T
    assert sol.vertex_draws == plan.K * sol.refresh_count


def test_solver_validates_only_the_returned_point(quad, monkeypatch):
    # iterates, averages and surrogates are valid by construction; only the
    # released point is checked, so the count does not grow with T
    check = SimplexPoint.__post_init__
    checks = []
    monkeypatch.setattr(SimplexPoint, "__post_init__", lambda p: checks.append(1) or check(p))
    counts = []
    for T in (10, 100):
        n = 10 * T
        data = quad.sample_dataset(n, RngStream(108))
        before = len(checks)
        sol = solve_dp_sco(quad, data, manual_plan(quad, n, T, q=5, K=2), [RngStream(109)])[0]
        assert sol.steps_run == T
        counts.append(len(checks) - before)
    assert counts[0] == counts[1] > 0


def test_solver_rejects_short_dataset(quad):
    plan = manual_plan(quad, 1000, T=50, q=5, K=2)
    with pytest.raises(BudgetError):
        solve_dp_sco(quad, quad.sample_dataset(100, RngStream(108)), plan, [RngStream(109)])


def test_solver_needs_one_dataset_row_per_objective(quad):
    plan = manual_plan(quad, 100, T=10, q=5, K=2)
    two_rows = row_dataset(quad.sample_dataset(100, RngStream(108, r)) for r in range(2))
    with pytest.raises(ValueError):
        solve_dp_sco(quad, two_rows, plan, [RngStream(109, r) for r in range(3)])
    with pytest.raises(ValueError):
        solve_dp_sco(quad, two_rows, plan, [RngStream(109)])
    three_partners = FrozenBlock(MatrixGame.random(20, 20, RngStream(117)).objective(), "x",
                                 np.full((3, 20), 0.05))
    streams = [RngStream(109, r) for r in range(2)]
    with pytest.raises(ValueError):
        solve_dp_sco(three_partners, two_rows, plan, streams)
    assert two_rows.cursor == 0  # refused before any batch was taken
    assert [s.vertex_draws for s in streams] == [0, 0]  # and before any release


def test_planned_run_hits_low_risk(quad):
    n = 10**4
    plan = plan_anytime_sco(n, 1.0, 1e-5, quad.L0, quad.L1, quad.L2,
                            math.log(quad.dim), "second_order")
    sol = solve_dp_sco(quad, quad.sample_dataset(n, RngStream(110)), plan, [RngStream(111)])[0]
    excess = quad.population_value(sol.w_hat.coords)
    assert excess <= 0.1 * quad.value_range()


# ---- the trajectory recorder -------------------------------------------------


@pytest.mark.parametrize("rows", [1, 3])
def test_recorder_leaves_the_run_alone(quad, rows):
    # the recorder only watches the step function: a recorded run releases a plain run's bytes
    import dpsimplex.sco as sco
    from dpsimplex.simplex import mirror_descent

    n = 1200
    plan = manual_plan(quad, n, T=40, q=8, K=3)

    def run(solve):
        data = row_dataset([quad.sample_dataset(n, RngStream(115, r)) for r in range(rows)])
        return solve(quad, data, plan, [RngStream(116, r) for r in range(rows)])

    plain = run(solve_dp_sco)
    recorded, traces = run(solve_recorded)
    assert sco.mirror_descent is mirror_descent
    assert len(recorded) == len(traces) == rows
    for a, b, tr in zip(plain, recorded, traces):
        assert a.w_hat.coords.tobytes() == b.w_hat.coords.tobytes()
        assert a.vertex_draws == b.vertex_draws and a.refresh_count == b.refresh_count
        assert [len(v) for v in (tr.x_points, tr.w_points, tr.grads, tr.refreshed)] == [plan.T] * 4
        assert tr.refreshed.sum() + 1 == b.refresh_count


# ---- regret decomposition ----------------------------------------------------


def test_decomposition_coupling_vanishes_with_exact_gradients(quad, monkeypatch):
    # deterministic samples + identity surrogate make g_t the exact gradient
    identity_surrogates(monkeypatch)
    n, T = 600, 20
    plan = manual_plan(quad, n, T=T, q=T, K=1)
    trace = solve_recorded(quad, Dataset(np.zeros(n)), plan, [RngStream(112)])[1][0]
    dec = anytime_average_regret_decomposition(
        trace, quad.population_grad, quad.a
    )
    assert dec.coupling_term == pytest.approx(0.0, abs=1e-10)
    wT = trace.w_points[-1]
    assert dec.bound + 1e-12 >= quad.population_value(wT) - quad.population_value(quad.a)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decomposition_upper_bounds_excess_risk(quad, seed):
    n = 4000
    plan = plan_anytime_sco(n, 1.0, 1e-5, quad.L0, quad.L1, quad.L2,
                            math.log(quad.dim), "second_order")
    trace = solve_recorded(quad, quad.sample_dataset(n, RngStream(113, seed)), plan,
                           [RngStream(114, seed)])[1][0]
    wT = trace.w_points[-1]
    excess = quad.population_value(wT) - quad.population_value(quad.a)
    dec = anytime_average_regret_decomposition(trace, quad.population_grad, quad.a)
    assert dec.bound + 1e-12 >= excess
    # a comparator other than the minimizer can make the regret negative,
    # but the bound still dominates the relative excess
    other = trace.w_points[-1]
    dec2 = anytime_average_regret_decomposition(trace, quad.population_grad, other)
    assert dec2.bound + 1e-9 >= quad.population_value(wT) - quad.population_value(other)


def test_decomposition_requires_trace(quad):
    with pytest.raises(ValueError):
        anytime_average_regret_decomposition(None, quad.population_grad, quad.a)


# ---- frozen-block adapter ------------------------------------------------------


def test_frozen_adapters_expose_expected_gradients():
    A = np.array([[1.0, -1.0], [0.5, 0.25]])
    obj = BilinearObjective(A, np.zeros_like(A))
    x = np.array([0.3, 0.7])
    y = np.array([0.6, 0.4])
    z = np.array([[1.0]])
    assert np.allclose(FrozenBlock(obj, "x", y[None]).batch_grad_rows(x[None], z), A @ y)
    assert np.allclose(FrozenBlock(obj, "y", x[None]).batch_grad_rows(y[None], z), -(A.T @ x))
