import math

import numpy as np
import pytest

from dpsimplex.errors import BudgetError
from dpsimplex.oracles import Dataset
from dpsimplex.privacy import ScoPlan, plan_anytime_sco
from dpsimplex.problems import SeparableQuadratic
from dpsimplex.rng import RngStream
from dpsimplex.simplex import SimplexPoint
from dpsimplex.sco import (
    FrozenXObjective,
    FrozenYObjective,
    anytime_average_regret_decomposition,
    solve_dp_sco,
)
from dpsimplex.problems import BilinearObjective


@pytest.fixture(scope="module")
def quad():
    r = RngStream(100)
    d = 20
    c = r.child("c").gen.uniform(0.5, 1.5, size=d)
    a = r.child("a").gen.dirichlet(np.ones(d) * 5)
    eta = 0.3 * r.child("e").gen.uniform(-1.0, 1.0, size=d)
    return SeparableQuadratic(c, a, eta)


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
        sol = solve_dp_sco(quad, quad.sample_dataset(n, RngStream(101)), plan, RngStream(102))
        expected = q + math.floor((T - q) / q) + 1
        assert abs(sol.refresh_count - expected) <= 1
        assert sol.samples_used == plan.T * plan.B_batch


def test_surrogate_cached_between_refreshes(quad):
    # the gradient is evaluated at a point that changes only on refresh steps:
    # between refreshes the recorded gradients differ only through the batch
    n = 1200
    plan = manual_plan(quad, n, T=40, q=8, K=3)
    data = Dataset(np.zeros(n))  # constant samples isolate the surrogate
    sol = solve_dp_sco(quad, data, plan, RngStream(103), record_trace=True)
    tr = sol.trace
    for t in range(1, plan.T):
        if not tr.refreshed[t]:
            assert np.array_equal(tr.grads[t], tr.grads[t - 1])


def test_exact_iterates_reduce_to_plain_anytime_descent(quad):
    # q = T refreshes every step; with the identity surrogate the run must
    # equal a hand-rolled anytime mirror-descent loop
    n, T = 900, 30
    plan = manual_plan(quad, n, T=T, q=T, K=1)
    data = quad.sample_dataset(n, RngStream(104))
    sol = solve_dp_sco(quad, data, plan, RngStream(105), exact_iterates=True)

    ref_data = quad.sample_dataset(n, RngStream(104))
    logw = np.zeros(quad.dim)
    w = None
    for t in range(1, T + 1):
        e = np.exp(logw - logw.max())
        x_t = e / e.sum()
        w = x_t if t == 1 else ((t - 1) * w + x_t) / t
        g = quad.batch_grad(w, ref_data.take(plan.B_batch))
        logw = logw - plan.tau * g
    assert np.allclose(sol.w_hat.coords, w, atol=1e-14)


def test_average_drift_assertion_is_active(quad):
    # the 2/t drift bound is asserted on every step of a normal run
    n = 800
    plan = manual_plan(quad, n, T=25, q=5, K=2)
    sol = solve_dp_sco(quad, quad.sample_dataset(n, RngStream(106)), plan, RngStream(107),
                       record_trace=True)
    w = sol.trace.w_points
    for t in range(1, w.shape[0]):
        assert np.abs(w[t] - w[t - 1]).sum() <= 2.0 / (t + 1) + 1e-12


def test_average_drift_violation_raises_budget_error(quad, monkeypatch):
    # a running average that hops between vertices breaks the 2/t drift bound
    # the cached-surrogate privacy cap relies on; the run must refuse
    import dpsimplex.sco as sco

    monkeypatch.setattr(sco, "running_average",
                        lambda w_prev, x_t, t: SimplexPoint.vertex(x_t.size, t % 2).coords)
    n = 800
    plan = manual_plan(quad, n, T=25, q=5, K=2)
    with pytest.raises(BudgetError):
        solve_dp_sco(quad, quad.sample_dataset(n, RngStream(106)), plan, RngStream(107))


def test_solution_reports_steps_and_vertex_draws(quad):
    n = 800
    plan = manual_plan(quad, n, T=25, q=5, K=2)
    sol = solve_dp_sco(quad, quad.sample_dataset(n, RngStream(106)), plan, RngStream(107))
    assert sol.steps_run == plan.T
    assert sol.vertex_draws == plan.K * sol.refresh_count
    exact = solve_dp_sco(quad, quad.sample_dataset(n, RngStream(106)), plan, RngStream(107),
                         exact_iterates=True)
    assert exact.steps_run == plan.T and exact.vertex_draws == 0


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
        sol = solve_dp_sco(quad, data, manual_plan(quad, n, T, q=5, K=2), RngStream(109))
        assert sol.steps_run == T
        counts.append(len(checks) - before)
    assert counts[0] == counts[1] > 0


def test_solver_rejects_short_dataset(quad):
    plan = manual_plan(quad, 1000, T=50, q=5, K=2)
    with pytest.raises(BudgetError):
        solve_dp_sco(quad, quad.sample_dataset(100, RngStream(108)), plan, RngStream(109))


def test_planned_run_hits_low_risk(quad):
    n = 10**4
    plan = plan_anytime_sco(n, 1.0, 1e-5, quad.L0, quad.L1, quad.L2,
                            math.log(quad.dim), "second_order")
    sol = solve_dp_sco(quad, quad.sample_dataset(n, RngStream(110)), plan, RngStream(111))
    excess = quad.population_value(sol.w_hat.coords)
    assert excess <= 0.1 * quad.value_range()


# ---- regret decomposition ----------------------------------------------------


def test_decomposition_coupling_vanishes_with_exact_gradients(quad):
    # deterministic samples + identity surrogate make g_t the exact gradient
    n, T = 600, 20
    plan = manual_plan(quad, n, T=T, q=T, K=1)
    sol = solve_dp_sco(quad, Dataset(np.zeros(n)), plan, RngStream(112),
                       exact_iterates=True, record_trace=True)
    dec = anytime_average_regret_decomposition(
        sol.trace, quad.population_grad, quad.a
    )
    assert dec.coupling_term == pytest.approx(0.0, abs=1e-10)
    wT = sol.trace.w_points[-1]
    assert dec.bound + 1e-12 >= quad.population_value(wT) - quad.population_value(quad.a)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decomposition_upper_bounds_excess_risk(quad, seed):
    n = 4000
    plan = plan_anytime_sco(n, 1.0, 1e-5, quad.L0, quad.L1, quad.L2,
                            math.log(quad.dim), "second_order")
    sol = solve_dp_sco(quad, quad.sample_dataset(n, RngStream(113, seed)), plan,
                       RngStream(114, seed), record_trace=True)
    wT = sol.trace.w_points[-1]
    excess = quad.population_value(wT) - quad.population_value(quad.a)
    dec = anytime_average_regret_decomposition(sol.trace, quad.population_grad, quad.a)
    assert dec.bound + 1e-12 >= excess
    # a comparator other than the minimizer can make the regret negative,
    # but the bound still dominates the relative excess
    other = sol.trace.w_points[-1]
    dec2 = anytime_average_regret_decomposition(sol.trace, quad.population_grad, other)
    assert dec2.bound + 1e-9 >= quad.population_value(wT) - quad.population_value(other)


def test_decomposition_requires_trace(quad):
    with pytest.raises(ValueError):
        anytime_average_regret_decomposition(None, quad.population_grad, quad.a)


# ---- frozen-block adapters ------------------------------------------------------


def test_frozen_adapters_expose_expected_gradients():
    A = np.array([[1.0, -1.0], [0.5, 0.25]])
    obj = BilinearObjective(A, np.zeros_like(A))
    x = np.array([0.3, 0.7])
    y = np.array([0.6, 0.4])
    z = 1.0
    fy = FrozenYObjective(obj, y)
    assert np.allclose(fy.grad(x, z), A @ y)
    assert fy.value(x, z) == pytest.approx(float(x @ A @ y))
    fx = FrozenXObjective(obj, x)
    assert np.allclose(fx.grad(y, z), -(A.T @ x))
    assert fx.value(y, z) == pytest.approx(-float(x @ A @ y))
