"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every criterion carries
its stated runtime budget; the suite asserts both the substantive check and
that the budget was respected.
"""
import math
import time

import numpy as np
from scipy import stats

import dpsimplex as dps
from dpsimplex.cli import main as cli_main
from dpsimplex.oracles import TruncGeom
from dpsimplex.privacy import SsmdPlan, max_step_vertex_smd
from dpsimplex.problems import SeparableQuadratic
from dpsimplex.rng import RngStream
from dpsimplex.solvers import score_candidate_pairs, select_pair
from reference import (anytime_average_regret_decomposition, dp_smoke_first_vertex,
                       nash_value_bruteforce, solve_recorded)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def check(self) -> bool:
        return self.elapsed <= self.limit


# ---------------------------------------------------------------------------


def test_criterion_1_sparsification_gate():
    budget = Budget(300.0)
    reports = dps.run_all_suites(100_000, RngStream(0))
    ok = all(r.passed for r in reports) and len(reports) == 7 and budget.check()
    detail = "; ".join(f"{r.suite} {r.measured:.4g}<={r.bound:.4g}+{r.slack:.2g}" for r in reports)
    report("criterion 1 (sparsification bounds 7/7)", ok, f"{detail}; {budget.elapsed:.1f}s")


def test_criterion_2_distribution_tests():
    budget = Budget(60.0)
    draws = 10**6
    pvals = {}
    for M in (1, 4):
        tg = TruncGeom(0.5, M)
        cdf = np.cumsum(tg.pmf())
        u = RngStream(1).child("tg", M).gen.random(draws)
        idx = np.minimum(np.searchsorted(cdf, u, side="left"), M)
        observed = np.bincount(idx, minlength=M + 1)
        pvals[f"tg_M{M}"] = stats.chisquare(observed, tg.pmf() * draws).pvalue

    scores = RngStream(2).child("scores").gen.uniform(-2.0, 2.0, size=8)
    eps, sens = 1.3, 0.7
    logits = eps * scores / (2 * sens)
    gumbel = RngStream(3).child("gumbel").gen.gumbel(size=(draws, 8))
    picks = np.argmax(logits + gumbel, axis=1)
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    pvals["exp_mech"] = stats.chisquare(np.bincount(picks, minlength=8), expected * draws).pvalue

    ok = all(p > 1e-3 for p in pvals.values()) and budget.check()
    detail = ", ".join(f"{k}: p={v:.4f}" for k, v in pvals.items())
    report("criterion 2 (chi-square distribution tests)", ok, f"{detail}; {budget.elapsed:.1f}s")


def test_criterion_3_nonprivate_baseline():
    budget = Budget(60.0)
    T = 10**4
    games = [dps.MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros((2, 2)))]
    games += [dps.MatrixGame.random(20, 20, RngStream(4).child("game", i)) for i in range(20)]
    worst_margin = np.inf
    worst_nash = 0.0
    for game in games:
        L0 = np.abs(game.payoff).max()
        ell = game.ell
        sol = dps.solve_smd_nonprivate(game.payoff, T, math.sqrt(ell / T) / L0)
        gap = dps.exact_gap_bilinear(game.payoff, sol.x.coords, sol.y.coords).gap_estimate
        bound = 3 * L0 * math.sqrt(ell / T)
        worst_margin = min(worst_margin, bound - gap)
        nash = nash_value_bruteforce(game.payoff)
        worst_nash = max(worst_nash, nash.certified_gap)
    ok = worst_margin >= 0 and worst_nash <= 1e-3 and budget.check()
    report(
        "criterion 3 (non-private baseline)", ok,
        f"21 games, worst bound margin {worst_margin:.4f}, "
        f"worst certified nash gap {worst_nash:.2e}; {budget.elapsed:.1f}s",
    )


def _scaling_fit_r2(ns, gaps, ell, eps, delta):
    ln1d = math.log(1 / delta)
    X = np.column_stack([
        np.sqrt(ell / np.asarray(ns, dtype=float)),
        np.sqrt(ell**1.5 * math.sqrt(ln1d) / (np.asarray(ns, dtype=float) * eps)),
    ])
    y = np.asarray(gaps)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    return 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())


def test_criterion_4_vertex_solver_scaling():
    budget = Budget(600.0)
    eps, delta = 1.0, 1e-5
    game = dps.MatrixGame.benchmark(50, 50, RngStream(52).child("game"))
    obj = game.objective()
    ns = (10**3, 10**4, 10**5)
    medians = []
    for n in ns:
        plan = dps.plan_vertex_smd(n, eps, delta, obj.L0, obj.L1, obj.L2, game.ell, "quadratic")
        gaps = []
        for trial in range(10):
            data = game.sample_dataset(n, RngStream(1000).child("d", n, trial))
            sol = dps.solve_smd_vertex(obj, data, plan, RngStream(1000).child("s", n, trial))
            gap = dps.exact_gap_bilinear(game.payoff, sol.x.coords, sol.y.coords)
            gaps.append(gap.gap_estimate)
        medians.append(float(np.median(gaps)))
    decreasing = medians[0] > medians[1] > medians[2]
    r2 = _scaling_fit_r2(ns, medians, game.ell, eps, delta)
    ok = decreasing and r2 >= 0.9 and budget.check()
    report(
        "criterion 4 (vertex-solver scaling)", ok,
        f"medians={[round(m, 4) for m in medians]}, R2={r2:.3f}; {budget.elapsed:.1f}s",
    )


def test_criterion_5_bias_reduced_stopping():
    budget = Budget(120.0)
    game = dps.MatrixGame.random(10, 10, RngStream(16))
    obj = game.objective()
    n = 10**4
    plan = dps.plan_bias_reduced(n, 1.0, 1e-5, obj.L0, obj.L1, obj.L2, game.ell)
    tg = TruncGeom(0.5, plan.M)
    steps = []
    ok_runs = True
    for seed in range(200):
        data = game.sample_dataset(n, RngStream(5).child("d", seed))
        sol, trace = dps.solve_smd_bias_reduced(obj, data, plan, RngStream(5).child("s", seed))
        ok_runs &= trace.total_weight <= plan.U and sol.samples_used <= n
        steps.append(trace.stop_step)
    wald_cap = plan.U / tg.mean_pow2()
    wald_ok = np.mean(steps) + 1 <= 1.2 * wald_cap

    m0_plan = dps.BrPlan(U=9.7, M=0, alpha=0.5, tau=1e-3, C=obj.L0**2,
                         epsilon=1.0, delta=1e-5, L0=obj.L0, n=200, ell=game.ell)
    m0_plan.validate()
    m0_counts = set()
    for seed in range(5):
        data = game.sample_dataset(200, RngStream(6).child(seed))
        _, trace = dps.solve_smd_bias_reduced(obj, data, m0_plan, RngStream(7).child(seed))
        m0_counts.add(trace.stop_step)
    m0_ok = m0_counts == {math.floor(m0_plan.U) - 1}

    ok = ok_runs and wald_ok and m0_ok and budget.check()
    report(
        "criterion 5 (stopping-time properties)", ok,
        f"mean steps+1={np.mean(steps) + 1:.2f} <= 1.2*{wald_cap:.2f}, "
        f"weights within U on 200 runs, M=0 count {m0_counts}; {budget.elapsed:.1f}s",
    )


def test_criterion_6_privacy_precondition_audit():
    budget = Budget(90.0)
    gen = RngStream(8).gen
    failures = []

    # vertex-sampling solver
    checked = 0
    while checked < 100:
        d = int(gen.integers(3, 8))
        game = dps.MatrixGame.random(d, d, RngStream(9).child("g", checked))
        obj = game.objective()
        n = int(gen.integers(200, 2500))
        eps = float(gen.uniform(0.3, 3.0))
        delta = float(10 ** gen.uniform(-6, -3))
        mode = ("first_order", "second_order", "quadratic")[int(gen.integers(3))]
        plan = dps.plan_vertex_smd(n, eps, delta, obj.L0, 0.0, 0.0, game.ell, mode)
        plan.validate()
        data = game.sample_dataset(n, RngStream(10).child(checked))
        sol = dps.solve_smd_vertex(obj, data, plan, RngStream(11).child(checked))
        cap = max_step_vertex_smd(plan.B_batch, eps, delta, obj.L0, sol.steps_run, plan.K)
        if plan.tau > cap * (1 + 1e-9) or sol.samples_used > n:
            failures.append(("smd_vertex", checked))
        checked += 1

    # bias-reduced solver
    checked = 0
    while checked < 100:
        d = int(gen.integers(3, 8))
        game = dps.MatrixGame.random(d, d, RngStream(12).child("g", checked))
        obj = game.objective()
        n = int(gen.integers(6_000, 40_000))
        eps = float(gen.uniform(0.5, 3.0))
        delta = float(10 ** gen.uniform(-6, -3))
        try:
            plan = dps.plan_bias_reduced(n, eps, delta, obj.L0, obj.L1, obj.L2, game.ell)
        except dps.BudgetError:
            continue
        plan.validate()
        data = game.sample_dataset(n, RngStream(13).child(checked))
        sol, trace = dps.solve_smd_bias_reduced(obj, data, plan, RngStream(14).child(checked))
        eps_vertex = 9 * plan.tau * plan.alpha * obj.L0
        releases = 4 * trace.total_weight + 2 * trace.stop_step
        if not dps.adaptive_budget_ok(np.full(releases, eps_vertex), eps, delta):
            failures.append(("smd_bias_reduced", checked))
        if sol.samples_used > n:
            failures.append(("smd_bias_reduced-samples", checked))
        checked += 1

    # anytime convex solver
    quad_rng = RngStream(15)
    checked = 0
    while checked < 100:
        d = int(gen.integers(5, 30))
        c = quad_rng.child("c", checked).gen.uniform(0.5, 1.5, size=d)
        a = quad_rng.child("a", checked).gen.dirichlet(np.ones(d) * 3)
        eta = 0.2 * quad_rng.child("e", checked).gen.uniform(-1, 1, size=d)
        quad = SeparableQuadratic(c, a, eta)
        n = int(gen.integers(400, 2500))
        eps = float(gen.uniform(0.3, 3.0))
        delta = float(10 ** gen.uniform(-6, -3))
        mode = ("first_order", "second_order")[int(gen.integers(2))]
        plan = dps.plan_anytime_sco(n, eps, delta, quad.L0, quad.L1, quad.L2, math.log(d), mode)
        plan.validate()
        data = quad.sample_dataset(n, RngStream(17).child(checked))
        sol = dps.solve_dp_sco(quad, data, plan, [RngStream(18).child(checked)])[0]
        releases = plan.K * sol.refresh_count
        cap = plan.B_batch * eps / (8 * quad.L0 * math.sqrt(2 * releases * math.log(1 / delta)))
        if plan.tau > cap * (1 + 1e-9) or sol.samples_used > n:
            failures.append(("dp_sco", checked))
        checked += 1

    ok = not failures and budget.check()
    report(
        "criterion 6 (privacy precondition audit)", ok,
        f"300 planned runs re-verified from realized counts, failures={failures}; "
        f"{budget.elapsed:.1f}s",
    )


def test_criterion_7_boosted_selection():
    budget = Budget(180.0)
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    # non-constant perturbation: a sample swap must move candidate scores
    game = dps.MatrixGame(A, 0.25 * np.array([[1.0, -1.0], [1.0, -1.0]]))
    obj = game.objective()
    holdout_size = 4_000  # n eps / B = 4 * 4000 * 1 / 1 >= 1e3
    eps = 1.0

    center = np.array([0.5, 0.5])
    vertices = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    pairs = [(vertices[0], vertices[0]), (center, center),
             (vertices[1], vertices[0]), (vertices[0], vertices[1])]
    good = 1  # the centered pair is the exact equilibrium (gap 0 <= 0.05)
    tables = [vertices for _ in pairs]

    hits = 0
    for seed in range(100):
        holdout = (RngStream(19).child("h", seed).gen.integers(0, 2, size=holdout_size) * 2 - 1)
        scores = score_candidate_pairs(obj, holdout.astype(float), pairs, tables, tables)
        pick = select_pair(scores, obj.B, holdout_size, eps, RngStream(20).child(seed))
        hits += pick == good
    freq = hits / 100

    # score sensitivity on random neighboring holdouts
    sens_cap = 4 * obj.B / holdout_size  # = 16 B / n with n = 4 |holdout|
    worst = 0.0
    base_holdout = (RngStream(21).gen.integers(0, 2, size=holdout_size) * 2 - 1).astype(float)
    base_scores = score_candidate_pairs(obj, base_holdout, pairs, tables, tables)
    for swap in range(20):
        neighbor = base_holdout.copy()
        neighbor[int(RngStream(22).child(swap).gen.integers(holdout_size))] *= -1
        moved = score_candidate_pairs(obj, neighbor, pairs, tables, tables)
        worst = max(worst, float(np.abs(moved - base_scores).max()))

    ok = freq >= 0.95 and worst <= sens_cap + 1e-12 and budget.check()
    report(
        "criterion 7 (boosted selection)", ok,
        f"good-candidate frequency {freq:.2f}, sensitivity {worst:.2e} <= {sens_cap:.2e}; "
        f"{budget.elapsed:.1f}s",
    )


def test_criterion_8_anytime_convex_solver():
    budget = Budget(300.0)
    r = RngStream(24)
    d = 50
    quad = SeparableQuadratic(
        r.child("c").gen.uniform(0.5, 1.5, size=d),
        r.child("a").gen.dirichlet(np.ones(d) * 5),
        0.3 * r.child("e").gen.uniform(-1, 1, size=d),
    )
    ns = (10**3, 10**4, 10**5)
    ok = True
    details = []
    for mode in ("first_order", "second_order"):
        medians = []
        for n in ns:
            plan = dps.plan_anytime_sco(n, 1.0, 1e-5, quad.L0, quad.L1, quad.L2,
                                        math.log(d), mode)
            risks = []
            for trial in range(3):
                data = quad.sample_dataset(n, r.child("d", mode, n, trial))
                sols, traces = solve_recorded(quad, data, plan, [r.child("s", mode, n, trial)])
                sol, trace = sols[0], traces[0]
                risks.append(quad.population_value(sol.w_hat.coords))
                # conversion bound must dominate the excess of the dense average
                dec = anytime_average_regret_decomposition(
                    trace, quad.population_grad, quad.a
                )
                excess_dense = quad.population_value(trace.w_points[-1])
                ok &= dec.bound + 1e-12 >= excess_dense
                # slow-average drift along the whole trajectory
                w = trace.w_points
                drifts = np.abs(np.diff(w, axis=0)).sum(axis=1)
                ok &= bool(np.all(drifts <= 2.0 / np.arange(2, w.shape[0] + 1) + 1e-12))
            medians.append(float(np.median(risks)))
        ok &= medians[0] > medians[1] > medians[2]
        ok &= medians[-1] <= 0.1 * quad.value_range()  # largest-n run must be accurate
        details.append(f"{mode}: {[round(m, 4) for m in medians]}")
    ok = ok and budget.check()
    report(
        "criterion 8 (anytime convex solver)", ok,
        f"{'; '.join(details)}; {budget.elapsed:.1f}s",
    )


def test_criterion_9_empirical_privacy_smoke():
    budget = Budget(120.0)
    game = dps.MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]), 0.3 * np.ones((2, 2)))
    obj = game.objective()
    n, T, K = 10, 2, 1
    B = n // T
    tau = max_step_vertex_smd(B, 1.0, 1e-5, obj.L0, T, K)
    plan = SsmdPlan(T=T, tau=tau, K=K, B_batch=B, mode="quadratic",
                    epsilon=1.0, delta=1e-5, L0=obj.L0, n=n)
    gen = RngStream(25).gen
    data_a = (gen.integers(0, 2, size=n) * 2 - 1).astype(float)
    data_b = data_a.copy()
    data_b[0] *= -1.0
    rep = dp_smoke_first_vertex(obj, data_a, data_b, plan, runs=10**6, rng=RngStream(26))
    ok = (
        rep.loss_estimate <= rep.eps_budget + rep.mc_slack
        and rep.exact_conditional_loss <= rep.eps_budget + 1e-12
        and budget.check()
    )
    report(
        "criterion 9 (empirical privacy smoke)", ok,
        f"estimated loss {rep.loss_estimate:.5f} (exact {rep.exact_conditional_loss:.5f}) "
        f"<= budget {rep.eps_budget:.5f} + mc {rep.mc_slack:.5f}; {budget.elapsed:.1f}s",
    )


def test_criterion_10_run_determinism(tmp_path):
    budget = Budget(120.0)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1 = cli_main(["run", "--config", "configs/quickstart.json", "--out", str(out1)])
    code2 = cli_main(["run", "--config", "configs/quickstart.json", "--out", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and same and budget.check()
    report(
        "criterion 10 (run determinism)", ok,
        f"two invocations byte-identical={same}; {budget.elapsed:.1f}s",
    )
