import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from dpsimplex import privacy
from dpsimplex.errors import BudgetError
from dpsimplex.privacy import (
    BrPlan,
    PrivacyParams,
    ScoPlan,
    SsmdPlan,
    advanced_composition_eps,
    audit_releases,
    exp_mech_sample,
    max_step_anytime_sco,
    max_step_vertex_smd,
    max_stop_weight_bias_reduced,
    plan_anytime_sco,
    plan_bias_reduced,
    plan_vertex_smd,
)
from dpsimplex.rng import RngStream
from reference import adaptive_budget_ok

DELTA_E = math.exp(-1.0)  # ln(1/delta) = 1 keeps hand arithmetic simple


# ---- budgets & formulas ------------------------------------------------------


def test_privacy_params_bounds():
    PrivacyParams(1.0, 1e-5)
    with pytest.raises(BudgetError):
        PrivacyParams(0.0, 1e-5)
    with pytest.raises(BudgetError):
        PrivacyParams(1.0, 1.5)
    with pytest.raises(BudgetError):
        PrivacyParams(8.0 * math.log(1e5), 1e-5)


def test_max_step_vertex_smd_frozen_value():
    assert max_step_vertex_smd(10, 1.0, DELTA_E, 1.0, 4, 3) == pytest.approx(10 / 64)


def test_max_step_vertex_smd_homogeneity():
    base = max_step_vertex_smd(10, 1.0, DELTA_E, 1.0, 4, 3)
    assert max_step_vertex_smd(10, 1.0, DELTA_E, 2.0, 4, 3) == pytest.approx(base / 2)
    # (K+1) -> 4(K+1) halves the cap
    assert max_step_vertex_smd(10, 1.0, DELTA_E, 1.0, 4, 15) == pytest.approx(base / 2)


def test_max_step_anytime_frozen_value():
    assert max_step_anytime_sco(8, 1.0, DELTA_E, 1.0, 4, 1, 2) == pytest.approx(1 / math.sqrt(8))


def test_max_step_anytime_epsilon_linearity_and_q():
    base = max_step_anytime_sco(8, 1.0, DELTA_E, 1.0, 4, 1, 2)
    assert max_step_anytime_sco(8, 2.0, DELTA_E, 1.0, 4, 1, 2) == pytest.approx(2 * base)
    # q = T shrinks the streaming term T K / q to its floor K
    T, K = 4, 1
    streaming = [T * K / q for q in (1, 2, 4)]
    assert streaming[-1] == K == min(streaming)


def test_max_stop_weight_frozen_value():
    assert max_stop_weight_bias_reduced(1.0, DELTA_E, 1 / 9, 1.0, 1.0) == pytest.approx(1 / 48)


def test_max_stop_weight_inverse_square():
    base = max_stop_weight_bias_reduced(1.0, DELTA_E, 0.2, 0.5, 1.0)
    assert max_stop_weight_bias_reduced(1.0, DELTA_E, 0.1, 0.5, 1.0) == pytest.approx(4 * base)


def test_advanced_composition_frozen_value():
    assert advanced_composition_eps(2, 1.0, DELTA_E) == pytest.approx(0.25)
    assert advanced_composition_eps(1, 1.0, DELTA_E) == pytest.approx(1 / (2 * math.sqrt(2)))
    assert advanced_composition_eps(8, 1.0, DELTA_E) == pytest.approx(0.125)


def test_advanced_composition_rejects_spent_budget():
    with pytest.raises(BudgetError):
        advanced_composition_eps(4, 8.0, DELTA_E)


# ---- adaptive composition check -----------------------------------------------


def test_adaptive_budget_empty_passes():
    assert adaptive_budget_ok([], 0.5, 1e-5)


def test_adaptive_budget_boundary():
    # eps1 solving eps1^2/2 + eps1 sqrt(2 ln(1/d')) = eps sits exactly on the boundary
    eps, ln1d = 2.0, 1.0
    eps1 = math.sqrt(2 * ln1d + 2 * eps) - math.sqrt(2 * ln1d)
    assert adaptive_budget_ok([eps1], eps, math.exp(-ln1d))
    assert not adaptive_budget_ok([eps1 * 1.001], eps, math.exp(-ln1d))


@pytest.mark.parametrize("T,eps,delta", [(1, 0.5, 1e-5), (16, 1.0, 1e-6), (400, 3.0, 1e-4)])
def test_adaptive_budget_agrees_with_advanced_composition(T, eps, delta):
    eps_prime = advanced_composition_eps(T, eps, delta)
    assert adaptive_budget_ok([eps_prime] * T, eps, delta)


@given(
    spends=st.lists(st.floats(0.0, 0.3), min_size=0, max_size=50),
    eps=st.floats(0.5, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_adaptive_budget_prefix_monotone(spends, eps):
    # spending less never turns an admissible run inadmissible
    delta_prime = 1e-5
    if adaptive_budget_ok(spends, eps, delta_prime):
        for k in range(len(spends)):
            assert adaptive_budget_ok(spends[:k], eps, delta_prime)


def test_adaptive_budget_six_u_consistency():
    # a run spending one (9 tau alpha L0)-DP vertex per unit of 6U stays in budget
    eps, delta, tau, alpha, L0 = 1.5, 1e-5, 0.05, 0.1, 2.0
    U = max_stop_weight_bias_reduced(eps, delta, tau, alpha, L0)
    spends = np.full(int(6 * U), 9 * tau * alpha * L0)
    assert adaptive_budget_ok(spends, eps, delta)


def test_audit_releases_accepts_the_counts_each_cap_allows():
    # tau at the vertex solver's cap allows exactly its 2T(K+1) releases
    ssmd = plan_vertex_smd(10**4, 1e-3, 1e-5, 1.0, 0.0, 0.0, 2 * math.log(10), "quadratic")
    audit_releases(ssmd, 2 * ssmd.T * (ssmd.K + 1))
    with pytest.raises(BudgetError):
        audit_releases(ssmd, 2 * ssmd.T * (ssmd.K + 1) + 1)
    # U at the bias-reduced cap allows 6U releases, and the filter stops 24U
    eps, delta, tau, alpha, L0 = 1.5, 1e-5, 0.005, 0.1, 2.0
    U = max_stop_weight_bias_reduced(eps, delta, tau, alpha, L0)
    br = BrPlan(U=U, M=0, alpha=alpha, tau=tau, C=L0**2, epsilon=eps, delta=delta,
                L0=L0, n=10**6, ell=1.0)
    audit_releases(br, int(6 * U))
    with pytest.raises(BudgetError):
        audit_releases(br, int(24 * U))
    # a run that released nothing spent nothing, whatever its plan
    audit_releases(dataclasses.replace(ssmd, tau=ssmd.tau * 10), 0)


# ---- exponential mechanism ------------------------------------------------------


def test_exp_mech_uniform_on_equal_scores():
    rng = RngStream(0)
    draws = np.array([exp_mech_sample(np.zeros(4), 1.0, 1.0, rng) for _ in range(100_000)])
    counts = np.bincount(draws, minlength=4)
    chi2 = float(((counts - 25_000.0) ** 2 / 25_000.0).sum())
    assert chi2 < stats.chi2.ppf(0.999, df=3)


def test_exp_mech_softmax_frequencies():
    # eps * s / (2 sens) = (0, ln 3) gives probabilities (1/4, 3/4)
    rng = RngStream(1)
    scores = np.array([0.0, math.log(3.0)])
    draws = np.array([exp_mech_sample(scores, 1.0, 2.0, rng) for _ in range(100_000)])
    freq1 = float(np.mean(draws == 1))
    assert abs(freq1 - 0.75) <= 3 * math.sqrt(0.75 * 0.25 / draws.size)


def test_exp_mech_shift_invariance_same_stream():
    scores = np.array([0.3, -1.2, 0.8, 0.0])
    a = [exp_mech_sample(scores, 0.5, 1.0, RngStream(2, k)) for k in range(500)]
    b = [exp_mech_sample(scores + 7.5, 0.5, 1.0, RngStream(2, k)) for k in range(500)]
    assert a == b


def test_exp_mech_accuracy_tail():
    # P[score of the pick <= max - 2 sens (ln J + ln(1/a)) / eps] <= a
    rng = RngStream(3)
    gen = RngStream(4).gen
    eps, sens, alpha, J = 1.0, 1.0, 0.1, 16
    misses = 0
    reps = 4000
    for _ in range(reps):
        scores = gen.uniform(-30.0, 0.0, size=J)
        scores[int(gen.integers(J))] = 0.0
        pick = exp_mech_sample(scores, sens, eps, rng)
        threshold = scores.max() - 2 * sens * (math.log(J) + math.log(1 / alpha)) / eps
        misses += scores[pick] <= threshold
    assert misses / reps <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / reps)


def test_exp_mech_input_validation():
    with pytest.raises(ValueError):
        exp_mech_sample(np.array([np.nan, 0.0]), 1.0, 1.0, RngStream(0))
    with pytest.raises(ValueError):
        exp_mech_sample(np.array([0.0, 1.0]), 0.0, 1.0, RngStream(0))


# ---- planners -------------------------------------------------------------------


def test_plan_vertex_smd_quadratic_example():
    plan = plan_vertex_smd(10**4, 1.0, 1e-5, 1.0, 0.0, 0.0, 2 * math.log(100), "quadratic")
    assert plan.K == 1
    plan.validate()
    assert plan.T * plan.B_batch <= 10**4


def test_plan_vertex_smd_first_order_k_formula():
    for n in (500, 5_000, 50_000):
        ell = 2 * math.log(30)
        plan = plan_vertex_smd(n, 1.0, 1e-5, 1.0, 1.0, 0.0, ell, "first_order")
        assert plan.K * ell >= plan.T / 2
        plan.validate()


def test_plan_vertex_smd_privacy_binds_at_tiny_eps():
    ell = 2 * math.log(10)
    plan = plan_vertex_smd(10**4, 1e-3, 1e-5, 1.0, 0.0, 0.0, ell, "quadratic")
    cap = max_step_vertex_smd(plan.B_batch, plan.epsilon, plan.delta, 1.0, plan.T, plan.K)
    assert plan.tau == pytest.approx(cap)
    assert plan.tau < math.sqrt(ell / plan.T)


def test_plan_validate_rejects_tampering():
    plan = plan_vertex_smd(10**4, 1.0, 1e-5, 1.0, 0.0, 0.0, 2 * math.log(10), "quadratic")
    bad = SsmdPlan(
        T=plan.T, tau=plan.tau * 10, K=plan.K, B_batch=plan.B_batch, mode=plan.mode,
        epsilon=plan.epsilon, delta=plan.delta, L0=plan.L0, n=plan.n,
    )
    with pytest.raises(BudgetError):
        bad.validate()


def test_plan_bias_reduced_satisfies_stop_weight_cap():
    gen = RngStream(5).gen
    checked = 0
    while checked < 100:
        n = int(gen.integers(5_000, 200_000))
        eps = float(gen.uniform(0.3, 4.0))
        delta = float(10 ** gen.uniform(-7, -3))
        L0 = float(gen.uniform(0.5, 3.0))
        L1 = float(gen.uniform(0.0, 1.0))
        L2 = float(gen.uniform(0.0, 1.0))
        ell = 2 * math.log(int(gen.integers(3, 80)))
        try:
            plan = plan_bias_reduced(n, eps, delta, L0, L1, L2, ell)
        except BudgetError:
            continue  # config too small for U >= 4; not a valid input
        cap = max_stop_weight_bias_reduced(eps, delta, plan.tau, plan.alpha, L0)
        assert plan.U <= cap * (1 + 1e-9)
        assert plan.U <= min(n * plan.alpha / 2, n / 2) * (1 + 1e-9)
        assert plan.M == round(math.log2(math.sqrt(plan.U)))
        checked += 1


def test_plan_bias_reduced_bilinear_shapes():
    n, eps, delta, L0 = 50_000, 1.0, 1e-5, 2.0
    ell = 2 * math.log(40)
    plan = plan_bias_reduced(n, eps, delta, L0, 0.0, 0.0, ell)
    assert plan.C == pytest.approx(L0**2)
    assert plan.tau == pytest.approx(math.sqrt(ell) / (L0 * math.sqrt(plan.U)))


def test_plan_bias_reduced_monotone_in_n():
    ell = 2 * math.log(20)
    us = [
        plan_bias_reduced(n, 1.0, 1e-5, 1.0, 0.5, 0.5, ell).U
        for n in (10_000, 20_000, 40_000, 80_000, 160_000)
    ]
    assert all(b >= a for a, b in zip(us, us[1:]))


def test_plan_bias_reduced_small_n_rejected():
    with pytest.raises(BudgetError):
        plan_bias_reduced(7, 1.0, 1e-5, 1.0, 0.0, 0.0, math.log(4))
    with pytest.raises(BudgetError):
        plan_bias_reduced(100, 0.05, 1e-6, 3.0, 1.0, 1.0, 2 * math.log(50))


def test_plan_anytime_sco_constraints():
    for n in (10**3, 10**4, 10**5):
        for mode in ("first_order", "second_order"):
            plan = plan_anytime_sco(n, 1.0, 1e-5, 1.5, 1.0, 0.5, math.log(50), mode)
            plan.validate()
            assert plan.tau <= 1.0 / (4 * plan.L0 * plan.q) * (1 + 1e-9)
            if mode == "second_order":
                assert 0.5 * plan.T <= plan.q * plan.K <= 2.0 * plan.T


ELL = 2 * math.log(20)


def _vertex_smd(mode):
    return lambda n, L0, L1: plan_vertex_smd(n, 1.0, 1e-5, L0, L1, 0.0, ELL, mode)


def _anytime_sco(mode):
    return lambda n, L0, L1: plan_anytime_sco(n, 1.0, 1e-5, L0, L1, 0.0, ELL / 2, mode)


PLANNERS = {  # name -> planner(n, L0, L1) at epsilon = 1, delta = 1e-5
    "vertex_smd_first_order": _vertex_smd("first_order"),
    "vertex_smd_second_order": _vertex_smd("second_order"),
    "vertex_smd_quadratic": _vertex_smd("quadratic"),
    "bias_reduced": lambda n, L0, L1: plan_bias_reduced(n, 1.0, 1e-5, L0, L1, 0.0, ELL),
    "anytime_sco_first_order": _anytime_sco("first_order"),
    "anytime_sco_second_order": _anytime_sco("second_order"),
}


@pytest.mark.parametrize("planner", list(PLANNERS))
def test_planners_give_a_positive_step_or_a_budget_error(planner):
    # constants whose squares are finite can overflow a planner's products, and a tiny
    # L0 its quotients; the planner then refuses the budget instead of failing on its
    # own arithmetic
    for L0, n, L1_is_L0 in itertools.product([1.0, 1e150, 1e153, 1.3e154, 1e-150, 1.5e-154,
                                              1e-160, 1e-200, 5e-324],
                                             [8, 300, 20_000, 10**6], [False, True]):
        try:
            plan = PLANNERS[planner](n, L0, L0 if L1_is_L0 else 0.0)
        except BudgetError:
            continue
        assert math.isfinite(plan.tau) and plan.tau > 0, (L0, n, L1_is_L0)


@pytest.mark.parametrize("planner, n, L0, L1, names", [
    ("bias_reduced", 20_000, 1.3e154, 0.0, "L0=1.3e+154, L1=0, U="),
    ("bias_reduced", 10**6, 1e153, 0.0, "L0=1e+153, L1=0, U="),
    ("anytime_sco_second_order", 20_000, 1e153, 1e153, "L0=1e+153, L1=1e+153, T="),
])
def test_step_size_underflow_names_the_constants(planner, n, L0, L1, names):
    with pytest.raises(BudgetError, match="step size underflowed") as err:
        PLANNERS[planner](n, L0, L1)
    assert names in str(err.value)


@pytest.mark.parametrize("planner", ["bias_reduced", "anytime_sco_first_order",
                                     "anytime_sco_second_order"])
def test_planners_that_square_l0_refuse_one_whose_square_underflows(planner):
    # 1.5e-154 squares to about 2.25e-308, just above the smallest normal float
    assert PLANNERS[planner](10**6, 1.5e-154, 0.0).tau > 0
    with pytest.raises(BudgetError, match="L0 = 1e-160 is too small"):
        PLANNERS[planner](10**6, 1e-160, 0.0)


def test_step_size_overflow_names_the_constants():
    with pytest.raises(BudgetError, match="step size overflowed to inf at L0=1e-160, U=5"):
        privacy._require_step(math.inf, L0=1e-160, U=5.0)


def test_sco_plan_validate_rejects_drift_violation():
    plan = plan_anytime_sco(10**4, 1.0, 1e-5, 1.0, 1.0, 0.0, math.log(20), "second_order")
    bad = ScoPlan(
        T=plan.T, tau=1.0 / (2 * plan.L0 * plan.q), K=plan.K, q=plan.q,
        B_batch=plan.B_batch, mode=plan.mode, epsilon=plan.epsilon, delta=plan.delta,
        L0=plan.L0, n=plan.n,
    )
    with pytest.raises(BudgetError):
        bad.validate()


def test_br_plan_budget_invariants_enforced_on_overrides():
    # privacy cap violated
    with pytest.raises(BudgetError):
        BrPlan(U=1e9, M=2, alpha=0.1, tau=0.1, C=1.0,
               epsilon=1.0, delta=1e-5, L0=1.0, n=10**4, ell=2.0).validate()
    # sample cap violated
    with pytest.raises(BudgetError):
        BrPlan(U=6_000, M=2, alpha=1e-4, tau=1e-6, C=1.0,
               epsilon=1.0, delta=1e-5, L0=1.0, n=10**4, ell=2.0).validate()
    # truncation past the stopping weight, refused before 2.0**M overflows
    for M in (7, 2000, 2**70):
        with pytest.raises(BudgetError, match="2\\^M exceeds the stopping weight"):
            BrPlan(U=100.0, M=M, alpha=0.5, tau=1e-6, C=1.0,
                   epsilon=1.0, delta=1e-5, L0=1.0, n=10**4, ell=2.0).validate()


_HUGE_COUNT_PLANS = {
    "SsmdPlan.T": lambda count: SsmdPlan(T=count, tau=0.1, K=4, B_batch=1, mode="quadratic",
                                         epsilon=1.0, delta=1e-5, L0=1.0, n=10**4),
    "BrPlan.U": lambda count: BrPlan(U=count, M=1, alpha=0.5, tau=0.1, C=1.0, epsilon=1.0,
                                     delta=1e-5, L0=1.0, n=10**4, ell=2.0),
    "ScoPlan.T": lambda count: ScoPlan(T=count, tau=0.1, K=4, q=2, B_batch=1, mode="quadratic",
                                       epsilon=1.0, delta=1e-5, L0=1.0, n=10**4),
}


@pytest.mark.parametrize("count", [2**64, 10**400], ids=["2^64", "10^400"])
@pytest.mark.parametrize("plan", _HUGE_COUNT_PLANS)
def test_plan_with_a_count_past_float_range_raises_budget_error(plan, count):
    # an integer is positive by its sign: np.isfinite(2**64) and math.isfinite(10**400) raise
    with pytest.raises(BudgetError):
        _HUGE_COUNT_PLANS[plan](count).validate()


_STEP_CAPS = {
    "vertex_smd": (max_step_vertex_smd,
                   dict(batch_size=1, eps=1.0, delta=1e-5, L0=1.0, T=10, K=1)),
    "anytime_sco": (max_step_anytime_sco,
                    dict(batch_size=1, eps=1.0, delta=1e-5, L0=1.0, T=10, K=1, q=2)),
}
_STEP_CAP_COUNTS = [(cap, name) for cap, (_, args) in _STEP_CAPS.items()
                    for name, value in args.items() if isinstance(value, int)]


@pytest.mark.parametrize("cap,name", _STEP_CAP_COUNTS, ids=lambda v: v)
def test_step_cap_at_a_count_of_2_64_is_a_positive_step(cap, name):
    fn, args = _STEP_CAPS[cap]
    assert 0.0 < fn(**{**args, name: 2**64}) < math.inf


@pytest.mark.parametrize("cap,name", _STEP_CAP_COUNTS, ids=lambda v: v)
def test_step_cap_at_a_count_past_float_range_raises_budget_error(cap, name):
    fn, args = _STEP_CAPS[cap]
    with pytest.raises(BudgetError, match="past the float range"):
        fn(**{**args, name: 10**400})
