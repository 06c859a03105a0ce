"""Privacy budgets, composition rules, and solver parameter planning.

Every solver consumes a plan emitted here (or an explicit override that is
re-validated, never trusted). A plan's ``validate`` checks its precondition
before the run; after the run :func:`audit_releases` composes the vertex
releases the sampling primitive actually counted, so a violation aborts the
run rather than silently degrading privacy.

All logarithms are natural except the power-of-two truncation level ``M``,
which lives in base 2 because the multilevel estimator draws ``2^N`` samples.
Planner settings hold only up to absolute constants; every hidden constant is
fixed to 1 with integer ceilings so defaults are reproducible, and rate
constants are treated as free parameters by the scaling tests.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import BudgetError, PlannerError
from .rng import RngStream

Mode = Literal["first_order", "second_order", "quadratic"]

_REL_TOL = 1 + 1e-9  # float slack when re-checking bounds met with equality


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) differential-privacy budget.

    The advanced-composition shortcut used by every solver requires
    ``0 < epsilon < 8 ln(1/delta)``; budgets outside that range are rejected
    up front.
    """

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise BudgetError(f"delta must lie in (0,1), got {self.delta}")
        if not (0.0 < self.epsilon < 8.0 * math.log(1.0 / self.delta)):
            raise BudgetError(
                f"epsilon={self.epsilon} outside (0, 8 ln(1/delta)) for delta={self.delta}"
            )

    @property
    def ln1d(self) -> float:
        return math.log(1.0 / self.delta)


def advanced_composition_eps(T: int, eps: float, delta: float) -> float:
    """Per-mechanism pure-DP budget for a T-fold adaptive composition.

    Returns ``eps / (2 sqrt(2 T ln(1/delta)))``: running T mechanisms that are
    each this private yields (eps, delta)-DP overall, provided
    ``eps < 8 ln(1/delta)``.
    """
    PrivacyParams(eps, delta)
    if T < 1:
        raise ValueError(f"composition length must be >= 1, got {T}")
    return eps / (2.0 * math.sqrt(2.0 * T * math.log(1.0 / delta)))


def adaptive_budget_ok(eps_list, eps: float, delta_prime: float) -> bool:
    """Fully adaptive composition stopping check for pure-DP mechanisms.

    True iff ``sqrt(2 ln(1/delta') sum eps_m^2) + sum(eps_m^2)/2 <= eps``.
    An empty spend list always passes.
    """
    arr = np.asarray(eps_list, dtype=np.float64)
    if arr.size and arr.min() < 0:
        raise ValueError("per-mechanism epsilons must be nonnegative")
    return _filter_ok(float(np.sum(arr * arr)), eps, delta_prime)


def _filter_ok(s2: float, eps: float, delta: float) -> bool:
    """The fully adaptive filter on ``s2 = sum eps_m^2``.

    True iff ``sqrt(2 ln(1/delta) s2) + s2/2 <= eps``.
    """
    return math.sqrt(2.0 * math.log(1.0 / delta) * s2) + 0.5 * s2 <= eps


def max_step_vertex_smd(
    batch_size: int, eps: float, delta: float, L0: float, T: int, K: int
) -> float:
    """Largest step size keeping the vertex-sampling saddle solver (eps, delta)-DP.

    ``B eps / (16 L0 sqrt(T (K+1) ln(1/delta)))``: each released vertex is an
    exponential mechanism over cumulative scores with sensitivity
    ``2 tau L0 / B``, and 2T(K+1) vertices compose adaptively.
    """
    _require_positive(batch_size=batch_size, eps=eps, L0=L0, T=T, K=K)
    PrivacyParams(eps, delta)
    return batch_size * eps / (16.0 * L0 * math.sqrt(T * (K + 1) * math.log(1.0 / delta)))


def max_step_anytime_sco(
    batch_size: int, eps: float, delta: float, L0: float, T: int, K: int, q: int
) -> float:
    """Largest step size keeping the anytime convex solver (eps, delta)-DP.

    ``B eps / (8 L0 sqrt(2 (T K / q + q K) ln(1/delta)))``: sparsified
    averages are refreshed on the first q steps and then every q-th step, so
    only about ``TK/q + qK`` vertices are ever released.
    """
    _require_positive(batch_size=batch_size, eps=eps, L0=L0, T=T, K=K, q=q)
    PrivacyParams(eps, delta)
    draws = T * K / q + q * K
    return batch_size * eps / (8.0 * L0 * math.sqrt(2.0 * draws * math.log(1.0 / delta)))


def max_stop_weight_bias_reduced(
    eps: float, delta: float, tau: float, alpha: float, L0: float
) -> float:
    """Largest stopping weight U keeping the bias-reduced solver (eps, delta)-DP.

    ``eps^2 / (48 ln(1/delta) (9 tau alpha L0)^2)``: each vertex released by
    the solver is ``9 tau alpha L0``-DP and the stopping rule caps the total
    number of releases at ``6U``, which the fully adaptive composition check
    then accepts.
    """
    _require_positive(eps=eps, tau=tau, alpha=alpha, L0=L0)
    PrivacyParams(eps, delta)
    return eps**2 / (48.0 * math.log(1.0 / delta) * (9.0 * tau * alpha * L0) ** 2)


def exp_mech_sample(scores, sensitivity: float, eps: float, rng: RngStream) -> int:
    """Exponential mechanism via Gumbel-argmax in log domain.

    Samples index i with probability proportional to
    ``exp(eps * scores[i] / (2 sensitivity))``; the draw is eps-DP when the
    score function has the stated sensitivity.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if sensitivity <= 0 or eps <= 0:
        raise ValueError("sensitivity and eps must be positive")
    logits = eps * scores / (2.0 * sensitivity)
    return int(np.argmax(logits + rng.gen.gumbel(size=scores.size)))


# --------------------------------------------------------------------------
# plans


@dataclass(frozen=True)
class SsmdPlan:
    """Schedule for the vertex-sampling saddle solver."""

    T: int
    tau: float
    K: int
    B_batch: int
    mode: Mode
    epsilon: float
    delta: float
    L0: float
    n: int

    def validate(self) -> None:
        """Check the schedule and the step size against its privacy cap."""
        _require_positive(T=self.T, tau=self.tau, K=self.K, B_batch=self.B_batch)
        if self.T * self.B_batch > self.n:
            raise BudgetError(
                f"schedule consumes {self.T * self.B_batch} samples but only {self.n} exist"
            )
        cap = max_step_vertex_smd(self.B_batch, self.epsilon, self.delta, self.L0, self.T, self.K)
        if self.tau > cap * _REL_TOL:
            raise BudgetError(f"step size {self.tau} exceeds privacy cap {cap}")


@dataclass(frozen=True)
class BrPlan:
    """Schedule for the bias-reduced saddle solver.

    ``C = L0^2 + L2^2 + ell * M * L1^2`` is the composite second-moment
    constant; ``U`` caps the total level weight ``sum 2^{N_t}``, ``alpha``
    scales batch sizes, and ``M`` truncates the level distribution.
    """

    U: float
    M: int
    alpha: float
    tau: float
    C: float
    epsilon: float
    delta: float
    L0: float
    n: int
    ell: float

    def validate(self) -> None:
        """Check the privacy and sample-budget invariants.

        The planner additionally pins ``M = round(log2 sqrt(U))`` and
        ``tau = sqrt(ell / (C U))``; explicit plans may deviate from those
        accuracy shapes (e.g. a degenerate M = 0 schedule) but never from the
        budget bounds checked here.
        """
        _require_positive(U=self.U, alpha=self.alpha, tau=self.tau)
        if self.M < 0:
            raise BudgetError(f"truncation level must be >= 0, got {self.M}")
        if self.M > math.log2(self.U):  # checked before anything computes 2.0**M
            raise BudgetError(f"truncation level {self.M}: 2^M exceeds the stopping weight "
                              f"U = {self.U}")
        cap = max_stop_weight_bias_reduced(self.epsilon, self.delta, self.tau, self.alpha, self.L0)
        if self.U > cap * _REL_TOL:
            raise BudgetError(f"stopping weight {self.U} exceeds privacy cap {cap}")
        sample_cap = min(self.n * self.alpha / 2.0, self.n / 2.0)
        if self.U > sample_cap * _REL_TOL:
            raise BudgetError(f"stopping weight {self.U} exceeds sample cap {sample_cap}")


@dataclass(frozen=True)
class ScoPlan:
    """Schedule for the anytime convex solver (round length ``q``)."""

    T: int
    tau: float
    K: int
    q: int
    B_batch: int
    mode: Mode
    epsilon: float
    delta: float
    L0: float
    n: int

    def validate(self) -> None:
        """Check the schedule and the step size against its privacy and drift caps."""
        _require_positive(T=self.T, tau=self.tau, K=self.K, q=self.q, B_batch=self.B_batch)
        if self.T * self.B_batch > self.n:
            raise BudgetError(
                f"schedule consumes {self.T * self.B_batch} samples but only {self.n} exist"
            )
        cap = max_step_anytime_sco(
            self.B_batch, self.epsilon, self.delta, self.L0, self.T, self.K, self.q
        )
        if self.tau > cap * _REL_TOL:
            raise BudgetError(f"step size {self.tau} exceeds privacy cap {cap}")
        drift_cap = 1.0 / (4.0 * self.L0 * self.q)
        if self.tau > drift_cap * _REL_TOL:
            raise BudgetError(
                f"step size {self.tau} exceeds cached-iterate drift cap {drift_cap}"
            )


def audit_releases(plan: SsmdPlan | BrPlan | ScoPlan, releases: int) -> int:
    """Return a run's counted vertex releases, or raise BudgetError past its budget.

    A saddle or convex release is ``4 tau L0 / B``-DP under advanced composition;
    a bias-reduced one is ``9 tau alpha L0``-DP under the fully adaptive filter.
    """
    if isinstance(plan, BrPlan):  # the filter's sum eps_m^2, in closed form
        s2 = releases * (9.0 * plan.tau * plan.alpha * plan.L0) ** 2
        ok = _filter_ok(s2, plan.epsilon, plan.delta)
    else:  # no releases spend nothing; advanced composition needs at least one
        ok = not releases or 4.0 * plan.tau * plan.L0 / plan.B_batch <= (
            advanced_composition_eps(releases, plan.epsilon, plan.delta) * _REL_TOL)
    if not ok:
        raise BudgetError(f"{releases} realized vertex releases exceed the privacy budget")
    return releases


# --------------------------------------------------------------------------
# planners


def plan_vertex_smd(
    n: int, eps: float, delta: float, L0: float, L1: float, L2: float, ell: float, mode: Mode
) -> SsmdPlan:
    """Derive (T, tau, K, B) for the vertex-sampling saddle solver.

    first_order:   T = min(n, ceil((n eps)^{2/3} / ln(1/delta)^{1/3})),
                   K = ceil(T / ell)
    second_order:  T = min(n, ceil((n eps)^{4/5} / (ell^{1/5} ln(1/delta)^{2/5}))),
                   K = ceil(sqrt(T / ell))
    quadratic:     same T as second_order with K = 1

    In every mode ``tau = min(sqrt(ell/T)/L0, privacy cap)`` and
    ``B = floor(n/T)``.
    """
    PrivacyParams(eps, delta)
    _require_positive(n=n, L0=L0, ell=ell)
    ln1d = math.log(1.0 / delta)
    if mode == "first_order":
        T = min(n, math.ceil((n * eps) ** (2.0 / 3.0) / ln1d ** (1.0 / 3.0)))
        T = max(1, T)
        K = max(1, math.ceil(T / ell))
    elif mode in ("second_order", "quadratic"):
        T = min(n, math.ceil((n * eps) ** 0.8 / (ell**0.2 * ln1d**0.4)))
        T = max(1, T)
        K = 1 if mode == "quadratic" else max(1, math.ceil(math.sqrt(T / ell)))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    B = max(1, n // T)
    tau = min(math.sqrt(ell / T) / L0, max_step_vertex_smd(B, eps, delta, L0, T, K))
    plan = SsmdPlan(T=T, tau=tau, K=K, B_batch=B, mode=mode,
                    epsilon=eps, delta=delta, L0=L0, n=n)
    plan.validate()
    return plan


def plan_bias_reduced(
    n: int, eps: float, delta: float, L0: float, L1: float, L2: float, ell: float
) -> BrPlan:
    """Derive (U, M, alpha, tau) for the bias-reduced saddle solver.

    U and M depend on each other (M enters the second-moment constant C, and
    M = round(log2 sqrt(U))), so the pair is resolved by fixed-point
    iteration from ``M0 = log2(n/2)/2``; U moves only logarithmically through
    M, so the iteration settles in a few rounds. Once M is fixed,

        U     = min(n eps sqrt(C) / (sqrt(4*48*81 ell ln(1/delta)) L0), n/2)
        tau   = sqrt(ell / (C U))
        alpha = (2 eps^2 / (48*81 ln(1/delta) (tau L0)^2 n))^{1/3}

    which jointly satisfy both the privacy cap on U and the sample caps
    ``U <= min(n alpha / 2, n / 2)``.
    """
    PrivacyParams(eps, delta)
    _require_positive(n=n, L0=L0, ell=ell)
    _require_normal_square(L0)
    if n < 8:
        raise BudgetError(f"bias-reduced planning needs n >= 8, got {n}")
    ln1d = math.log(1.0 / delta)
    denom = math.sqrt(4.0 * 48.0 * 81.0 * ell * ln1d) * L0

    M = max(0, round(0.5 * math.log2(n / 2.0)))
    U = 0.0
    C = 0.0
    for _ in range(10):
        C = L0**2 + L2**2 + ell * M * L1**2
        U = min(n * eps * math.sqrt(C) / denom, n / 2.0)
        M_new = max(0, round(math.log2(math.sqrt(U)))) if U > 1.0 else 0
        if M_new == M:
            break
        M = M_new
    else:
        raise PlannerError("truncation level did not stabilize within 10 rounds")
    if U < 4.0:
        raise BudgetError(f"stopping weight U={U:.3f} < 4; dataset too small for the budget")

    tau = _require_step(math.sqrt(ell / (C * U)), L0=L0, L1=L1, U=U)
    alpha = (2.0 * eps**2 / (48.0 * 81.0 * ln1d * (tau * L0) ** 2 * n)) ** (1.0 / 3.0)
    plan = BrPlan(U=U, M=M, alpha=alpha, tau=tau, C=C,
                  epsilon=eps, delta=delta, L0=L0, n=n, ell=ell)
    plan.validate()
    return plan


def plan_anytime_sco(
    n: int, eps: float, delta: float, L0: float, L1: float, L2: float, ell_x: float, mode: Mode
) -> ScoPlan:
    """Derive (T, tau, K, q) for the anytime convex solver.

    second_order: T = min(n, ceil(n eps / (ell_x sqrt(ln(1/delta))))),
                  q = sqrt(T / ell_x), K = sqrt(T ell_x)
    first_order:  T = min(n, ceil((n eps)^{4/5} / (ell_x ln(1/delta))^{2/5})),
                  q = sqrt(T) / ell_x, K = T / ell_x

    tau is the minimum of the optimization-optimal value, the cached-iterate
    drift cap ``1/(4 L0 q)``, and the privacy cap.
    """
    PrivacyParams(eps, delta)
    _require_positive(n=n, L0=L0, ell_x=ell_x)
    _require_normal_square(L0)
    ln1d = math.log(1.0 / delta)
    if mode == "second_order":
        T = min(n, math.ceil(n * eps / (ell_x * math.sqrt(ln1d))))
        T = max(1, T)
        q = math.sqrt(T / ell_x)
        K = math.sqrt(T * ell_x)
    elif mode == "first_order":
        T = min(n, math.ceil((n * eps) ** 0.8 / (ell_x * ln1d) ** 0.4))
        T = max(1, T)
        q = math.sqrt(T) / ell_x
        K = T / ell_x
    else:
        raise ValueError(f"anytime solver supports first/second order modes, got {mode!r}")
    q = min(T, max(1, round(q)))
    K = max(1, round(K))
    B = max(1, n // T)

    if mode == "second_order":
        curvature = L0**2 + L1**2 * q * ell_x / K + L2**2 * q / K**2
    else:
        curvature = (
            L0**2
            + (L0**2 + L1**2) * q * math.sqrt(ell_x / K)
            + L1**2 * q / (math.sqrt(ell_x) * K**1.5)
        )
    tau = _require_step(min(
        math.sqrt(ell_x / (curvature * T)),
        1.0 / (4.0 * L0 * q),
        max_step_anytime_sco(B, eps, delta, L0, T, K, q),
    ), L0=L0, L1=L1, T=T)
    plan = ScoPlan(T=T, tau=tau, K=K, q=q, B_batch=B, mode=mode,
                   epsilon=eps, delta=delta, L0=L0, n=n)
    plan.validate()
    return plan


def _require_positive(**kwargs) -> None:
    for name, value in kwargs.items():
        # an int is judged by its sign alone: it is finite, and math.isfinite(10**400) overflows
        if not (value > 0 if isinstance(value, int) else math.isfinite(value) and value > 0):
            raise BudgetError(f"{name} must be positive and finite, got {value!r}")


def _require_normal_square(L0: float) -> None:
    """Refuse an L0 whose square is subnormal or 0: the planner divides by it."""
    if not L0 * L0 >= sys.float_info.min:
        raise BudgetError(f"L0 = {L0:g} is too small: its square underflows, and the "
                          f"planner divides by it")


def _require_step(tau: float, **constants) -> float:
    """A planned step size, or a BudgetError naming the constants it under- or overflowed at.

    Constants whose squares are finite can still overflow the planners' products
    (``C U``, ``curvature T``), and the step size is then 0; a quotient by tiny
    ones can overflow it to inf.
    """
    if not (tau > 0 and math.isfinite(tau)):
        at = ", ".join(f"{name}={value:g}" for name, value in constants.items())
        way = "underflowed" if tau == 0 else "overflowed"
        raise BudgetError(f"step size {way} to {tau!r} at {at}: the problem's "
                          f"constants are out of the range the planner can schedule")
    return tau
