"""Reference oracles and fixtures the tests compare the library against.

Nothing in ``dpsimplex`` reads this module. It holds what only the tests need:

* a game's analytic population view, a generic inner-solver duality-gap
  estimator over it and a self-certifying game-value oracle,
* an empirical privacy smoke test of the first data-dependent vertex release,
  which reads only :func:`~dpsimplex.oracles.batch_gradient`, no solver code,
* a recorder of :func:`~dpsimplex.sco.solve_dp_sco`'s trajectory, the
  regret decomposition of the anytime conversion over it, and identity
  surrogates that give the solver exact gradients,
* a check that only released points reach the data: every point row an
  objective's data-reading methods get is a mean of k vertex one-hots,
* a check that the step each solver's loop takes is the step its plan allows,
* a finite-difference self-check of a per-sample objective,
* the fully adaptive composition check on a list of per-mechanism spends,
  over the filter :func:`~dpsimplex.privacy.audit_releases` applies,
* boosting's candidate scores one pair and one table entry at a time, the loop
  :func:`~dpsimplex.solvers.score_candidate_pairs` replaces,
* the maximal-loss problem family, whose gradients come from
  :func:`per_sample_grad_rows`, the per-sample loop that vectorized batch
  gradients are checked against.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dpsimplex import privacy, sco, solvers
from dpsimplex.errors import OracleError
from dpsimplex.oracles import PerSampleObjective, batch_gradient
from dpsimplex.privacy import SsmdPlan, advanced_composition_eps
from dpsimplex.problems import GapReport, MatrixGame, exact_gap_bilinear
from dpsimplex.rng import RngStream
from dpsimplex.simplex import SimplexPoint, running_average


# --------------------------------------------------------------------------
# adaptive composition


def adaptive_budget_ok(eps_list, eps: float, delta_prime: float) -> bool:
    """Fully adaptive composition stopping check for pure-DP mechanisms.

    True iff ``sqrt(2 ln(1/delta') sum eps_m^2) + sum(eps_m^2)/2 <= eps``.
    An empty spend list always passes.
    """
    arr = np.asarray(eps_list, dtype=np.float64)
    if arr.size and arr.min() < 0:
        raise ValueError("per-mechanism epsilons must be nonnegative")
    return privacy._filter_ok(float(np.sum(arr * arr)), eps, delta_prime)


# --------------------------------------------------------------------------
# the per-sample gradient loop


def per_sample_grad_rows(obj, X, Y, batches) -> tuple[np.ndarray, np.ndarray]:
    """Mean ``obj.grad_x`` and ``obj.grad_y`` over ``batches[r]`` at each row ``(X[r], Y[r])``.

    Returns two (R, d_x) and (R, d_y) arrays, one sample at a time.
    """
    gx, gy = np.zeros((len(batches), obj.d_x)), np.zeros((len(batches), obj.d_y))
    for r, (x, y, zs) in enumerate(zip(X, Y, batches)):
        for z in zs:
            gx[r] += obj.grad_x(x, y, z)
            gy[r] += obj.grad_y(x, y, z)
        gx[r] /= len(zs)
        gy[r] /= len(zs)
    return gx, gy


def check_objective(
    obj: PerSampleObjective,
    zs,
    rng: RngStream,
    points: int = 5,
    rel_tol: float = 1e-4,
) -> None:
    """Spot-check gradient bounds and finite-difference consistency.

    Verifies ``|grad|_inf <= L0`` and that directional derivatives of the
    value match the analytic gradients to ``rel_tol`` relative accuracy at
    random simplex points. Raises ``AssertionError`` on failure.
    """
    gen = rng.gen
    h = 1e-6
    for _ in range(points):
        x = gen.dirichlet(np.ones(obj.d_x))
        y = gen.dirichlet(np.ones(obj.d_y))
        z = zs[int(gen.integers(len(zs)))]
        gx = obj.grad_x(x, y, z)
        gy = obj.grad_y(x, y, z)
        if not np.abs(gx).max() <= obj.L0 * (1 + 1e-9):
            raise AssertionError("grad_x exceeds L0")
        if not np.abs(gy).max() <= obj.L0 * (1 + 1e-9):
            raise AssertionError("grad_y exceeds L0")

        dx = gen.dirichlet(np.ones(obj.d_x)) - x
        dy = gen.dirichlet(np.ones(obj.d_y)) - y
        num = (obj.value(x + h * dx, y, z) - obj.value(x - h * dx, y, z)) / (2 * h)
        ana = float(gx @ dx)
        scale = max(1.0, abs(ana))
        if not abs(num - ana) <= rel_tol * scale:
            raise AssertionError(f"x-directional derivative off: {num} vs {ana}")
        num = (obj.value(x, y + h * dy, z) - obj.value(x, y - h * dy, z)) / (2 * h)
        ana = float(gy @ dy)
        scale = max(1.0, abs(ana))
        if not abs(num - ana) <= rel_tol * scale:
            raise AssertionError(f"y-directional derivative off: {num} vs {ana}")


# --------------------------------------------------------------------------
# duality-gap and game-value oracles


@dataclass(frozen=True)
class PopulationObjective:
    """Analytic population view of an objective: exact values and gradients."""

    d_x: int
    d_y: int
    L0: float
    value: Callable[[np.ndarray, np.ndarray], float]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_y: Callable[[np.ndarray, np.ndarray], np.ndarray]


def population(game: MatrixGame) -> PopulationObjective:
    """The game's population objective ``x^T A y`` with ``L0 = max |A|``."""
    A = game.payoff
    return PopulationObjective(
        d_x=game.d_x,
        d_y=game.d_y,
        L0=float(np.abs(A).max()),
        value=lambda x, y: float(x @ A @ y),
        grad_x=lambda x, y: A @ y,
        grad_y=lambda x, y: A.T @ x,
    )


def _entropic_best_response(grad, d: int, L0: float, T: int, ascend: bool) -> np.ndarray:
    tau = math.sqrt(math.log(d) / T) / max(L0, 1e-12)
    logw = np.zeros(d)
    acc = np.zeros(d)
    sign = 1.0 if ascend else -1.0
    for _ in range(T):
        p = np.exp(logw - logw.max())
        p /= p.sum()
        acc += p
        logw = logw + sign * tau * grad(p)
    return acc / T


def gap_general(pop: PopulationObjective, x, y, inner_T: int) -> GapReport:
    """Duality-gap estimate via non-private inner mirror ascent/descent.

    Each inner problem runs ``inner_T`` averaged entropic steps; the reported
    ``inner_error_bound = 2 L0 sqrt((log d_x + log d_y) / inner_T)`` covers
    both inner solves.
    """
    if inner_T < 1:
        raise ValueError("inner_T must be >= 1")
    x = x.coords if isinstance(x, SimplexPoint) else np.asarray(x, dtype=np.float64)
    y = y.coords if isinstance(y, SimplexPoint) else np.asarray(y, dtype=np.float64)
    v = _entropic_best_response(lambda p: pop.grad_y(x, p), pop.d_y, pop.L0, inner_T, True)
    w = _entropic_best_response(lambda p: pop.grad_x(p, y), pop.d_x, pop.L0, inner_T, False)
    gap = pop.value(x, v) - pop.value(w, y)
    ell = math.log(pop.d_x) + math.log(pop.d_y)
    bound = 2.0 * pop.L0 * math.sqrt(ell / inner_T)
    return GapReport(gap_estimate=float(gap), inner_error_bound=bound, method="inner_mirror_ascent")


@dataclass(frozen=True)
class NashReport:
    value: float
    x: SimplexPoint
    y: SimplexPoint
    certified_gap: float
    iterations: int


def nash_value_bruteforce(
    A: np.ndarray,
    max_iters: int = 10**6,
    target_gap: float = 1e-3,
    check_every: int = 2000,
) -> NashReport:
    """Game value by extragradient self-play, certified by the exact gap.

    Runs entropic mirror-prox (the extrapolated form of mirror-descent
    self-play, whose averaged iterates converge at rate ~ ell * L / T on
    bilinear games) and certifies the averaged pair with
    :func:`exact_gap_bilinear` every ``check_every`` iterations. Raises
    :class:`OracleError` if the target gap is not certified within
    ``max_iters``.
    """
    A = np.asarray(A, dtype=np.float64)
    d_x, d_y = A.shape
    if d_x > 50 or d_y > 50:
        raise ValueError("game-value oracle is limited to 50x50 payoffs")
    L = float(np.abs(A).max())
    if L == 0.0:
        x = SimplexPoint.uniform(d_x)
        y = SimplexPoint.uniform(d_y)
        return NashReport(0.0, x, y, 0.0, 0)
    tau = 1.0 / (2.0 * L)
    x = np.full(d_x, 1.0 / d_x)
    y = np.full(d_y, 1.0 / d_y)
    x_acc = np.zeros(d_x)
    y_acc = np.zeros(d_y)
    for it in range(1, max_iters + 1):
        ux = x * np.exp(-tau * (A @ y))
        ux /= ux.sum()
        uy = y * np.exp(tau * (A.T @ x))
        uy /= uy.sum()
        x = x * np.exp(-tau * (A @ uy))
        x /= x.sum()
        y = y * np.exp(tau * (A.T @ ux))
        y /= y.sum()
        x_acc += ux
        y_acc += uy
        if it % check_every == 0 or it == max_iters:
            xb, yb = x_acc / it, y_acc / it
            gap = exact_gap_bilinear(A, xb, yb).gap_estimate
            if gap <= target_gap:
                xp = SimplexPoint(xb)
                yp = SimplexPoint(yb)
                return NashReport(float(xb @ A @ yb), xp, yp, gap, it)
    raise OracleError(f"could not certify gap <= {target_gap} within {max_iters} iterations")


# --------------------------------------------------------------------------
# empirical privacy smoke test


@dataclass(frozen=True)
class SmokeReport:
    """Estimated privacy loss of the first data-dependent vertex release."""

    loss_estimate: float
    exact_conditional_loss: float
    eps_budget: float
    mc_slack: float
    freq_a: np.ndarray
    freq_b: np.ndarray


def score_candidate_pairs_loop(obj: PerSampleObjective, holdout, pairs, x_table, y_table):
    """:func:`~dpsimplex.solvers.score_candidate_pairs` one pair and one table entry per
    ``batch_value`` call: ``max_j F(x_i, y_table[i][j]) + max_j -F(x_table[i][j], y_i)``."""
    scores = np.empty(len(pairs))
    for i, (x_i, y_i) in enumerate(pairs):
        best_y = max(obj.batch_value(x_i[None], yy[None], holdout)[0] for yy in y_table[i])
        best_x = max(-obj.batch_value(xx[None], y_i[None], holdout)[0] for xx in x_table[i])
        scores[i] = best_y + best_x
    return scores


def first_release_distribution(
    obj: PerSampleObjective, batch, tau: float
) -> np.ndarray:
    """Exact law of the first data-dependent x-vertex for K = 1 schedules.

    With one sparsification draw per player, the first-step surrogate pair is
    a uniform vertex pair, so the released vertex distribution is the uniform
    mixture of the post-update softmax rows.
    """
    rows = _first_release_rows(obj, batch, tau)
    return rows.mean(axis=0)


def _first_release_rows(obj: PerSampleObjective, batch, tau: float) -> np.ndarray:
    rows = np.empty((obj.d_x * obj.d_y, obj.d_x))
    k = 0
    for i in range(obj.d_x):
        for j in range(obj.d_y):
            g = batch_gradient(obj, np.eye(1, obj.d_x, i), np.eye(1, obj.d_y, j),
                               np.asarray(batch)[None])
            z = -tau * g.g_x[0]
            e = np.exp(z - z.max())
            rows[k] = e / e.sum()
            k += 1
    return rows


def dp_smoke_first_vertex(
    obj: PerSampleObjective,
    data_a,
    data_b,
    plan: SsmdPlan,
    runs: int,
    rng: RngStream,
) -> SmokeReport:
    """Monte-Carlo privacy-loss estimate on a fixed neighboring dataset pair.

    Simulates the release of the first data-dependent vertex ``runs`` times
    under each dataset and compares the worst empirical log-frequency ratio
    against the per-mechanism budget implied by advanced composition over all
    ``2 T (K+1)`` vertex releases of the schedule. Requires ``K = 1``.
    """
    if plan.K != 1:
        raise ValueError("the smoke test models the single-draw schedule (K = 1)")
    data_a = np.asarray(data_a)
    data_b = np.asarray(data_b)
    batch_a = data_a[: plan.B_batch]
    batch_b = data_b[: plan.B_batch]

    rows_a = _first_release_rows(obj, batch_a, plan.tau)
    rows_b = _first_release_rows(obj, batch_b, plan.tau)
    counts = []
    for label, rows in (("a", rows_a), ("b", rows_b)):
        sub = rng.child("smoke", label)
        combos = sub.gen.integers(0, rows.shape[0], size=runs)
        u = sub.gen.random(runs)
        cdf = np.cumsum(rows, axis=1)
        picked = (u[:, None] > cdf[combos]).sum(axis=1)
        counts.append(np.bincount(np.minimum(picked, obj.d_x - 1), minlength=obj.d_x))
    freq_a = counts[0] / runs
    freq_b = counts[1] / runs

    with np.errstate(divide="ignore"):
        ratios = np.abs(np.log(freq_a) - np.log(freq_b))
    loss = float(np.nanmax(np.where(np.isfinite(ratios), ratios, np.nan)))
    exact = float(np.abs(np.log(rows_a) - np.log(rows_b)).max())

    mechanisms = 2 * plan.T * (plan.K + 1)
    eps_budget = advanced_composition_eps(mechanisms, plan.epsilon, plan.delta)
    p_floor = max(min(freq_a.min(), freq_b.min()), 1.0 / runs)
    mc_slack = 3.0 * math.sqrt(2.0 * (1.0 - p_floor) / (p_floor * runs))
    return SmokeReport(
        loss_estimate=loss,
        exact_conditional_loss=exact,
        eps_budget=eps_budget,
        mc_slack=mc_slack,
        freq_a=freq_a,
        freq_b=freq_b,
    )


# --------------------------------------------------------------------------
# the convex solver's trajectory and its regret decomposition


@dataclass(frozen=True)
class Trajectory:
    """One row of a recorded :func:`~dpsimplex.sco.solve_dp_sco` run: one entry per step."""

    x_points: np.ndarray   # online iterates x^t, shape (T, d)
    w_points: np.ndarray   # running averages w^t, shape (T, d)
    grads: np.ndarray      # gradient estimates g^t, shape (T, d)
    refreshed: np.ndarray  # bool, whether the cached surrogate was redrawn at step t


def identity_surrogates(monkeypatch) -> None:
    """Make :func:`~dpsimplex.sco.solve_dp_sco` release its dense averages: exact gradients.

    Patches the release names ``dpsimplex.sco`` reads, so each cached surrogate and
    each returned point is the running average itself and no vertex is drawn. The
    run is then plain anytime mirror descent, and its gradients are exact.
    """
    monkeypatch.setattr(sco, "release_rows", lambda w, k, rngs: w)
    monkeypatch.setattr(sco, "mean_one_hots", lambda w, dim: w)
    monkeypatch.setattr(sco, "sparsify", lambda w, k, rng: w)


def solve_recorded(obj, dataset, plan, rngs):
    """``solve_dp_sco``'s rows together with each row's :class:`Trajectory`.

    Wraps the step function ``solve_dp_sco`` hands to ``mirror_descent``: each
    step's schedule item ``(t, refresh)``, its iterates ``x_t`` and the returned
    direction ``-g_t`` are recorded, and ``w_t`` is rebuilt with
    ``running_average``, the solver's own average.
    """
    steps = []
    loop = sco.mirror_descent

    def recording_loop(dims, rows, tau, schedule, step):
        def recorded_step(item, x_t):
            (direction,) = step(item, x_t)
            steps.append((item[1], x_t, -direction))
            return (direction,)
        return loop(dims, rows, tau, schedule, recorded_step)

    sco.mirror_descent = recording_loop
    try:
        sols = sco.solve_dp_sco(obj, dataset, plan, rngs)
    finally:
        sco.mirror_descent = loop
    marks = np.array([refresh for refresh, _, _ in steps])
    xs = np.array([x_t for _, x_t, _ in steps])
    gs = np.array([g for _, _, g in steps])
    ws, w = np.empty_like(xs), None
    for t, x_t in enumerate(xs, start=1):
        ws[t - 1] = w = running_average(w, x_t, t)
    return sols, [Trajectory(xs[:, r], ws[:, r], gs[:, r], marks) for r in range(len(sols))]


@dataclass(frozen=True)
class RegretDecomposition:
    """The two terms of the anytime conversion bound for a recorded run."""

    regret_term: float    # sum_t <g_t, x_t - comparator>
    coupling_term: float  # sum_t <grad F(w_t) - g_t, x_t - comparator>
    steps: int

    @property
    def bound(self) -> float:
        """(regret + coupling) / T, an upper bound on F(w_T) - F(comparator)."""
        return (self.regret_term + self.coupling_term) / self.steps


def anytime_average_regret_decomposition(
    trace: Trajectory,
    population_grad,
    comparator: np.ndarray,
) -> RegretDecomposition:
    """Split a recorded run into its linear-regret and gradient-coupling parts.

    ``population_grad`` maps a point to the exact expected gradient there.
    With exact gradients the coupling term vanishes; in general the two terms
    divided by T upper-bound the excess value of the final average at the
    comparator.
    """
    if trace is None or trace.x_points.size == 0:
        raise ValueError("regret decomposition needs a recorded trajectory")
    T = trace.x_points.shape[0]
    diffs = trace.x_points - comparator
    regret = float(np.sum(trace.grads * diffs))
    coupling = 0.0
    for t in range(T):
        coupling += float((population_grad(trace.w_points[t]) - trace.grads[t]) @ diffs[t])
    return RegretDecomposition(regret_term=regret, coupling_term=coupling, steps=T)


# --------------------------------------------------------------------------
# maximal-loss problems


@dataclass(frozen=True)
class ComponentLoss:
    """One convex component of a maximal-loss problem."""

    value: Callable[[np.ndarray, float], float]
    grad: Callable[[np.ndarray, float], np.ndarray]
    L0: float
    L1: float
    L2: float
    B: float


@dataclass(frozen=True)
class MaxLossProblem:
    d_x: int
    components: tuple[ComponentLoss, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("need at least one component loss")


class MaxLossObjective(PerSampleObjective):
    """Composite f(x, y; z) = sum_i y_i f_i(x; z) for minimizing the maximal loss.

    If every component is L0-Lipschitz, L1-smooth and bounded by B, the
    composite is max(L0, B)-Lipschitz, max(L0, L1)-smooth, and
    max(L1, L2)-second-order-smooth on the joint block. Its batch gradient is
    the per-sample loop.
    """

    def __init__(self, problem: MaxLossProblem):
        self._parts = problem.components
        self.d_x = problem.d_x
        self.d_y = len(problem.components)
        self.L0 = max(max(c.L0 for c in self._parts), max(c.B for c in self._parts))
        self.L1 = max(max(c.L0 for c in self._parts), max(c.L1 for c in self._parts))
        self.L2 = max(max(c.L1 for c in self._parts), max(c.L2 for c in self._parts))
        self.B = max(c.B for c in self._parts)

    def value(self, x, y, z):
        return float(sum(y[i] * c.value(x, z) for i, c in enumerate(self._parts)))

    def grad_x(self, x, y, z):
        g = np.zeros(self.d_x)
        for i, c in enumerate(self._parts):
            g += y[i] * c.grad(x, z)
        return g

    def grad_y(self, x, y, z):
        return np.array([c.value(x, z) for c in self._parts])

    def batch_grad_xy_rows(self, X, Y, batches):
        return per_sample_grad_rows(self, X, Y, batches)


def make_max_loss_objective(p: MaxLossProblem) -> MaxLossObjective:
    return MaxLossObjective(p)


# --------------------------------------------------------------------------
# only released points reach the data


def record_points(monkeypatch, obj, *names) -> list[np.ndarray]:
    """Wrap ``obj``'s methods ``names``, which read the data, and record their points.

    Every positional argument of such a call but the last (the batch) is a point
    array, (R, d) or (d,); the returned list gets each one as an (R, d) array.
    """
    seen: list[np.ndarray] = []
    for name in names:
        def recording(*args, method=getattr(obj, name)):
            seen.extend(np.array(points, dtype=np.float64, ndmin=2) for points in args[:-1])
            return method(*args)

        monkeypatch.setattr(obj, name, recording)
    return seen


def assert_released_points(points: list[np.ndarray], ks) -> None:
    """Require every row of ``points`` to be a mean of k vertex one-hots for some k in ``ks``.

    A row P is one for k if k P is integral and P has at most k nonzero entries:
    the form of a released point, whatever its law. A dense iterate is on no
    such grid.
    """
    assert points, "no point reached the data"
    ks = np.unique(np.asarray(list(ks), dtype=np.int64))
    for P in points:
        scaled = P[:, None, :] * ks[:, None]  # (R, len(ks), d)
        integral = np.abs(scaled - np.rint(scaled)).max(axis=2) <= 1e-9 * ks
        sparse = np.count_nonzero(P, axis=1)[:, None] <= ks
        ok = (integral & sparse).any(axis=1)
        assert ok.all(), f"row {P[~ok][0]} is no mean of k one-hots for k in {ks.tolist()}"


# --------------------------------------------------------------------------
# the step the loop takes is the step the plan allows


def record_steps(monkeypatch) -> list[tuple]:
    """Record the steps of every solver loop: one ``(plan, steps)`` per run, in run order.

    Wraps the step function each solver hands to ``mirror_descent`` (the names
    ``dpsimplex.solvers`` and ``dpsimplex.sco`` read). ``steps`` gets one
    ``(points, directions)`` per step: the iterates the step got and the directions it
    returned, as (R, d) arrays, one per block. A run's plan is the plan its solver
    validated last before the loop began; every private solver validates its plan on
    entry, so the plan comes from the solver, not from the step size the loop is handed.
    """
    plans: list = []
    runs: list[tuple] = []
    for cls in (privacy.SsmdPlan, privacy.BrPlan, privacy.ScoPlan):
        def validate(plan, check=cls.validate):
            plans.append(plan)
            return check(plan)

        monkeypatch.setattr(cls, "validate", validate)
    for module in (solvers, sco):
        def recording_loop(dims, rows, tau, schedule, step, loop=module.mirror_descent):
            steps: list = []
            runs.append((plans[-1], steps))

            def recorded_step(item, *points):
                directions = step(item, *points)
                steps.append(([np.array(p, ndmin=2) for p in points],
                              [np.array(d, ndmin=2) for d in directions]))
                return directions

            return loop(dims, rows, tau, schedule, recorded_step)

        monkeypatch.setattr(module, "mirror_descent", recording_loop)
    return runs


def assert_planned_steps(runs: list[tuple]) -> None:
    """Require each recorded step to move every block's log-weights by ``plan.tau`` times the
    direction the step returned.

    An iterate is ``to_point(logw)``, a softmax, so with ``logw_{t+1} = logw_t + tau d_t``
    the residual ``log x_{t+1} - log x_t - tau d_t`` is one constant per row, the change of
    its log-normalizer. A loop that steps with m tau leaves ``(m - 1) tau d_t`` in the
    residual, which is not constant along a row unless d_t is. Each row's residual must
    therefore spread by no more than rounding, which grows with the magnitudes involved:
    ``2^-40`` of them (about 2^12 units in the last place). Entries whose iterate
    underflowed, to 0 or to a subnormal whose log has lost its precision, are skipped.
    """
    tiny = sys.float_info.min
    checked = 0
    for plan, steps in runs:
        for (points, directions), (next_points, _) in zip(steps, steps[1:]):
            for x, d, x_next in zip(points, directions, next_points):
                ok = (x >= tiny) & (x_next >= tiny)
                log_x, log_next = np.log(np.where(ok, x, 1.0)), np.log(np.where(ok, x_next, 1.0))
                residual = log_next - log_x - plan.tau * d
                spread = (np.where(ok, residual, -np.inf).max(axis=1)
                          - np.where(ok, residual, np.inf).min(axis=1))
                size = np.abs(log_x) + np.abs(log_next) + np.abs(plan.tau * d) + 1.0
                bound = 2.0**-40 * np.where(ok, size, 0.0).max(axis=1)
                assert (spread <= bound).all(), (
                    f"a step moved the log-weights by other than tau = {plan.tau} times its "
                    f"direction: residual spread {spread.max()} past {bound.max()}")
                checked += int(ok.sum())
    assert checked, "no pair of consecutive steps was recorded"
