"""Private stochastic convex optimization on the simplex.

The solver runs exponentiated-gradient online learning through an anytime
online-to-batch conversion: gradients are queried at the running average
``w^t`` of the online iterates, which drifts by at most ``2/t`` per step.
Because the query point moves so slowly, its sparsified surrogate can be
cached for a whole round of ``q`` steps, cutting vertex releases (and hence
privacy spend) by a factor of about ``q``.

The online iterates are the package's one mirror-descent loop,
:func:`~dpsimplex.simplex.mirror_descent`, run on one block with R = 1; the
running average, its drift check and the cached surrogate live in the
solver's step function.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .oracles import Dataset, PerSampleObjective
from .privacy import ScoPlan, audit_releases
from .rng import RngStream
from .simplex import SimplexPoint, _point, mirror_descent, running_average, sparsify


class ConvexObjective:
    """Per-sample convex loss on a single simplex.

    Same constant conventions as the saddle interface, restricted to one
    block: ``|grad|_inf <= L0``, ``L1``/``L2`` bound first- and second-order
    smoothness w.r.t. the 1-norm, ``B`` bounds the value.
    """

    dim: int
    L0: float
    L1: float
    L2: float
    B: float

    def value(self, x: np.ndarray, z) -> float:
        raise NotImplementedError

    def grad(self, x: np.ndarray, z) -> np.ndarray:
        raise NotImplementedError

    def batch_grad(self, x: np.ndarray, zs) -> np.ndarray:
        g = np.zeros(self.dim)
        for z in zs:
            g += self.grad(x, z)
        return g / len(zs)

    def batch_value(self, x: np.ndarray, zs) -> float:
        return sum(self.value(x, z) for z in zs) / len(zs)


@dataclass(frozen=True)
class ScoTrace:
    """Recorded trajectory for regret diagnostics: one row per step."""

    x_points: np.ndarray  # online iterates x^t, shape (T, d)
    w_points: np.ndarray  # running averages w^t, shape (T, d)
    grads: np.ndarray     # gradient estimates g^t, shape (T, d)
    refreshed: np.ndarray  # bool, whether the cached surrogate was redrawn at step t


@dataclass(frozen=True)
class ScoSolution:
    """Final sparsified average plus resource accounting."""

    w_hat: SimplexPoint
    samples_used: int
    refresh_count: int
    trace: ScoTrace | None = None
    steps_run: int = 0
    vertex_draws: int = 0


def solve_dp_sco(
    obj: ConvexObjective,
    dataset: Dataset,
    plan: ScoPlan,
    rng: RngStream,
    exact_iterates: bool = False,
    record_trace: bool = False,
) -> ScoSolution:
    """Anytime mirror descent with a round-cached sparsified average.

    The sparsified surrogate is redrawn with K vertex draws on steps
    ``t <= q`` and on multiples of ``q`` (step q counts once) and reused in
    between; the return value is a fresh K-draw sparsification of the final
    average. ``exact_iterates=True`` replaces all sampling with the identity,
    reducing the method to exact anytime mirror descent; such a run releases
    no vertices, so its privacy precondition is not enforced.
    """
    if not exact_iterates:
        plan.validate()
    if dataset.remaining < plan.T * plan.B_batch:
        raise BudgetError(
            f"plan needs {plan.T * plan.B_batch} fresh samples, dataset has {dataset.remaining}"
        )
    w = w_hat = None
    refreshes = 0
    draws = rng.vertex_draws
    recorded = []  # (x_t, w_t, g_t, refreshed) per step, with record_trace

    def step(item, x_t):
        nonlocal w, w_hat, refreshes
        t, refresh = item
        x_t = x_t[0]
        w_next = running_average(w, x_t, t)
        if w is not None:
            # the cached-surrogate privacy cap relies on the 2/t drift bound
            drift = float(np.add.reduce(np.abs(w_next - w)))
            if drift > 2.0 / t + 1e-12:
                raise BudgetError(f"average moved {drift} > 2/{t}")
        w = w_next
        if refresh:
            w_hat = w if exact_iterates else sparsify(_point(w), plan.K, rng).coords
            refreshes += 1
        g = obj.batch_grad(w_hat, dataset.take(plan.B_batch))
        if record_trace:
            recorded.append((x_t, w, g, refresh))
        return (-g,)

    mirror_descent((obj.dim,), 1, plan.tau, _rounds(plan.T, plan.q), step)
    final = w if exact_iterates else sparsify(_point(w), plan.K, rng).coords
    refreshes += 1  # the returned average is always a fresh sparsification
    draws = audit_releases(plan, rng.vertex_draws - draws)
    trace = None
    if record_trace:
        xs, ws, gs, marks = zip(*recorded)
        trace = ScoTrace(x_points=np.array(xs), w_points=np.array(ws), grads=np.array(gs),
                         refreshed=np.array(marks, dtype=bool))
    return ScoSolution(
        w_hat=SimplexPoint(final),  # the released point is checked at the boundary
        samples_used=plan.T * plan.B_batch,
        refresh_count=refreshes,
        trace=trace,
        steps_run=plan.T,
        vertex_draws=draws,
    )


def _rounds(T: int, q: int):
    """Steps t = 1..T, each with whether it redraws the cached surrogate.

    The surrogate is redrawn on every step ``t <= q`` and on every multiple of
    ``q`` (step q counts once): about ``q + T/q`` draws of K vertices, as
    :func:`~dpsimplex.privacy.max_step_anytime_sco` plans them.
    """
    return ((t, t <= q or t % q == 0) for t in range(1, T + 1))


_audit_refreshes = audit_releases  # the name perfbench/layertrace.py traces it by


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
    trace: ScoTrace,
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
# adapters used by the boosted saddle solver


class FrozenYObjective(ConvexObjective):
    """x-block view of a saddle objective with the y argument frozen."""

    def __init__(self, obj: PerSampleObjective, y: np.ndarray):
        self._obj = obj
        self._y = np.asarray(y, dtype=np.float64)
        self.dim = obj.d_x
        self.L0 = obj.L0
        self.L1 = obj.L1
        self.L2 = obj.L2
        self.B = obj.B

    def value(self, x, z):
        return self._obj.value(x, self._y, z)

    def grad(self, x, z):
        return self._obj.grad_x(x, self._y, z)

    def batch_grad(self, x, zs):
        return self._obj.batch_grad_x(x, self._y, zs)

    def batch_value(self, x, zs):
        return self._obj.batch_value(x, self._y, zs)


class FrozenXObjective(ConvexObjective):
    """Negated y-block view of a saddle objective with the x argument frozen.

    Minimizing this objective maximizes ``y -> F(x, y)``.
    """

    def __init__(self, obj: PerSampleObjective, x: np.ndarray):
        self._obj = obj
        self._x = np.asarray(x, dtype=np.float64)
        self.dim = obj.d_y
        self.L0 = obj.L0
        self.L1 = obj.L1
        self.L2 = obj.L2
        self.B = obj.B

    def value(self, y, z):
        return -self._obj.value(self._x, y, z)

    def grad(self, y, z):
        return -self._obj.grad_y(self._x, y, z)

    def batch_grad(self, y, zs):
        return -self._obj.batch_grad_y(self._x, y, zs)

    def batch_value(self, y, zs):
        return -self._obj.batch_value(self._x, y, zs)
