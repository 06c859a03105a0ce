"""Private stochastic convex optimization on the simplex.

The solver runs exponentiated-gradient online learning through an anytime
online-to-batch conversion: gradients are queried at the running average
``w^t`` of the online iterates, which drifts by at most ``2/t`` per step.
Because the query point moves so slowly, its sparsified surrogate can be
cached for a whole round of ``q`` steps, cutting vertex releases (and hence
privacy spend) by a factor of about ``q``.

The online iterates are the package's one mirror-descent loop,
:func:`~dpsimplex.simplex.mirror_descent`, run on one block of R rows of one
objective that share the plan (boosting's I*J best responses per side are
one call, the rows of one :class:`FrozenBlock`). Each step reads one (R, B)
batch of a row dataset and takes one row-wise gradient. The rows' running
averages, drift check and cached surrogates live in the solver's step
function, which keeps no trajectory: a run returns its released points and
its counts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .oracles import Dataset, PerSampleObjective
from .privacy import ScoPlan, audit_releases
from .rng import RngStream
from .simplex import (SimplexPoint, mean_one_hots, mirror_descent, release_rows, running_average,
                      sparsify)


class ConvexObjective:
    """Per-sample convex loss on a single simplex, evaluated on R rows at once.

    Same constant conventions as the saddle interface, restricted to one
    block: ``|grad|_inf <= L0``, ``L1``/``L2`` bound first- and second-order
    smoothness w.r.t. the 1-norm, ``B`` bounds the value. ``rows`` is the row
    count an objective is bound to, or None if it serves any.
    """

    dim: int
    L0: float
    L1: float
    L2: float
    B: float
    rows: int | None = None

    def batch_grad_rows(self, W: np.ndarray, batches: np.ndarray) -> np.ndarray:
        """Row r: the mean gradient over ``batches[r]`` at ``W[r]``, as an (R, dim) array.

        A row gets the bits it would get as a one-row call.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class ScoSolution:
    """Final sparsified average plus resource accounting."""

    w_hat: SimplexPoint
    samples_used: int
    refresh_count: int
    steps_run: int = 0
    vertex_draws: int = 0


class ScoBatch(tuple):
    """The solutions of one :func:`solve_dp_sco` call, one per row, in row order."""

    refresh_count = property(lambda self: self[0].refresh_count)  # the rows share the schedule


def solve_dp_sco(
    obj: ConvexObjective,
    dataset: Dataset,
    plan: ScoPlan,
    rngs: list[RngStream],
) -> ScoBatch:
    """Anytime mirror descent with a round-cached sparsified average, one run per row.

    Row r minimizes ``obj`` on row r of ``dataset`` (a 1-d dataset is one row)
    with draws from ``rngs[r]`` and gets the bytes a one-row call would; the
    rows share ``plan`` and step as one (R, d) block, with one ``take`` of an
    (R, B) batch and one ``obj.batch_grad_rows`` call per step and one release
    audit per row. Boosting's best responses are the rows of one
    :class:`FrozenBlock`, one per frozen partner.
    The sparsified surrogates are redrawn with K vertex draws per row on steps
    ``t <= q`` and on multiples of ``q`` (step q counts once) and reused in
    between; a row returns a fresh K-draw sparsification of its final average.
    """
    rows = dataset.rows
    if not rows or len(rngs) != rows or obj.rows not in (None, rows):
        raise ValueError("need one dataset row and stream per row of the objective")
    dim = obj.dim
    plan.validate()
    if dataset.remaining < plan.T * plan.B_batch:
        raise BudgetError(f"plan needs {plan.T * plan.B_batch} fresh samples, "
                          f"dataset has {dataset.remaining}")
    w = w_hat = None
    refreshes = 0
    draws = [rng.vertex_draws for rng in rngs]

    def step(item, x_t):
        nonlocal w, w_hat, refreshes
        t, refresh = item
        w_next = running_average(w, x_t, t)
        if w is not None:
            _check_drift(w_next, w, t)
        w = w_next
        if refresh:
            w_hat = mean_one_hots(release_rows(w, plan.K, rngs), dim)
            refreshes += 1
        g = obj.batch_grad_rows(w_hat, dataset.take(plan.B_batch).reshape(rows, -1))
        return (-g,)

    mirror_descent((dim,), rows, plan.tau, _rounds(plan.T, plan.q), step)
    final = [SimplexPoint(sparsify(w[r], plan.K, rng))
             for r, rng in enumerate(rngs)]  # a fresh sparsification, checked at the boundary
    return ScoBatch(
        ScoSolution(
            w_hat=final[r],
            samples_used=plan.T * plan.B_batch,
            refresh_count=refreshes + 1,  # the returned point is a refresh too
            steps_run=plan.T,
            vertex_draws=audit_releases(plan, rng.vertex_draws - draws[r]),
        )
        for r, rng in enumerate(rngs)
    )


def _check_drift(w_next: np.ndarray, w: np.ndarray, t: int) -> None:
    """Raise BudgetError if a row's average moved past 2/t, which the cached-surrogate cap needs."""
    drift = np.add.reduce(np.abs(w_next - w), axis=-1).ravel()  # one entry per row
    if drift.max() > 2.0 / t + 1e-12:
        raise BudgetError(f"row {drift.argmax()}: average moved {drift.max()} > 2/{t}")


def _rounds(T: int, q: int):
    """Steps t = 1..T, each with whether it redraws the cached surrogate.

    The surrogate is redrawn on every step ``t <= q`` and on every multiple of
    ``q`` (step q counts once): about ``q + T/q`` draws of K vertices, as
    :func:`~dpsimplex.privacy.max_step_anytime_sco` plans them.
    """
    return ((t, t <= q or t % q == 0) for t in range(1, T + 1))


_audit_refreshes = audit_releases  # the name perfbench/layertrace.py traces it by


# --------------------------------------------------------------------------
# the adapter used by the boosted saddle solver


class FrozenBlock(ConvexObjective):
    """One block of a saddle objective with the other frozen at one partner per row.

    With ``free="x"`` row r is ``x -> F(x, partners[r])``; with ``free="y"`` it
    is ``y -> -F(partners[r], y)``, whose minimizer maximizes F. The rows' gradients
    come from the base objective's ``frozen_grad_rows``, made once per block (one
    block per solve in boosting). By default each step takes one
    ``batch_grad_xy_rows`` call. A bilinear game keeps a table keyed by (row, batch
    mean z̄) instead: a row's gradient depends on its partner and z̄ alone, and a
    step calls ``batch_grad_xy_rows`` only for rows whose key is new or whose z̄ is
    not a mean of B signs (:class:`~dpsimplex.problems.BilinearObjective`).
    """

    def __init__(self, obj: PerSampleObjective, free: str, partners: np.ndarray):
        if free not in ("x", "y"):
            raise ValueError(f"free block must be 'x' or 'y', got {free!r}")
        self._free = free
        partners = np.asarray(partners, dtype=np.float64)
        self.rows = len(partners)
        self.dim = obj.d_x if free == "x" else obj.d_y
        self.L0 = obj.L0
        self.L1 = obj.L1
        self.L2 = obj.L2
        self.B = obj.B
        self._grad = obj.frozen_grad_rows(free, partners)

    def batch_grad_rows(self, W, batches):
        g = self._grad(W, batches)
        return g if self._free == "x" else -g
