"""Benchmark problems and evaluation oracles.

Houses the stochastic matrix-game, synthetic-data and maximal-loss problem
families together with the oracles the tests and the CLI evaluate against:
exact bilinear duality gaps, a generic inner-solver gap estimator, a
self-certifying game-value oracle, and a small empirical privacy smoke test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OracleError
from .oracles import (Dataset, PerSampleObjective, PopulationObjective, batch_gradient,
                      free_block_rows)
from .privacy import PrivacyParams, SsmdPlan, advanced_composition_eps, plan_vertex_smd
from .rng import RngStream
from .sco import ConvexObjective
from .simplex import SimplexPoint
from .solvers import solve_smd_vertex


# --------------------------------------------------------------------------
# stochastic matrix games


# Below about 10^4 entries the dense product takes a few microseconds, less than
# the ten or so numpy calls of a support gather (measured at d = 20 to 150).
_GATHER_MIN_ENTRIES = 10_000


class BilinearObjective(PerSampleObjective):
    """f(x, y; z) = x^T (A + z E) y with z in {-1, +1}.

    With one block frozen at a partner, a row's gradient is (A + z̄E) times that
    partner: it depends on the partner and the batch mean z̄ alone, not on the
    free iterate. ``frozen_grad_rows`` therefore serves a table keyed by
    (row, z̄) (:class:`_MeanKeyedRows`).
    """

    def __init__(self, payoff: np.ndarray, perturbation: np.ndarray):
        self.A = np.asarray(payoff, dtype=np.float64)
        self.E = np.asarray(perturbation, dtype=np.float64)
        if self.A.shape != self.E.shape or self.A.ndim != 2:
            raise ValueError("payoff and perturbation must be matrices of equal shape")
        self.d_x, self.d_y = self.A.shape
        self.L0 = float(np.abs(self.A).max() + np.abs(self.E).max())
        self.L1 = 0.0
        self.L2 = 0.0
        self.B = self.L0

    def _matrix(self, z) -> np.ndarray:
        return self.A + z * self.E

    def value(self, x, y, z):
        return float(x @ self._matrix(z) @ y)

    def grad_x(self, x, y, z):
        return self._matrix(z) @ y

    def grad_y(self, x, y, z):
        return self._matrix(z).T @ x

    # The objective is linear in z, so a batch mean reduces to the mean matrix A + z̄E.
    # Below _GATHER_MIN_ENTRIES the rows share one (R, d_x, d_y) stack of it; np.matmul
    # gives each row the bits of M @ y and M.T @ x (einsum does not). Above it, a row's
    # gradients read only the columns (rows) on the other point's support: O(d * support)
    # instead of O(d_x * d_y) at the sparsified iterates. A row builds its dense matrix
    # once, and only when a support passes a fifth of the block for the x gradient's
    # strided columns (half for the y gradient's rows).
    def batch_grad_xy_rows(self, X, Y, batches):
        if self.A.size < _GATHER_MIN_ENTRIES:
            M = _mean_signs(batches)[:, None, None] * self.E
            M += self.A  # in place: one (R, d_x, d_y) allocation, and A + zE to the bit
            return np.matmul(M, Y[:, :, None])[:, :, 0], np.matmul(X[:, None, :], M)[:, 0, :]
        gx, gy = np.empty((len(batches), self.d_x)), np.empty((len(batches), self.d_y))
        for r, (x, y, zs) in enumerate(zip(X, Y, batches)):
            z = _mean_sign(zs)
            j, i = self._support(y, 5), self._support(x, 2)
            M = self._matrix(z) if j is None or i is None else None
            gx[r], gy[r] = self._grad_x(y, z, j, M), self._grad_y(x, z, i, M)
        return gx, gy

    def _support(self, p, share):
        """Indices of ``p``'s nonzeros if at most ``1/share`` of ``p`` is nonzero, else None."""
        idx = np.flatnonzero(p)
        return idx if share * idx.size <= p.size else None

    def _grad_x(self, y, z, j, M):
        if j is None:
            return M @ y
        return (self.A[:, j] + z * self.E[:, j]) @ y[j]

    def _grad_y(self, x, z, i, M):
        if i is None:
            return M.T @ x
        return (self.A[i] + z * self.E[i]).T @ x[i]

    def batch_value(self, x, y, zs):
        return float(x @ self._matrix(np.mean(zs)) @ y)

    def frozen_grad_rows(self, free, partners):
        return _MeanKeyedRows(self, free, np.asarray(partners))


class _MeanKeyedRows:
    """A bilinear game's frozen-block gradient rows, each computed once per (row, z̄).

    A mean is a key only if it is (2k - B)/B exactly for an integer 0 <= k <= B,
    the mean of B signs, so the table holds at most R (B + 1) rows of the free
    block, stored as their keys first occur (222 KB for boosting's 77 rows of
    30 with B = 11). Each call sends the rows whose key is new, and the rows
    whose mean is no key, through one call of the objective's own
    ``batch_grad_xy_rows``, so an override supplies the values; the other rows
    are read from the table. A new batch size starts the table over.
    """

    def __init__(self, obj: BilinearObjective, free: str, partners: np.ndarray):
        self._obj, self._free, self._partners = obj, free, partners
        self._B = None

    def __call__(self, W, batches):
        batches = np.asarray(batches)
        rows, B = batches.shape
        if B != self._B:
            self._B, self._stored = B, 0
            self._slot = np.full((B + 1, rows), -1)  # (k, row) -> its row in _store, or -1
            self._store = np.empty((0, W.shape[1]))
        k, exact = _sign_count(_mean_signs(batches), B)
        slot = np.where(exact, self._slot[k, np.arange(rows)], -1)
        hit = slot >= 0
        if hit.all():
            return self._store[slot]
        todo = np.flatnonzero(~hit)
        g = free_block_rows(self._obj, self._free, W[todo], self._partners[todo], batches[todo])
        out = np.empty((rows, g.shape[1]))
        out[hit] = self._store[slot[hit]]
        out[todo] = g
        new = exact[todo]
        keep, n = todo[new], self._stored
        if n + keep.size > len(self._store):
            store = np.empty((min(max(2 * len(self._store), n + keep.size), rows * (B + 1)),
                              g.shape[1]))
            store[:n] = self._store[:n]
            self._store = store
        self._store[n : n + keep.size] = g[new]
        self._slot[k[keep], keep] = np.arange(n, n + keep.size)
        self._stored += keep.size
        return out


def _sign_count(z: np.ndarray, B: int):
    """Each mean's k with z = (2k - B)/B exactly and 0 <= k <= B (0 where there is none),
    and whether there is one."""
    k = np.clip(np.rint((z + 1.0) * (B / 2.0)), 0, B)
    exact = (2.0 * k - B) / B == z
    return np.where(exact, k, 0).astype(np.intp), exact


def _mean_sign(zs) -> float:
    """``np.mean(zs)`` to the bit for float signs: the same ``add.reduce`` and divide,
    at a third of its cost."""
    zs = np.asarray(zs)
    return np.add.reduce(zs) / zs.size


def _mean_signs(batches) -> np.ndarray:
    """``_mean_sign`` of each batch; an (R, B) array (a row dataset's batch) reduces as it is."""
    if isinstance(batches, np.ndarray):
        return np.add.reduce(batches, axis=1) / batches.shape[1]
    return np.array([_mean_sign(zs) for zs in batches])


@dataclass(frozen=True)
class MatrixGame:
    """A zero-sum game with sign-perturbed per-sample payoffs.

    The x player minimizes and the y player maximizes ``x^T A y`` where
    ``A = E[A_z]``; per-sample payoffs are ``A + z * perturbation`` with z
    uniform on {-1, +1}, which gives controllable gradient noise.
    """

    payoff: np.ndarray
    perturbation: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.payoff, dtype=np.float64)
        E = np.asarray(self.perturbation, dtype=np.float64)
        if A.ndim != 2 or A.shape != E.shape:
            raise ValueError("payoff and perturbation must be matrices of equal shape")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(E))):
            raise ValueError("game matrices must be finite")
        object.__setattr__(self, "payoff", A)
        object.__setattr__(self, "perturbation", E)

    @property
    def d_x(self) -> int:
        return self.payoff.shape[0]

    @property
    def d_y(self) -> int:
        return self.payoff.shape[1]

    @property
    def ell(self) -> float:
        return math.log(self.d_x) + math.log(self.d_y)

    def objective(self) -> BilinearObjective:
        return BilinearObjective(self.payoff, self.perturbation)

    def population(self) -> PopulationObjective:
        A = self.payoff
        return PopulationObjective(
            d_x=self.d_x,
            d_y=self.d_y,
            L0=float(np.abs(A).max()),
            value=lambda x, y: float(x @ A @ y),
            grad_x=lambda x, y: A @ y,
            grad_y=lambda x, y: A.T @ x,
        )

    def sample_dataset(self, n: int, rng: RngStream) -> Dataset:
        signs = rng.gen.integers(0, 2, size=n) * 2 - 1
        return Dataset(signs.astype(np.float64))

    @classmethod
    def random(cls, d_x: int, d_y: int, rng: RngStream, noise_scale: float = 0.5) -> "MatrixGame":
        A = rng.gen.uniform(-1.0, 1.0, size=(d_x, d_y))
        E = noise_scale * (rng.gen.integers(0, 2, size=(d_x, d_y)) * 2 - 1)
        return cls(A, E)

    @classmethod
    def benchmark(
        cls,
        d_x: int,
        d_y: int,
        rng: RngStream,
        noise_scale: float = 0.5,
        centering: float = 0.9,
    ) -> "MatrixGame":
        """A scaling-benchmark game with a near-uniform interior equilibrium.

        Row/column means are mostly removed (``centering`` of them), which
        keeps the burn-in from the uniform start short at desk-scale sample
        sizes; the measured gap is then governed by the sampling-error rate
        being benchmarked instead of by leftover transient.
        """
        A = rng.gen.uniform(-1.0, 1.0, size=(d_x, d_y))
        A = A - centering * (
            A.mean(axis=1, keepdims=True) + A.mean(axis=0, keepdims=True) - A.mean()
        )
        E = noise_scale * (rng.gen.integers(0, 2, size=(d_x, d_y)) * 2 - 1)
        return cls(A, E)


# --------------------------------------------------------------------------
# duality-gap oracles


@dataclass(frozen=True)
class GapReport:
    """A duality-gap estimate together with its own accuracy guarantee."""

    gap_estimate: float
    inner_error_bound: float
    method: str

    def __post_init__(self):
        if self.gap_estimate < -self.inner_error_bound - 1e-12:
            raise OracleError(
                f"gap estimate {self.gap_estimate} below -{self.inner_error_bound}; "
                "the inner solver failed"
            )


def exact_gap_bilinear(A: np.ndarray, x, y) -> GapReport:
    """Exact duality gap of a bilinear game: inner optima land on vertices."""
    A = np.asarray(A, dtype=np.float64)
    x = x.coords if isinstance(x, SimplexPoint) else np.asarray(x, dtype=np.float64)
    y = y.coords if isinstance(y, SimplexPoint) else np.asarray(y, dtype=np.float64)
    if A.shape != (x.size, y.size):
        raise ValueError(f"payoff shape {A.shape} does not match points ({x.size}, {y.size})")
    gap = float((A.T @ x).max() - (A @ y).min())
    return GapReport(gap_estimate=gap, inner_error_bound=0.0, method="exact_bilinear")


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


def smoothed_max_bilinear(A: np.ndarray, x: np.ndarray, lam: float) -> float:
    """Softmax smoothing of ``max_y x^T A y``: ``lam * LSE((A^T x) / lam)``.

    Sandwiched between the true max and the true max plus ``lam * log(d_y)``.
    """
    if lam <= 0:
        raise ValueError("smoothing parameter must be positive")
    scores = (np.asarray(A, dtype=np.float64).T @ np.asarray(x, dtype=np.float64)) / lam
    top = scores.max()
    return float(lam * (top + np.log(np.exp(scores - top).sum())))


# --------------------------------------------------------------------------
# synthetic data generation


def _query_matrix(queries) -> np.ndarray:
    Q = np.asarray(queries, dtype=np.float64)
    if Q.ndim != 2:
        raise ValueError("queries must form a (num_queries, domain_size) matrix")
    if not (np.isfinite(Q).all() and np.abs(Q).max(initial=0.0) <= 1.0 + 1e-12):
        raise ValueError("query values must be finite and lie in [-1, 1]")
    return Q


class SynthDataObjective(PerSampleObjective):
    """Query-matching objective f(x, y; z) = sum_j y_j (q_j(z) - <q_j, x>).

    ``x`` is a candidate distribution over the finite domain, ``y`` weights
    the queries, and z is a domain element (column index of the query matrix).
    """

    def __init__(self, queries: np.ndarray):
        Q = _query_matrix(queries)
        self.Q = Q
        self.d_x = Q.shape[1]
        self.d_y = Q.shape[0]
        qmax = float(np.abs(Q).max()) if Q.size else 0.0
        self.L0 = 2.0 * qmax
        self.L1 = 0.0
        self.L2 = 0.0
        self.B = 2.0 * qmax

    def value(self, x, y, z):
        return float(y @ (self.Q[:, int(z)] - self.Q @ x))

    def grad_x(self, x, y, z):
        return -(self.Q.T @ y)

    def grad_y(self, x, y, z):
        return self.Q[:, int(z)] - self.Q @ x

    def batch_grad_xy_rows(self, X, Y, batches):
        gx = np.array([-(self.Q.T @ y) for y in Y])
        idxs = [np.asarray(zs, dtype=np.int64) for zs in batches]
        # add.reduce and a divide are ndarray.mean's arithmetic, without its Python wrapper
        gy = np.array([np.add.reduce(self.Q[:, idx], axis=1) / idx.size - self.Q @ x
                       for x, idx in zip(X, idxs)])
        return gx, gy


@dataclass(frozen=True)
class SynthDataProblem:
    """A query-release instance over a finite domain.

    ``data`` holds the private sample of category indices. The accuracy
    reference is the true distribution when known, otherwise a held-out
    sample.
    """

    queries: np.ndarray
    data: np.ndarray
    true_dist: np.ndarray | None = None
    reference: np.ndarray | None = None

    def __post_init__(self):
        Q = _query_matrix(self.queries)
        data = np.asarray(self.data, dtype=np.int64)
        if data.min(initial=0) < 0 or data.max(initial=0) >= Q.shape[1]:
            raise ValueError("category indices outside the query domain")
        object.__setattr__(self, "queries", Q)
        object.__setattr__(self, "data", data)
        if self.true_dist is not None:
            dist = np.asarray(self.true_dist, dtype=np.float64)
            if dist.shape != (Q.shape[1],) or not np.isfinite(dist).all():
                raise ValueError(f"true_dist must hold {Q.shape[1]} finite entries, "
                                 f"one per category")
            object.__setattr__(self, "true_dist", dist)

    def reference_answers(self) -> np.ndarray:
        if self.true_dist is not None:
            return self.queries @ self.true_dist
        if self.reference is not None:
            ref = np.asarray(self.reference, dtype=np.int64)
            return self.queries[:, ref].mean(axis=1)
        raise ValueError("problem carries neither a true distribution nor a held-out reference")


def make_synth_data_objective(p: SynthDataProblem) -> SynthDataObjective:
    return SynthDataObjective(p.queries)


@dataclass(frozen=True)
class SynthReport:
    synthetic: np.ndarray
    max_query_error: float
    query_errors: np.ndarray
    plan: SsmdPlan
    samples_used: int


def synth_data_generate(
    p: SynthDataProblem, privacy: PrivacyParams, rng: RngStream
) -> SynthReport:
    """Private synthetic data via the vertex-sampling saddle solver.

    Runs the bilinear query-matching formulation in quadratic mode and emits
    the multiset of released x-vertices (each one a domain element), resampled
    with replacement to the input size. The reported error is
    ``max_q |q(reference) - q(synthetic)|``.

    The solver sees the query set closed under negation: the linear
    relaxation of the max only tracks one-sided errors, so without the
    negated copies the inner player could reward *over*-shooting a query
    instead of matching it.
    """
    Q = p.queries
    reference = p.reference_answers()  # before the solve: a problem without one fails fast
    obj = SynthDataObjective(np.vstack([Q, -Q]))
    n = p.data.size
    ell = math.log(obj.d_x) + math.log(obj.d_y)
    plan = plan_vertex_smd(
        n, privacy.epsilon, privacy.delta, obj.L0, obj.L1, obj.L2, ell, "quadratic"
    )
    sol = solve_smd_vertex(
        obj, Dataset(p.data), plan, rng.child("solve"), keep_x_draws=True
    )
    released = sol.x_vertex_indices
    synthetic = released[rng.child("resample").gen.integers(0, released.size, size=n)]
    answers = p.queries[:, synthetic].mean(axis=1)
    errors = np.abs(reference - answers)
    return SynthReport(
        synthetic=synthetic,
        max_query_error=float(errors.max()),
        query_errors=errors,
        plan=plan,
        samples_used=sol.samples_used,
    )


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
    max(L1, L2)-second-order-smooth on the joint block.
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


def make_max_loss_objective(p: MaxLossProblem) -> MaxLossObjective:
    return MaxLossObjective(p)


# --------------------------------------------------------------------------
# separable quadratic testbed for the convex solver


class SeparableQuadratic(ConvexObjective):
    """Per-sample loss ``sum_j c_j (x_j - a_j)^2 + z <eta, x>`` with z in {-1, +1}.

    The noise is linear, so the population risk is ``sum_j c_j (x_j - a_j)^2``
    and, when the target ``a`` lies inside the simplex, the constrained
    minimizer is ``a`` itself with risk 0.
    """

    def __init__(self, weights: np.ndarray, target: np.ndarray, noise: np.ndarray):
        c = np.asarray(weights, dtype=np.float64)
        a = np.asarray(target, dtype=np.float64)
        eta = np.asarray(noise, dtype=np.float64)
        if not (c.shape == a.shape == eta.shape) or c.ndim != 1:
            raise ValueError("weights, target and noise must be equal-length vectors")
        if not (np.isfinite(c).all() and (c > 0).all()):
            raise ValueError("quadratic weights must be positive and finite")
        if not np.isfinite(eta).all():
            raise ValueError("quadratic noise must be finite")
        SimplexPoint(a)  # the known minimizer must be feasible
        self.c = c
        self.a = a
        self.eta = eta
        self.dim = c.size
        self.L0 = float(2.0 * c.max() + np.abs(eta).max())
        self.L1 = float(2.0 * c.max())
        self.L2 = 0.0
        self.B = float(c.sum() + np.abs(eta).sum())

    def batch_grad_rows(self, W, batches):
        return 2.0 * self.c * (W - self.a) + _mean_signs(batches)[:, None] * self.eta

    def population_value(self, x) -> float:
        return float(self.c @ (np.asarray(x) - self.a) ** 2)

    def population_grad(self, x) -> np.ndarray:
        return 2.0 * self.c * (np.asarray(x) - self.a)

    def minimizer(self) -> SimplexPoint:
        return SimplexPoint(self.a)

    def value_range(self) -> float:
        """Spread of the population risk over the simplex (max sits on a vertex)."""
        worst = max(
            self.population_value(np.eye(self.dim)[i]) for i in range(self.dim)
        )
        return worst - 0.0

    def sample_dataset(self, n: int, rng: RngStream) -> Dataset:
        signs = rng.gen.integers(0, 2, size=n) * 2 - 1
        return Dataset(signs.astype(np.float64))


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
            g = batch_gradient(
                obj, SimplexPoint.vertex(obj.d_x, i), SimplexPoint.vertex(obj.d_y, j), batch
            )
            z = -tau * g.g_x
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
