"""Benchmark problems and the exact duality gap.

Houses the stochastic matrix-game, synthetic-data and separable-quadratic
problem families the CLI runs, private synthetic-data generation, and the
exact bilinear duality gap the CLI evaluates with. The reference oracles the
tests compare against (a generic gap estimator, a game-value oracle, a privacy
smoke test, the maximal-loss family) are test code (``tests/reference.py``).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import OracleError
from .oracles import Dataset, PerSampleObjective, free_block_rows
from .privacy import PrivacyParams, SsmdPlan, plan_vertex_smd
from .rng import RngStream
from .sco import ConvexObjective
from .simplex import SimplexPoint, column_sum
from .solvers import solve_smd_vertex


def _check_squares(L0: float, **constants: float) -> None:
    """Raise ValueError unless each of a problem's constants has a finite square and a
    positive ``L0`` has a normal one.

    The planners square the constants (``L0**2`` in the bias-reduced and convex
    schedules), so a constant past about 1.3e154 is refused where the problem is
    built instead of overflowing in a planner. They also divide by ``L0**2``, so a
    positive L0 below about 1.5e-154, whose square is subnormal or 0, is refused too.
    """
    for name, value in {"L0": L0, **constants}.items():
        if not math.isfinite(value * value):
            raise ValueError(f"{name} = {value:g} is too large: the planners need its square")
    if L0 > 0 and L0 * L0 < sys.float_info.min:
        raise ValueError(f"L0 = {L0:g} is too small: the planners divide by its square")


def max_abs(M: np.ndarray) -> float:
    """``M``'s largest |entry| (0 for an empty M) without an |M| temporary: NaN or inf
    exactly when an entry is not finite."""
    return float(max(M.max(initial=0.0), -M.min(initial=0.0)))


SIGN_CHUNK = 2**16  # draws per generator call in random_signs: 512 KB of int64 scratch


def random_signs(shape, dtype, rng: RngStream) -> np.ndarray:
    """A new array of ``dtype`` holding ``rng.gen.integers(0, 2, size=shape) * 2 - 1``.

    The draws are taken in chunks of at most ``SIGN_CHUNK`` straight into the
    array, so the one temporary is a chunk. A chunked draw gives the one-shot
    draw's values and leaves the stream where the one-shot draw leaves it.
    """
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)  # a view: out is contiguous
    for start, stop in _sign_chunks(flat.size):
        flat[start:stop] = rng.gen.integers(0, 2, size=stop - start)
    flat *= 2
    flat -= 1
    return out


def _sign_chunks(size: int):
    """(start, stop) of each chunk of ``size`` draws; the last may be shorter."""
    return ((s, min(s + SIGN_CHUNK, size)) for s in range(0, size, SIGN_CHUNK))


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
        self.L0 = max_abs(self.A) + max_abs(self.E)
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

    # The objective is linear in z, so a batch mean reduces to the mean matrix A + z̄E;
    # one _mean_signs call gives every row its z̄ from the (R, B) batch array. Below
    # _GATHER_MIN_ENTRIES the rows share one (R, d_x, d_y) stack of it; np.matmul
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
        for r, (x, y, z) in enumerate(zip(X, Y, _mean_signs(batches))):
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

    def batch_value(self, X, Y, zs):
        M = self._matrix(np.mean(zs))  # once per call: the rows share the batch
        return np.array([x @ M @ y for x, y in zip(X, Y)])

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


def _mean_signs(batches: np.ndarray) -> np.ndarray:
    """Each row's mean of an (R, B) batch: ``np.mean`` of the row to the bit (the same
    ``add.reduce`` and divide), at a third of its cost. An int8 batch of signs sums
    exactly in int64, so it gives its float64 copy's bits."""
    return np.add.reduce(batches, axis=1) / batches.shape[1]


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
        extremes = [max_abs(A), max_abs(E)]
        if not all(map(math.isfinite, extremes)):
            raise ValueError("game matrices must be finite")
        _check_squares(L0=extremes[0] + extremes[1])
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

    def sample_dataset(self, n: int, rng: RngStream) -> Dataset:
        """n signs z uniform on {-1, +1}, drawn from ``rng`` and held as int8."""
        return Dataset(random_signs(n, np.int8, rng))

    @classmethod
    def random(cls, d_x: int, d_y: int, rng: RngStream, noise_scale: float = 0.5) -> "MatrixGame":
        A = rng.gen.uniform(-1.0, 1.0, size=(d_x, d_y))
        E = noise_scale * random_signs((d_x, d_y), np.float64, rng)
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
        E = noise_scale * random_signs((d_x, d_y), np.float64, rng)
        return cls(A, E)


# --------------------------------------------------------------------------
# the exact duality gap


@dataclass(frozen=True)
class GapReport:
    """A duality-gap estimate together with its own accuracy guarantee."""

    gap_estimate: float
    inner_error_bound: float
    method: str
    rounding: float = 0.0  # bounds the float rounding of the estimate itself

    def __post_init__(self):
        if self.gap_estimate < -self.inner_error_bound - self.rounding - 1e-12:
            raise OracleError(
                f"gap estimate {self.gap_estimate} is below -{self.inner_error_bound} (error "
                f"bound) - {self.rounding} (rounding allowance)"
            )


def exact_gap_bilinear(A: np.ndarray, x: np.ndarray, y: np.ndarray) -> GapReport:
    """Exact duality gap of a bilinear game: inner optima land on vertices."""
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (x.size, y.size):
        raise ValueError(f"payoff shape {A.shape} does not match points ({x.size}, {y.size})")
    gap = float((A.T @ x).max() - (A @ y).min())
    # The allowance for rounding below 0. x'Ay lies between sum(x) min(Ay) and sum(y)
    # max(A'x), so the exact gap is at least -|sum(x) - sum(y)| max|A| (0 at points that
    # sum to one). A computed entry of A'x is a d_x-term dot product off by at most
    # gamma_{d_x} sum(x) max|A| in any summation order (Higham 2002, 3.1; gamma_d =
    # d u / (1 - d u), u = 2^-53), and Ay likewise; max, min and the monotone last rounding
    # add nothing. gamma_d < d 2^-52, and the spare factor of 2 covers the allowance's rounding.
    sx, sy = math.fsum(x), math.fsum(y)
    rounding = max(A.max(), -A.min()) * (abs(sx - sy) + 2.0**-52 * (x.size * sx + y.size * sy))
    return GapReport(gap, 0.0, "exact_bilinear", rounding)


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
        idxs = batches.astype(np.int64, copy=False)
        # add.reduce and a divide are ndarray.mean's arithmetic, without its Python wrapper
        gy = np.array([np.add.reduce(self.Q[:, idx], axis=1) / idx.size - self.Q @ x
                       for x, idx in zip(X, idxs)])
        return gx, gy


@dataclass(frozen=True)
class SynthDataProblem:
    """A query-release instance over a finite domain.

    ``data`` holds the private sample of category indices. The accuracy
    reference is the query answers on the true distribution ``true_dist``.
    """

    queries: np.ndarray
    data: np.ndarray
    true_dist: np.ndarray | None = None

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
        if self.true_dist is None:
            raise ValueError("problem carries no true distribution to measure accuracy against")
        return self.queries @ self.true_dist


ANSWER_BLOCK = 4096  # synthetic rows gathered at once for the query answers: 320 KB at 10 queries


def _query_answers(Q: np.ndarray, synthetic: np.ndarray) -> np.ndarray:
    """Every query's mean over the synthetic rows, bit for bit ``Q[:, synthetic].mean(axis=1)``.

    That gather comes out F-ordered, so its mean adds each query's values one
    row after another; :func:`~dpsimplex.simplex.column_sum` continues that
    sum over (``ANSWER_BLOCK``, q) blocks of ``Q.T[synthetic]`` and holds one
    block, not the (q, n) gather.
    """
    QT = Q.T
    blocks = (QT[synthetic[s:s + ANSWER_BLOCK]] for s in range(0, synthetic.size, ANSWER_BLOCK))
    return column_sum(blocks) / synthetic.size


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
    sol = solve_smd_vertex(obj, Dataset(p.data), plan, rng.child("solve"))
    released = sol.x_vertex_indices
    synthetic = released[rng.child("resample").gen.integers(0, released.size, size=n)]
    errors = np.abs(reference - _query_answers(p.queries, synthetic))
    return SynthReport(
        synthetic=synthetic,
        max_query_error=float(errors.max()),
        query_errors=errors,
        plan=plan,
        samples_used=sol.samples_used,
    )


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
        _check_squares(L0=self.L0, L1=self.L1, B=self.B)

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
        """n signs z uniform on {-1, +1}, drawn from ``rng`` and held as int8."""
        return Dataset(random_signs(n, np.int8, rng))
