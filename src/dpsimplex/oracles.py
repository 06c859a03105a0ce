"""Per-sample objectives, dataset bookkeeping and gradient estimators.

The saddle-gradient convention throughout the package is the monotone-operator
sign: the y block of every estimator is the *negated* y-gradient, so both
players take a descent step on their block and the y player effectively
ascends the objective.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DatasetError, OracleError
from .rng import RngStream
from .simplex import SimplexPoint, sample_vertex_indices


class PerSampleObjective:
    """Convex-concave per-sample objective on a product of simplices.

    Subclasses provide per-sample value and partial gradients together with
    the constants consumed by the planners:

    * ``L0`` bounds gradient sup-norms (Lipschitz constant w.r.t. the 1-norm),
    * ``L1`` bounds the gradient's Lipschitz constant w.r.t. the 1-norm,
    * ``L2`` bounds the Lipschitz constants of the partial derivatives
      (0 for objectives linear or quadratic in each block),
    * ``B`` bounds the absolute value.

    Implementations must be safe for concurrent read-only evaluation. The
    ``batch_*`` methods default to per-sample loops; subclasses override them
    when a vectorized form exists.
    """

    d_x: int
    d_y: int
    L0: float
    L1: float
    L2: float
    B: float

    def value(self, x: np.ndarray, y: np.ndarray, z) -> float:
        raise NotImplementedError

    def grad_x(self, x: np.ndarray, y: np.ndarray, z) -> np.ndarray:
        raise NotImplementedError

    def grad_y(self, x: np.ndarray, y: np.ndarray, z) -> np.ndarray:
        raise NotImplementedError

    def batch_grad_x(self, x: np.ndarray, y: np.ndarray, zs) -> np.ndarray:
        g = np.zeros(self.d_x)
        for z in zs:
            g += self.grad_x(x, y, z)
        return g / len(zs)

    def batch_grad_y(self, x: np.ndarray, y: np.ndarray, zs) -> np.ndarray:
        g = np.zeros(self.d_y)
        for z in zs:
            g += self.grad_y(x, y, z)
        return g / len(zs)

    def batch_value(self, x: np.ndarray, y: np.ndarray, zs) -> float:
        return sum(self.value(x, y, z) for z in zs) / len(zs)


@dataclass(frozen=True)
class PopulationObjective:
    """Analytic population view of an objective: exact values and gradients."""

    d_x: int
    d_y: int
    L0: float
    value: Callable[[np.ndarray, np.ndarray], float]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_y: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SaddleGradient:
    """Saddle-operator estimate: ``g_x`` for the x block, negated gradient ``g_y`` for y."""

    g_x: np.ndarray
    g_y: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.g_x).all() and np.isfinite(self.g_y).all()):
            raise ValueError("saddle gradient has non-finite entries")


class Dataset:
    """Ordered sample identifiers with a consumed-prefix cursor.

    One solver run owns one view; fresh-batch requests beyond ``n`` raise
    :class:`DatasetError` so sample budgets can never be silently exceeded.
    """

    def __init__(self, samples):
        self._samples = np.asarray(samples)
        if self._samples.ndim != 1:
            raise ValueError("dataset samples must form a 1-d sequence")
        self.cursor = 0

    @property
    def n(self) -> int:
        return self._samples.size

    @property
    def remaining(self) -> int:
        return self.n - self.cursor

    def take(self, k: int) -> np.ndarray:
        """Consume the next ``k`` fresh samples."""
        if k < 1:
            raise ValueError(f"batch size must be >= 1, got {k}")
        if self.cursor + k > self.n:
            raise DatasetError(
                f"requested {k} fresh samples with only {self.remaining} of {self.n} left"
            )
        batch = self._samples[self.cursor : self.cursor + k]
        self.cursor += k
        return batch

    def subset(self, start: int, stop: int) -> "Dataset":
        """A fresh view of ``samples[start:stop]`` with its own cursor."""
        return Dataset(self._samples[start:stop])


@dataclass(frozen=True)
class TruncGeom:
    """Truncated geometric distribution on ``{0..M}`` with mass ~ p^k.

    The normalizer is ``C_M = sum_{k<=M} p^k``, so for p = 1/2 it equals
    ``2 - 2^{-M}`` and lies in [1, 2]. That convention makes the telescoping
    identity behind the bias-reduced estimator exact.
    """

    p: float
    M: int

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie in (0,1), got {self.p}")
        if self.M < 0 or int(self.M) != self.M:
            raise ValueError(f"M must be a nonnegative integer, got {self.M}")
        object.__setattr__(self, "M", int(self.M))

    @property
    def C_M(self) -> float:
        return (1.0 - self.p ** (self.M + 1)) / (1.0 - self.p)

    def pmf(self) -> np.ndarray:
        return self.p ** np.arange(self.M + 1) / self.C_M

    def mean_pow2(self) -> float:
        """E[2^N]; equals (M+1)/C_M when p = 1/2."""
        return float(np.sum(2.0 ** np.arange(self.M + 1) * self.pmf()))


def sample_trunc_geom(tg: TruncGeom, rng: RngStream) -> int:
    """Draw N in {0..M} with P[N = k] proportional to p^k."""
    cdf = np.cumsum(tg.pmf())
    idx = int(np.searchsorted(cdf, rng.gen.random(), side="left"))
    return min(idx, tg.M)


def batch_gradient(
    obj: PerSampleObjective, x: SimplexPoint, y: SimplexPoint, batch
) -> SaddleGradient:
    """Mean saddle gradient over a batch: ``(mean grad_x, -mean grad_y)``."""
    if len(batch) == 0:
        raise ValueError("gradient batch must be nonempty")
    gx = obj.batch_grad_x(x.coords, y.coords, batch)
    gy = -obj.batch_grad_y(x.coords, y.coords, batch)
    return SaddleGradient(gx, gy)


def _mean_one_hot(indices: np.ndarray, dim: int) -> np.ndarray:
    return np.bincount(indices, minlength=dim) / indices.size


def bias_reduced_gradient(
    obj: PerSampleObjective,
    x: SimplexPoint,
    y: SimplexPoint,
    N: int,
    batch,
    tg: TruncGeom,
    rng: RngStream,
) -> SaddleGradient:
    """Multilevel debiased saddle gradient at ``(x, y)``.

    Draws ``2^(N+1)`` iid vertex pairs from the product vertex distribution,
    forms the average over all of them and over the first ``2^N``, and returns

        g_x = C_M 2^N (grad_x(plus) - grad_x(minus)) + grad_x(first pair)

    with the mirrored, negated form for the y block. The randomized level
    ``N ~ TruncGeom`` telescopes so the expected bias matches a ``2^M``-draw
    estimator while only ``2^(N+1)`` draws are paid for.
    """
    if not (0 <= N <= tg.M):
        raise ValueError(f"level N={N} outside {{0..{tg.M}}}")
    if len(batch) == 0:
        raise ValueError("gradient batch must be nonempty")
    half = 2**N
    xs = sample_vertex_indices(x.coords, 2 * half, rng)
    ys = sample_vertex_indices(y.coords, 2 * half, rng)

    x_plus = _mean_one_hot(xs, x.dim)
    y_plus = _mean_one_hot(ys, y.dim)
    x_minus = _mean_one_hot(xs[:half], x.dim)
    y_minus = _mean_one_hot(ys[:half], y.dim)
    x_first = np.zeros(x.dim)
    x_first[xs[0]] = 1.0
    y_first = np.zeros(y.dim)
    y_first[ys[0]] = 1.0

    scale = tg.C_M * half
    gx = scale * (
        obj.batch_grad_x(x_plus, y_plus, batch) - obj.batch_grad_x(x_minus, y_minus, batch)
    ) + obj.batch_grad_x(x_first, y_first, batch)
    gy = -scale * (
        obj.batch_grad_y(x_plus, y_plus, batch) - obj.batch_grad_y(x_minus, y_minus, batch)
    ) - obj.batch_grad_y(x_first, y_first, batch)

    cap = tg.C_M * 2 * half * obj.L0 + obj.L0
    if np.abs(gx).max() > cap * (1 + 1e-9) or np.abs(gy).max() > cap * (1 + 1e-9):
        raise OracleError(
            "estimator exceeded its Lipschitz envelope; objective constants are wrong"
        )
    return SaddleGradient(gx, gy)


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
        assert np.abs(gx).max() <= obj.L0 * (1 + 1e-9), "grad_x exceeds L0"
        assert np.abs(gy).max() <= obj.L0 * (1 + 1e-9), "grad_y exceeds L0"

        dx = gen.dirichlet(np.ones(obj.d_x)) - x
        dy = gen.dirichlet(np.ones(obj.d_y)) - y
        num = (obj.value(x + h * dx, y, z) - obj.value(x - h * dx, y, z)) / (2 * h)
        ana = float(gx @ dx)
        scale = max(1.0, abs(ana))
        assert abs(num - ana) <= rel_tol * scale, f"x-directional derivative off: {num} vs {ana}"
        num = (obj.value(x, y + h * dy, z) - obj.value(x, y - h * dy, z)) / (2 * h)
        ana = float(gy @ dy)
        scale = max(1.0, abs(ana))
        assert abs(num - ana) <= rel_tol * scale, f"y-directional derivative off: {num} vs {ana}"
