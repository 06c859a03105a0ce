"""The saddle objective interface, dataset bookkeeping and gradient estimators.

An objective supplies its own batch gradient and batch value. A batch
gradient takes (R, d) arrays of points and one (R, B) array of batches, row
r's batch in row r. The per-sample loop that the vectorized gradients are
checked against is test code (``tests/reference.py``).

The saddle-gradient convention throughout the package is the monotone-operator
sign: the y block of every estimator is the *negated* y-gradient, so both
players take a descent step on their block and the y player effectively
ascends the objective.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError, OracleError
from .rng import RngStream
from .simplex import inverse_cdf, mean_one_hots, release_rows


class PerSampleObjective:
    """Convex-concave per-sample objective on a product of simplices.

    Subclasses provide the batch gradient and value together with the
    constants consumed by the planners:

    * ``L0`` bounds gradient sup-norms (Lipschitz constant w.r.t. the 1-norm),
    * ``L1`` bounds the gradient's Lipschitz constant w.r.t. the 1-norm,
    * ``L2`` bounds the Lipschitz constants of the partial derivatives
      (0 for objectives linear or quadratic in each block),
    * ``B`` bounds the absolute value.

    Implementations must be safe for concurrent read-only evaluation. The one
    batch gradient is :meth:`batch_grad_xy_rows`, which takes R point pairs and
    an (R, B) array of batches, one row per pair.
    """

    d_x: int
    d_y: int
    L0: float
    L1: float
    L2: float
    B: float

    def batch_grad_xy_rows(
        self, X: np.ndarray, Y: np.ndarray, batches: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mean ``grad_x`` and ``grad_y`` over batch row ``batches[r]`` at ``(X[r], Y[r])``.

        Returns two (R, d_x) and (R, d_y) arrays. An override that stacks the
        rows must give each row the bits it would get as a one-row call.
        """
        raise NotImplementedError

    def frozen_grad_rows(self, free: str, partners: np.ndarray):
        """``grad(W, batches)``: block ``free``'s gradient rows with the other block frozen.

        Row r is the mean gradient of block ``free`` (``"x"`` or ``"y"``) over
        ``batches[r]`` at ``W[r]`` and ``partners[r]``, an (R, d) array. This one
        takes one :meth:`batch_grad_xy_rows` call per use and keeps the block asked
        for; an objective whose frozen rows repeat may serve them from a table.
        """
        return lambda W, batches: free_block_rows(self, free, W, partners, batches)

    def batch_value(self, X: np.ndarray, Y: np.ndarray, zs) -> np.ndarray:
        """(R,) array: row r is the mean value over the batch ``zs`` at ``(X[r], Y[r])``."""
        raise NotImplementedError


def free_block_rows(obj: PerSampleObjective, free: str, W, partners, batches) -> np.ndarray:
    """Block ``free`` of one ``obj.batch_grad_xy_rows`` call at ``W`` and ``partners``."""
    if free == "x":
        return obj.batch_grad_xy_rows(W, partners, batches)[0]
    return obj.batch_grad_xy_rows(partners, W, batches)[1]


@dataclass(frozen=True)
class SaddleGradient:
    """Saddle-operator estimate: ``g_x`` for the x block, negated gradient ``g_y`` for y."""

    g_x: np.ndarray
    g_y: np.ndarray


class Dataset:
    """Ordered sample identifiers with a consumed-prefix cursor.

    ``samples`` is a 1-d sequence or an (R, n) block of R rows sharing the
    cursor, whose ``take(k)`` is the next k columns as one (R, k) view. One
    solver run owns one view; fresh-batch requests beyond ``n`` raise
    :class:`DatasetError` so sample budgets can never be silently exceeded.
    """

    def __init__(self, samples):
        self._samples = np.asarray(samples)
        if self._samples.ndim not in (1, 2):
            raise ValueError("dataset samples must form a 1-d sequence or an (R, n) block")
        self.cursor = 0

    @property
    def rows(self) -> int:  # a 1-d sequence is one row
        return 1 if self._samples.ndim == 1 else self._samples.shape[0]

    @property
    def n(self) -> int:  # samples per row
        return self._samples.shape[-1]

    @property
    def remaining(self) -> int:
        return self.n - self.cursor

    def take(self, k: int) -> np.ndarray:
        """Consume the next ``k`` fresh samples of every row."""
        if k < 1:
            raise ValueError(f"batch size must be >= 1, got {k}")
        if self.cursor + k > self.n:
            raise DatasetError(
                f"requested {k} fresh samples with only {self.remaining} of {self.n} left"
            )
        batch = self._samples[..., self.cursor : self.cursor + k]
        self.cursor += k
        return batch


@dataclass(frozen=True)
class TruncGeom:
    """Truncated geometric distribution on ``{0..M}`` with mass ~ p^k.

    The normalizer is ``C_M = sum_{k<=M} p^k``, so for p = 1/2 it equals
    ``2 - 2^{-M}`` and lies in [1, 2]. That convention makes the telescoping
    identity behind the bias-reduced estimator exact.
    """

    p: float
    M: int
    cdf: np.ndarray = field(init=False, repr=False, compare=False)  # cumsum of pmf(), kept

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie in (0,1), got {self.p}")
        if self.M < 0 or int(self.M) != self.M:
            raise ValueError(f"M must be a nonnegative integer, got {self.M}")
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "cdf", np.cumsum(self.pmf()))

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
    return int(inverse_cdf(tg.cdf, rng.gen.random(1))[0])


def batch_gradient(obj: PerSampleObjective, X, Y, batches) -> SaddleGradient:
    """Mean saddle gradient of each row over its batch: ``(mean grad_x, -mean grad_y)``.

    ``X`` and ``Y`` are (R, d) arrays of rows and ``batches`` an (R, B) array,
    row r's batch in row r; ``g_x`` and ``g_y`` are (R, d). It is one
    :meth:`PerSampleObjective.batch_grad_xy_rows` call.
    """
    if batches.shape[1] == 0:
        raise ValueError("gradient batch must be nonempty")
    gx, gy = obj.batch_grad_xy_rows(X, Y, batches)
    return SaddleGradient(gx, -gy)


def bias_reduced_gradient(
    obj: PerSampleObjective,
    x: np.ndarray,
    y: np.ndarray,
    N: int,
    batch,
    tg: TruncGeom,
    rng: RngStream,
) -> SaddleGradient:
    """Multilevel debiased saddle gradient at the (d,) points ``(x, y)``.

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
    xs = release_rows(x[None], 2 * half, [rng])
    ys = release_rows(y[None], 2 * half, [rng])

    counts = (2 * half, half, 1)  # one gradient call on all draws, the first half, the first draw
    X = np.concatenate([mean_one_hots(xs[:, :k], x.size) for k in counts])
    Y = np.concatenate([mean_one_hots(ys[:, :k], y.size) for k in counts])
    (gx_plus, gx_minus, gx_first), (gy_plus, gy_minus, gy_first) = obj.batch_grad_xy_rows(
        X, Y, np.broadcast_to(batch, (3, len(batch))))

    scale = tg.C_M * half
    gx = scale * (gx_plus - gx_minus) + gx_first
    gy = -scale * (gy_plus - gy_minus) - gy_first

    cap = tg.C_M * 2 * half * obj.L0 + obj.L0
    if np.abs(gx).max() > cap * (1 + 1e-9) or np.abs(gy).max() > cap * (1 + 1e-9):
        raise OracleError(
            "estimator exceeded its Lipschitz envelope; objective constants are wrong"
        )
    return SaddleGradient(gx, gy)
