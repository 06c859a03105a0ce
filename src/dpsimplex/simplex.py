"""Probability-simplex arithmetic with log-domain iterates.

Multiplicative-weights iterates are stored as unnormalized log-weights and
normalized only on read (:func:`to_point`). Composing update steps is then
exact addition of cumulative score vectors, which the privacy audits rely on;
renormalizing after every step would drift and destroy that view.

Vertex draws, the bias-reduced level draw and ``verify`` all invert a CDF with
one uniform per draw, through the package's one inversion, :func:`inverse_cdf`.
Vertex uniforms come from :func:`vertex_uniforms`, which charges each one on the
stream as a release. The row-wise forms (:func:`softmax`, :func:`mwu_add`,
:func:`inverse_cdf_rows`, :func:`mean_one_hots`) step a batch of iterates held as
one (R, d) array; row by row they give the bits of the 1-d forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream

SIMPLEX_SUM_TOL = 1e-9
GUIDE_BUCKETS = 4096  # a power of two, so u * GUIDE_BUCKETS is exact


@dataclass(frozen=True)
class SimplexPoint:
    """A probability vector on the standard simplex.

    Coordinates are validated on construction (nonnegative, summing to one
    within ``SIMPLEX_SUM_TOL``) and frozen read-only. The iterates built by
    :func:`to_point`, :func:`sparsify` and :func:`running_average` are valid
    by construction and skip the check.
    """

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 1 or coords.size < 1:
            raise ValueError("simplex point must be a nonempty 1-d vector")
        if not np.all(np.isfinite(coords)):
            raise ValueError("simplex point has non-finite coordinates")
        if np.any(coords < 0.0):
            raise ValueError("simplex point has negative coordinates")
        total = float(coords.sum())
        if abs(total - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError(f"simplex coordinates sum to {total!r}, not 1")
        coords = coords.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.size

    @classmethod
    def uniform(cls, dim: int) -> "SimplexPoint":
        return cls(np.full(dim, 1.0 / dim))

    @classmethod
    def vertex(cls, dim: int, index: int) -> "SimplexPoint":
        e = np.zeros(dim)
        e[index] = 1.0
        return cls(e)


@dataclass(frozen=True)
class LogWeights:
    """Unnormalized log-domain weights backing a multiplicative-weights iterate."""

    logw: np.ndarray

    def __post_init__(self):
        logw = np.asarray(self.logw, dtype=np.float64)
        if logw.ndim != 1 or logw.size < 1:
            raise ValueError("log-weights must be a nonempty 1-d vector")
        if not np.all(np.isfinite(logw)):
            raise ValueError("log-weights must be finite")
        logw = logw.copy()
        logw.flags.writeable = False
        object.__setattr__(self, "logw", logw)

    @property
    def dim(self) -> int:
        return self.logw.size

    @classmethod
    def uniform(cls, dim: int) -> "LogWeights":
        return cls(np.zeros(dim))


def _frozen(cls, field: str, array: np.ndarray):
    """``cls`` holding ``array`` read-only, built with no copy and no check.

    Only for float64 arrays just built here that are valid by construction.
    """
    array.flags.writeable = False
    obj = object.__new__(cls)
    object.__setattr__(obj, field, array)
    return obj


def softmax(logw: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis: each row of log-weights to a simplex point.

    Stable for log-weight spreads of +-1e4 and invariant under adding a
    constant to every entry of a row.
    """
    # the ufuncs' reduce is what ndarray.max/sum run, without their Python-level wrappers
    e = np.exp(logw - np.maximum.reduce(logw, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def to_point(w: LogWeights) -> SimplexPoint:
    """Normalize log-weights into a simplex point (:func:`softmax`)."""
    return _frozen(SimplexPoint, "coords", softmax(w.logw))


def mwu_add(logw: np.ndarray, g: np.ndarray, tau: float) -> np.ndarray:
    """``logw + tau * g`` on raw arrays; a step size that is not positive and finite, or a
    non-finite result, raises ``ValueError`` (an explicit raise, kept under ``python -O``)."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"step size must be positive and finite, got {tau!r}")
    new_logw = logw + tau * g
    if not np.isfinite(new_logw).all():
        raise ValueError("mwu step needs a finite gradient and a step that does not overflow")
    return new_logw


def mwu_step(w: LogWeights, g: np.ndarray, tau: float = 1.0) -> LogWeights:
    """Add ``tau * g`` to the log-weights.

    The caller carries the sign: pass the negated gradient for descent and
    the raw gradient for ascent. Steps compose additively, so k single steps
    equal one cumulative step in log domain. A non-finite gradient, or a step
    that overflows, raises ``ValueError``.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != w.logw.shape:
        raise ValueError(f"gradient shape {g.shape} does not match {w.logw.shape}")
    return _frozen(LogWeights, "logw", mwu_add(w.logw, g, tau))


def _guide_table(cdf: np.ndarray) -> tuple[np.ndarray, int]:
    """Chen & Asau's guide table (Devroye 1986, III.2): ``lo[b]`` counts the CDF entries
    below ``b / GUIDE_BUCKETS``, and ``span``, the most in one bucket, bounds a lookup."""
    bucket = np.minimum((cdf * GUIDE_BUCKETS).astype(np.intp), GUIDE_BUCKETS - 1)
    counts = np.bincount(bucket, minlength=GUIDE_BUCKETS)
    return np.cumsum(counts) - counts, int(counts.max())


def _guide_search(cdf: np.ndarray, u: np.ndarray, table: tuple | None = None) -> np.ndarray:
    """:func:`inverse_cdf` in ``span`` steps ``idx += cdf[idx] < u`` from ``lo[floor(u G)]``."""
    lo, span = _guide_table(cdf) if table is None else table
    cdf_pad = np.append(cdf, np.inf)  # stops every step past the last entry
    idx = lo[(u * GUIDE_BUCKETS).astype(np.intp)]
    for _ in range(span):
        idx += cdf_pad[idx] < u
    return np.minimum(idx, cdf.shape[0] - 1, out=idx)


def inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """First ``i`` with ``cdf[i] >= u`` for each ``u`` in [0, 1), clamped to d - 1.

    ``cdf`` must be nondecreasing. Calls of at least GUIDE_BUCKETS draws (the bucket count;
    timed at d = 20 to 1000, the table lost at 1024 draws and won at 4096) take the guide
    table if its span is at most ``d.bit_length()``, a binary search's steps; others search.
    """
    if u.size >= GUIDE_BUCKETS:
        table = _guide_table(cdf)
        if table[1] <= cdf.shape[0].bit_length():
            return _guide_search(cdf, u, table)
    return cdf[:-1].searchsorted(u, side="left")  # d - 1 entries: the clamp for free


def inverse_cdf_rows(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`inverse_cdf` of each row of ``u`` (R, k) on the same row of ``cdf`` (R, d)."""
    out = np.empty(u.shape, dtype=np.intp)
    for r in range(u.shape[0]):
        out[r] = inverse_cdf(cdf[r], u[r])
    return out


def mean_one_hots(indices: np.ndarray, dim: int) -> np.ndarray:
    """(R, dim) array whose row r averages the one-hots of ``indices[r]`` (R, k).

    One ``bincount`` over the indices offset by ``r * dim``.
    """
    rows, k = indices.shape
    flat = (indices + np.arange(0, rows * dim, dim)[:, None]).ravel()
    return np.bincount(flat, minlength=rows * dim).reshape(rows, dim) / k


def vertex_uniforms(rng: RngStream, shape) -> np.ndarray:
    """Uniforms of ``shape`` from ``rng``, each charged as one release on ``rng.vertex_draws``.

    Every vertex draw inverts one of these; ``random(n)`` gives the bits of n
    scalar calls, so a block drawn ahead equals the draws taken one at a time.
    """
    u = rng.gen.random(shape)
    rng.vertex_draws += u.size
    return u


def sample_vertex_indices(coords: np.ndarray, k: int, rng: RngStream) -> np.ndarray:
    """Draw ``k`` iid vertex indices from ``coords``; count them on ``rng.vertex_draws``."""
    return inverse_cdf(coords.cumsum(), vertex_uniforms(rng, k))


def sample_vertex(x: SimplexPoint, rng: RngStream) -> int:
    """Draw one vertex index i with probability ``x.coords[i]``."""
    return int(sample_vertex_indices(x.coords, 1, rng)[0])


def sparsify(x: SimplexPoint, k: int, rng: RngStream) -> SimplexPoint:
    """Average of ``k`` iid one-hot vertex draws from ``x``.

    The result has at most ``k`` nonzero coordinates, each a multiple of
    ``1/k``, and is unbiased for ``x``.
    """
    if k < 1:
        raise ValueError(f"sparsification needs at least one draw, got k={k}")
    counts = np.bincount(sample_vertex_indices(x.coords, k, rng), minlength=x.dim)
    return _frozen(SimplexPoint, "coords", counts / k)


def running_average(w_prev: SimplexPoint | None, x_t: SimplexPoint, t: int) -> SimplexPoint:
    """Exact running mean ``((t-1) * w_prev + x_t) / t``.

    Successive averages move slowly: the 1-norm distance to ``w_prev`` is at
    most ``2/t``.
    """
    if t < 1:
        raise ValueError(f"running average needs t >= 1, got {t}")
    if t == 1:
        return x_t
    if w_prev is None:
        raise ValueError("w_prev is required for t >= 2")
    if w_prev.coords.shape != x_t.coords.shape:
        raise ValueError("running average of points of different dimensions")
    return _frozen(SimplexPoint, "coords", ((t - 1) * w_prev.coords + x_t.coords) / t)
