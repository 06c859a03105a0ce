"""Probability-simplex arithmetic with log-domain iterates.

Multiplicative-weights iterates are stored as unnormalized log-weights and
normalized only on read (:func:`to_point`). Composing update steps is then
exact addition of cumulative score vectors, which the privacy audits rely on;
renormalizing after every step would drift and destroy that view.

Every solver runs the one step loop, :func:`mirror_descent`, on raw float64
arrays: each rule (:func:`to_point`, :func:`mwu_step`, :func:`running_average`)
takes a (d,) vector or an (R, d) batch of iterates, and row by row a batch
gives the bits of the 1-d form. Points cross function boundaries inside the
package as such arrays; :class:`SimplexPoint` checks only the points callers
build and the points solvers return.

Vertex draws, the bias-reduced level draw and ``verify`` all invert a CDF with
one uniform per draw, through the package's one inversion, :func:`inverse_cdf`.
Vertex uniforms come from :func:`vertex_uniforms`, which charges each one on the
stream as a release. :func:`release_rows` and :func:`mean_one_hots` release from
and sparsify an (R, d) block, row r on its own stream, and :func:`inverse_cdf_rows`
inverts every row of it (and of the vertex kernel's tape) in one call;
:func:`sample_vertex` and :func:`sparsify` are the one-point forms.

:func:`column_sum` adds (B, d) row blocks into numpy's ``sum(axis=0)`` of the
stacked rows, bit for bit; ``verify``'s block statistics and ``synth``'s query
answers hold one block at a time through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .rng import RngStream

SIMPLEX_SUM_TOL = 1e-9
GUIDE_BUCKETS = 4096  # a power of two, so u * GUIDE_BUCKETS is exact


@dataclass(frozen=True)
class SimplexPoint:
    """A probability vector on the standard simplex.

    Coordinates are validated on construction (nonnegative, summing to one
    within ``SIMPLEX_SUM_TOL``) and frozen read-only. A point is built where
    it enters the package or a solution leaves a solver; inside, points are
    plain float64 arrays.
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

    @classmethod
    def uniform(cls, dim: int) -> "SimplexPoint":
        return cls(np.full(dim, 1.0 / dim))

    @classmethod
    def vertex(cls, dim: int, index: int) -> "SimplexPoint":
        e = np.zeros(dim)
        e[index] = 1.0
        return cls(e)


def to_point(logw: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis: each row of log-weights to a simplex point.

    Works on one (d,) vector or an (R, d) batch and returns a new read-only
    array. Stable for log-weight spreads of +-1e4 and invariant under adding
    a constant to every entry of a row.
    """
    # the ufuncs' reduce is what ndarray.max/sum run, without their Python-level wrappers
    e = np.exp(logw - np.maximum.reduce(logw, axis=-1, keepdims=True))
    x = e / np.add.reduce(e, axis=-1, keepdims=True)
    x.setflags(write=False)
    return x


def mwu_step(logw: np.ndarray, g: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """The multiplicative-weights step in log domain: ``logw + tau * g``, a new read-only array.

    The caller carries the sign: pass the negated gradient for descent and
    the raw gradient for ascent. Steps compose additively, so k single steps
    equal one cumulative step in log domain. A (d,) gradient steps every row
    of an (R, d) batch; a gradient of another width raises ``ValueError``, and
    so do a step size that is not positive and finite and a non-finite result
    (a NaN or infinite gradient, or an overflowing step). The raises are
    explicit, so they hold under ``python -O``.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"step size must be positive and finite, got {tau!r}")
    if g.shape[-1:] != logw.shape[-1:]:
        raise ValueError(f"gradient shape {g.shape} does not match {logw.shape}")
    new_logw = logw + tau * g
    if not np.isfinite(new_logw).all():
        raise ValueError("mwu step needs a finite gradient and a step that does not overflow")
    new_logw.setflags(write=False)
    return new_logw


def mirror_descent(dims: tuple[int, ...], rows: int, tau: float, schedule, step) -> int:
    """The loop every solver runs: entropic mirror descent on blocks of sizes ``dims``.

    The multiplicative-weights step of Beck & Teboulle (2003) on each simplex
    block, run as the saddle SMD of Nemirovski, Juditsky, Lan & Shapiro (2009)
    on two blocks and as online learning on one. Each block's log-weights
    start at zero, as one (rows, d) array; the runs share ``tau`` and the
    schedule. ``schedule`` yields one item per step, and ending it ends the
    run. ``step(item, *points)`` gets each block's iterates (:func:`to_point`,
    (rows, d) each) and returns the direction each block's log-weights move
    along (:func:`mwu_step`): the negated gradient for descent. What a run
    releases, averages or records is the step's business.

    Returns the number of steps. A run of zero steps raises
    :class:`~dpsimplex.errors.BudgetError`.
    """
    logw = [np.zeros((rows, d)) for d in dims]
    taus = [tau] * len(dims)
    steps = 0
    for item in schedule:
        directions = step(item, *map(to_point, logw))
        logw = list(map(mwu_step, logw, directions, taus))
        steps += 1
    if steps == 0:
        raise BudgetError("schedule too short to execute a single step")
    return steps


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

    One ``bincount`` over the indices offset by ``r * dim`` (one row needs no offset).
    """
    rows, k = indices.shape
    if rows > 1:
        indices = indices + np.arange(0, rows * dim, dim)[:, None]
    return np.bincount(indices.ravel(), minlength=rows * dim).reshape(rows, dim) / k


def column_sum(blocks) -> np.ndarray:
    """The column sums of the stacked row blocks, bit for bit numpy's ``sum(axis=0)``.

    numpy adds the rows of an axis-0 reduction one after another (pairwise
    summation runs only along the fast axis), so adding the running sum into
    the first row of the next block continues the same sum. The blocks are
    consumed in place.
    """
    total = None
    for block in blocks:
        if total is not None:
            block[0] += total
        total = np.add.reduce(block, axis=0)
    return total


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


def release_rows(points: np.ndarray, k: int, rngs: list[RngStream]) -> np.ndarray:
    """(R, k) vertex indices: row r holds ``k`` iid draws from ``points[r]`` (R, d).

    Each row draws and charges its ``k`` uniforms on ``rngs[r]``
    (:func:`vertex_uniforms`), so a stream gives the same draws in a block of
    points as on its own; one :func:`inverse_cdf_rows` call inverts every row.
    """
    u = np.array([vertex_uniforms(rng, k) for rng in rngs])
    return inverse_cdf_rows(points.cumsum(axis=1), u)


def sample_vertex(x: np.ndarray, rng: RngStream) -> int:
    """Draw one vertex index i with probability ``x[i]``."""
    return int(sample_vertex_indices(x, 1, rng)[0])


def sparsify(x: np.ndarray, k: int, rng: RngStream) -> np.ndarray:
    """Average of ``k`` iid one-hot vertex draws from ``x``, a new read-only (d,) array.

    The result has at most ``k`` nonzero coordinates, each a multiple of
    ``1/k``, and is unbiased for ``x``.
    """
    if k < 1:
        raise ValueError(f"sparsification needs at least one draw, got k={k}")
    s = np.bincount(sample_vertex_indices(x, k, rng), minlength=x.size) / k
    s.setflags(write=False)
    return s


def running_average(w_prev: np.ndarray | None, x_t: np.ndarray, t: int) -> np.ndarray:
    """Exact running mean ``((t-1) * w_prev + x_t) / t`` of simplex points, read-only.

    Successive averages move slowly: the 1-norm distance to ``w_prev`` is at
    most ``2/t``.
    """
    if t < 1:
        raise ValueError(f"running average needs t >= 1, got {t}")
    if t == 1:
        return x_t
    if w_prev is None:
        raise ValueError("w_prev is required for t >= 2")
    if w_prev.shape != x_t.shape:
        raise ValueError("running average of points of different dimensions")
    w = ((t - 1) * w_prev + x_t) / t
    w.setflags(write=False)
    return w
