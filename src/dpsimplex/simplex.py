"""Probability-simplex arithmetic with log-domain iterates.

Multiplicative-weights iterates are stored as unnormalized log-weights and
normalized only on read (:func:`to_point`). Composing update steps is then
exact addition of cumulative score vectors, which the privacy audits rely on;
renormalizing after every step would drift and destroy that view.

Vertex sampling uses inverse-CDF with a single uniform draw per vertex; ties
at CDF boundaries resolve to the lower index, so draw sequences are
bit-reproducible for a fixed stream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream

SIMPLEX_SUM_TOL = 1e-9


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


def to_point(w: LogWeights) -> SimplexPoint:
    """Normalize log-weights into a simplex point (max-shifted softmax).

    Stable for log-weight spreads of +-1e4 and invariant under adding a
    constant to every entry.
    """
    e = np.exp(w.logw - w.logw.max())
    return _frozen(SimplexPoint, "coords", e / e.sum())


def mwu_step(w: LogWeights, g: np.ndarray, tau: float = 1.0) -> LogWeights:
    """Add ``tau * g`` to the log-weights.

    The caller carries the sign: pass the negated gradient for descent and
    the raw gradient for ascent. Steps compose additively, so k single steps
    equal one cumulative step in log domain. A non-finite gradient, or a step
    that overflows, raises ``ValueError``.
    """
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"step size must be positive and finite, got {tau!r}")
    g = np.asarray(g, dtype=np.float64)
    if g.shape != w.logw.shape:
        raise ValueError(f"gradient shape {g.shape} does not match {w.logw.shape}")
    new_logw = w.logw + tau * g
    if not np.isfinite(new_logw).all():
        raise ValueError("mwu step needs a finite gradient and a step that does not overflow")
    return _frozen(LogWeights, "logw", new_logw)


def sample_vertex_indices(coords: np.ndarray, k: int, rng: RngStream) -> np.ndarray:
    """Draw ``k`` iid vertex indices from the distribution given by ``coords``."""
    cdf = coords.cumsum()
    u = rng.gen.random(k)
    idx = cdf.searchsorted(u, side="left")
    # float cumsum can land just below 1.0; clamp the (measure-zero) overflow
    return np.minimum(idx, coords.size - 1)


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
