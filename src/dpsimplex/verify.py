"""Monte-Carlo verification of the sparsification error bounds.

Seven suites check, on built-in test functions with hand-derived constants,
that averaging iid vertex draws approximates function values and gradients at
the advertised rates. Each suite reports the measured statistic, the analytic
bound, and a 3-sigma Monte-Carlo allowance; a suite passes when
``measured <= bound + slack``. Failing is a report outcome, not an exception.

The kernel, ``_sparsified_counts``, inverts each CDF by the guide table of
:func:`~dpsimplex.simplex.inverse_cdf`, not by the solvers' binary search, and
counts no releases; the alias method is faster but would change the draws.
It returns the (reps, d) integer vertex counts, reps·d bytes (uint8 for
T < 256). No suite builds the (reps, d) float64 array of empirical means:
each walks the counts in blocks of ``BLOCK_ROWS`` rows, ``counts[s:s+B] / T``
(400 KB at d = 50), and holds the counts plus about one block: a traced peak
under 10 MB per suite at 10^5 reps. Per-rep statistics are computed per block
and written into one preallocated (reps,) vector; column means and
standard deviations equal numpy's whole-array ``mean(axis=0)`` and
``std(axis=0, ddof=1)`` bit for bit (``_bias_sigma``).

Test functions and their constants on the simplex (gradients w.r.t. the
1-norm, so Lipschitz constants are sup-norm bounds):

* quadratic  F(x) = sum x_j^2:    L0 = 2, L1 = 2, L2 = 0
* cubic      F(x) = sum x_j^3:    L0 = 3, L1 = 6 (|3a^2-3b^2| <= 6|a-b| for
  a, b in [0,1]), L2 = 6 (each partial 3x_j^2 has gradient 6x_j e_j)
* hinge-quadratic F(x) = sum max(x_j - c, 0)^2: L0 = 2, L1 = 2, and no finite
  L2 (the partials' gradients jump at x_j = c), exercising the first-order-only
  bounds with genuinely nonzero bias
* squared linear family F_j(x) = <c_j, x>^2 with |c_j|_inf <= 1: L0 = 2, L1 = 2
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .rng import RngStream
from .simplex import column_sum, inverse_cdf

MIN_REPS = 10_000
MAX_REPS = 10_000_000  # a suite holds about 92 B per rep: a 0.9 GB peak here
SIGMA_MULT = 3.0  # a suite passes when measured <= bound + SIGMA_MULT * its standard error
BLOCK_ROWS = 1024  # rows of empirical means held as float64 at once (400 KB at d = 50)

@dataclass(frozen=True)
class SuiteReport:
    suite: str
    measured: float
    bound: float
    slack: float
    passed: bool
    reps: int
    warning: str | None = None
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


# ---- test functions (vectorized over rows) --------------------------------


def _quad_value(p):
    return np.sum(p * p, axis=-1)


def _quad_grad(p):
    return 2.0 * p


def _cubic_grad(p):
    g = 3.0 * p
    g *= p
    return g


def _hinge_grad(p, c):
    g = p - c
    np.maximum(g, 0.0, out=g)
    g *= 2.0
    return g


# ---- sampling machinery ----------------------------------------------------


def _fixed_sequence(d: int, T: int, rng: RngStream) -> np.ndarray:
    """A fixed sequence of interior simplex points shared by all reps."""
    return rng.gen.dirichlet(np.ones(d), size=T)


def _sparsified_counts(xs: np.ndarray, reps: int, rng: RngStream) -> np.ndarray:
    """For each rep draw one vertex per sequence element and count the draws.

    Returns an integer array of shape (reps, d): row r counts how often each
    vertex came up in T iid one-hot draws, one from each distribution in
    ``xs``. Element t takes one uniform per rep, in rep order, from ``rng``
    and inverts its CDF with ``inverse_cdf``.
    """
    T, d = xs.shape
    counts = np.zeros((reps, d), dtype=np.min_scalar_type(T))
    flat = counts.reshape(-1)
    row_starts = np.arange(0, reps * d, d)
    cdfs = np.cumsum(xs, axis=1)
    for t in range(T):
        idx = inverse_cdf(cdfs[t], rng.gen.random(reps))
        idx += row_starts
        np.add.at(flat, idx, flat.dtype.type(1))  # one index per row, so no target repeats
    return counts


def _sparsified_means(xs: np.ndarray, reps: int, rng: RngStream) -> np.ndarray:
    """The (reps, d) empirical means: an entry is k / T correctly rounded."""
    return _sparsified_counts(xs, reps, rng) / xs.shape[0]


def _blocks(counts: np.ndarray, T: int):
    """Yield the empirical means ``counts / T`` in blocks of ``BLOCK_ROWS`` rows."""
    for start in range(0, counts.shape[0], BLOCK_ROWS):
        yield counts[start:start + BLOCK_ROWS] / T


def _joined(reps: int, parts) -> np.ndarray:
    """The per-block vectors ``parts`` written one after another into one (reps,) vector."""
    out, stop = np.empty(reps), 0
    for part in parts:
        out[stop:stop + part.size] = part
        stop += part.size
    return out


def _per_rep(counts: np.ndarray, T: int, stat) -> np.ndarray:
    """``stat`` of each block of empirical means, joined into one (reps,) vector."""
    return _joined(counts.shape[0], (stat(abar) for abar in _blocks(counts, T)))


def _grad_errors(counts: np.ndarray, T: int, grad, at: np.ndarray):
    """Yield ``grad(abar) - grad(at)`` for each block of empirical means abar."""
    g_at = grad(at)
    for abar in _blocks(counts, T):
        err = grad(abar)
        err -= g_at
        yield err


def _mean_sigma(per_rep: np.ndarray) -> float:
    return float(per_rep.std(ddof=1)) / math.sqrt(per_rep.shape[0])


def _bias_sigma(counts: np.ndarray, T: int, grad, at: np.ndarray) -> tuple[float, float]:
    """The largest |column mean| of ``grad(abar) - grad(at)`` and its sigma.

    Equal bit for bit to ``diffs.mean(axis=0)`` and ``diffs.std(axis=0,
    ddof=1)`` of the whole (reps, d) array: the second pass recomputes each
    block from the counts and follows numpy's variance steps (subtract the
    mean, square in place, sum, divide by reps - 1, square root).
    """
    reps = counts.shape[0]
    bias = column_sum(_grad_errors(counts, T, grad, at)) / reps
    squares = (np.square(np.subtract(err, bias, out=err), out=err)
               for err in _grad_errors(counts, T, grad, at))
    std = np.sqrt(column_sum(squares) / (reps - 1))
    return float(np.abs(bias).max()), float(std.max()) / math.sqrt(reps)


def _sup_sq_errors(counts: np.ndarray, T: int, grad, at: np.ndarray) -> np.ndarray:
    """``max_j |grad(abar) - grad(at)|_j^2`` for each rep."""
    return _joined(counts.shape[0], (np.abs(err, out=err).max(axis=1) ** 2
                                     for err in _grad_errors(counts, T, grad, at)))


# ---- suites ----------------------------------------------------------------


def _suite_value_bias(reps, rng, d=50, T=64):
    L1 = 2.0
    xs = _fixed_sequence(d, T, rng.child("seq"))
    counts = _sparsified_counts(xs, reps, rng.child("draws"))
    stat = _per_rep(counts, T, _quad_value) - _quad_value(xs.mean(axis=0))
    measured = abs(float(stat.mean()))
    bound = 2.0 * L1 / T
    sigma = _mean_sigma(stat)
    return measured, bound, sigma, {"d": d, "T": T, "L1": L1, "mean": float(stat.mean())}


def _suite_grad_bias_second_order(reps, rng, d=50, K=64):
    L2 = 6.0
    x = rng.child("point").gen.dirichlet(np.ones(d))
    counts = _sparsified_counts(np.tile(x, (K, 1)), reps, rng.child("draws"))
    measured, sigma = _bias_sigma(counts, K, _cubic_grad, x)
    bound = 2.0 * L2 / K
    return measured, bound, sigma, {"d": d, "K": K, "L2": L2}


def _suite_grad_bias_first_order(reps, rng, d=50, K=64):
    L1 = 2.0
    c = 1.0 / d  # kink sits where coordinates concentrate, so the bias is real
    x = rng.child("point").gen.dirichlet(np.ones(d))
    counts = _sparsified_counts(np.tile(x, (K, 1)), reps, rng.child("draws"))
    measured, sigma = _bias_sigma(counts, K, lambda p: _hinge_grad(p, c), x)
    bound = 4.0 * L1 / math.sqrt(K)
    return measured, bound, sigma, {"d": d, "K": K, "L1": L1, "kink": c}


def _suite_value_tail(reps, rng, d=50, T=64):
    L0, L1, D = 2.0, 2.0, 2.0
    xs = _fixed_sequence(d, T, rng.child("seq"))
    counts = _sparsified_counts(xs, reps, rng.child("draws"))
    dev = _per_rep(counts, T, _quad_value) - _quad_value(xs.mean(axis=0))
    lam2 = 1.0 / T  # sum of squared uniform averaging weights
    details = {}
    rows = []
    for beta in (1.0, 2.0):
        threshold = 0.5 * L1 * D * D * lam2 + beta * math.sqrt(2.0) * L0 * D * math.sqrt(lam2)
        freq = float((dev >= threshold).mean())
        bound = math.exp(-beta * beta)
        sigma = math.sqrt(bound * (1.0 - bound) / reps)
        details[f"beta={beta:g}"] = {"freq": freq, "bound": bound, "sigma": sigma}
        rows.append((freq - bound, freq, bound, sigma))
    _, freq, bound, sigma = max(rows)
    return freq, bound, sigma, details


def _suite_max_error_moment(reps, rng, d=50, T=64, M=16):
    L0, L1, D = 2.0, 2.0, 2.0
    cs = (rng.child("family").gen.integers(0, 2, size=(M, d)) * 2 - 1).astype(float)
    xs = _fixed_sequence(d, T, rng.child("seq"))
    counts = _sparsified_counts(xs, reps, rng.child("draws"))
    fx = (xs.mean(axis=0) @ cs.T) ** 2
    stat = _per_rep(counts, T, lambda abar: np.max(np.abs((abar @ cs.T) ** 2 - fx) ** 2, axis=1))
    measured = float(stat.mean())
    lam2 = 1.0 / T
    bound = 0.5 * L1**2 * D**4 * lam2**2 + 2.0 * L0**2 * D**2 * (4.0 + math.log(M)) * lam2
    sigma = _mean_sigma(stat)
    return measured, bound, sigma, {"d": d, "T": T, "M": M}


def _suite_grad_error_moment_second_order(reps, rng, d=50, T=64):
    L1, L2 = 6.0, 6.0
    xs = _fixed_sequence(d, T, rng.child("seq"))
    counts = _sparsified_counts(xs, reps, rng.child("draws"))
    stat = _sup_sq_errors(counts, T, _cubic_grad, xs.mean(axis=0))
    measured = float(stat.mean())
    bound = 8.0 * L2**2 / T**2 + 8.0 * L1**2 * (4.0 + math.log(d)) / T
    sigma = _mean_sigma(stat)
    return measured, bound, sigma, {"d": d, "T": T, "L1": L1, "L2": L2}


def _suite_grad_error_moment_first_order(reps, rng, d=50, T=64):
    L0, L1 = 2.0, 2.0
    xs = _fixed_sequence(d, T, rng.child("seq"))
    counts = _sparsified_counts(xs, reps, rng.child("draws"))
    stat = _sup_sq_errors(counts, T, _quad_grad, xs.mean(axis=0))
    measured = float(stat.mean())
    logd = 4.0 + math.log(d)
    bound = 8.0 * math.sqrt(2.0) * L1**2 / (T**1.5 * math.sqrt(logd)) + 8.0 * math.sqrt(
        2.0
    ) * (L0**2 + L1**2) * math.sqrt(logd) / math.sqrt(T)
    sigma = _mean_sigma(stat)
    return measured, bound, sigma, {"d": d, "T": T, "L0": L0, "L1": L1}


_SUITES = {
    "value_bias": _suite_value_bias,
    "grad_bias_second_order": _suite_grad_bias_second_order,
    "grad_bias_first_order": _suite_grad_bias_first_order,
    "value_tail": _suite_value_tail,
    "max_error_moment": _suite_max_error_moment,
    "grad_error_moment_second_order": _suite_grad_error_moment_second_order,
    "grad_error_moment_first_order": _suite_grad_error_moment_first_order,
}
SUITE_NAMES = tuple(_SUITES)


def verify_maurey_suite(name: str, reps: int, rng: RngStream) -> SuiteReport:
    """Run one sparsification verification suite; unknown names raise ValueError.

    The Monte-Carlo allowance added to the analytic bound is ``SIGMA_MULT``
    standard errors of the measured statistic.
    """
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if reps < 2:
        raise ValueError("need at least 2 repetitions")
    measured, bound, sigma, details = _SUITES[name](reps, rng.child(name))
    slack = SIGMA_MULT * sigma
    warning = None
    if reps < MIN_REPS:
        warning = f"only {reps} reps; results below the recommended minimum of {MIN_REPS}"
    return SuiteReport(
        suite=name,
        measured=measured,
        bound=bound,
        slack=slack,
        passed=bool(measured <= bound + slack),
        reps=reps,
        warning=warning,
        details=details,
    )


def run_all_suites(reps: int, rng: RngStream) -> list[SuiteReport]:
    return [verify_maurey_suite(name, reps, rng) for name in SUITE_NAMES]
