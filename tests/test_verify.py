import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsimplex import verify
from dpsimplex.rng import RngStream
from dpsimplex.simplex import GUIDE_BUCKETS, _guide_search, inverse_cdf
from dpsimplex.verify import (
    BLOCK_ROWS,
    MIN_REPS,
    SUITE_NAMES,
    _cubic_grad,
    _fixed_sequence,
    _hinge_grad,
    _mean_sigma,
    _quad_grad,
    _quad_value,
    _sparsified_means,
    run_all_suites,
    verify_maurey_suite,
)

FAST_REPS = 20_000


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_at_fast_reps(name):
    report = verify_maurey_suite(name, FAST_REPS, RngStream(0))
    assert report.passed, f"{name}: measured={report.measured} bound={report.bound}"
    assert report.measured <= report.bound + report.slack
    assert report.reps == FAST_REPS


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify_maurey_suite("nope", FAST_REPS, RngStream(0))


def test_low_reps_flagged_as_warning_not_failure():
    report = verify_maurey_suite("value_bias", 100, RngStream(1))
    assert report.warning is not None
    assert "100" in report.warning
    # low reps weaken the check but do not flip it into an error
    assert isinstance(report.passed, bool)


def test_reports_are_deterministic():
    a = verify_maurey_suite("max_error_moment", 5_000, RngStream(2)).as_dict()
    b = verify_maurey_suite("max_error_moment", 5_000, RngStream(2)).as_dict()
    assert a == b


def test_suites_use_independent_streams():
    a = verify_maurey_suite("value_bias", 5_000, RngStream(3))
    b = verify_maurey_suite("grad_error_moment_first_order", 5_000, RngStream(3))
    assert a.measured != b.measured


def test_run_all_covers_every_suite():
    reports = run_all_suites(FAST_REPS, RngStream(4))
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    assert all(r.passed for r in reports)


def test_value_bias_bound_is_the_documented_constant():
    # quadratic test function on 50 coordinates averaged over 64 draws:
    # bound = 2 L1 / T = 2 * 2 / 64
    report = verify_maurey_suite("value_bias", FAST_REPS, RngStream(5))
    assert report.bound == pytest.approx(0.0625)
    assert report.details["T"] == 64 and report.details["d"] == 50


def test_min_reps_constant_visible():
    assert MIN_REPS == 10_000


# ---- the sampling kernel ---------------------------------------------------


def _loop_sparsified_means(xs, reps, rng):
    """The reference kernel: binary search per draw, float adds per draw."""
    T, d = xs.shape
    out = np.zeros((reps, d))
    rows = np.arange(reps)
    cdfs = np.cumsum(xs, axis=1)
    for t in range(T):
        u = rng.gen.random(reps)
        idx = np.minimum(np.searchsorted(cdfs[t], u, side="left"), d - 1)
        np.add.at(out, (rows, idx), 1.0 / T)
    return out


@given(
    d=st.integers(1, 200),
    shape=st.sampled_from(["dirichlet", "zeros", "spike"]),
    total=st.sampled_from([1.0, 1.0 - 2.0**-40, 0.75]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_guide_search_equals_searchsorted(d, shape, total, seed):
    gen = np.random.default_rng(seed)
    x = gen.dirichlet(np.ones(d))
    if shape == "zeros":  # repeated CDF entries
        x[gen.random(d) < 0.5] = 0.0
        x[gen.integers(d)] += 0.5
    elif shape == "spike":  # one bucket holds many entries
        x *= 1e-6
        x[gen.integers(d)] = 1.0
    cdf = np.cumsum(x / x.sum()) * total  # total < 1 leaves u above the last entry
    edges = np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS
    near = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)])
    u = np.concatenate([[0.0, 1.0 - 2.0**-53], edges, near, gen.random(500)])
    u = u[(u >= 0.0) & (u < 1.0)]
    expected = np.minimum(cdf.searchsorted(u, side="left"), d - 1)
    np.testing.assert_array_equal(_guide_search(cdf, u), expected)
    for size in (GUIDE_BUCKETS - 1, GUIDE_BUCKETS):  # both sides of the draw bound
        v = np.resize(u, size)
        expected = np.minimum(cdf.searchsorted(v, side="left"), d - 1)
        np.testing.assert_array_equal(inverse_cdf(cdf, v), expected)


@pytest.mark.parametrize("T", [1, 64, 256])
def test_sparsified_means_equal_the_reference_loop(T):
    # power-of-two T: k adds of 1/T are exact, so the two kernels agree bit for bit
    xs = RngStream(6).gen.dirichlet(np.ones(30), size=T)
    new = _sparsified_means(xs, 2_000, RngStream(7))
    np.testing.assert_array_equal(new, _loop_sparsified_means(xs, 2_000, RngStream(7)))


@pytest.mark.parametrize("T", [255, 256, 300])
def test_sparsified_counts_do_not_overflow(T):
    xs = np.zeros((T, 5))
    xs[:, 2] = 1.0  # every draw lands on coordinate 2: a count of T
    expected = np.zeros((500, 5))
    expected[:, 2] = 1.0
    np.testing.assert_array_equal(_sparsified_means(xs, 500, RngStream(8)), expected)


def test_sparsified_means_are_unbiased_and_sum_to_one():
    # a sampler that shifts each draw by one coordinate passes all seven suites;
    # the column means see it
    T, d, reps = 64, 50, 20_000
    xs = RngStream(9).gen.dirichlet(np.ones(d), size=T)
    abar = _sparsified_means(xs, reps, RngStream(10))
    np.testing.assert_array_equal(abar.sum(axis=1), 1.0)
    sigma = np.sqrt((xs * (1.0 - xs)).sum(axis=0) / T**2 / reps)
    z = np.abs(abar.mean(axis=0) - xs.mean(axis=0)) / sigma
    assert z.max() < 5.0, f"coordinate {z.argmax()} is {z.max():.1f} sigma off"


def _report_digest(reports):
    doc = json.dumps([r.as_dict() for r in reports], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.mark.parametrize("seed,digest", [
    (0, "e20ee3292143c1960433f46468b306d9ee38f48cd12aebad6cac22b8981bd823"),
    (1, "d7c04d2f9f383aec20a88b9528db446de3bbef9c214ff32f8175d5ec71e89e04"),
])
def test_all_suites_report_is_pinned(seed, digest):
    # a faster kernel must make the same draws and report the same bytes
    assert _report_digest(run_all_suites(FAST_REPS, RngStream(seed))) == digest


def test_single_suite_report_is_pinned():
    report = verify_maurey_suite("grad_bias_first_order", FAST_REPS, RngStream(2))
    assert _report_digest([report]) == (
        "31f429e7dcae1bebe0caf7c765ac833ebbd1b258af35c42efe1752fc5f2fd274")


# ---- the block statistics --------------------------------------------------
#
# The suites as they were written on the whole (reps, d) array of empirical
# means: the reference the row-block statistics must equal bit for bit.


def _whole_value_bias(reps, rng, d=50, T=64):
    L1 = 2.0
    xs = _fixed_sequence(d, T, rng.child("seq"))
    abar = _sparsified_means(xs, reps, rng.child("draws"))
    xbar = xs.mean(axis=0)
    stat = _quad_value(abar) - _quad_value(xbar)
    measured = abs(float(stat.mean()))
    bound = 2.0 * L1 / T
    sigma = _mean_sigma(stat)
    return measured, bound, sigma, {"d": d, "T": T, "L1": L1, "mean": float(stat.mean())}


def _whole_grad_bias_second_order(reps, rng, d=50, K=64):
    L2 = 6.0
    x = rng.child("point").gen.dirichlet(np.ones(d))
    abar = _sparsified_means(np.tile(x, (K, 1)), reps, rng.child("draws"))
    diffs = _cubic_grad(abar) - _cubic_grad(x)
    bias = diffs.mean(axis=0)
    measured = float(np.abs(bias).max())
    bound = 2.0 * L2 / K
    sigma = float(diffs.std(axis=0, ddof=1).max()) / math.sqrt(reps)
    return measured, bound, sigma, {"d": d, "K": K, "L2": L2}


def _whole_grad_bias_first_order(reps, rng, d=50, K=64):
    L1 = 2.0
    c = 1.0 / d
    x = rng.child("point").gen.dirichlet(np.ones(d))
    abar = _sparsified_means(np.tile(x, (K, 1)), reps, rng.child("draws"))
    diffs = _hinge_grad(abar, c) - _hinge_grad(x, c)
    bias = diffs.mean(axis=0)
    measured = float(np.abs(bias).max())
    bound = 4.0 * L1 / math.sqrt(K)
    sigma = float(diffs.std(axis=0, ddof=1).max()) / math.sqrt(reps)
    return measured, bound, sigma, {"d": d, "K": K, "L1": L1, "kink": c}


def _whole_value_tail(reps, rng, d=50, T=64):
    L0, L1, D = 2.0, 2.0, 2.0
    xs = _fixed_sequence(d, T, rng.child("seq"))
    abar = _sparsified_means(xs, reps, rng.child("draws"))
    xbar = xs.mean(axis=0)
    dev = _quad_value(abar) - _quad_value(xbar)
    lam2 = 1.0 / T
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


def _whole_max_error_moment(reps, rng, d=50, T=64, M=16):
    L0, L1, D = 2.0, 2.0, 2.0
    cs = (rng.child("family").gen.integers(0, 2, size=(M, d)) * 2 - 1).astype(float)
    xs = _fixed_sequence(d, T, rng.child("seq"))
    abar = _sparsified_means(xs, reps, rng.child("draws"))
    xbar = xs.mean(axis=0)
    fa = (abar @ cs.T) ** 2
    fx = (xbar @ cs.T) ** 2
    stat = np.max(np.abs(fa - fx) ** 2, axis=1)
    measured = float(stat.mean())
    lam2 = 1.0 / T
    bound = 0.5 * L1**2 * D**4 * lam2**2 + 2.0 * L0**2 * D**2 * (4.0 + math.log(M)) * lam2
    sigma = _mean_sigma(stat)
    return measured, bound, sigma, {"d": d, "T": T, "M": M}


def _whole_grad_error_moment_second_order(reps, rng, d=50, T=64):
    L1, L2 = 6.0, 6.0
    xs = _fixed_sequence(d, T, rng.child("seq"))
    abar = _sparsified_means(xs, reps, rng.child("draws"))
    xbar = xs.mean(axis=0)
    err = _cubic_grad(abar) - _cubic_grad(xbar)
    stat = np.abs(err).max(axis=1) ** 2
    measured = float(stat.mean())
    bound = 8.0 * L2**2 / T**2 + 8.0 * L1**2 * (4.0 + math.log(d)) / T
    sigma = _mean_sigma(stat)
    return measured, bound, sigma, {"d": d, "T": T, "L1": L1, "L2": L2}


def _whole_grad_error_moment_first_order(reps, rng, d=50, T=64):
    L0, L1 = 2.0, 2.0
    xs = _fixed_sequence(d, T, rng.child("seq"))
    abar = _sparsified_means(xs, reps, rng.child("draws"))
    xbar = xs.mean(axis=0)
    err = _quad_grad(abar) - _quad_grad(xbar)
    stat = np.abs(err).max(axis=1) ** 2
    measured = float(stat.mean())
    logd = 4.0 + math.log(d)
    bound = 8.0 * math.sqrt(2.0) * L1**2 / (T**1.5 * math.sqrt(logd)) + 8.0 * math.sqrt(
        2.0
    ) * (L0**2 + L1**2) * math.sqrt(logd) / math.sqrt(T)
    sigma = _mean_sigma(stat)
    return measured, bound, sigma, {"d": d, "T": T, "L0": L0, "L1": L1}


_WHOLE_ARRAY_SUITES = {
    "value_bias": _whole_value_bias,
    "grad_bias_second_order": _whole_grad_bias_second_order,
    "grad_bias_first_order": _whole_grad_bias_first_order,
    "value_tail": _whole_value_tail,
    "max_error_moment": _whole_max_error_moment,
    "grad_error_moment_second_order": _whole_grad_error_moment_second_order,
    "grad_error_moment_first_order": _whole_grad_error_moment_first_order,
}


@pytest.mark.parametrize("reps", [2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                  2 * BLOCK_ROWS + 3])
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_blocked_statistics_equal_the_whole_array_formulas(name, reps):
    # measured, bound, sigma and details, each float bit for bit
    blocked = verify._SUITES[name](reps, RngStream(11).child(name))
    assert blocked == _WHOLE_ARRAY_SUITES[name](reps, RngStream(11).child(name))


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_memory_peak_stays_under_16_mb(name):
    # 10^5 x 50 counts take 5 MB; one (reps, d) float64 array would add 40 MB
    tracemalloc.start()
    try:
        verify_maurey_suite(name, 100_000, RngStream(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"{name}: traced peak {peak / 2**20:.1f} MB"
