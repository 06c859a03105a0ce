import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsimplex.rng import RngStream
from dpsimplex.simplex import GUIDE_BUCKETS, _guide_search, inverse_cdf
from dpsimplex.verify import (
    MIN_REPS,
    SUITE_NAMES,
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
