import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from dpsimplex import simplex
from dpsimplex.rng import RngStream
from dpsimplex.simplex import (
    GUIDE_BUCKETS,
    SimplexPoint,
    inverse_cdf,
    mwu_step,
    release_rows,
    running_average,
    sample_vertex,
    sample_vertex_indices,
    sparsify,
    to_point,
)
from dpsimplex.solvers import _tape


def coords(*values):
    return np.array(values, dtype=np.float64)


# ---- SimplexPoint invariants ------------------------------------------------


def test_simplex_point_validation():
    SimplexPoint(coords(0.2, 0.3, 0.5))
    with pytest.raises(ValueError):
        SimplexPoint(coords(0.5, 0.6))
    with pytest.raises(ValueError):
        SimplexPoint(coords(-0.1, 1.1))
    with pytest.raises(ValueError):
        SimplexPoint(coords(np.nan, 1.0))
    with pytest.raises(ValueError):
        SimplexPoint(np.array([]))


def test_simplex_point_is_immutable():
    p = SimplexPoint(coords(1.0, 0.0))
    with pytest.raises(ValueError):
        p.coords[0] = 0.5


def test_vertex_and_uniform():
    v = SimplexPoint.vertex(4, 2)
    assert v.coords[2] == 1.0 and v.coords.sum() == 1.0
    u = SimplexPoint.uniform(5)
    assert np.allclose(u.coords, 0.2)


# ---- to_point ----------------------------------------------------------------


def test_to_point_symmetry():
    assert np.allclose(to_point(coords(0, 0, 0)), 1 / 3)


def test_to_point_max_shift_stability():
    p = to_point(coords(1000.0, 0.0))
    assert p[0] == pytest.approx(1.0)
    p = to_point(coords(1e4, -1e4, 0.0))
    assert np.isfinite(p).all() and p.sum() == pytest.approx(1.0)


def test_to_point_direct_normalization():
    p = to_point(coords(math.log(1), math.log(3)))
    assert np.allclose(p, [0.25, 0.75], atol=1e-12)


@given(
    logw=st.lists(st.floats(-50, 50), min_size=1, max_size=8),
    shift=st.floats(-100, 100),
)
@settings(max_examples=200, deadline=None)
def test_to_point_scale_invariance(logw, shift):
    w = np.array(logw)
    shifted = np.array(logw) + shift
    assert np.allclose(to_point(w), to_point(shifted), atol=1e-12)


# ---- mwu_step ----------------------------------------------------------------


def test_mwu_zero_gradient_is_identity():
    w = coords(0.3, -0.2, 1.0)
    w2 = mwu_step(w, coords(0.0, 0.0, 0.0))
    assert np.allclose(to_point(w), to_point(w2))


def test_mwu_closed_form_softmax():
    w = np.zeros(2)
    w2 = mwu_step(w, coords(-math.log(2), 0.0))
    assert np.allclose(to_point(w2), [1 / 3, 2 / 3], atol=1e-12)


@given(
    g1=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    g2=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    tau=st.floats(0.01, 2.0),
)
@settings(max_examples=200, deadline=None)
def test_mwu_additivity(g1, g2, tau):
    w = coords(0.1, -0.4, 0.3)
    sequential = mwu_step(mwu_step(w, np.array(g1), tau), np.array(g2), tau)
    combined = mwu_step(w, np.array(g1) + np.array(g2), tau)
    assert np.allclose(to_point(sequential), to_point(combined), atol=1e-12)


def test_mwu_rejects_bad_inputs():
    w = np.zeros(2)
    with pytest.raises(ValueError):
        mwu_step(w, coords(np.inf, 0.0))
    with pytest.raises(ValueError):
        mwu_step(w, coords(0.0, 0.0), tau=0.0)
    with pytest.raises(ValueError):
        mwu_step(w, coords(0.0, 0.0), tau=-1.0)


def test_mwu_rejects_overflow_and_shape_mismatch():
    # one finiteness check on the new log-weights catches what the gradient
    # check caught, plus an overflowing step
    with pytest.raises(ValueError), np.errstate(over="ignore"):
        mwu_step(coords(1e308, 0.0), coords(1e308, 0.0))
    with pytest.raises(ValueError):
        mwu_step(np.zeros(3), coords(1.0))  # would broadcast
    with pytest.raises(ValueError):
        mwu_step(np.zeros(2), coords(-np.inf, 0.0))


# ---- iterates valid by construction ---------------------------------------------


@given(
    logw=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=60),
    k=st.integers(1, 50),
    t=st.integers(2, 10**6),
)
@settings(max_examples=300, deadline=None)
def test_loop_built_points_pass_the_public_check(logw, k, t):
    # to_point, sparsify and running_average skip validation; what they build
    # must still pass it
    x = to_point(np.array(logw))
    s = sparsify(x, k, RngStream(k))
    for p in (x, s, running_average(x, s, t)):
        assert np.array_equal(SimplexPoint(p).coords, p)


def test_loop_built_objects_are_read_only():
    w = mwu_step(np.zeros(3), coords(0.1, 0.2, 0.3))
    x = to_point(w)
    s = sparsify(x, 4, RngStream(8))
    for arr in (w, x, s, running_average(x, s, 2)):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_running_average_rejects_mismatched_dimensions():
    with pytest.raises(ValueError):
        running_average(coords(1.0), coords(0.5, 0.5), 2)


# ---- vertex sampling -----------------------------------------------------------


def test_sample_vertex_degenerate():
    x = coords(1.0, 0.0, 0.0)
    rng = RngStream(0)
    assert all(sample_vertex(x, rng) == 0 for _ in range(50))


def test_sample_vertex_fair_coin_frequency():
    # binomial 3-sigma band: 0.5 +- 3*sqrt(0.25/1e6) = 0.5 +- 0.0015
    x = SimplexPoint(coords(0.5, 0.5))
    idx = sample_vertex_indices(x.coords, 10**6, RngStream(1))
    freq = float(np.mean(idx == 0))
    assert abs(freq - 0.5) < 0.002


def test_sample_vertex_chi_square():
    probs = coords(0.2, 0.3, 0.5)
    idx = sample_vertex_indices(probs, 10**6, RngStream(2))
    observed = np.bincount(idx, minlength=3)
    chi2 = float(((observed - probs * 10**6) ** 2 / (probs * 10**6)).sum())
    assert chi2 < stats.chi2.ppf(0.999, df=2)


def test_sample_vertex_tie_resolves_low():
    # with u exactly at the boundary the lower index wins
    cdf_boundary = np.searchsorted(np.cumsum(coords(0.5, 0.5)), 0.5, side="left")
    assert cdf_boundary == 0


@pytest.mark.parametrize(
    "shape, draws, table",
    [
        ("flat", GUIDE_BUCKETS, True),
        ("flat", GUIDE_BUCKETS - 1, False),
        # all other entries share one bucket: a table lookup would take d steps
        ("near_vertex", GUIDE_BUCKETS, False),
    ],
)
def test_inverse_cdf_takes_the_guide_table_only_where_it_is_cheaper(
    monkeypatch, shape, draws, table
):
    d = 1000
    x = RngStream(8).gen.dirichlet(np.ones(d))
    if shape == "near_vertex":
        x = np.full(d, 1e-6 / (d - 1))
        x[0] = 1.0 - 1e-6
    cdf = x.cumsum()
    calls = []
    guide_search = simplex._guide_search
    monkeypatch.setattr(simplex, "_guide_search", lambda *a: calls.append(a) or guide_search(*a))
    u = RngStream(9).gen.random(draws)
    expected = np.minimum(cdf.searchsorted(u, side="left"), d - 1)
    np.testing.assert_array_equal(inverse_cdf(cdf, u), expected)
    assert bool(calls) == table


# ---- row-wise forms ---------------------------------------------------------------


@given(
    d=st.integers(1, 1000),
    rows=st.integers(1, 8),
    k=st.integers(1, 40),
    spread=st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_row_wise_forms_equal_the_1d_forms_bit_for_bit(d, rows, k, spread, seed):
    gen = np.random.default_rng(seed)
    logw = spread * gen.standard_normal((rows, d))
    g = gen.standard_normal((rows, d))
    u = gen.random((rows, k))
    points = simplex.to_point(logw)
    cdf = points.cumsum(axis=1)
    indices = simplex.inverse_cdf_rows(cdf, u)
    means = simplex.mean_one_hots(indices, d)
    stepped = simplex.mwu_step(logw, g, 0.37)
    row_sums = np.exp(logw - logw.max(axis=1, keepdims=True)).sum(axis=1)
    for r in range(rows):
        e = np.exp(logw[r] - logw[r].max())
        assert row_sums[r] == e.sum()
        assert np.array_equal(points[r], e / e.sum())
        assert np.array_equal(cdf[r], points[r].cumsum())
        assert np.array_equal(indices[r], inverse_cdf(points[r].cumsum(), u[r]))
        assert np.array_equal(means[r], np.bincount(indices[r], minlength=d) / k)
        assert np.array_equal(stepped[r], logw[r] + 0.37 * g[r])


def test_vertex_uniforms_charge_what_they_draw():
    rng, ref = RngStream(8), RngStream(8)
    u = simplex.vertex_uniforms(rng, (3, 4))
    assert rng.vertex_draws == 12
    assert np.array_equal(u.ravel(), [ref.gen.random() for _ in range(12)])


# ---- sparsify -----------------------------------------------------------------


def test_sparsify_point_mass():
    x = coords(1.0, 0.0)
    for k in (1, 3, 10):
        assert np.array_equal(sparsify(x, k, RngStream(3)), coords(1.0, 0.0))


def test_sparsify_rejects_zero_draws():
    with pytest.raises(ValueError):
        sparsify(coords(1.0, 0.0), 0, RngStream(0))


def test_sparsify_exact_binomial_distribution():
    # K=2 fair coin: counts of index 0 are Binomial(2, 1/2),
    # so the three outcomes (1,0) / (.5,.5) / (0,1) have probs (1/4, 1/2, 1/4)
    rng = RngStream(4)
    x = coords(0.5, 0.5)
    reps = 10**5
    outcomes = np.zeros(3)
    for _ in range(reps):
        first = sparsify(x, 2, rng)[0]
        outcomes[int(first * 2)] += 1
    freqs = outcomes / reps
    for freq, p in zip(freqs, [0.25, 0.5, 0.25]):
        assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / reps)


def test_sparsify_unbiased_mean():
    rng = RngStream(5)
    x = coords(0.3, 0.7)
    reps = 10**5
    total = np.zeros(2)
    for _ in range(reps):
        total += sparsify(x, 5, rng)
    assert np.allclose(total / reps, x, atol=0.005)


@given(k=st.integers(1, 20))
@settings(max_examples=50, deadline=None)
def test_sparsify_support_is_multiples_of_inverse_k(k):
    x = coords(0.1, 0.2, 0.3, 0.4)
    s = sparsify(x, k, RngStream(6))
    counts = s * k
    assert np.allclose(counts, np.round(counts))
    assert np.count_nonzero(s) <= k


# ---- running average ------------------------------------------------------------


def test_running_average_first_step():
    x = coords(0.4, 0.6)
    assert running_average(None, x, 1) is x


def test_running_average_midpoint():
    w = running_average(coords(1.0, 0.0), coords(0.0, 1.0), 2)
    assert np.allclose(w, [0.5, 0.5])


def test_running_average_rejects_t_zero():
    with pytest.raises(ValueError):
        running_average(None, coords(1.0, 0.0), 0)


def test_running_average_drift_bound():
    # |w_t - w_{t-1}|_1 <= 2/t along a long random trajectory
    gen = RngStream(7).gen
    w = None
    for t in range(1, 10**4 + 1):
        x = gen.dirichlet(np.ones(6))
        w_next = running_average(w, x, t)
        if w is not None:
            assert np.abs(w_next - w).sum() <= 2.0 / t + 1e-12
        w = w_next


# ---- release_rows ----------------------------------------------------------------


@pytest.mark.parametrize("rows", [1, 3, 77])
@pytest.mark.parametrize("k", [1, 31, GUIDE_BUCKETS])
def test_release_rows_equal_row_by_row_draws(rows, k):
    # row r is sample_vertex_indices on row r's stream: same draws, k charged per stream
    points = np.random.default_rng([rows, k]).dirichlet(np.ones(30), size=rows)
    if k >= GUIDE_BUCKETS:  # every row's draws take inverse_cdf's guide-table branch
        assert all(simplex._guide_table(p.cumsum())[1] <= (30).bit_length() for p in points)
    streams = [RngStream(140, r) for r in range(rows)]
    released = release_rows(points, k, streams)
    assert released.shape == (rows, k)
    for r, stream in enumerate(streams):
        own = RngStream(140, r)
        assert np.array_equal(released[r], sample_vertex_indices(points[r], k, own))
        assert stream.vertex_draws == own.vertex_draws == k
        assert stream.gen.random() == own.gen.random()  # the streams end at the same draw


# ---- goodness of fit of the release path ---------------------------------------------

CHI2_TAIL = math.log(1e6)  # a correct sampler exceeds the bound with probability <= 1e-6
CHI2_ALLOWANCE = 1.25  # Pearson's statistic is chi-square only as the expected counts grow


def chi2_bound(df: int) -> float:
    """Laurent & Massart (2000), Lemma 1: a chi-square X with ``df`` degrees of freedom has
    P(X - df >= 2 sqrt(df x) + 2x) <= e^-x; at x = CHI2_TAIL, times CHI2_ALLOWANCE."""
    return CHI2_ALLOWANCE * (df + 2.0 * math.sqrt(df * CHI2_TAIL) + 2.0 * CHI2_TAIL)


def pooled_pearson(indices: np.ndarray, points: np.ndarray) -> tuple[float, int]:
    """Pearson's statistic of row r's draws ``indices[r]`` against k * ``points[r]``, summed
    over the rows, and its degrees of freedom (every point has full support)."""
    rows, k = indices.shape
    counts = np.stack([np.bincount(row, minlength=points.shape[1]) for row in indices])
    expected = k * points
    return float(((counts - expected) ** 2 / expected).sum()), rows * (points.shape[1] - 1)


def fit_points(rows=6, d=30):
    # half uniform, half Dirichlet: every entry is at least 1/(2d), so at k = 1000 draws each
    # expected count is at least 16, and the guide table's span is 1
    return 0.5 / d + 0.5 * np.random.default_rng([rows, d]).dirichlet(np.ones(d), size=rows)


def test_chi2_bound_is_a_tail_bound():
    for df in (29, 174, 1000, 10_000):
        bound = chi2_bound(df) / CHI2_ALLOWANCE
        assert stats.chi2.sf(bound, df) <= math.exp(-CHI2_TAIL)


@pytest.mark.parametrize("k", [1000, GUIDE_BUCKETS])  # the searchsorted path, the guide table
def test_release_rows_fit_their_points(k):
    points = fit_points()
    if k >= GUIDE_BUCKETS:  # every row's draws take inverse_cdf's guide-table branch
        assert all(simplex._guide_table(p.cumsum())[1] <= (30).bit_length() for p in points)
    released = simplex.release_rows(points, k, [RngStream(150, r) for r in range(len(points))])
    stat, df = pooled_pearson(released, points)
    assert stat <= chi2_bound(df)


@pytest.mark.parametrize("steps_per_call", [1, 1024])  # 4 draws a call, then 4096 a call
def test_kernel_tape_draws_fit_their_points(steps_per_call):
    # the vertex kernel's draws at K = 1: a tape of 4 uniforms per row and step, in the
    # kernel's order, inverted on each row's CDF
    points, steps = fit_points(), 1024
    tape = list(_tape([RngStream(151, r) for r in range(len(points))], steps,
                      np.r_[0:1, 2, 1:2, 3]))
    cdf = points.cumsum(axis=1)
    released = np.concatenate([
        simplex.inverse_cdf_rows(cdf, np.concatenate(tape[s : s + steps_per_call], axis=1))
        for s in range(0, steps, steps_per_call)], axis=1)
    assert released.shape == (len(points), 4 * steps)
    stat, df = pooled_pearson(released, points)
    assert stat <= chi2_bound(df)
