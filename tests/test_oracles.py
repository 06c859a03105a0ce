import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsimplex.errors import DatasetError, OracleError
from dpsimplex.oracles import (
    Dataset,
    TruncGeom,
    batch_gradient,
    bias_reduced_gradient,
    sample_trunc_geom,
)
from dpsimplex.problems import BilinearObjective, MatrixGame
from dpsimplex.rng import RngStream
from dpsimplex.simplex import SimplexPoint, sample_vertex_indices
from reference import ComponentLoss, MaxLossProblem, check_objective, make_max_loss_objective


def point(*values):
    return SimplexPoint(np.array(values, dtype=np.float64))


@pytest.fixture
def game():
    A = np.array([[1.0, -0.5], [0.25, 0.75], [-1.0, 0.0]])
    E = 0.5 * np.ones_like(A)
    return BilinearObjective(A, E)


# ---- Dataset ---------------------------------------------------------------


def test_dataset_cursor_exhaustion():
    ds = Dataset(np.arange(5))
    assert np.array_equal(ds.take(3), [0, 1, 2])
    assert ds.remaining == 2
    with pytest.raises(DatasetError):
        ds.take(3)
    assert np.array_equal(ds.take(2), [3, 4])
    with pytest.raises(DatasetError):
        ds.take(1)


def test_row_dataset_takes_column_views():
    samples = np.arange(12.0).reshape(3, 4)
    ds = Dataset(samples)
    assert ds.rows == 3 and ds.n == 4 and Dataset(np.arange(4)).rows == 1
    batch = ds.take(3)
    assert batch.shape == (3, 3) and np.shares_memory(batch, samples)  # a view, no copy
    assert np.array_equal(batch, samples[:, :3])
    with pytest.raises(DatasetError):
        ds.take(2)
    assert ds.cursor == 3 and ds.remaining == 1  # the overdraw left the cursor alone
    assert np.array_equal(ds.take(1), samples[:, 3:])
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2, 2)))


def test_dataset_rejects_bad_batch():
    with pytest.raises(ValueError):
        Dataset(np.arange(5)).take(0)


# ---- TruncGeom ---------------------------------------------------------------


def test_trunc_geom_normalizer_half():
    for M in range(6):
        tg = TruncGeom(0.5, M)
        assert tg.C_M == pytest.approx(2.0 - 2.0**-M)
        assert tg.pmf().sum() == pytest.approx(1.0)


def test_trunc_geom_validation():
    with pytest.raises(ValueError):
        TruncGeom(0.0, 2)
    with pytest.raises(ValueError):
        TruncGeom(0.5, -1)


@given(p=st.floats(0.05, 0.95), M=st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_trunc_geom_pmf_normalized(p, M):
    tg = TruncGeom(p, M)
    assert tg.pmf().sum() == pytest.approx(1.0)
    assert np.all(np.diff(tg.pmf()) <= 0)  # mass decays with the level


def test_trunc_geom_single_atom():
    tg = TruncGeom(0.5, 0)
    rng = RngStream(0)
    assert all(sample_trunc_geom(tg, rng) == 0 for _ in range(20))


def test_trunc_geom_m1_frequencies():
    # P[0] = 2/3, P[1] = 1/3
    tg = TruncGeom(0.5, 1)
    rng = RngStream(1)
    draws = 10**6
    cdf = np.cumsum(tg.pmf())
    idx = np.minimum(np.searchsorted(cdf, rng.gen.random(draws), side="left"), 1)
    freq0 = float(np.mean(idx == 0))
    assert abs(freq0 - 2 / 3) <= 3 * math.sqrt((2 / 3) * (1 / 3) / draws)


def test_trunc_geom_draws_equal_the_reference_inversion():
    # one scalar uniform per level, inverted by the first CDF entry >= u
    tg = TruncGeom(0.5, 4)
    rng, ref = RngStream(3), RngStream(3)
    cdf = np.cumsum(tg.pmf())
    for _ in range(2000):
        expected = min(int(np.searchsorted(cdf, ref.gen.random(), side="left")), tg.M)
        assert sample_trunc_geom(tg, rng) == expected


def test_trunc_geom_mean_pow2():
    # E[2^N] = (M+1)/C_M; for M=4 that is 5/1.9375
    tg = TruncGeom(0.5, 4)
    assert tg.mean_pow2() == pytest.approx(5 / 1.9375)
    rng = RngStream(2)
    draws = 10**6
    cdf = np.cumsum(tg.pmf())
    idx = np.minimum(np.searchsorted(cdf, rng.gen.random(draws), side="left"), 4)
    vals = 2.0**idx
    slack = 3 * vals.std() / math.sqrt(draws)
    assert abs(vals.mean() - tg.mean_pow2()) <= slack


# ---- batch_gradient -------------------------------------------------------------


def test_batch_gradient_singleton_flips_y_sign(game):
    x, y = point(0.2, 0.5, 0.3), point(0.6, 0.4)
    g = batch_gradient(game, x, y, np.array([1.0]))
    assert np.allclose(g.g_x, game.grad_x(x.coords, y.coords, 1.0))
    assert np.allclose(g.g_y, -game.grad_y(x.coords, y.coords, 1.0))


def test_batch_gradient_two_sample_mean():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    E = np.array([[0.5, 0.0], [0.25, -0.5]])
    obj = BilinearObjective(A, E)
    x, y = point(0.5, 0.5), point(0.3, 0.7)
    # z = +1 and z = -1: the mean matrix is (A1 + A2)/2 = A
    g = batch_gradient(obj, x, y, np.array([1.0, -1.0]))
    assert np.allclose(g.g_x, A @ y.coords)
    assert np.allclose(g.g_y, -(A.T @ x.coords))


def test_batch_gradient_duplicates_equal_singleton(game):
    x, y = point(0.1, 0.1, 0.8), point(0.5, 0.5)
    g1 = batch_gradient(game, x, y, np.array([1.0]))
    g2 = batch_gradient(game, x, y, np.array([1.0, 1.0]))
    assert np.allclose(g1.g_x, g2.g_x) and np.allclose(g1.g_y, g2.g_y)


def test_batch_gradient_rejects_empty(game):
    with pytest.raises(ValueError):
        batch_gradient(game, point(1.0, 0.0, 0.0), point(1.0, 0.0), np.array([]))


# ---- bias-reduced gradient -------------------------------------------------------


def test_bias_reduced_envelope_violation_raises_oracle_error():
    # an objective that understates L0 breaks the estimator's envelope; the
    # check is an explicit raise, so it also holds under ``python -O``
    obj = BilinearObjective(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros((2, 2)))
    obj.L0 = 1e-3
    x, y = point(0.5, 0.5), point(0.5, 0.5)
    with pytest.raises(OracleError):
        bias_reduced_gradient(obj, x, y, 0, np.array([1.0]), TruncGeom(0.5, 0), RngStream(3))


def test_bias_reduced_level_zero_collapses(game):
    # at M=0 the normalizer is 1 and minus-average equals the first pair, so
    # the estimator telescopes to the plain gradient at the two-draw average
    x, y = point(0.2, 0.5, 0.3), point(0.4, 0.6)
    tg = TruncGeom(0.5, 0)
    batch = np.array([1.0, -1.0, 1.0])
    g = bias_reduced_gradient(game, x, y, 0, batch, tg, RngStream(10).child("draw"))

    replay = RngStream(10).child("draw")
    xs = sample_vertex_indices(x.coords, 2, replay)
    ys = sample_vertex_indices(y.coords, 2, replay)
    x_plus = np.bincount(xs, minlength=3) / 2
    y_plus = np.bincount(ys, minlength=2) / 2
    dense = game.A + np.mean(batch) * game.E
    assert np.allclose(g.g_x, dense @ y_plus)
    assert np.allclose(g.g_y, -(dense.T @ x_plus))


def test_bias_reduced_at_vertices_is_exact(game):
    # degenerate sampling: every draw equals the vertex pair itself
    x, y = point(0.0, 1.0, 0.0), point(1.0, 0.0)
    tg = TruncGeom(0.5, 3)
    batch = np.array([1.0, -1.0])
    for N in range(4):
        g = bias_reduced_gradient(game, x, y, N, batch, tg, RngStream(11 + N))
        ref = batch_gradient(game, x, y, batch)
        assert np.allclose(g.g_x, ref.g_x) and np.allclose(g.g_y, ref.g_y)


def test_bias_reduced_rejects_bad_level(game):
    tg = TruncGeom(0.5, 2)
    with pytest.raises(ValueError):
        bias_reduced_gradient(
            game, point(1.0, 0.0, 0.0), point(1.0, 0.0), 3, np.array([1.0]), tg, RngStream(0)
        )


def test_bias_reduced_unbiased_on_bilinear(game):
    # L2 = 0, so the estimator has zero bias: the Monte-Carlo mean must match
    # the exact population gradient within 3 sigma
    x, y = point(0.3, 0.3, 0.4), point(0.55, 0.45)
    tg = TruncGeom(0.5, 3)
    rng = RngStream(12)
    level_rng = RngStream(13)
    batch = np.array([1.0, -1.0])  # mean matrix = A exactly
    reps = 30_000
    samples = np.empty((reps, 3))
    for r in range(reps):
        N = sample_trunc_geom(tg, level_rng)
        samples[r] = bias_reduced_gradient(game, x, y, N, batch, tg, rng).g_x
    exact = game.A @ y.coords
    err = np.abs(samples.mean(axis=0) - exact)
    slack = 3 * samples.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(err <= slack)


def test_sparsified_gradient_of_bilinear_is_unbiased(game):
    # second-order-smoothness bound degenerates to pure noise when L2 = 0
    from dpsimplex.simplex import sparsify

    x, y = point(0.25, 0.25, 0.5), point(0.4, 0.6)
    rng = RngStream(14)
    reps = 20_000
    samples = np.empty((reps, 3))
    for r in range(reps):
        y_hat = sparsify(y, 4, rng)
        samples[r] = game.grad_x(x.coords, y_hat.coords, 0.0)
    err = np.abs(samples.mean(axis=0) - game.grad_x(x.coords, y.coords, 0.0))
    slack = 3 * samples.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(err <= slack)


def _quadratic_component(v, theta):
    # f(x; z) = (<v, x> - z theta)^2 with |v|_inf <= 1:
    # L0 = 2(1+theta)|v|_inf, L1 = 2|v|_inf^2, L2 = 0, B = (1+theta)^2
    v = np.asarray(v, dtype=np.float64)
    vmax = float(np.abs(v).max())
    return ComponentLoss(
        value=lambda x, z: float((v @ x - z * theta) ** 2),
        grad=lambda x, z: 2.0 * (v @ x - z * theta) * v,
        L0=2.0 * (1.0 + theta) * vmax,
        L1=2.0 * vmax * vmax,
        L2=0.0,
        B=(1.0 + theta) ** 2,
    )


def test_bias_reduced_second_moment_envelope():
    # E |g_x|_inf^2 <= 64 (L0^2 + L2^2 + M log(d_x) L1^2)
    d = 4
    rng_v = RngStream(15)
    comps = tuple(
        _quadratic_component(rng_v.child("v", i).gen.uniform(-1, 1, size=d), 0.5)
        for i in range(3)
    )
    obj = make_max_loss_objective(MaxLossProblem(d_x=d, components=comps))
    tg = TruncGeom(0.5, 4)
    x = SimplexPoint(np.full(d, 0.25))
    y = SimplexPoint(np.full(3, 1 / 3))
    rng = RngStream(16)
    level_rng = RngStream(17)
    batch = np.array([1.0, -1.0, 1.0])
    reps = 5_000
    sq = np.empty(reps)
    for r in range(reps):
        N = sample_trunc_geom(tg, level_rng)
        g = bias_reduced_gradient(obj, x, y, N, batch, tg, rng)
        sq[r] = np.abs(g.g_x).max() ** 2
    cap = 64.0 * (obj.L0**2 + obj.L2**2 + tg.M * math.log(d) * obj.L1**2)
    assert sq.mean() <= cap


def _separable_quadratic_component(c, a):
    # f(x; z) = sum_j c_j (x_j - a_j)^2 with c >= 0; on the simplex |x_j - a_j| <= 1 + |a_j|
    c, a = np.asarray(c, dtype=np.float64), np.asarray(a, dtype=np.float64)
    reach = 1.0 + np.abs(a)
    return ComponentLoss(
        value=lambda x, z: float(c @ (x - a) ** 2),
        grad=lambda x, z: 2.0 * c * (x - a),
        L0=float((2.0 * c * reach).max()),
        L1=float(2.0 * c.max()),
        L2=0.0,
        B=float(c @ reach**2),
    )


def test_bias_reduced_mean_is_exact_on_a_nonlinear_objective():
    # The levels telescope, so the estimator's mean is the mean gradient at a pair
    # sparsified with the top level's 2^(M+1) = 8 draws. The y block is -f_i at the
    # sparsified x, and E (x_hat_j - a_j)^2 = (x_j - a_j)^2 + x_j (1 - x_j) / 8, so its
    # mean is -(f_i(x) + sum_j c_j x_j (1 - x_j) / 8). (The x block is bilinear in the
    # two independent sparsified points, so its mean is exact at any scale.)
    comps = [([1.0, 2.0], [0.2, 0.5]), ([3.0, 0.5], [0.6, 0.1])]
    obj = make_max_loss_objective(MaxLossProblem(
        d_x=2, components=tuple(_separable_quadratic_component(c, a) for c, a in comps)))
    x, y = point(0.3, 0.7), point(0.5, 0.5)
    tg = TruncGeom(0.5, 2)
    rng, level_rng = RngStream(20), RngStream(21)
    reps = 4_000
    samples = np.empty((reps, 2))
    for r in range(reps):
        N = sample_trunc_geom(tg, level_rng)
        samples[r] = bias_reduced_gradient(obj, x, y, N, np.array([0.0]), tg, rng).g_y
    p = x.coords
    exact = -np.array([np.dot(c, (p - a) ** 2) + np.dot(c, p * (1.0 - p)) / 8.0
                       for c, a in comps])
    z = (samples.mean(axis=0) - exact) / (samples.std(axis=0, ddof=1) / math.sqrt(reps))
    assert np.abs(z).max() < 4.0, f"y block {z} sigma off"


# ---- objective self-checks -----------------------------------------------------


def test_check_objective_bilinear(game):
    check_objective(game, np.array([1.0, -1.0]), RngStream(18))


class DoubledGradX(BilinearObjective):
    def grad_x(self, x, y, z):
        return 2.0 * super().grad_x(x, y, z)


def check_doubled_gradient():
    bad = DoubledGradX(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros((2, 2)))
    check_objective(bad, np.array([1.0]), RngStream(19))


def test_check_objective_catches_wrong_gradient():
    with pytest.raises(AssertionError):
        check_doubled_gradient()
    # the documented AssertionError must not vanish with the asserts under python -O
    tests = Path(__file__).resolve().parent
    code = (
        f"import sys; sys.path.insert(0, {str(tests)!r})\n"
        "from test_oracles import check_doubled_gradient\n"
        "try:\n"
        "    check_doubled_gradient()\n"
        "except AssertionError:\n"
        "    print(sys.flags.optimize, 'raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.stdout.split() == ["1", "raised"], done.stderr


def test_matrix_game_constants():
    game = MatrixGame(np.array([[2.0, -1.0]]), np.array([[0.5, 0.5]]))
    obj = game.objective()
    assert obj.L0 == pytest.approx(2.5)
    assert obj.L1 == 0.0 and obj.L2 == 0.0
    assert obj.B == obj.L0
