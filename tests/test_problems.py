import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsimplex import sco
from dpsimplex.errors import OracleError
from dpsimplex.privacy import PrivacyParams
from dpsimplex.problems import (
    _GATHER_MIN_ENTRIES,
    SIGN_CHUNK,
    BilinearObjective,
    GapReport,
    MatrixGame,
    SeparableQuadratic,
    SynthDataObjective,
    SynthDataProblem,
    _mean_signs,
    exact_gap_bilinear,
    random_signs,
    synth_data_generate,
)
from dpsimplex.privacy import plan_vertex_smd
from dpsimplex.rng import RngStream
from dpsimplex.simplex import SimplexPoint
from reference import (
    ComponentLoss,
    MaxLossProblem,
    PopulationObjective,
    check_objective,
    dp_smoke_first_vertex,
    first_release_distribution,
    gap_general,
    make_max_loss_objective,
    nash_value_bruteforce,
    per_sample_grad_rows,
    population,
)


def point(*values):
    return SimplexPoint(np.array(values, dtype=np.float64))


# ---- bilinear batch gradients -----------------------------------------------


@given(
    d_x=st.integers(1, 160),
    d_y=st.integers(1, 160),
    support=st.integers(1, 160),
    n_z=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_bilinear_batch_gradients_match_dense_reference(d_x, d_y, support, n_z, seed):
    gen = np.random.default_rng(seed)
    A = gen.uniform(-1.0, 1.0, size=(d_x, d_y))
    E = 0.5 * (gen.integers(0, 2, size=(d_x, d_y)) * 2 - 1)
    obj = BilinearObjective(A, E)

    def sparse_point(dim):
        p = np.zeros(dim)
        idx = gen.choice(dim, size=min(support, dim), replace=False)
        p[idx] = gen.dirichlet(np.ones(idx.size))
        return p

    x, y = sparse_point(d_x), sparse_point(d_y)
    zs = gen.integers(0, 2, size=n_z) * 2 - 1.0
    dense = A + np.mean(zs) * E
    # a one-term sum plus exact zeros is exact; beyond that BLAS kernels may
    # round a sum differently by the column positions, within eps per term
    gx, gy = obj.batch_grad_xy_rows(x[None], y[None], zs[None])
    for got, ref, point in (
        (gx[0], dense @ y, y),
        (gy[0], dense.T @ x, x),
    ):
        if np.count_nonzero(point) == 1:
            assert np.array_equal(got, ref)
        else:
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * obj.L0)



@pytest.mark.parametrize("d, support, gathers", [
    (20, 20, (False, False)),   # below _GATHER_MIN_ENTRIES: both blocks dense
    (20, 2, (False, False)),
    (200, 3, (True, True)),     # both supports small: both blocks gather
    (200, 60, (False, True)),   # y's support past a fifth: x dense, y gathers
    (200, 200, (False, False)),
])
def test_fused_bilinear_gradient_equals_the_two_calls(d, support, gathers):
    # the one fused call gives each block the bits of a separate per-block computation
    gen = np.random.default_rng(d * 1000 + support)
    obj = BilinearObjective(gen.uniform(-1.0, 1.0, size=(d, d)),
                            0.5 * (gen.integers(0, 2, size=(d, d)) * 2 - 1))
    x, y = (np.zeros(d) for _ in range(2))
    for p in (x, y):
        p[gen.choice(d, size=support, replace=False)] = gen.dirichlet(np.ones(support))
    big = obj.A.size >= _GATHER_MIN_ENTRIES
    assert (big and obj._support(y, 5) is not None,
            big and obj._support(x, 2) is not None) == gathers
    zs = gen.integers(0, 2, size=7) * 2 - 1.0
    gx, gy = obj.batch_grad_xy_rows(x[None], y[None], zs[None])
    ref_x, ref_y = bilinear_reference(obj, x, y, zs)
    assert np.array_equal(gx[0], ref_x)
    assert np.array_equal(gy[0], ref_y)


def bilinear_reference(obj, x, y, zs):
    """One row's bilinear batch gradient, built block by block the way the game builds it:
    ``(A + z̄E) @ y`` and ``.T @ x``, or above _GATHER_MIN_ENTRIES the gather of the
    support's columns (rows) while the support is at most a fifth (half) of the block."""
    A, E, z = obj.A, obj.E, np.mean(zs)
    dense = A + z * E
    j, i = np.flatnonzero(y), np.flatnonzero(x)
    big = A.size >= _GATHER_MIN_ENTRIES
    gx = (A[:, j] + z * E[:, j]) @ y[j] if big and 5 * j.size <= y.size else dense @ y
    gy = (A[i] + z * E[i]).T @ x[i] if big and 2 * i.size <= x.size else dense.T @ x
    return gx, gy


def synth_reference(obj, x, y, zs):
    """One row's synthetic-data batch gradient: ``-Q^T y`` and the batch's mean query
    column minus ``Q x``."""
    idx = np.asarray(zs, dtype=np.int64)
    return -(obj.Q.T @ y), np.add.reduce(obj.Q[:, idx], axis=1) / idx.size - obj.Q @ x


def stacked_rows(gen, rows, dim, k):
    """(rows, dim) points: Dirichlet rows with k = 0, else means of k one-hots."""
    if k == 0:
        return gen.dirichlet(np.ones(dim), size=rows)
    return np.array([np.bincount(gen.integers(0, dim, size=k), minlength=dim) / k
                     for _ in range(rows)])


@given(
    family=st.sampled_from(["bilinear", "synth"]),
    d_x=st.integers(1, 150),
    d_y=st.integers(1, 150),
    rows=st.integers(1, 80),
    k=st.integers(0, 25),
    n_z=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_gradient_rows_equal_one_row_calls(family, d_x, d_y, rows, k, n_z, seed):
    # d up to 150 puts A on both sides of _GATHER_MIN_ENTRIES: stacked below, per-row above
    gen = np.random.default_rng(seed)
    if family == "bilinear":
        obj = BilinearObjective(gen.uniform(-1.0, 1.0, size=(d_x, d_y)),
                                0.5 * (gen.integers(0, 2, size=(d_x, d_y)) * 2 - 1))
        batches = gen.integers(0, 2, size=(rows, n_z)) * 2 - 1.0
        reference = bilinear_reference
    else:
        obj = SynthDataObjective(gen.uniform(-1.0, 1.0, size=(d_y, d_x)))
        batches = gen.integers(0, d_x, size=(rows, n_z))
        reference = synth_reference
    X, Y = stacked_rows(gen, rows, d_x, k), stacked_rows(gen, rows, d_y, k)
    gx, gy = obj.batch_grad_xy_rows(X, Y, batches)
    assert gx.shape == (rows, d_x) and gy.shape == (rows, d_y)
    for r in range(rows):
        one_x, one_y = reference(obj, X[r], Y[r], batches[r])
        assert np.array_equal(gx[r], one_x) and np.array_equal(gy[r], one_y)


class DoubledBatchGradX(BilinearObjective):
    """A subclass whose batch x-gradient is doubled."""

    def batch_grad_xy_rows(self, X, Y, batches):
        gx, gy = super().batch_grad_xy_rows(X, Y, batches)
        return 2.0 * gx, gy


def test_gradient_rows_keep_a_subclass_override():
    # both the saddle rows and the SCO rows of a shared base reach the override
    game = MatrixGame.random(5, 4, RngStream(130))
    doubled = DoubledBatchGradX(game.payoff, game.perturbation)
    gen = np.random.default_rng(131)
    X, Y = stacked_rows(gen, 3, 5, 0), stacked_rows(gen, 3, 4, 0)
    batches = np.array([gen.integers(0, 2, size=6) * 2 - 1.0 for _ in range(3)])
    ref_x, ref_y = game.objective().batch_grad_xy_rows(X, Y, batches)
    loop_x, loop_y = per_sample_grad_rows(game.objective(), X, Y, batches)
    gx, gy = doubled.batch_grad_xy_rows(X, Y, batches)
    assert np.allclose(gx, 2.0 * loop_x) and np.allclose(gy, loop_y)  # the per-sample loop
    frozen = sco.FrozenBlock(doubled, "x", Y)
    assert np.array_equal(frozen.batch_grad_rows(X, batches), 2.0 * ref_x)


# ---- ±1 samples ---------------------------------------------------------------


@given(
    shape=st.sampled_from([1, SIGN_CHUNK - 1, SIGN_CHUNK, SIGN_CHUNK + 1, 3 * SIGN_CHUNK + 5,
                           (3, SIGN_CHUNK // 2 + 1)]),
    dtype=st.sampled_from([np.int8, np.float64]),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=40, deadline=None)
def test_chunked_signs_equal_the_one_shot_draw(shape, dtype, seed):
    rng, one_shot = RngStream(seed), RngStream(seed)
    signs = random_signs(shape, dtype, rng)
    expected = one_shot.gen.integers(0, 2, size=shape) * 2 - 1
    # the same values, and the stream left where the one-shot draw leaves it
    after = np.array_equal(rng.gen.integers(0, 2, size=64), one_shot.gen.integers(0, 2, size=64))
    assert (signs.dtype, np.array_equal(signs, expected), after) == (np.dtype(dtype), True, True)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("problem", [
    MatrixGame.random(3, 3, RngStream(7)),
    SeparableQuadratic(np.ones(3), np.full(3, 1 / 3), np.ones(3)),
], ids=["matrix_game", "quadratic"])
def test_sample_dataset_holds_int8_signs_within_3_mb(problem):
    n = 10**6
    peak, data = _peak_bytes(lambda: problem.sample_dataset(n, RngStream(8)))
    samples = data.take(n)
    assert samples.dtype == np.int8
    assert np.array_equal(samples, RngStream(8).gen.integers(0, 2, size=n) * 2 - 1)
    assert peak < 3_000_000  # 1 MB of signs and one chunk of draws; 16 MB as float64


@given(rows=st.integers(1, 4), B=st.sampled_from([1, 2, 11, 38, 10_001]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_int8_batches_give_the_float64_batches_bits(rows, B, seed):
    gen = np.random.default_rng(seed)
    signs = (gen.integers(0, 2, size=(rows, B)) * 2 - 1).astype(np.int8)
    floats = signs.astype(np.float64)
    assert _mean_signs(signs).tobytes() == _mean_signs(floats).tobytes()
    # both gradient paths of a game, the stacked product and the support gather
    for d in (4, 120):
        obj = BilinearObjective(gen.uniform(-1.0, 1.0, size=(d, d)),
                                0.5 * (gen.integers(0, 2, size=(d, d)) * 2 - 1))
        X, Y = stacked_rows(gen, rows, d, 3), stacked_rows(gen, rows, d, 3)
        for a, b in zip(obj.batch_grad_xy_rows(X, Y, signs), obj.batch_grad_xy_rows(X, Y, floats)):
            assert a.tobytes() == b.tobytes()
        assert obj.batch_value(X, Y, signs[0]).tobytes() == obj.batch_value(
            X, Y, floats[0]).tobytes()
    quad = SeparableQuadratic(np.ones(5), np.full(5, 0.2), gen.uniform(-1.0, 1.0, size=5))
    W = stacked_rows(gen, rows, 5, 0)
    assert quad.batch_grad_rows(W, signs).tobytes() == quad.batch_grad_rows(W, floats).tobytes()


def test_objective_of_a_large_game_allocates_no_matrix():
    game = MatrixGame.random(1000, 1000, RngStream(9))
    peak, obj = _peak_bytes(game.objective)
    assert obj.L0 == float(np.abs(game.payoff).max() + np.abs(game.perturbation).max())
    assert peak < 1_000_000  # |A| and |E| took 8 MB each


# ---- exact bilinear gap -----------------------------------------------------


def test_exact_gap_equilibrium_is_zero():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert exact_gap_bilinear(A, point(0.5, 0.5).coords, point(0.5, 0.5).coords).gap_estimate == 0.0


def test_exact_gap_hand_value():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    rep = exact_gap_bilinear(A, point(0.5, 0.5).coords, point(1.0, 0.0).coords)
    assert rep.gap_estimate == pytest.approx(0.5)
    assert rep.inner_error_bound == 0.0


def test_exact_gap_nonnegative_property():
    gen = RngStream(0).gen
    for _ in range(1000):
        dx, dy = int(gen.integers(2, 6)), int(gen.integers(2, 6))
        A = gen.uniform(-2, 2, size=(dx, dy))
        x = gen.dirichlet(np.ones(dx))
        y = gen.dirichlet(np.ones(dy))
        assert exact_gap_bilinear(A, x, y).gap_estimate >= -1e-12


@given(exponent=st.floats(0.0, 11.0), d_x=st.integers(1, 40), d_y=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1), constant=st.booleans())
@settings(derandomize=True, max_examples=400, deadline=None)
def test_exact_gap_accepts_its_rounding_at_every_scale(exponent, d_x, d_y, seed, constant):
    # the gap is >= 0 in exact arithmetic; the computed one may round below 0 by an
    # amount that grows with max|A|, which is no failed inner solver
    gen = np.random.default_rng(seed)
    scale = 10.0**exponent
    A = np.full((d_x, d_y), scale) if constant else gen.uniform(-scale, scale, (d_x, d_y))
    rep = exact_gap_bilinear(A, gen.dirichlet(np.ones(d_x)), gen.dirichlet(np.ones(d_y)))
    assert rep.inner_error_bound == 0.0
    assert rep.gap_estimate >= -rep.rounding - 1e-12


def test_gap_report_still_refuses_a_negative_gap_beyond_its_bounds():
    with pytest.raises(OracleError):
        GapReport(gap_estimate=-1.0, inner_error_bound=0.0, method="exact_bilinear")
    with pytest.raises(OracleError):
        GapReport(gap_estimate=-1.0, inner_error_bound=0.25, method="exact_bilinear",
                  rounding=0.5)


def test_gap_report_refusal_names_its_bound_and_rounding_allowance():
    # the exact gap has no inner solver; the message names the two allowances it exceeds
    with pytest.raises(OracleError) as exc:
        GapReport(gap_estimate=-1.0, inner_error_bound=0.0, method="exact_bilinear",
                  rounding=0.5)
    assert str(exc.value) == (
        "gap estimate -1.0 is below -0.0 (error bound) - 0.5 (rounding allowance)")
    assert "inner solver" not in str(exc.value)


def test_exact_gap_shape_mismatch():
    with pytest.raises(ValueError):
        exact_gap_bilinear(np.eye(3), point(0.5, 0.5).coords, point(0.5, 0.5).coords)


# ---- generic gap estimator ----------------------------------------------------


def test_gap_general_matches_exact_on_bilinear():
    game = MatrixGame.random(8, 6, RngStream(1))
    pop = population(game)
    gen = RngStream(2).gen
    for _ in range(3):
        x = gen.dirichlet(np.ones(8))
        y = gen.dirichlet(np.ones(6))
        approx = gap_general(pop, x, y, inner_T=10_000)
        exact = exact_gap_bilinear(game.payoff, x, y)
        assert abs(approx.gap_estimate - exact.gap_estimate) <= approx.inner_error_bound


def test_gap_general_bound_scaling():
    game = MatrixGame.random(4, 4, RngStream(3))
    pop = population(game)
    x = np.full(4, 0.25)
    b1 = gap_general(pop, x, x, inner_T=1000).inner_error_bound
    b4 = gap_general(pop, x, x, inner_T=4000).inner_error_bound
    assert b4 == pytest.approx(b1 / 2)


# ---- game-value oracle ---------------------------------------------------------


def test_nash_matching_pennies():
    rep = nash_value_bruteforce(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert abs(rep.value) <= 1e-3
    assert np.allclose(rep.x.coords, 0.5, atol=0.05)
    assert rep.certified_gap <= 1e-3


def test_nash_diagonal_closed_form():
    # diag(a, d) has value a d / (a + d) at x = y = (d, a) / (a + d)
    rep = nash_value_bruteforce(np.array([[2.0, 0.0], [0.0, 1.0]]))
    assert rep.value == pytest.approx(2 / 3, abs=2e-3)
    assert np.allclose(rep.x.coords, [1 / 3, 2 / 3], atol=0.02)
    assert np.allclose(rep.y.coords, [1 / 3, 2 / 3], atol=0.02)


def test_nash_certifies_random_games():
    for seed in range(3):
        game = MatrixGame.random(20, 20, RngStream(4, seed))
        rep = nash_value_bruteforce(game.payoff)
        assert rep.certified_gap <= 1e-3


def test_nash_rejects_oversized_games():
    with pytest.raises(ValueError):
        nash_value_bruteforce(np.zeros((51, 3)))


def test_nash_raises_when_budget_too_small():
    game = MatrixGame.random(20, 20, RngStream(5))
    with pytest.raises(OracleError):
        nash_value_bruteforce(game.payoff, max_iters=50, check_every=50)


# ---- synthetic data --------------------------------------------------------------


def test_synth_objective_constant_query_is_zero():
    problem = SynthDataProblem(queries=np.ones((1, 3)), data=np.array([0, 1, 2]))
    obj = SynthDataObjective(problem.queries)
    gen = RngStream(8).gen
    for _ in range(5):
        x = gen.dirichlet(np.ones(3))
        assert obj.value(x, np.array([1.0]), 1) == pytest.approx(0.0)


def test_synth_objective_hand_value():
    # one query (1, -1), z hits the +1 cell, x uniform: f = y_1 (1 - 0) = y_1
    problem = SynthDataProblem(queries=np.array([[1.0, -1.0]]), data=np.array([0, 1]))
    obj = SynthDataObjective(problem.queries)
    assert obj.value(np.array([0.5, 0.5]), np.array([1.0]), 0) == pytest.approx(1.0)
    assert obj.L0 <= 2.0 and obj.B <= 2.0


def test_synth_objective_gradients():
    problem = SynthDataProblem(
        queries=RngStream(9).gen.uniform(-1, 1, size=(4, 6)),
        data=np.arange(6),
    )
    check_objective(SynthDataObjective(problem.queries), np.arange(6), RngStream(10))


def test_synth_generation_accuracy_and_monotonicity():
    # uniform source over two cells, identity indicator query
    queries = np.array([[1.0, -1.0]])
    true = np.array([0.5, 0.5])
    privacy = PrivacyParams(1.0, 1e-5)
    errors = {}
    for n in (10**3, 10**4, 10**5):
        runs = []
        for seed in range(5):
            data = RngStream(11).child(n, seed).gen.integers(0, 2, size=n)
            problem = SynthDataProblem(queries=queries, data=data, true_dist=true)
            rep = synth_data_generate(problem, privacy, RngStream(12).child(n, seed))
            assert rep.synthetic.size == n
            runs.append(rep.max_query_error)
        errors[n] = float(np.median(runs))
    assert errors[10**4] < 0.1
    assert errors[10**5] <= errors[10**3] + 0.02


def test_synth_constant_query_has_zero_error():
    queries = np.array([[1.0, 1.0, 1.0], [0.5, -0.5, 0.0]])
    data = RngStream(13).gen.integers(0, 3, size=2000)
    problem = SynthDataProblem(queries=queries, data=data,
                               true_dist=np.array([1 / 3, 1 / 3, 1 / 3]))
    rep = synth_data_generate(problem, PrivacyParams(1.0, 1e-5), RngStream(14))
    assert rep.query_errors[0] == pytest.approx(0.0, abs=1e-12)


def test_synth_problem_validates_indices():
    with pytest.raises(ValueError):
        SynthDataProblem(queries=np.ones((1, 2)), data=np.array([0, 2]))


# ---- maximal loss ----------------------------------------------------------------


def _distance_component(center):
    center = np.asarray(center, dtype=np.float64)
    return ComponentLoss(
        value=lambda x, z: 0.5 * float(((x - center) ** 2).sum()),
        grad=lambda x, z: x - center,
        L0=2.0,
        L1=1.0,
        L2=0.0,
        B=2.0,
    )


def test_max_loss_singleton_reduces_to_component():
    comp = _distance_component([1.0, 0.0])
    obj = make_max_loss_objective(MaxLossProblem(d_x=2, components=(comp,)))
    x = np.array([0.25, 0.75])
    assert obj.value(x, np.array([1.0]), 0) == pytest.approx(comp.value(x, 0))
    assert np.allclose(obj.grad_x(x, np.array([1.0]), 0), comp.grad(x, 0))


def test_max_loss_symmetric_saddle():
    # two mirrored distance losses on the 2-simplex: by symmetry the saddle is
    # x* = (1/2, 1/2) with both components active, y* = (1/2, 1/2)
    problem = MaxLossProblem(
        d_x=2,
        components=(_distance_component([1.0, 0.0]), _distance_component([0.0, 1.0])),
    )
    obj = make_max_loss_objective(problem)
    pop = PopulationObjective(
        d_x=2, d_y=2, L0=obj.L0,
        value=lambda x, y: obj.value(x, y, 0),
        grad_x=lambda x, y: obj.grad_x(x, y, 0),
        grad_y=lambda x, y: obj.grad_y(x, y, 0),
    )
    rep = gap_general(pop, np.array([0.5, 0.5]), np.array([0.5, 0.5]), inner_T=20_000)
    assert rep.gap_estimate <= rep.inner_error_bound


def test_max_loss_composite_constants():
    comps = (_distance_component([1.0, 0.0]), _distance_component([0.0, 1.0]))
    obj = make_max_loss_objective(MaxLossProblem(d_x=2, components=comps))
    assert obj.L0 == max(2.0, 2.0)  # max(L0, B)
    assert obj.L1 == max(2.0, 1.0)  # max(L0, L1)
    assert obj.L2 == max(1.0, 0.0)  # max(L1, L2)
    check_objective(obj, np.array([0.0]), RngStream(15))


# ---- quadratic testbed -----------------------------------------------------------


def test_problems_refuse_an_l0_whose_square_underflows():
    # the planners divide by L0**2: at 1.5e-154 it is still a normal float, at 1.5e-200 0
    MatrixGame(np.full((2, 2), 1e-154), np.full((2, 2), 0.5e-154))
    with pytest.raises(ValueError, match="L0 = 1.5e-200 is too small"):
        MatrixGame(np.full((2, 2), 1e-200), np.full((2, 2), 0.5e-200))
    with pytest.raises(ValueError, match="L0 = 2e-200 is too small"):
        SeparableQuadratic(np.full(2, 1e-200), np.full(2, 0.5), np.zeros(2))


def test_separable_quadratic_minimizer_and_range():
    c = np.array([1.0, 2.0])
    a = np.array([0.25, 0.75])
    obj = SeparableQuadratic(c, a, np.zeros(2))
    assert obj.population_value(a) == 0.0
    assert np.allclose(obj.minimizer().coords, a)
    # worst vertex: e_0 gives 1*(0.75)^2 + 2*(0.75)^2 = 1.6875
    assert obj.value_range() == pytest.approx(1.0 * 0.75**2 + 2.0 * 0.75**2)
    grad = obj.population_grad(np.array([0.5, 0.5]))
    assert np.allclose(grad, 2 * c * (0.5 - a))


def test_separable_quadratic_requires_feasible_target():
    with pytest.raises(ValueError):
        SeparableQuadratic(np.ones(2), np.array([0.7, 0.6]), np.zeros(2))


# ---- privacy smoke helper ---------------------------------------------------------


def test_first_release_distribution_is_uniform_mixture():
    game = MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]), 0.3 * np.ones((2, 2)))
    obj = game.objective()
    batch = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    p = first_release_distribution(obj, batch, tau=0.05)
    assert p.sum() == pytest.approx(1.0)
    assert p.min() > 0


def test_dp_smoke_within_budget():
    game = MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]), 0.3 * np.ones((2, 2)))
    obj = game.objective()
    n = 10
    plan = plan_vertex_smd(n, 1.0, 1e-5, obj.L0, 0.0, 0.0, game.ell, "quadratic")
    # force the tiny-schedule shape used by the audit: T=2, K=1
    from dpsimplex.privacy import SsmdPlan, max_step_vertex_smd

    T, K = 2, 1
    B = n // T
    tau = max_step_vertex_smd(B, 1.0, 1e-5, obj.L0, T, K)
    plan = SsmdPlan(T=T, tau=tau, K=K, B_batch=B, mode="quadratic",
                    epsilon=1.0, delta=1e-5, L0=obj.L0, n=n)
    gen = RngStream(16).gen
    data_a = (gen.integers(0, 2, size=n) * 2 - 1).astype(float)
    data_b = data_a.copy()
    data_b[0] *= -1  # neighbor differs inside the first batch
    rep = dp_smoke_first_vertex(obj, data_a, data_b, plan, runs=200_000, rng=RngStream(17))
    assert rep.exact_conditional_loss <= rep.eps_budget + 1e-12
    assert rep.loss_estimate <= rep.eps_budget + rep.mc_slack
