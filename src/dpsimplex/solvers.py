"""Private saddle-point solvers on products of simplices.

All three private solvers release only sampled vertices (never the dense
iterates); the dense multiplicative-weights state stays internal, and a
vertex-solver solution carries its released x vertices. Each run is
strictly sequential and consumes fresh samples through the dataset cursor;
distinct runs parallelize across disjoint shards and independent streams.
:func:`solve_smd_nonprivate`, the CLI's ``nonprivate_smd``, runs the same loop
on exact population gradients and releases nothing.

Every run reports the vertex releases counted on its stream as
``vertex_draws``, and :func:`~dpsimplex.privacy.audit_releases` composes them;
a violation raises :class:`~dpsimplex.errors.BudgetError` instead of a result.

The saddle solvers run the package's one mirror-descent loop,
:func:`~dpsimplex.simplex.mirror_descent`, on the x and y blocks; each
supplies only its schedule and its per-step estimator. The trials of one n
share their plan and run as one batch (:func:`solve_smd_vertex_batch`) on one
row dataset: their iterates step together as (R, d) raw arrays, each step
takes one (R, B) batch, and each trial draws from a tape
on its own stream whose uniforms are charged on that stream as releases. A
batched trial releases the bytes it would release run on its own. Boosting's
I*J inner convex solves per side share one plan and run as one
:func:`~dpsimplex.sco.solve_dp_sco` batch: the rows of one
:class:`~dpsimplex.sco.FrozenBlock`, one per solve, each reading its shard of one view.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .oracles import (
    Dataset,
    PerSampleObjective,
    PopulationObjective,
    TruncGeom,
    batch_gradient,
    bias_reduced_gradient,
    sample_trunc_geom,
)
from .privacy import (
    BrPlan,
    PrivacyParams,
    SsmdPlan,
    audit_releases,
    exp_mech_sample,
    plan_anytime_sco,
    plan_bias_reduced,
)
from .rng import RngStream
from .sco import FrozenBlock, solve_dp_sco
from .simplex import (
    SimplexPoint,
    _point,
    inverse_cdf_rows,
    mean_one_hots,
    mirror_descent,
    sample_vertex,
    vertex_uniforms,
)

TAPE_UNIFORMS = 1 << 14  # uniforms a batch draws ahead per refill (128 KB); at least one step


@dataclass(frozen=True)
class SaddleSolution:
    """Output pair of a saddle solver plus its resource accounting."""

    x: SimplexPoint
    y: SimplexPoint
    samples_used: int
    steps_run: int
    vertex_draws: int
    x_vertex_indices: np.ndarray | None = None


@dataclass(frozen=True)
class BrRunTrace:
    """Stopping-time diagnostics of one bias-reduced run."""

    N_sequence: tuple[int, ...]
    total_weight: int
    stop_step: int


def _released_means(released: list[int], steps: int, rows: int, d_x: int, d_y: int):
    """The outputs of runs that release one vertex per block, row and step.

    ``released`` holds each step's x vertices, row by row, then its y
    vertices. Returns the means of the released one-hots, (rows, d) each, and
    the x block's released vertices, (rows, steps). Counting the releases at
    the end adds the same exact 1.0s a running sum would.
    """
    x_released, y_released = np.array(released).reshape(steps, 2, rows).transpose(1, 2, 0)
    return mean_one_hots(x_released, d_x), mean_one_hots(y_released, d_y), x_released


def _tape(rngs: list[RngStream], steps: int, order: np.ndarray):
    """Each step's uniforms for every run: (rows, len(order)) arrays, row r from ``rngs[r]``.

    A step takes ``len(order)`` consecutive draws of its run's stream, put in
    ``order``. The draws are taken ahead in blocks of about TAPE_UNIFORMS per
    batch (at least one step) and charged as releases by
    :func:`~dpsimplex.simplex.vertex_uniforms`; ``steps`` steps draw exactly
    what they use, so each stream ends where step-by-step draws would.
    """
    width = order.size
    chunk = max(1, TAPE_UNIFORMS // (len(rngs) * width))
    for start in range(0, steps, chunk):
        n = min(chunk, steps - start)
        yield from np.stack([vertex_uniforms(rng, (n, width)) for rng in rngs], axis=1)[..., order]


def solve_smd_vertex(
    obj: PerSampleObjective, dataset: Dataset, plan: SsmdPlan, rng: RngStream
) -> SaddleSolution:
    """Entropic mirror descent with sparsified iterates and vertex-sampled output.

    Per step: sparsify both iterates with K vertex draws, take a fresh batch,
    evaluate the saddle gradient at the sparsified pair, update both blocks in
    log domain, and contribute one fresh vertex draw per player to the output
    average. This is :func:`solve_smd_vertex_batch` with one trial; the
    solution's ``x_vertex_indices`` are the released x vertices, one per step
    (the categories synthetic-data generation resamples).
    """
    return solve_smd_vertex_batch(obj, dataset, plan, [rng])[0]


def solve_smd_vertex_batch(
    obj: PerSampleObjective,
    dataset: Dataset,
    plan: SsmdPlan,
    rngs: list[RngStream],
) -> list[SaddleSolution]:
    """:func:`solve_smd_vertex` for trials that share ``plan``, stepped together.

    Trial r reads row r of ``dataset`` (a 1-d dataset is one row) and
    ``rngs[r]`` only, and gets the bytes a run of its own would: its draws come
    from a tape on its own stream (:func:`_tape`), in the order x
    sparsification (K), y sparsification (K), x output vertex, y output vertex,
    and each block's K + 1 draws invert one CDF. The log-weights of all trials
    are one (R, d) array per block, the sparsified points come from one
    ``bincount``, and the trials share one ``take`` of an (R, B) batch and one
    :func:`~dpsimplex.oracles.batch_gradient` call per step, which gives each
    trial the bits of its own call. Each trial's counted releases are audited
    on their own.
    """
    if not rngs or len(rngs) != dataset.rows:
        raise ValueError(f"need one stream per dataset row, got {len(rngs)} and {dataset.rows}")
    plan.validate()
    _check_samples(dataset, plan)
    K, B, rows = plan.K, plan.B_batch, len(rngs)
    draws = [rng.vertex_draws for rng in rngs]
    released: list[int] = []  # ints, not one array per step

    def sampled_step(u, x_t, y_t):
        xs = inverse_cdf_rows(x_t.cumsum(axis=1), u[:, : K + 1])
        ys = inverse_cdf_rows(y_t.cumsum(axis=1), u[:, K + 1 :])
        x_hat = mean_one_hots(xs[:, :K], obj.d_x)
        y_hat = mean_one_hots(ys[:, :K], obj.d_y)
        g = batch_gradient(obj, x_hat, y_hat, dataset.take(B).reshape(rows, -1))
        released.extend(xs[:, K].tolist())
        released.extend(ys[:, K].tolist())
        return -g.g_x, -g.g_y

    # a step's stream order is x's K draws, y's K, x's vertex, y's vertex; the tape
    # puts each block's K + 1 draws side by side
    order = np.r_[0:K, 2 * K, K : 2 * K, 2 * K + 1]
    steps = mirror_descent((obj.d_x, obj.d_y), rows, plan.tau, _tape(rngs, plan.T, order),
                           sampled_step)
    x, y, x_released = _released_means(released, steps, rows, obj.d_x, obj.d_y)
    return [
        SaddleSolution(
            x=SimplexPoint(x[r]),
            y=SimplexPoint(y[r]),
            samples_used=steps * B,
            steps_run=steps,
            vertex_draws=audit_releases(plan, rng.vertex_draws - draws[r]),
            x_vertex_indices=x_released[r].astype(np.int64),
        )
        for r, rng in enumerate(rngs)
    ]


def _check_samples(dataset: Dataset, plan: SsmdPlan) -> None:
    if dataset.remaining < plan.T * plan.B_batch:
        raise BudgetError(
            f"plan needs {plan.T * plan.B_batch} fresh samples, dataset has {dataset.remaining}"
        )


def solve_smd_bias_reduced(
    obj: PerSampleObjective, dataset: Dataset, plan: BrPlan, rng: RngStream
) -> tuple[SaddleSolution, BrRunTrace]:
    """Mirror descent driven by the multilevel bias-reduced gradient estimator.

    Runs until the cumulative level weight would cross ``U - 2^M``: a step
    with freshly drawn level N executes only if ``sum 2^{N_i} <= U - 2^M``
    including its own weight, so with M = 0 the loop performs exactly
    ``floor(U) - 1`` deterministic steps. The output averages one vertex draw
    per executed step per player.
    """
    plan.validate()
    tg = TruncGeom(0.5, plan.M)
    threshold = plan.U - 2.0**plan.M
    levels: list[int] = []
    released: list[int] = []
    draws = rng.vertex_draws

    def schedule():
        weight = 0
        while True:
            N = sample_trunc_geom(tg, rng)
            if weight + 2**N > threshold:
                return
            weight += 2**N
            levels.append(N)
            yield N

    def step(N, x_t, y_t):
        x, y = _point(x_t[0]), _point(y_t[0])
        released.append(sample_vertex(x, rng))
        released.append(sample_vertex(y, rng))
        batch = dataset.take(_batch_size(N, plan.alpha))
        g = bias_reduced_gradient(obj, x, y, N, batch, tg, rng)
        return -g.g_x, -g.g_y

    steps = mirror_descent((obj.d_x, obj.d_y), 1, plan.tau, schedule(), step)
    x, y, _ = _released_means(released, steps, 1, obj.d_x, obj.d_y)
    weight = sum(2**N for N in levels)
    draws = audit_releases(plan, rng.vertex_draws - draws)
    sol = SaddleSolution(
        x=SimplexPoint(x[0]),
        y=SimplexPoint(y[0]),
        samples_used=sum(_batch_size(N, plan.alpha) for N in levels),
        steps_run=steps,
        vertex_draws=draws,
    )
    return sol, BrRunTrace(N_sequence=tuple(levels), total_weight=weight, stop_step=steps)


def _batch_size(N: int, alpha: float) -> int:
    """Fresh samples a bias-reduced step at level N consumes."""
    return max(1, math.ceil(2**N / alpha))


_audit_bias_reduced = audit_releases  # the name perfbench/layertrace.py traces it by


def solve_smd_nonprivate(pop: PopulationObjective, T: int, tau: float) -> SaddleSolution:
    """Plain entropic mirror descent on exact population gradients.

    No sampling anywhere: T steps of the loop whose outputs average the dense
    iterates, which releases nothing. This is the CLI's ``nonprivate_smd``
    algorithm and the baseline the sampling layer is validated against.
    """
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    if not (tau > 0):
        raise ValueError(f"need tau > 0, got {tau}")
    x_sum, y_sum = np.zeros((1, pop.d_x)), np.zeros((1, pop.d_y))

    def step(_, x_t, y_t):
        np.add(x_sum, x_t, out=x_sum)
        np.add(y_sum, y_t, out=y_sum)
        x, y = x_t[0], y_t[0]
        return -pop.grad_x(x, y), pop.grad_y(x, y)

    mirror_descent((pop.d_x, pop.d_y), 1, tau, range(T), step)
    return SaddleSolution(x=SimplexPoint(x_sum[0] / T), y=SimplexPoint(y_sum[0] / T),
                          samples_used=0, steps_run=T, vertex_draws=0)


# --------------------------------------------------------------------------
# boosted selection


def score_candidate_pairs(
    obj: PerSampleObjective,
    holdout,
    pairs: list[tuple[np.ndarray, np.ndarray]],
    x_table: list[list[np.ndarray]],
    y_table: list[list[np.ndarray]],
) -> np.ndarray:
    """Empirical gap surrogate for each candidate pair on a holdout batch.

    ``G_i = max_j F(x_i, y_table[i][j]) + max_j -F(x_table[i][j], y_i)``;
    swapping one holdout sample moves every score by at most ``4B/|holdout|``.
    """
    scores = np.empty(len(pairs))
    for i, (x_i, y_i) in enumerate(pairs):
        best_y = max(obj.batch_value(x_i, yy, holdout) for yy in y_table[i])
        best_x = max(-obj.batch_value(xx, y_i, holdout) for xx in x_table[i])
        scores[i] = best_y + best_x
    return scores


def select_pair(
    scores: np.ndarray, B: float, holdout_size: int, eps: float, rng: RngStream
) -> int:
    """Exponential-mechanism pick of the lowest-scoring candidate.

    Weights are ``exp(-eps * |holdout| * G_i / (8B))``, i.e. the exponential
    mechanism on ``-G`` with score sensitivity ``4B/|holdout|``.
    """
    return exp_mech_sample(-np.asarray(scores), 4.0 * B / holdout_size, eps, rng)


def solve_boosted(
    obj: PerSampleObjective,
    dataset: Dataset,
    I: int,
    J: int,
    privacy: PrivacyParams,
    rng: RngStream,
) -> SaddleSolution:
    """Boost the bias-reduced solver to a high-probability guarantee.

    Splits the data into four parts: part 1 yields I candidate pairs from
    independent bias-reduced runs, parts 2 and 3 yield I*J approximate best
    responses from the anytime convex solver, and part 4 scores each candidate
    by its empirical gap surrogate. The returned pair is selected by the
    exponential mechanism; all shards are disjoint, so the whole procedure
    stays within the per-shard (eps, delta) budget by parallel composition.
    The returned counts cover the candidate runs and the inner convex solves.

    For a requested failure probability beta, choose ``I = ceil(log2(4/beta))``
    and ``J = ceil(log2(8 I / beta))`` (see :func:`boosting_shape`).
    """
    if I < 1 or J < 1:
        raise ValueError("need I >= 1 and J >= 1")
    ell = math.log(obj.d_x) + math.log(obj.d_y)
    n = dataset.remaining
    quarter = n // 4
    if quarter < 1:
        raise BudgetError(f"dataset of {n} cannot be split four ways")
    parts = [dataset.take(quarter) for _ in range(4)]

    cand_size = quarter // I
    inner_size = quarter // (I * J)
    if cand_size < 1 or inner_size < 1:
        raise BudgetError(f"shards too small for I={I}, J={J} with n={n}")

    # every candidate shard holds cand_size samples and every inner shard
    # inner_size, and the frozen objectives keep obj's constants: one plan each
    try:
        cand_plan = plan_bias_reduced(
            cand_size, privacy.epsilon, privacy.delta, obj.L0, obj.L1, obj.L2, ell
        )
        plan_x = plan_anytime_sco(inner_size, privacy.epsilon, privacy.delta, obj.L0, obj.L1,
                                  obj.L2, math.log(obj.d_x), "second_order")
        plan_y = plan_anytime_sco(inner_size, privacy.epsilon, privacy.delta, obj.L0, obj.L1,
                                  obj.L2, math.log(obj.d_y), "second_order")
    except BudgetError as exc:
        raise BudgetError(f"shards of {cand_size} and {inner_size} samples: {exc}") from exc

    samples = 0
    steps = 0
    draws = 0
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    for i in range(I):
        shard = Dataset(parts[0][i * cand_size : (i + 1) * cand_size])
        sol, _ = solve_smd_bias_reduced(obj, shard, cand_plan, rng.child("candidate", i))
        pairs.append((sol.x.coords, sol.y.coords))
        samples += sol.samples_used
        steps += sol.steps_run
        draws += sol.vertex_draws

    # x_ij approximately minimizes x -> F(x, y_i) and y_ij maximizes y -> F(x_i, y): all
    # I*J solves of a side share its plan, so each side is one batch: row i*J + j reads
    # shard i*J + j of its part, one row of an (I*J, inner_size) view
    cells = [(i, j) for i in range(I) for j in range(J)]
    shards = [Dataset(part[: I * J * inner_size].reshape(I * J, -1)) for part in parts[1:3]]
    sx = solve_dp_sco(FrozenBlock(obj, "x", [pairs[i][1] for i, _ in cells]), shards[0], plan_x,
                      [rng.child("inner_x", i, j) for i, j in cells])
    sy = solve_dp_sco(FrozenBlock(obj, "y", [pairs[i][0] for i, _ in cells]), shards[1], plan_y,
                      [rng.child("inner_y", i, j) for i, j in cells])
    x_table = [[s.w_hat.coords for s in sx[i * J : (i + 1) * J]] for i in range(I)]
    y_table = [[s.w_hat.coords for s in sy[i * J : (i + 1) * J]] for i in range(I)]
    for s in (*sx, *sy):
        samples += s.samples_used
        steps += s.steps_run
        draws += s.vertex_draws

    scores = score_candidate_pairs(obj, parts[3], pairs, x_table, y_table)
    winner = select_pair(scores, obj.B, quarter, privacy.epsilon, rng.child("select"))
    samples += quarter  # the holdout part is consumed by the scoring mechanism
    return SaddleSolution(
        x=SimplexPoint(pairs[winner][0]),
        y=SimplexPoint(pairs[winner][1]),
        samples_used=samples,
        steps_run=steps,
        vertex_draws=draws,
    )


def boosting_shape(beta: float) -> tuple[int, int]:
    """Default (I, J) so the boosted gap bound fails with probability <= beta."""
    if not (0.0 < beta < 1.0):
        raise ValueError(f"failure probability must lie in (0,1), got {beta}")
    I = max(1, math.ceil(math.log2(4.0 / beta)))
    J = max(1, math.ceil(math.log2(8.0 * I / beta)))
    return I, J
