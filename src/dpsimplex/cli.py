"""Seeded experiment runner.

Subcommands
-----------

``run --config cfg.json --out results.csv [--jobs N]``
    Execute a trial grid: for every (n, trial) derive an independent stream,
    synthesize the dataset, plan the schedule (or take explicit overrides,
    which the solver validates), run the solver, evaluate, and append one CSV
    row. The trials of one n run as one batch of at most ``BATCH_TRIALS``,
    for every ``--jobs`` value; ``smd_vertex`` and ``dp_sco`` step a batch
    together in one solver call, each trial drawing on its own stream, which
    is charged for its draws, and release the bytes their trials would release
    one by one. Output is byte-reproducible for a fixed config and master
    seed: rows are sorted by (n, trial) regardless of worker scheduling and
    the ``wall_time_ms`` column is written as 0 (real timings go to stderr) so
    repeated runs produce identical files. At most ``--jobs`` (1 to
    ``MAX_JOBS``) workers run, and no more than the grid has batches.

``verify --suite <name|all> --reps R --out report.json [--seed S]``
    Run the sparsification verification suites and write a JSON report with
    measured vs bound values. Exit code 5 if any suite fails; R below 2 or
    S outside [0, 2^64) is a config error, raised before any suite runs.

``synth --config cfg.json --out synthetic.csv``
    Private synthetic-data generation for a categorical problem; writes the
    synthetic categories, ``SYNTH_CHUNK_ROWS`` rows per write, plus a sibling
    ``.report.json`` with the worst query error.

Exit codes: 0 ok, 2 config error, 3 budget error, 4 dataset error,
5 oracle/verification error.

Configs are checked once, at the boundary, before any trial starts:
``_parse_run`` (for ``run``) and ``_budget`` with ``_build_problem`` (shared
with ``synth``) turn every field into a checked value or raise
``ConfigError``; the problem is built, and ``nonprivate_smd``'s baseline
solved, once per command. The runners read only the parsed ``_Run``. Every
output is written to a temporary sibling and renamed onto its path, so a
failed command leaves no partial file.

File formats
------------

* Experiment configs are versioned JSON documents (``"version": 1``).
* Game payoffs load from dense JSON arrays or from binary matrix files:
  magic ``DPXM``, two little-endian uint32 dims, float64 row-major data.
* Categorical datasets load from CSV with one integer category per row.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import os
import struct
import sys
import time
import typing

import numpy as np

from . import __version__
from .errors import BudgetError, ConfigError, DatasetError, DpSimplexError, OracleError
from .oracles import Dataset
from .privacy import (
    BrPlan,
    Mode,
    PrivacyParams,
    ScoPlan,
    SsmdPlan,
    plan_anytime_sco,
    plan_bias_reduced,
    plan_vertex_smd,
)
from .problems import (
    MatrixGame,
    SeparableQuadratic,
    SynthDataProblem,
    exact_gap_bilinear,
    max_abs,
    synth_data_generate,
)
from .rng import RngStream
from .solvers import (
    SaddleSolution,
    boosting_shape,
    solve_boosted,
    solve_smd_bias_reduced,
    solve_smd_nonprivate,
    solve_smd_vertex_batch,
)
from .sco import solve_dp_sco
from .verify import MAX_REPS, MIN_REPS, SUITE_NAMES, run_all_suites, verify_maurey_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_DATASET = 4
EXIT_ORACLE = 5

MAX_GRID_CELLS = 100_000  # (n, trial) cells are built before the first trial; shipped grids: 6
MAX_JOBS = 64  # --jobs: worker processes, and never more than the grid has batches
MAX_NONPRIVATE_STEPS = 10**6  # nonprivate_smd's T, which no sample budget caps (5 x 5: 21.6 s)
# trials of one n stepped as one batch: a batch holds this many dataset rows and
# (trials, d) iterates at once, whatever the grid
BATCH_TRIALS = 8
# samples a batch draws before any plan reads n, min(trials, BATCH_TRIALS) * n: 1 GiB of
# int8 signs, 2 GiB while its rows are stacked (shipped and benchmark grids: under 10^6)
MAX_BATCH_SAMPLES = 2**30

CSV_COLUMNS = [
    "trial", "n", "algorithm", "mode", "metric", "metric_value",
    "inner_error_bound", "samples_used", "steps_run", "vertex_draws",
    "wall_time_ms", "seed", "plan_json",
]

SYNTH_CHUNK_ROWS = 4096  # synthetic rows formatted per write: one chunk's strings held at once

PAYOFF_MAGIC = b"DPXM"


# --------------------------------------------------------------------------
# file formats


def save_payoff(path: str, matrix: np.ndarray) -> None:
    """Write a payoff matrix: magic, uint32 dims (LE), float64 row-major."""
    m = np.ascontiguousarray(matrix, dtype="<f8")
    if m.ndim != 2:
        raise ValueError("payoff must be a matrix")
    with open(path, "wb") as fh:
        fh.write(PAYOFF_MAGIC)
        fh.write(struct.pack("<II", m.shape[0], m.shape[1]))
        fh.write(m.tobytes())


def load_payoff(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != PAYOFF_MAGIC:
            raise ConfigError(f"{path}: not a payoff matrix file (bad magic {magic!r})")
        rows, cols = struct.unpack("<II", fh.read(8))
        # checked against the file before reading, so a bad header allocates nothing
        if rows * cols * 8 > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ConfigError(f"{path}: truncated payoff matrix")
        data = np.empty((rows, cols), dtype="<f8")
        if fh.readinto(data) != data.nbytes:  # the file shrank since the check
            raise ConfigError(f"{path}: truncated payoff matrix")
        return data


def load_categories(path: str) -> np.ndarray:
    """One integer category index per CSV row.

    A file of unsigned decimals, one per line (what ``synth`` writes), is
    parsed in one numpy call; any other file goes through the CSV reader row
    by row. Both paths accept the same files and return the same values.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    # fromstring reads a blank file as [0] and clamps a value past int64 to
    # its maximum; both cases are left to the row reader
    if not raw.translate(None, b"0123456789\n") and raw.count(b"\n") < len(raw):
        values = np.fromstring(raw, dtype=np.int64, sep="\n")
        if values.max() < np.iinfo(np.int64).max:
            return values
    return _load_categories_rows(path)


def _load_categories_rows(path: str) -> np.ndarray:
    values = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                values.append(int(row[0]))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: not an integer category") from exc
    if not values:
        raise ConfigError(f"{path}: empty categorical dataset")
    return np.asarray(values, dtype=np.int64)


@contextlib.contextmanager
def _atomic_write(path: str, **open_kw):
    """A temporary sibling of ``path``, renamed onto it once written in full.

    On any error the sibling is removed and an existing ``path`` is kept."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", **open_kw) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_json(path: str, payload: dict) -> None:
    with _atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# --------------------------------------------------------------------------
# configuration: every field is checked here, before any trial runs


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # or not UTF-8, not JSON, an int past the digit limit
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if cfg.get("version") != 1 or cfg.get("version") is True:  # True == 1
        raise ConfigError(f"unsupported config version {cfg.get('version')!r}")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required field {key!r}")
    return cfg[key]


def _number(kind, value, name: str):
    """``value`` as ``kind`` (int or float), or a ConfigError naming the field.

    Only JSON numbers pass, never ``true`` or text; an int field takes an
    integral number (``2`` or ``2.0``).
    """
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, bool) and isinstance(value, int if kind is int else (int, float)):
        try:
            return kind(value)
        except OverflowError:  # an integer too large for a float
            pass
    noun = "an integer" if kind is int else "a number"
    raise ConfigError(f"config field {name!r} must be {noun}, got {value!r}")


def _section(cfg: dict, key: str, required: bool = False) -> dict:
    """A field that must be a JSON object; ``{}`` when optional and absent."""
    value = _require(cfg, key) if required else cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config field {key!r} must be a JSON object, got {value!r}")
    return value


def _budget(cfg: dict) -> tuple[PrivacyParams, int]:
    """The (epsilon, delta) budget and the master seed, a 64-bit stream key."""
    privacy = PrivacyParams(_number(float, _require(cfg, "epsilon"), "epsilon"),
                            _number(float, _require(cfg, "delta"), "delta"))
    master_seed = _number(int, _require(cfg, "master_seed"), "master_seed")
    if not 0 <= master_seed < 2**64:
        raise ConfigError(f"config field 'master_seed' must lie in [0, 2^64), got {master_seed}")
    return privacy, master_seed


def _build_game(problem: dict, master_seed: int, base_dir: str) -> MatrixGame:
    """The configured game: its payoff, perturbed (:meth:`MatrixGame.perturbed`) by
    signs drawn from the ``payoff-noise`` stream with ``noise_scale`` as their scale."""
    if "payoff" in problem:
        A = np.asarray(problem["payoff"], dtype=np.float64)
    elif "payoff_file" in problem:
        path = os.path.join(base_dir, problem["payoff_file"])
        try:
            A = load_payoff(path)
        except (OSError, struct.error) as exc:  # no such file, or a cut-off header
            raise ConfigError(f"cannot read payoff file {path}: {exc}") from exc
    else:
        raise ConfigError("matrix_game problem needs 'payoff' or 'payoff_file'")
    if A.ndim != 2 or not A.size:
        raise ConfigError("payoff must be a non-empty matrix")
    noise = _number(float, problem.get("noise_scale", 0.5 * (max_abs(A) or 1.0)), "noise_scale")
    return MatrixGame.perturbed(A, noise, RngStream(master_seed).child("payoff-noise"))


def _build_quadratic(problem: dict, master_seed: int, base_dir: str) -> SeparableQuadratic:
    return SeparableQuadratic(*(np.asarray(_require(problem, key), dtype=np.float64)
                                for key in ("weights", "target", "noise")))


def _build_synth_problem(problem: dict, master_seed: int, base_dir: str) -> SynthDataProblem:
    if "data" in problem:  # integral categories; one past int64 raises OverflowError
        data = np.asarray([_number(int, v, "data") for v in problem["data"]], dtype=np.int64)
    elif "data_file" in problem:
        path = os.path.join(base_dir, problem["data_file"])
        try:
            data = load_categories(path)
        except (OSError, UnicodeDecodeError, OverflowError) as exc:  # or a category past int64
            raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    else:
        raise ConfigError("synth_data problem needs 'data' or 'data_file'")
    true_dist = np.asarray(_require(problem, "true_dist"), dtype=np.float64)
    return SynthDataProblem(_require(problem, "queries"), data, true_dist)


_BUILDERS = {
    "matrix_game": _build_game,
    "quadratic_sco": _build_quadratic,
    "synth_data": _build_synth_problem,
}


def _build_problem(cfg: dict, kind: str, user: str, master_seed: int, base_dir: str):
    """The config's ``problem``, which ``user`` needs to be of ``kind``."""
    problem = _section(cfg, "problem", required=True)
    if problem.get("kind") != kind:
        raise ConfigError(f"{user} needs a {kind} problem, got kind {problem.get('kind')!r}")
    try:
        return _BUILDERS[kind](problem, master_seed, base_dir)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {kind} problem: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class _Run:
    """A checked ``run`` config: all that a runner reads of it."""

    algorithm: str
    mode: str
    privacy: PrivacyParams
    master_seed: int
    problem: MatrixGame | SeparableQuadratic
    overrides: dict  # schedule field -> value of its type; {} to plan; nonprivate_smd's T, tau
    boosting: tuple[int, int] | None  # (I, J) of a boosted run
    baseline: SaddleSolution | None  # nonprivate_smd's one solution: it reads no n or stream


def _overrides(algorithm: str, ov: dict) -> dict:
    """The schedule fields ``ov`` sets, each converted to its field's type.

    The run supplies a plan's budget, mode, ``L0``, ``n`` and batch size; its
    ``C`` and ``ell`` are optional. Keys no schedule field reads are ignored, and
    an integer field takes values below 2^63, as ``n_grid`` does.
    """
    if not ov:
        return {}
    if algorithm == "boosted":
        raise ConfigError("boosted plans every inner schedule itself and takes no overrides")
    plan_cls = ALGORITHMS[algorithm][1]
    if plan_cls is None:  # nonprivate_smd: both optional
        types = {"T": "int", "tau": "float"}
    else:
        run_set = ("mode", "epsilon", "delta", "L0", "n", "B_batch")
        types = {f.name: f.type for f in dataclasses.fields(plan_cls) if f.name not in run_set}
        missing = [k for k in types if k not in ov and k not in ("C", "ell")]
        if missing:
            raise ConfigError(f"overrides for {algorithm} are missing {missing}")
    parsed = {key: _number(int if types[key] == "int" else float, value, f"overrides.{key}")
              for key, value in ov.items() if key in types}
    big = [key for key, value in parsed.items() if isinstance(value, int) and value >= 2**63]
    if big:
        raise ConfigError(f"overrides {big} must lie below 2^63")
    return parsed


def _boosting(boost: dict) -> tuple[int, int]:
    if "I" in boost and "J" in boost:
        I, J = _number(int, boost["I"], "boosting.I"), _number(int, boost["J"], "boosting.J")
        if I < 1 or J < 1:
            raise ConfigError(f"boosting needs I >= 1 and J >= 1, got I={I}, J={J}")
        return I, J
    try:
        return boosting_shape(_number(float, boost.get("beta", 0.05), "boosting.beta"))
    except ValueError as exc:
        raise ConfigError(f"boosting: {exc}") from exc


def _nonprivate_schedule(game: MatrixGame, ov: dict) -> dict:
    """``nonprivate_smd``'s checked T and tau: the overrides', else T = 10^4 and
    ``tau = sqrt(ell / T) / L0``."""
    T = ov.get("T", 10_000)
    if not 1 <= T <= MAX_NONPRIVATE_STEPS:
        raise ConfigError(f"nonprivate_smd needs T in [1, {MAX_NONPRIVATE_STEPS}], got {T}")
    tau = ov["tau"] if "tau" in ov else math.sqrt(game.ell / T) / game.L0
    if not (math.isfinite(tau) and tau > 0):
        raise ConfigError(f"nonprivate_smd needs a positive finite tau, got {tau}")
    return {"T": T, "tau": tau}


def _parse_run(cfg: dict, base_dir: str) -> tuple[_Run, list[int], int]:
    """Check every field of a ``run`` config: the run, the n grid and the trial count.

    ``nonprivate_smd`` reads neither n nor a trial's stream, so its one solve
    happens here and every batch, in any worker, reports that solution.
    """
    algorithm = _require(cfg, "algorithm")
    if not isinstance(algorithm, str) or algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {tuple(ALGORITHMS)}")
    mode = cfg.get("mode", "quadratic")
    if mode not in typing.get_args(Mode):
        raise ConfigError(f"unknown mode {mode!r}; choose from {typing.get_args(Mode)}")
    n_grid = _require(cfg, "n_grid")
    if not isinstance(n_grid, list):
        raise ConfigError(f"config field 'n_grid' must be a list, got {n_grid!r}")
    n_grid = [_number(int, v, "n_grid") for v in n_grid]
    trials = _number(int, _require(cfg, "trials"), "trials")
    if trials < 1 or not n_grid or not all(1 <= n < 2**63 for n in n_grid):
        raise ConfigError("need at least one trial and one n value, each n in [1, 2^63)")
    if len(n_grid) * trials > MAX_GRID_CELLS:
        raise ConfigError(f"{len(n_grid)} n values x {trials} trials: over {MAX_GRID_CELLS} cells")
    batch = min(trials, BATCH_TRIALS)
    if algorithm != "nonprivate_smd" and batch * max(n_grid) > MAX_BATCH_SAMPLES:
        raise ConfigError(f"n = {max(n_grid)} x {batch} trials in a batch: over "
                          f"{MAX_BATCH_SAMPLES} samples held at once")
    privacy, master_seed = _budget(cfg)
    overrides = _overrides(algorithm, _section(cfg, "overrides"))
    boosting = _boosting(_section(cfg, "boosting")) if algorithm == "boosted" else None
    problem = _build_problem(cfg, ALGORITHMS[algorithm][0], algorithm, master_seed, base_dir)
    baseline = None
    if algorithm == "nonprivate_smd":
        overrides = _nonprivate_schedule(problem, overrides)
        baseline = solve_smd_nonprivate(problem.payoff, overrides["T"], overrides["tau"])
    run = _Run(algorithm, mode, privacy, master_seed, problem, overrides, boosting, baseline)
    return run, n_grid, trials


# --------------------------------------------------------------------------
# trial execution


@dataclasses.dataclass
class RunRecord:
    trial: int
    n: int
    algorithm: str
    mode: str
    metric: str
    metric_value: float
    inner_error_bound: float
    samples_used: int
    steps_run: int
    vertex_draws: int
    wall_time_ms: float
    seed: int
    plan_json: str

    def csv_row(self) -> list:
        # wall time is reported on stderr instead of the CSV so repeated runs
        # of the same config produce byte-identical output files
        return [
            self.trial, self.n, self.algorithm, self.mode, self.metric,
            repr(self.metric_value), repr(self.inner_error_bound), self.samples_used,
            self.steps_run, self.vertex_draws, 0, self.seed, self.plan_json,
        ]


def _plan(run: _Run, n: int, L0: float, planner):
    """The planned schedule, or the run's overrides as a plan (``B_batch = n // T``).

    The solver validates either before its first step.
    """
    if not run.overrides:
        try:
            return planner()
        except ValueError as exc:  # the planners' one ValueError: a mode they do not plan
            raise ConfigError(f"{run.algorithm}: {exc}") from exc
    plan_cls = ALGORITHMS[run.algorithm][1]
    fields = {"C": L0**2, "ell": 1.0, **run.overrides, "mode": run.mode, "L0": L0, "n": n,
              "epsilon": run.privacy.epsilon, "delta": run.privacy.delta}
    # a T below 1 is left for validate() to reject
    fields["B_batch"] = max(1, n // max(1, fields.get("T", 1)))
    return plan_cls(**{f.name: fields[f.name] for f in dataclasses.fields(plan_cls)})


def _plan_json(plan) -> str:
    return json.dumps(dataclasses.asdict(plan), sort_keys=True)


def _trial_inputs(problem, n: int, streams: list[RngStream]) -> tuple[Dataset, list]:
    """A batch's row Dataset, row r the n samples trial r draws, and its solve streams."""
    data = np.array([problem.sample_dataset(n, s.child("data")).take(n) for s in streams])
    return Dataset(data), [s.child("solve") for s in streams]


def _run_smd_vertex(run: _Run, n: int, streams: list[RngStream]):
    game, p = run.problem, run.privacy
    plan = _plan(run, n, game.L0, lambda: plan_vertex_smd(
        n, p.epsilon, p.delta, game.L0, game.L1, game.L2, game.ell, run.mode))
    data, rngs = _trial_inputs(game, n, streams)
    return [(sol, _plan_json(plan)) for sol in solve_smd_vertex_batch(game, data, plan, rngs)]


def _run_bias_reduced(run: _Run, n: int, stream: RngStream):
    game, p = run.problem, run.privacy
    plan = _plan(run, n, game.L0, lambda: plan_bias_reduced(
        n, p.epsilon, p.delta, game.L0, game.L1, game.L2, game.ell))
    data = game.sample_dataset(n, stream.child("data"))
    sol, _trace = solve_smd_bias_reduced(game, data, plan, stream.child("solve"))
    return sol, _plan_json(plan)


def _run_boosted(run: _Run, n: int, stream: RngStream):
    game, (I, J) = run.problem, run.boosting
    data = game.sample_dataset(n, stream.child("data"))
    sol = solve_boosted(game, data, I, J, run.privacy, stream.child("solve"))
    return sol, json.dumps({"I": I, "J": J}, sort_keys=True)


def _run_nonprivate(run: _Run, n: int, streams: list[RngStream]):
    return [(run.baseline, json.dumps(run.overrides, sort_keys=True))] * len(streams)


def _run_dp_sco(run: _Run, n: int, streams: list[RngStream]):
    obj, p = run.problem, run.privacy
    plan = _plan(run, n, obj.L0, lambda: plan_anytime_sco(
        n, p.epsilon, p.delta, obj.L0, obj.L1, obj.L2, math.log(obj.dim), run.mode))
    data, rngs = _trial_inputs(obj, n, streams)
    return [(sol, _plan_json(plan)) for sol in solve_dp_sco(obj, data, plan, rngs)]


def _each_trial(runner):
    """A batch runner that runs the trials of a batch one after another."""
    return lambda run, n, streams: [runner(run, n, stream) for stream in streams]


# name -> (problem kind, plan class or None, runner). A runner takes the run,
# n and the streams of a batch of trials, and returns each trial's solution
# and the plan JSON echoed in its CSV row.
ALGORITHMS = {
    "smd_vertex": ("matrix_game", SsmdPlan, _run_smd_vertex),
    "smd_bias_reduced": ("matrix_game", BrPlan, _each_trial(_run_bias_reduced)),
    "boosted": ("matrix_game", None, _each_trial(_run_boosted)),
    "dp_sco": ("quadratic_sco", ScoPlan, _run_dp_sco),
    "nonprivate_smd": ("matrix_game", None, _run_nonprivate),
}


def _run_batch(run: _Run, n: int, trials: range) -> list[RunRecord]:
    """Run the trials of one n as one batch; each keeps its own stream and CSV row."""
    streams = [RngStream(run.master_seed).child("trial", n, trial) for trial in trials]
    started = time.perf_counter()
    records = []
    for trial, stream, (sol, plan_echo) in zip(
            trials, streams, ALGORITHMS[run.algorithm][2](run, n, streams)):
        if isinstance(run.problem, SeparableQuadratic):
            obj = run.problem
            risk = obj.population_value(sol.w_hat.coords) - obj.population_value(obj.a)
            metric, value, error_bound = "excess_risk", float(risk), 0.0
        else:
            gap = exact_gap_bilinear(run.problem.payoff, sol.x.coords, sol.y.coords)
            metric, value, error_bound = "gap", gap.gap_estimate, gap.inner_error_bound
        records.append(RunRecord(
            trial=trial, n=n, algorithm=run.algorithm, mode=run.mode,
            metric=metric, metric_value=value, inner_error_bound=error_bound,
            samples_used=sol.samples_used, steps_run=sol.steps_run,
            vertex_draws=sol.vertex_draws, wall_time_ms=0.0,
            seed=stream.stream_id, plan_json=plan_echo,
        ))
    share_ms = (time.perf_counter() - started) * 1e3 / len(records)  # the batch's time, evenly
    for rec in records:
        rec.wall_time_ms = share_ms
    return records


# --------------------------------------------------------------------------
# subcommands


def cmd_run(args: argparse.Namespace) -> int:
    if not 1 <= args.jobs <= MAX_JOBS:
        raise ConfigError(f"--jobs must lie in [1, {MAX_JOBS}], got {args.jobs}")
    cfg = load_config(args.config)
    run, n_grid, trials = _parse_run(cfg, os.path.dirname(os.path.abspath(args.config)))
    batches = [(run, n, range(t, min(t + BATCH_TRIALS, trials)))
               for n in n_grid for t in range(0, trials, BATCH_TRIALS)]
    started = time.perf_counter()
    workers = min(args.jobs, len(batches))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_batch, *zip(*batches)))
    else:
        done = [_run_batch(*batch) for batch in batches]
    records = sorted((rec for recs in done for rec in recs), key=lambda r: (r.n, r.trial))

    with _atomic_write(args.out, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rec.csv_row() for rec in records)
    _write_json(args.out + ".meta.json", {
        "config_hash": config_hash(cfg),
        "code_version": __version__,
        "master_seed": run.master_seed,
        "rows": len(records),
    })
    elapsed = time.perf_counter() - started
    total_ms = sum(r.wall_time_ms for r in records)
    print(
        f"wrote {len(records)} rows to {args.out} "
        f"({elapsed:.2f}s wall, {total_ms:.0f}ms solver time)",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite != "all" and args.suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {args.suite!r}; choose 'all' or one of {SUITE_NAMES}")
    if not 2 <= args.reps <= MAX_REPS:
        raise ConfigError(f"--reps must lie in [2, {MAX_REPS}], got {args.reps}")
    if not 0 <= args.seed < 2**64:  # RngStream masks to 64 bits: -1 would draw as 2^64-1
        raise ConfigError(f"--seed must lie in [0, 2^64), got {args.seed}")
    rng = RngStream(args.seed)
    if args.suite == "all":
        reports = run_all_suites(args.reps, rng)
    else:
        reports = [verify_maurey_suite(args.suite, args.reps, rng)]
    passed = all(r.passed for r in reports)
    _write_json(args.out, {
        "reps": args.reps,
        "seed": args.seed,
        "suites": [r.as_dict() for r in reports],
        "passed": passed,
    })
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        extra = f"  [{r.warning}]" if r.warning else ""
        print(
            f"{status} {r.suite}: measured={r.measured:.6g} "
            f"bound={r.bound:.6g} slack={r.slack:.6g}{extra}",
            file=sys.stderr,
        )
    return EXIT_OK if passed else EXIT_ORACLE


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    privacy, master_seed = _budget(cfg)
    problem = _build_problem(cfg, "synth_data", "synth", master_seed,
                             os.path.dirname(os.path.abspath(args.config)))
    report = synth_data_generate(problem, privacy, RngStream(master_seed).child("synth"))
    with _atomic_write(args.out, newline="") as fh:
        for start in range(0, len(report.synthetic), SYNTH_CHUNK_ROWS):
            rows = report.synthetic[start:start + SYNTH_CHUNK_ROWS].astype(np.int64, copy=False)
            fh.write("".join(f"{v}\n" for v in rows.tolist()))
    _write_json(args.out + ".report.json", {
        "config_hash": config_hash(cfg),
        "code_version": __version__,
        "max_query_error": report.max_query_error,
        "query_errors": [float(e) for e in report.query_errors],
        "samples_used": report.samples_used,
        "plan": dataclasses.asdict(report.plan),
    })
    print(f"max query error {report.max_query_error:.6g}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpsimplex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a seeded experiment grid")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--jobs", type=int, default=1,
                       help=f"worker processes, 1 to {MAX_JOBS} (default: 1)")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run sparsification verification suites")
    p_verify.add_argument("--suite", default="all")
    p_verify.add_argument("--reps", type=int, default=MIN_REPS * 10)
    p_verify.add_argument("--out", required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_synth = sub.add_parser("synth", help="generate a private synthetic dataset")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except DpSimplexError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
