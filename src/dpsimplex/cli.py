"""Seeded experiment runner.

Subcommands
-----------

``run --config cfg.json --out results.csv [--jobs N]``
    Execute a trial grid: for every (n, trial) derive an independent stream,
    synthesize the dataset, plan the schedule (or validate explicit
    overrides), run the solver, evaluate, and append one CSV row. Output is
    byte-reproducible for a fixed config and master seed: rows are sorted by
    (n, trial) regardless of worker scheduling and the ``wall_time_ms``
    column is written as 0 (real timings go to stderr) so repeated runs
    produce identical files.

``verify --suite <name|all> --reps R --out report.json``
    Run the sparsification verification suites and write a JSON report with
    measured vs bound values. Exit code 5 if any suite fails.

``synth --config cfg.json --out synthetic.csv``
    Private synthetic-data generation for a categorical problem; writes the
    synthetic categories plus a sibling ``.report.json`` with the worst query
    error.

Exit codes: 0 ok, 2 config error, 3 budget error, 4 dataset error,
5 oracle/verification error.

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
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import struct
import sys
import time

import numpy as np

from . import __version__
from .errors import BudgetError, ConfigError, DatasetError, DpSimplexError, OracleError
from .privacy import (
    BrPlan,
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
    synth_data_generate,
)
from .rng import RngStream
from .solvers import (
    boosting_shape,
    solve_boosted,
    solve_smd_bias_reduced,
    solve_smd_nonprivate,
    solve_smd_vertex,
)
from .sco import solve_dp_sco
from .verify import MIN_REPS, SUITE_NAMES, run_all_suites, verify_maurey_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_DATASET = 4
EXIT_ORACLE = 5

CSV_COLUMNS = [
    "trial", "n", "algorithm", "mode", "metric", "metric_value",
    "inner_error_bound", "samples_used", "steps_run", "vertex_draws",
    "wall_time_ms", "seed", "plan_json",
]

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
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
        if data.size != rows * cols:
            raise ConfigError(f"{path}: truncated payoff matrix")
        return data.reshape(rows, cols).copy()


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


# --------------------------------------------------------------------------
# configuration


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if cfg.get("version") != 1:
        raise ConfigError(f"unsupported config version {cfg.get('version')!r}")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required field {key!r}")
    return cfg[key]


def _build_game(problem: dict, master_seed: int, base_dir: str) -> MatrixGame:
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
    if A.ndim != 2:
        raise ConfigError("payoff must be a matrix")
    noise = float(problem.get("noise_scale", 0.5 * float(np.abs(A).max() or 1.0)))
    signs = RngStream(master_seed).child("payoff-noise").gen.integers(0, 2, size=A.shape) * 2 - 1
    return MatrixGame(A, noise * signs)


def _build_quadratic(problem: dict) -> SeparableQuadratic:
    try:
        return SeparableQuadratic(
            np.asarray(_require(problem, "weights"), dtype=np.float64),
            np.asarray(_require(problem, "target"), dtype=np.float64),
            np.asarray(_require(problem, "noise"), dtype=np.float64),
        )
    except ValueError as exc:
        raise ConfigError(f"bad quadratic_sco problem: {exc}") from exc


def _build_synth_problem(problem: dict, base_dir: str) -> SynthDataProblem:
    queries = np.asarray(_require(problem, "queries"), dtype=np.float64)
    if "data" in problem:
        data = np.asarray(problem["data"], dtype=np.int64)
    elif "data_file" in problem:
        path = os.path.join(base_dir, problem["data_file"])
        try:
            data = load_categories(path)
        except (OSError, UnicodeDecodeError, OverflowError) as exc:  # or a category past int64
            raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    else:
        raise ConfigError("synth_data problem needs 'data' or 'data_file'")
    true_dist = problem.get("true_dist")
    if true_dist is not None:
        true_dist = np.asarray(true_dist, dtype=np.float64)
    try:
        return SynthDataProblem(queries=queries, data=data, true_dist=true_dist)
    except ValueError as exc:
        raise ConfigError(f"bad synth_data problem: {exc}") from exc


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


@dataclasses.dataclass(frozen=True)
class _Trial:
    """What a runner needs of one (n, trial) cell of the grid."""

    cfg: dict
    algorithm: str
    n: int
    eps: float
    delta: float
    mode: str
    stream: RngStream


def _plan(t: _Trial, L0: float, planner):
    """The planned schedule, or the config's overrides enforced as a plan.

    Overrides name the schedule fields of the algorithm's plan class; the
    budget, mode, ``L0`` and ``n`` come from the trial, the batch size is
    ``n // T``, and ``C`` and ``ell`` are optional.
    """
    if not t.cfg.get("overrides"):
        return planner()
    ov = t.cfg["overrides"]
    plan_cls = ALGORITHMS[t.algorithm][1]
    fixed = {"mode": t.mode, "epsilon": t.eps, "delta": t.delta, "L0": L0, "n": t.n}
    defaults = {"C": L0**2, "ell": 1.0}
    fields = {}
    try:
        for f in dataclasses.fields(plan_cls):
            if f.name in fixed:
                fields[f.name] = fixed[f.name]
            elif f.name == "B_batch":
                # a T below 1 is left for validate() to reject
                fields[f.name] = max(1, t.n // max(1, fields["T"]))
            else:
                value = ov.get(f.name, defaults[f.name]) if f.name in defaults else ov[f.name]
                fields[f.name] = int(value) if f.type == "int" else float(value)
    except KeyError as exc:
        raise ConfigError(f"overrides for {t.algorithm} are missing {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"overrides for {t.algorithm} must be numbers: {exc}") from exc
    plan = plan_cls(**fields)
    plan.validate()  # explicit parameters are enforced, never trusted
    return plan


def _plan_json(plan) -> str:
    return json.dumps(dataclasses.asdict(plan), sort_keys=True)


def _run_smd_vertex(t: _Trial, game: MatrixGame):
    obj = game.objective()
    plan = _plan(t, obj.L0, lambda: plan_vertex_smd(
        t.n, t.eps, t.delta, obj.L0, obj.L1, obj.L2, game.ell, t.mode))
    data = game.sample_dataset(t.n, t.stream.child("data"))
    return solve_smd_vertex(obj, data, plan, t.stream.child("solve")), _plan_json(plan)


def _run_bias_reduced(t: _Trial, game: MatrixGame):
    obj = game.objective()
    plan = _plan(t, obj.L0, lambda: plan_bias_reduced(
        t.n, t.eps, t.delta, obj.L0, obj.L1, obj.L2, game.ell))
    data = game.sample_dataset(t.n, t.stream.child("data"))
    sol, _trace = solve_smd_bias_reduced(obj, data, plan, t.stream.child("solve"))
    return sol, _plan_json(plan)


def _run_boosted(t: _Trial, game: MatrixGame):
    if t.cfg.get("overrides"):
        raise ConfigError("boosted plans every inner schedule itself and takes no overrides")
    boost = t.cfg.get("boosting") or {}
    if "I" in boost and "J" in boost:
        I, J = int(boost["I"]), int(boost["J"])
    else:
        I, J = boosting_shape(float(boost.get("beta", 0.05)))
    data = game.sample_dataset(t.n, t.stream.child("data"))
    sol = solve_boosted(game.objective(), data, I, J, PrivacyParams(t.eps, t.delta),
                        t.stream.child("solve"), ell=game.ell)
    return sol, json.dumps({"I": I, "J": J}, sort_keys=True)


def _run_nonprivate(t: _Trial, game: MatrixGame):
    ov = t.cfg.get("overrides") or {}
    try:
        T = int(ov.get("T", 10_000))
        tau = float(ov["tau"]) if "tau" in ov else None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"overrides for nonprivate_smd must be numbers: {exc}") from exc
    if T < 1:
        raise ConfigError(f"nonprivate_smd needs T >= 1, got {T}")
    if tau is None:
        tau = math.sqrt(game.ell / T) / game.objective().L0
    if not (math.isfinite(tau) and tau > 0):
        raise ConfigError(f"nonprivate_smd needs a positive finite tau, got {tau}")
    sol = solve_smd_nonprivate(game.population(), T, tau, game.d_x, game.d_y)
    return sol, json.dumps({"T": T, "tau": tau}, sort_keys=True)


def _run_dp_sco(t: _Trial, obj: SeparableQuadratic):
    plan = _plan(t, obj.L0, lambda: plan_anytime_sco(
        t.n, t.eps, t.delta, obj.L0, obj.L1, obj.L2, math.log(obj.dim), t.mode))
    data = obj.sample_dataset(t.n, t.stream.child("data"))
    return solve_dp_sco(obj, data, plan, t.stream.child("solve")), _plan_json(plan)


# name -> (problem kind, plan class or None, runner). A runner returns the
# solution and the plan JSON echoed in the CSV row; rows of algorithms with a
# plan class are re-validated against that class before they are written.
ALGORITHMS = {
    "smd_vertex": ("matrix_game", SsmdPlan, _run_smd_vertex),
    "smd_bias_reduced": ("matrix_game", BrPlan, _run_bias_reduced),
    "boosted": ("matrix_game", None, _run_boosted),
    "dp_sco": ("quadratic_sco", ScoPlan, _run_dp_sco),
    "nonprivate_smd": ("matrix_game", None, _run_nonprivate),
}


def _run_trial(cfg: dict, base_dir: str, n: int, trial: int) -> RunRecord:
    algorithm = _require(cfg, "algorithm")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {tuple(ALGORITHMS)}")
    kind, _, runner = ALGORITHMS[algorithm]
    mode = cfg.get("mode", "quadratic")
    eps, delta = float(_require(cfg, "epsilon")), float(_require(cfg, "delta"))
    master_seed = int(_require(cfg, "master_seed"))
    problem = _require(cfg, "problem")
    if _require(problem, "kind") != kind:
        raise ConfigError(f"algorithm {algorithm} needs a {kind} problem, got {problem['kind']!r}")
    stream = RngStream(master_seed).child("trial", n, trial)
    t = _Trial(cfg, algorithm, n, eps, delta, mode, stream)
    started = time.perf_counter()

    if kind == "quadratic_sco":
        obj = _build_quadratic(problem)
        sol, plan_echo = runner(t, obj)
        risk = obj.population_value(sol.w_hat.coords) - obj.population_value(obj.a)
        metric, value, error_bound = "excess_risk", float(risk), 0.0
    else:
        game = _build_game(problem, master_seed, base_dir)
        sol, plan_echo = runner(t, game)
        gap = exact_gap_bilinear(game.payoff, sol.x, sol.y)
        metric, value, error_bound = "gap", gap.gap_estimate, gap.inner_error_bound
    return RunRecord(
        trial=trial, n=n, algorithm=algorithm, mode=mode,
        metric=metric, metric_value=value, inner_error_bound=error_bound,
        samples_used=sol.samples_used, steps_run=sol.steps_run, vertex_draws=sol.vertex_draws,
        wall_time_ms=(time.perf_counter() - started) * 1e3,
        seed=stream.stream_id, plan_json=plan_echo,
    )


def _revalidate_plan(record: RunRecord) -> None:
    """Re-check the echoed schedule against its privacy invariants.

    Rows are re-validated at write time so a row can never reach disk with a
    schedule that violates its own preconditions, whatever path produced it.
    The non-private baseline and the boosted meta-schedule carry no step-size
    precondition of their own.
    """
    plan_cls = ALGORITHMS[record.algorithm][1]
    if plan_cls is not None:
        plan_cls(**json.loads(record.plan_json)).validate()


def _run_trial_task(args: tuple) -> tuple:
    cfg, base_dir, n, trial = args
    record = _run_trial(cfg, base_dir, n, trial)
    return (n, trial, record)


# --------------------------------------------------------------------------
# subcommands


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    n_grid = [int(v) for v in _require(cfg, "n_grid")]
    trials = int(_require(cfg, "trials"))
    if trials < 1 or not n_grid:
        raise ConfigError("need at least one n value and one trial")
    PrivacyParams(float(_require(cfg, "epsilon")), float(_require(cfg, "delta")))

    tasks = [(cfg, base_dir, n, t) for n in n_grid for t in range(trials)]
    started = time.perf_counter()
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_trial_task, tasks))
    else:
        results = [_run_trial_task(t) for t in tasks]
    results.sort(key=lambda r: (r[0], r[1]))
    records = [r[2] for r in results]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        _revalidate_plan(rec)
        writer.writerow(rec.csv_row())
    with open(args.out, "w", newline="") as fh:
        fh.write(buf.getvalue())
    meta = {
        "config_hash": config_hash(cfg),
        "code_version": __version__,
        "master_seed": int(cfg["master_seed"]),
        "rows": len(records),
    }
    with open(args.out + ".meta.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
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
    rng = RngStream(args.seed)
    if args.suite == "all":
        reports = run_all_suites(args.reps, rng)
    else:
        reports = [verify_maurey_suite(args.suite, args.reps, rng)]
    payload = {
        "reps": args.reps,
        "seed": args.seed,
        "suites": [r.as_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        extra = f"  [{r.warning}]" if r.warning else ""
        print(
            f"{status} {r.suite}: measured={r.measured:.6g} "
            f"bound={r.bound:.6g} slack={r.slack:.6g}{extra}",
            file=sys.stderr,
        )
    return EXIT_OK if payload["passed"] else EXIT_ORACLE


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    problem_cfg = _require(cfg, "problem")
    if _require(problem_cfg, "kind") != "synth_data":
        raise ConfigError("synth needs a synth_data problem")
    problem = _build_synth_problem(problem_cfg, base_dir)
    privacy = PrivacyParams(float(_require(cfg, "epsilon")), float(_require(cfg, "delta")))
    rng = RngStream(int(_require(cfg, "master_seed"))).child("synth")
    report = synth_data_generate(problem, privacy, rng)
    with open(args.out, "w", newline="") as fh:
        for v in report.synthetic:
            fh.write(f"{int(v)}\n")
    payload = {
        "config_hash": config_hash(cfg),
        "code_version": __version__,
        "max_query_error": report.max_query_error,
        "query_errors": [float(e) for e in report.query_errors],
        "samples_used": report.samples_used,
        "plan": dataclasses.asdict(report.plan),
    }
    with open(args.out + ".report.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"max query error {report.max_query_error:.6g}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpsimplex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a seeded experiment grid")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument(
        "--jobs", type=int, default=int(os.environ.get("DPSIMPLEX_JOBS", "1")),
        help="trial-level worker processes (default: DPSIMPLEX_JOBS or 1)",
    )
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
