"""Seeded inputs and command lists for the benchmark workloads.

Every input is generated here from the ``--seed`` argument with the
benchmark's own numpy generator; the program only ever sees the files this
module writes and the command lines it builds. A workload is a list of CLI
commands (one *pass*); the runner repeats whole passes.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

EPSILON = 1.0
DELTA = 1e-5
NOISE_SCALE = 0.5
# The program's own master seed is held fixed so that every benchmark seed
# runs the same number of solver steps (the bias-reduced stopping time is
# random); the benchmark seed picks the payoffs, the data and the queries.
MASTER_SEED = 20250810
SYNTH_DOMAIN = 16
SYNTH_QUERIES = 10

# workload -> one-line reason it exists (mirrored in BENCHMARK.json)
WORKLOADS = {
    "largegame": "1000x1000 game: the dense A + zE gradient build dominates, per-step overhead is small",
    "smallgrid": "20x20 game and synth: trivial gradients, time goes to per-step simplex and solver Python work",
    "boosted": "30x30 boosted run: running averages, cached sparsification, many short inner solves and planner calls",
    "verify": "vectorized Monte-Carlo suites: no solver loop, the one workload with a large memory peak",
}

PAYOFF_MAGIC = b"DPXM"


@dataclass
class Command:
    """One CLI invocation of a pass, with the check of what it wrote."""

    name: str
    argv: list[str]
    size: int  # input size: sum of n over CSV rows, rows synthesized, or reps x suites
    outputs: list[Path]
    check: Callable[[], None]
    spec: object  # what the check compares against: a RunSpec, a SynthSpec or the reps
    configs: list[Path] = field(default_factory=list)


def _generator(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, tag]))


def write_payoff(path: Path, matrix: np.ndarray) -> None:
    """``DPXM`` payoff file: magic, two little-endian uint32 dims, float64 row-major."""
    m = np.ascontiguousarray(matrix, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(PAYOFF_MAGIC + struct.pack("<II", *m.shape))
        m.tofile(fh)  # no temporary copy, so input generation stays below the program's peak


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1))
    return path


def game_config(problem: dict, algorithm: str, mode: str, n_grid, trials, **extra):
    cfg = {
        "version": 1,
        "problem": problem,
        "algorithm": algorithm,
        "mode": mode,
        "epsilon": EPSILON,
        "delta": DELTA,
        "n_grid": list(n_grid),
        "trials": trials,
        "master_seed": MASTER_SEED,
    }
    cfg.update(extra)
    return cfg


def run_command(wd: Path, stem: str, cfg: dict, A: np.ndarray) -> Command:
    """``run`` on ``cfg`` (written to ``stem.json``), checked against the payoff ``A``."""
    cfg_path = _write_json(wd / f"{stem}.json", cfg)
    out = wd / f"{stem}.csv"
    spec = checks.RunSpec(
        A=A,
        noise_scale=cfg["problem"]["noise_scale"],
        algorithm=cfg["algorithm"],
        mode=cfg["mode"],
        n_grid=cfg["n_grid"],
        trials=cfg["trials"],
        epsilon=cfg["epsilon"],
        delta=cfg["delta"],
        beta=cfg.get("boosting", {}).get("beta"),
    )
    return Command(
        name=f"run.{cfg['algorithm']}",
        argv=["run", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"],
        size=sum(cfg["n_grid"]) * cfg["trials"],
        outputs=[out, Path(str(out) + ".meta.json")],
        check=lambda: checks.check_run(checks.read_run_csv(out), spec),
        spec=spec,
        configs=[cfg_path],
    )


def synth_command(wd: Path, gen: np.random.Generator, rows: int) -> Command:
    """``synth`` on skewed categorical data: geometric weights over a shuffled domain."""
    p = 0.75 ** gen.permutation(SYNTH_DOMAIN).astype(np.float64)
    p /= p.sum()
    cats = gen.choice(SYNTH_DOMAIN, size=rows, p=p)
    Q = gen.uniform(-1.0, 1.0, size=(SYNTH_QUERIES, SYNTH_DOMAIN))
    # one category per line, written row by row: no list of 2e5 strings in memory
    np.savetxt(wd / "categories.csv", cats, fmt="%d")
    cfg = {
        "version": 1,
        "problem": {
            "kind": "synth_data",
            "queries": Q.tolist(),
            "data_file": "categories.csv",
            "true_dist": p.tolist(),
        },
        "epsilon": EPSILON,
        "delta": DELTA,
        "master_seed": MASTER_SEED,
    }
    cfg_path = _write_json(wd / "synth.json", cfg)
    out = wd / "synthetic.csv"
    report = Path(str(out) + ".report.json")
    spec = checks.SynthSpec(queries=Q, true_dist=p, rows=rows)
    return Command(
        name="synth",
        argv=["synth", "--config", str(cfg_path), "--out", str(out)],
        size=rows,
        outputs=[out, report],
        check=lambda: checks.check_synth(
            checks.read_synthetic(out), json.loads(report.read_text()), spec),
        spec=spec,
        configs=[cfg_path],
    )


def verify_command(wd: Path, seed: int, reps: int) -> Command:
    out = wd / "verify.json"
    return Command(
        name="verify",
        argv=["verify", "--suite", "all", "--reps", str(reps), "--seed", str(seed),
              "--out", str(out)],
        size=reps * len(checks.SUITES),
        outputs=[out],
        check=lambda: checks.check_verify(json.loads(out.read_text()), reps),
        spec=reps,
    )


def _largegame(seed: int, wd: Path) -> list[Command]:
    A = _generator(seed, 1).uniform(-1.0, 1.0, size=(1000, 1000))
    write_payoff(wd / "largegame.dpxm", A)
    problem = {"kind": "matrix_game", "payoff_file": "largegame.dpxm", "noise_scale": NOISE_SCALE}
    return [
        run_command(wd, "vertex", game_config(problem, "smd_vertex", "quadratic", [30_000], 1), A),
        run_command(wd, "reduced",
                    game_config(problem, "smd_bias_reduced", "quadratic", [1_000_000], 1), A),
    ]


def _smallgrid(seed: int, wd: Path) -> list[Command]:
    gen = _generator(seed, 2)
    A = gen.uniform(-1.0, 1.0, size=(20, 20))
    problem = {"kind": "matrix_game", "payoff": A.tolist(), "noise_scale": NOISE_SCALE}
    grid = game_config(problem, "smd_vertex", "second_order", [100_000, 300_000], 3)
    return [run_command(wd, "grid", grid, A), synth_command(wd, gen, 200_000)]


def _boosted(seed: int, wd: Path) -> list[Command]:
    A = _generator(seed, 3).uniform(-1.0, 1.0, size=(30, 30))
    problem = {"kind": "matrix_game", "payoff": A.tolist(), "noise_scale": NOISE_SCALE}
    cfg = game_config(problem, "boosted", "quadratic", [1_000_000], 1, boosting={"beta": 0.05})
    return [run_command(wd, "boosted", cfg, A)]


def _verify(seed: int, wd: Path) -> list[Command]:
    return [verify_command(wd, seed, 100_000)]


_MAKERS = {
    "largegame": _largegame,
    "smallgrid": _smallgrid,
    "boosted": _boosted,
    "verify": _verify,
}


def build(workload: str, seed: int, workdir: Path) -> list[Command]:
    """Write the workload's inputs for ``seed`` into ``workdir``; return one pass."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _MAKERS[workload](seed, workdir)

