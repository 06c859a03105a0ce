"""Output checks for the benchmark workloads.

Each check rests on a computation of the benchmark's own (its own payoff
matrix, its own query answers, the privacy caps written out from their
closed forms) or on a property the method must have. None compares against
a stored copy of an earlier output. A failed check raises ``CheckFailed``.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# tolerance the program itself allows when re-checking a bound met with equality
REL_TOL = 1e-9

SUITES = (
    "value_bias",
    "grad_bias_second_order",
    "grad_bias_first_order",
    "value_tail",
    "max_error_moment",
    "grad_error_moment_second_order",
    "grad_error_moment_first_order",
)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class RunSpec:
    """What the benchmark asked ``run`` for, with its own copy of the payoff."""

    A: np.ndarray
    noise_scale: float
    algorithm: str
    mode: str
    n_grid: list
    trials: int
    epsilon: float
    delta: float
    beta: float | None = None


@dataclass(frozen=True)
class SynthSpec:
    queries: np.ndarray
    true_dist: np.ndarray
    rows: int


def read_run_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_synthetic(path: Path) -> list[int]:
    return [int(line) for line in Path(path).read_text().split()]


def boosting_shape(beta: float) -> tuple[int, int]:
    I = math.ceil(math.log2(4.0 / beta))
    return I, math.ceil(math.log2(8.0 * I / beta))


def check_run(rows: list[dict], spec: RunSpec) -> None:
    expected = [(n, t) for n in spec.n_grid for t in range(spec.trials)]
    got = [(int(r["n"]), int(r["trial"])) for r in rows]
    _require(got == expected, f"rows {got} do not cover the grid {expected}")
    A = spec.A
    L0 = float(np.abs(A).max()) + spec.noise_scale
    spread = float(A.max() - A.min())
    ln1d = math.log(1.0 / spec.delta)
    for r in rows:
        where = f"{spec.algorithm} n={r['n']} trial={r['trial']}"
        n = int(r["n"])
        _require(r["algorithm"] == spec.algorithm, f"{where}: algorithm {r['algorithm']}")
        _require(r["metric"] == "gap", f"{where}: metric {r['metric']}")
        gap = float(r["metric_value"])
        _require(0.0 <= gap <= spread, f"{where}: gap {gap} outside [0, {spread}]")
        samples, steps, draws = (int(r[k]) for k in ("samples_used", "steps_run", "vertex_draws"))
        _require(samples <= n, f"{where}: samples_used {samples} > n {n}")
        plan = json.loads(r["plan_json"])
        if spec.algorithm == "smd_vertex":
            _check_vertex_row(where, plan, spec, samples, steps, draws, L0, ln1d)
        elif spec.algorithm == "smd_bias_reduced":
            _check_bias_reduced_row(where, plan, spec, draws, L0, ln1d)
        elif spec.algorithm == "boosted":
            shape = (plan["I"], plan["J"])
            _require(shape == boosting_shape(spec.beta),
                     f"{where}: (I, J) = {shape}, expected {boosting_shape(spec.beta)}")
        else:
            raise CheckFailed(f"no check for algorithm {spec.algorithm}")


def _check_budget(where, plan, spec):
    _require(plan["epsilon"] == spec.epsilon and plan["delta"] == spec.delta,
             f"{where}: plan budget ({plan['epsilon']}, {plan['delta']}) is not the config's")


def _check_vertex_row(where, plan, spec, samples, steps, draws, L0, ln1d):
    _check_budget(where, plan, spec)
    T, K, B, tau = plan["T"], plan["K"], plan["B_batch"], plan["tau"]
    _require(plan["mode"] == spec.mode, f"{where}: mode {plan['mode']}")
    if spec.mode == "quadratic":
        _require(K == 1, f"{where}: quadratic mode needs K = 1, got {K}")
    _require(steps == T, f"{where}: steps_run {steps} != T {T}")
    _require(samples == T * B, f"{where}: samples_used {samples} != T*B {T * B}")
    _require(draws == 2 * T * (K + 1), f"{where}: vertex_draws {draws} != 2T(K+1) {2 * T * (K + 1)}")
    cap = B * spec.epsilon / (16.0 * L0 * math.sqrt(T * (K + 1) * ln1d))
    _require(tau <= cap * (1 + REL_TOL), f"{where}: tau {tau} above the privacy cap {cap}")


def _check_bias_reduced_row(where, plan, spec, draws, L0, ln1d):
    _check_budget(where, plan, spec)
    U, tau, alpha = plan["U"], plan["tau"], plan["alpha"]
    cap = spec.epsilon**2 / (48.0 * ln1d * (9.0 * tau * alpha * L0) ** 2)
    _require(U <= cap * (1 + REL_TOL), f"{where}: stopping weight {U} above the privacy cap {cap}")
    _require(draws <= 6 * U, f"{where}: vertex_draws {draws} > 6U {6 * U}")


def check_synth(synthetic: list[int], report: dict, spec: SynthSpec) -> None:
    Q = spec.queries
    domain = Q.shape[1]
    _require(len(synthetic) == spec.rows, f"synth: {len(synthetic)} rows, expected {spec.rows}")
    bad = [c for c in synthetic if not 0 <= c < domain]
    _require(not bad, f"synth: categories {sorted(set(bad))[:5]} outside [0, {domain})")
    answers = Q[:, np.asarray(synthetic, dtype=np.int64)].mean(axis=1)
    truth = Q @ spec.true_dist
    errors = np.abs(truth - answers)
    reported = np.asarray(report["query_errors"], dtype=np.float64)
    _require(reported.shape == errors.shape and bool(np.all(np.abs(reported - errors) <= 1e-9)),
             "synth: reported query errors do not match the synthetic file")
    _require(abs(report["max_query_error"] - errors.max()) <= 1e-9,
             f"synth: max_query_error {report['max_query_error']} != {errors.max()}")
    uniform = float(np.abs(truth - Q.mean(axis=1)).max())
    _require(errors.max() < uniform,
             f"synth: max error {errors.max()} not below the uniform distribution's {uniform}")
    _require(report["samples_used"] <= spec.rows, "synth: samples_used above the data size")


def check_verify(report: dict, reps: int) -> None:
    _require(report["reps"] == reps, f"verify: reps {report['reps']} != {reps}")
    suites = {s["suite"]: s for s in report["suites"]}
    _require(sorted(suites) == sorted(SUITES) and len(report["suites"]) == len(SUITES),
             f"verify: suites {sorted(suites)} are not the seven")
    for name, s in suites.items():
        _require(s["reps"] == reps, f"verify {name}: reps {s['reps']}")
        _require(s["measured"] <= s["bound"] + s["slack"],
                 f"verify {name}: measured {s['measured']} > bound {s['bound']} + slack {s['slack']}")
        _require(s["passed"] is True and s["warning"] is None, f"verify {name}: not passed")
    _require(report["passed"] is True, "verify: report not passed")
