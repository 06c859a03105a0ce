import concurrent.futures
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsimplex import cli
from dpsimplex.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    load_categories,
    PAYOFF_MAGIC,
    load_payoff,
    main,
    save_payoff,
)
from dpsimplex.errors import ConfigError
from dpsimplex.verify import MAX_REPS

REPO = Path(__file__).resolve().parents[1]
from dpsimplex.rng import RngStream


def write_config(path, **extra):
    payoff = RngStream(33).gen.uniform(-1, 1, size=(5, 5)).tolist()
    cfg = {
        "version": 1,
        "problem": {"kind": "matrix_game", "payoff": payoff, "noise_scale": 0.4},
        "algorithm": "smd_vertex",
        "mode": "quadratic",
        "epsilon": 1.0,
        "delta": 1e-5,
        "n_grid": [500, 1500],
        "trials": 2,
        "master_seed": 99,
    }
    cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return cfg


# ---- run ----------------------------------------------------------------------


def test_run_is_byte_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() == (tmp_path / "b.csv.meta.json").read_bytes()


def test_run_parallel_jobs_match_serial(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(["run", "--config", str(cfg), "--out", str(serial)]) == EXIT_OK
    assert main(["run", "--config", str(cfg), "--out", str(parallel), "--jobs", "2"]) == EXIT_OK
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("jobs", [0, -1, cli.MAX_JOBS + 1])
def test_run_rejects_jobs_out_of_range_before_any_batch(tmp_path, capsys, monkeypatch, jobs):
    def unreachable(*args, **kwargs):
        raise AssertionError("a worker or a batch started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unreachable)
    monkeypatch.setattr(cli, "_run_batch", unreachable)
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    out = tmp_path / "out.csv"
    argv = ["run", "--config", str(cfg), "--out", str(out), "--jobs", str(jobs)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--jobs" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("n_grid, workers", [([500], []), ([500, 1500], [2])])
def test_run_starts_no_more_workers_than_batches(tmp_path, monkeypatch, n_grid, workers):
    started = []

    class InProcessPool:  # records its worker count and starts none
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, n_grid=n_grid)  # one batch per n
    serial, pooled = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(["run", "--config", str(cfg), "--out", str(serial)]) == EXIT_OK
    assert main(["run", "--config", str(cfg), "--out", str(pooled),
                 "--jobs", str(cli.MAX_JOBS)]) == EXIT_OK
    assert started == workers
    assert serial.read_bytes() == pooled.read_bytes()


def test_run_bytes_do_not_depend_on_the_batch_split(tmp_path, monkeypatch):
    # trials of one n step as one batch; splitting them differently changes no byte
    cfg = tmp_path / "cfg.json"
    write_config(cfg, trials=3)
    outs = []
    for batch_trials in (1, 2, cli.BATCH_TRIALS):
        monkeypatch.setattr(cli, "BATCH_TRIALS", batch_trials)
        outs.append(tmp_path / f"b{batch_trials}.csv")
        assert main(["run", "--config", str(cfg), "--out", str(outs[-1])]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_run_rows_and_metadata(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    out = tmp_path / "r.csv"
    main(["run", "--config", str(cfg_path), "--out", str(out)])
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header == [
        "trial", "n", "algorithm", "mode", "metric", "metric_value",
        "inner_error_bound", "samples_used", "steps_run", "vertex_draws",
        "wall_time_ms", "seed", "plan_json",
    ]
    assert len(lines) == 1 + len(cfg["n_grid"]) * cfg["trials"]
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert meta["master_seed"] == 99 and meta["rows"] == 4
    assert len(meta["config_hash"]) == 64


def test_run_rejects_overspent_budget(tmp_path):
    cfg = tmp_path / "cfg.json"
    # epsilon >= 8 ln(1/delta) is not a valid budget
    write_config(cfg, epsilon=8 * math.log(1e5), delta=1e-5)
    out = tmp_path / "r.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_BUDGET
    assert not out.exists()


def test_run_rejects_bad_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG

    cfg2 = tmp_path / "cfg2.json"
    write_config(cfg2, version=3)
    assert main(["run", "--config", str(cfg2), "--out", str(tmp_path / "y.csv")]) == EXIT_CONFIG


def test_run_validates_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, overrides={"T": 10, "tau": 10.0, "K": 1})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == EXIT_BUDGET


def test_run_accepts_valid_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, overrides={"T": 10, "tau": 1e-4, "K": 1}, n_grid=[500], trials=1)
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    row = out.read_text().splitlines()[1].split(",")
    assert row[8] == "10"  # steps_run echoes the override


def test_run_dp_sco_problem(tmp_path):
    cfg = tmp_path / "sco.json"
    d = 8
    gen = RngStream(44).gen
    target = gen.dirichlet(np.ones(d) * 4)
    cfg.write_text(json.dumps({
        "version": 1,
        "problem": {
            "kind": "quadratic_sco",
            "weights": gen.uniform(0.5, 1.5, size=d).tolist(),
            "target": target.tolist(),
            "noise": (0.2 * gen.uniform(-1, 1, size=d)).tolist(),
        },
        "algorithm": "dp_sco",
        "mode": "second_order",
        "epsilon": 1.0,
        "delta": 1e-5,
        "n_grid": [2000],
        "trials": 2,
        "master_seed": 5,
    }))
    out = tmp_path / "sco.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert all(row.split(",")[4] == "excess_risk" for row in rows)


def test_run_nonprivate_baseline(tmp_path):
    cfg = tmp_path / "np.json"
    write_config(cfg, algorithm="nonprivate_smd", overrides={"T": 500}, n_grid=[100], trials=1)
    out = tmp_path / "np.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    row = out.read_text().splitlines()[1].split(",")
    assert row[2] == "nonprivate_smd" and row[9] == "0"  # no vertex draws


def test_nonprivate_baseline_solves_once_per_command(tmp_path, monkeypatch):
    # the baseline reads neither n nor a trial's stream: one solve serves every batch
    solve = cli.solve_smd_nonprivate
    cfg = tmp_path / "np.json"
    write_config(cfg, algorithm="nonprivate_smd", overrides={"T": 500}, n_grid=[100, 200, 300],
                 trials=3)
    for jobs in (1, 2):
        solves = []
        monkeypatch.setattr(cli, "solve_smd_nonprivate", lambda *a: solves.append(1) or solve(*a))
        out = tmp_path / f"np{jobs}.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", str(jobs)]) == EXIT_OK
        assert len(solves) == 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a0f6ffe92e877494a36283551238d6841f1e168767623a39727e0d77e9fc4c19")  # a solve per trial


@pytest.mark.parametrize("tau", [-1.0, 0.0, float("nan")])
def test_nonprivate_bad_tau_exits_2_before_any_batch(tmp_path, capsys, monkeypatch, tau):
    def unreachable(*args):
        raise AssertionError("a batch ran with an unchecked schedule")

    monkeypatch.setattr(cli, "_run_batch", unreachable)
    cfg = tmp_path / "np.json"
    write_config(cfg, algorithm="nonprivate_smd", overrides={"T": 500, "tau": tau},
                 n_grid=[100], trials=1)
    out = tmp_path / "np.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "tau" in err
    assert not out.exists()


def test_run_boosted_smoke(tmp_path):
    cfg = tmp_path / "b.json"
    write_config(
        cfg, algorithm="boosted", epsilon=2.0, delta=1e-4,
        boosting={"I": 1, "J": 1}, n_grid=[16000], trials=1,
    )
    out = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK


def test_run_bias_reduced_planned_and_overridden(tmp_path):
    cfg = tmp_path / "br.json"
    out = tmp_path / "br.csv"

    def only_row():
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        return row, json.loads(row["plan_json"])

    write_config(cfg, algorithm="smd_bias_reduced", n_grid=[100_000], trials=1)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    row, plan = only_row()
    assert row["algorithm"] == "smd_bias_reduced" and row["metric"] == "gap"
    assert int(row["steps_run"]) > 0
    assert sorted(plan) == ["C", "L0", "M", "U", "alpha", "delta", "ell", "epsilon", "n", "tau"]

    overrides = {"U": 6.0, "M": 1, "alpha": 0.5, "tau": 1e-3}
    write_config(cfg, algorithm="smd_bias_reduced", n_grid=[5000], trials=1,
                 overrides=overrides)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    row, plan = only_row()
    assert {k: plan[k] for k in overrides} == overrides
    assert plan["ell"] == 1.0 and plan["n"] == 5000


def test_run_rejects_unknown_algorithm(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algorithm="bogus")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


def test_run_rejects_wrong_problem_kind(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algorithm="dp_sco", mode="second_order")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    quadratic = {"kind": "quadratic_sco", "weights": [1.0, 1.0], "target": [0.5, 0.5],
                 "noise": [0.1, 0.1]}
    write_config(cfg, problem=quadratic)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "y.csv")]) == EXIT_CONFIG


def test_run_rejects_bias_reduced_overrides_missing_u(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algorithm="smd_bias_reduced", n_grid=[5000], trials=1,
                 overrides={"M": 1, "alpha": 0.5, "tau": 1e-3})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


def test_run_rejects_boosted_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algorithm="boosted", overrides={"T": 10, "tau": 10.0, "K": 1})
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["smd_vertex", "nonprivate_smd"])
@pytest.mark.parametrize("T", ["abc", None, [10], 1e400],
                         ids=["text", "null", "list", "inf"])
def test_run_rejects_non_numeric_overrides(tmp_path, capsys, algorithm, T):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algorithm=algorithm, overrides={"T": T, "tau": 1e-4, "K": 1})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("field,value", [
    ("epsilon", "abc"), ("master_seed", "abc"), ("trials", None), ("n_grid", ["x"]),
    ("mode", "bogus"), (None, None),
], ids=["epsilon_text", "master_seed_text", "trials_null", "n_grid_text", "mode_unknown",
        "top_level_list"])
def test_run_rejects_malformed_config_fields(tmp_path, capsys, field, value):
    cfg = tmp_path / "cfg.json"
    if field is None:
        cfg.write_text(json.dumps([write_config(cfg)]))
    else:
        write_config(cfg, **{field: value})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_run_rejects_a_mode_the_planner_lacks(tmp_path, capsys):
    cfg = json.loads((REPO / "configs" / "sco_example.json").read_text())
    cfg["mode"] = "quadratic"  # a saddle-solver mode; dp_sco plans first or second order
    path = tmp_path / "sco.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def _synth_doc(tmp_path, **problem):
    doc = json.loads(synth_config(tmp_path, [0, 1, 1]).read_text())
    doc["problem"].update(problem)
    return doc


def _game_doc(tmp_path, **fields):
    doc = write_config(tmp_path / "cfg.json", n_grid=[300], trials=1)
    doc.update(fields)
    return doc


def _payoff(value):
    return lambda tmp_path: _game_doc(tmp_path, problem={"kind": "matrix_game", "payoff": value})


def _payoff_entry(value, **fields):
    def make_doc(tmp_path):
        doc = _game_doc(tmp_path, **fields)
        doc["problem"]["payoff"][0][0] = value
        return doc
    return make_doc


def _quadratic(key, value):
    def make_doc(tmp_path):
        doc = json.loads((REPO / "configs" / "sco_example.json").read_text())
        doc["problem"][key][0] = value
        return doc
    return make_doc


def _tiny_quadratic(tmp_path):
    doc = json.loads((REPO / "configs" / "sco_example.json").read_text())
    doc["problem"]["weights"] = [1e-200] * len(doc["problem"]["weights"])
    doc["problem"]["noise"] = [0.0] * len(doc["problem"]["noise"])
    return doc


# each case: (command, config document or raw text); each exits 1 with a traceback, or
# 0, without the boundary checks, except overrides_list, which exits 2 with a message
# that does not say the field must be an object, and the non-finite quadratic entries
# and smd_vertex_payoff_1e308, which exit 3 with the planner's budget error on L0 or tau.
# The overflow cases have a constant without a finite square: a planner's L0**2 raises
# OverflowError. The tiny cases have a positive L0 whose square underflows: the
# quadratic exits 1 with a planner's ZeroDivisionError, the game runs and exits 0.
_BOUNDARY_CASES = {
    "ragged_payoff": ("run", _payoff([[1.0, 2.0], [3.0]])),
    "nan_payoff_entry": ("run", _payoff([[1.0, float("nan")], [0.5, 0.2]])),
    "text_payoff": ("run", _payoff("abc")),
    "empty_payoff": ("run", _payoff([[]])),
    "text_noise_scale": ("run", lambda tmp_path: _game_doc(tmp_path, problem={
        "kind": "matrix_game", "payoff": [[1.0, 0.0], [0.0, 1.0]], "noise_scale": "abc"})),
    "integer_payoff_file": ("run", lambda tmp_path: _game_doc(tmp_path, problem={
        "kind": "matrix_game", "payoff_file": 5})),
    "problem_not_object": ("run", lambda tmp_path: _game_doc(tmp_path, problem=5)),
    "boosting_list": ("run", lambda tmp_path: _game_doc(tmp_path, algorithm="boosted",
                                                        boosting=[1])),
    "algorithm_list": ("run", lambda tmp_path: _game_doc(tmp_path, algorithm=["x"])),
    "overrides_list": ("run", lambda tmp_path: _game_doc(tmp_path, overrides=[1])),
    "trials_fractional": ("run", lambda tmp_path: _game_doc(tmp_path, trials=1.5)),
    "trials_2_64": ("run", lambda tmp_path: _game_doc(tmp_path, trials=2**64)),
    "n_past_int64": ("run", lambda tmp_path: _game_doc(tmp_path, n_grid=[10**30])),
    "master_seed_negative": ("run", lambda tmp_path: _game_doc(tmp_path, master_seed=-1)),
    "master_seed_2_64": ("run", lambda tmp_path: _game_doc(tmp_path, master_seed=2**64)),
    "text_queries": ("synth", lambda tmp_path: _synth_doc(tmp_path, queries="abc")),
    "ragged_queries": ("synth", lambda tmp_path: _synth_doc(tmp_path,
                                                            queries=[[1.0, 0.0], [1.0]])),
    "text_true_dist": ("synth", lambda tmp_path: _synth_doc(tmp_path, true_dist="abc")),
    "version_true": ("run", lambda tmp_path: _game_doc(tmp_path, version=True)),
    "int_past_the_digit_limit": ("run", lambda tmp_path: '{"version": 1, "trials": 1%s}'
                                 % ("0" * 5000)),
    "nan_quadratic_weight": ("run", _quadratic("weights", float("nan"))),
    "inf_quadratic_weight": ("run", _quadratic("weights", float("inf"))),
    "nan_quadratic_noise": ("run", _quadratic("noise", float("nan"))),
    "neg_inf_quadratic_noise": ("run", _quadratic("noise", float("-inf"))),
    "overflow_boosted_payoff_1e308": ("run", _payoff_entry(1e308, algorithm="boosted",
                                                          boosting={"I": 1, "J": 1})),
    "overflow_bias_reduced_payoff_1e200": ("run", _payoff_entry(1e200,
                                                                algorithm="smd_bias_reduced")),
    "overflow_dp_sco_noise_1e308": ("run", _quadratic("noise", 1e308)),
    "smd_vertex_payoff_1e308": ("run", _payoff_entry(1e308)),
    "tiny_dp_sco_weights_1e-200": ("run", _tiny_quadratic),
    "tiny_smd_vertex_payoff_1e-200": ("run", _payoff([[1e-200, 1e-200], [1e-200, 1e-200]])),
}


@pytest.mark.parametrize("case", sorted(_BOUNDARY_CASES))
def test_malformed_config_field_exits_2(tmp_path, capsys, case):
    command, make_doc = _BOUNDARY_CASES[case]
    cfg = tmp_path / "case.json"
    doc = make_doc(tmp_path)
    cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()
    if case == "overrides_list":
        assert "'overrides' must be a JSON object" in err


def _quickstart_bias_reduced_1e154(tmp_path):
    doc = json.loads((REPO / "configs" / "quickstart.json").read_text())
    doc.update(algorithm="smd_bias_reduced", n_grid=[20000], trials=1)
    doc["problem"]["payoff"][0][0] = 1e154
    return doc


@pytest.mark.parametrize("make_doc", [_quickstart_bias_reduced_1e154, _quadratic("noise", 1e154)],
                         ids=["quickstart_bias_reduced_payoff_1e154", "dp_sco_noise_1e154"])
def test_step_size_underflow_exits_3(tmp_path, capsys, make_doc):
    # the constants' squares are finite, but the planner's C U or curvature T overflows
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps(make_doc(tmp_path)))
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err.startswith("budget error:") and "Traceback" not in err
    assert "step size underflowed" in err and "L0=1e+154" in err
    assert not out.exists()


@pytest.mark.parametrize("scale, seed", [(1e5, 0), (1e7, 2)])
def test_large_constant_payoff_runs_to_a_csv(tmp_path, capsys, scale, seed):
    # the exact gap's two mat-vecs round by about max|A| 2^-52; the rounding of a
    # large-scale game's gap below 0 is no failed inner solver
    doc = json.loads((REPO / "configs" / "quickstart.json").read_text())
    doc["problem"].update(payoff=[[scale] * 20] * 20, noise_scale=0.0)
    doc["master_seed"] = seed
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 6 and {row["inner_error_bound"] for row in rows} == {"0.0"}


@pytest.mark.parametrize("value,accepted", [(2.0, True), (True, False), ("2", False)])
def test_integer_fields_take_integral_numbers_only(tmp_path, value, accepted):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, n_grid=[300], trials=value)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert code == (EXIT_OK if accepted else EXIT_CONFIG)


@pytest.mark.parametrize("algorithm,overrides", [
    ("smd_vertex", {"T": 10, "tau": 10.0, "K": 1}),
    ("smd_bias_reduced", {"U": 1e6, "M": 1, "alpha": 0.5, "tau": 1e-3}),
    ("dp_sco", {"T": 10, "tau": 10.0, "K": 1, "q": 5}),
])
def test_over_cap_override_is_stopped_by_the_solver(tmp_path, capsys, algorithm, overrides):
    # the solver's entry validate() is the one check of an override plan
    if algorithm == "dp_sco":
        doc = json.loads((REPO / "configs" / "sco_example.json").read_text())
        doc.update(n_grid=[1000], trials=1, overrides=overrides)
    else:
        doc = _game_doc(tmp_path, algorithm=algorithm, n_grid=[5000], overrides=overrides)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_BUDGET
    err = capsys.readouterr().err
    # the entry check's message, not the post-run audit's
    assert err.startswith("budget error:") and "exceeds privacy cap" in err
    assert os.listdir(tmp_path) == ["cfg.json"]


def _assert_refused(tmp_path, capsys, doc, code, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err
    assert os.listdir(tmp_path) == ["cfg.json"]  # no CSV, no temp file


@pytest.mark.parametrize("value", [2**63, 2**64, 1e308])
def test_integer_override_past_int64_exits_2(tmp_path, capsys, value):
    # 2^64 used to reach np.isfinite in the plan check, which raised TypeError (exit 1)
    doc = _game_doc(tmp_path, overrides={"T": value, "tau": 1e-4, "K": 1})
    _assert_refused(tmp_path, capsys, doc, EXIT_CONFIG, "overrides ['T'] must lie below 2^63")


@pytest.mark.parametrize("M, code", [(2000, EXIT_BUDGET), (2**70, EXIT_CONFIG)])
def test_bias_reduced_truncation_past_its_weight_is_refused(tmp_path, capsys, M, code):
    # M = 2000 used to overflow 2.0**M (exit 1) and M = 2^70 to size a level table past
    # numpy's limit (exit 1); the plan check now refuses 2^M > U before either
    doc = _game_doc(tmp_path, algorithm="smd_bias_reduced", n_grid=[20000],
                    overrides={"U": 100.0, "M": M, "alpha": 0.5, "tau": 1e-4})
    message = "2^M exceeds the stopping weight" if code == EXIT_BUDGET else "below 2^63"
    _assert_refused(tmp_path, capsys, doc, code, message)


def test_nonprivate_steps_past_the_cap_exit_2(tmp_path, capsys, monkeypatch):
    # no sample budget caps the baseline's T: T = 2^64 used to run without end
    def unreachable(*args):
        raise AssertionError("a batch ran with an unchecked schedule")

    monkeypatch.setattr(cli, "_run_batch", unreachable)
    doc = _game_doc(tmp_path, algorithm="nonprivate_smd",
                    overrides={"T": cli.MAX_NONPRIVATE_STEPS + 1})
    _assert_refused(tmp_path, capsys, doc, EXIT_CONFIG,
                    f"nonprivate_smd needs T in [1, {cli.MAX_NONPRIVATE_STEPS}]")


def test_cli_import_leaves_scipy_out():
    code = "import sys, dpsimplex.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "False"


def test_quickstart_config_under_a_minute(tmp_path):
    import time

    start = time.perf_counter()
    out = tmp_path / "quickstart.csv"
    assert main(["run", "--config", "configs/quickstart.json", "--out", str(out)]) == EXIT_OK
    assert time.perf_counter() - start < 60.0
    assert len(out.read_text().splitlines()) == 1 + 2 * 3  # n grid x trials


@pytest.mark.parametrize("algorithm,code", [("smd_vertex", EXIT_BUDGET),
                                            ("nonprivate_smd", EXIT_CONFIG)])
def test_run_rejects_zero_steps_override(tmp_path, algorithm, code):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, algorithm=algorithm, overrides={"T": 0, "tau": 1e-4, "K": 1})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == code


def test_quickstart_bytes_are_pinned(tmp_path):
    # a speedup must not change what is released
    out = tmp_path / "quickstart.csv"
    assert main(["run", "--config", str(REPO / "configs" / "quickstart.json"),
                 "--out", str(out)]) == EXIT_OK
    digests = [hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (out, tmp_path / "quickstart.csv.meta.json")]
    assert digests == [
        "55f77f613633fe60005fef88e738b86c0d690e543bf9d48edc6f495367b085c4",
        "1d11a5c4d40ebcce36c17b044d55125a90e69356d7dd91d295e46bc8ddd2f71d",
    ]


def test_sco_example_bytes_are_pinned(tmp_path):
    # dp_sco on the separable quadratic: its rows gradient must keep the per-row bits
    out = tmp_path / "sco.csv"
    assert main(["run", "--config", str(REPO / "configs" / "sco_example.json"),
                 "--out", str(out)]) == EXIT_OK
    digests = [hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (out, tmp_path / "sco.csv.meta.json")]
    assert digests == [
        "be19ea415f2a198e5e79b099f663ea9c5f0b111df74f42812ae32bd33047863f",
        "af70341ef2f2841bfe7a29d9f702b3379bcd987fb1d503667a3868fd11c863f8",
    ]


def _sco_ten_trials(tmp_path):
    doc = json.loads((REPO / "configs" / "sco_example.json").read_text())
    doc.update(n_grid=[1000, 4000], trials=10)  # batches of 8 and 2 trials per n
    cfg = tmp_path / "sco10.json"
    cfg.write_text(json.dumps(doc))
    return cfg


def test_dp_sco_ten_trial_bytes_are_pinned(tmp_path):
    # each batch's trials are the rows of one solve; a row must release the bytes its
    # trial released when it ran on its own (digests taken before the trials were batched)
    out = tmp_path / "sco10.csv"
    assert main(["run", "--config", str(_sco_ten_trials(tmp_path)),
                 "--out", str(out)]) == EXIT_OK
    digests = [hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (out, tmp_path / "sco10.csv.meta.json")]
    assert digests == [
        "ebcbec814134a1fa1e97ec27491899319e39bcaccfc3b008105c8f61c59e47be",
        "2eea74d1036f28d11898b51743a75ea1c3aac8627974f57e097471d315cd7db3",
    ]


def test_dp_sco_solves_once_per_batch(tmp_path, monkeypatch):
    rows = []  # the dataset rows of each solve
    solve = cli.solve_dp_sco
    monkeypatch.setattr(cli, "solve_dp_sco",
                        lambda obj, data, plan, rngs: rows.append(data.rows)
                        or solve(obj, data, plan, rngs))
    out = tmp_path / "sco10.csv"
    assert main(["run", "--config", str(_sco_ten_trials(tmp_path)),
                 "--out", str(out)]) == EXIT_OK
    assert rows == [8, 2, 8, 2]
    assert len(out.read_text().splitlines()) == 1 + 20


def test_boosted_bytes_are_pinned_with_several_candidates_and_responses(tmp_path):
    # beta = 0.5 gives I = 3 candidates and J = 6 best responses per side, so each
    # side's inner convex solves run as one batch of 18 rows
    gen = np.random.Generator(np.random.PCG64([7, 99]))
    payoff = gen.uniform(-1.0, 1.0, size=(8, 8))
    cfg = tmp_path / "boosted.json"
    cfg.write_text(json.dumps({
        "version": 1, "problem": {"kind": "matrix_game", "payoff": payoff.tolist(),
                                  "noise_scale": 0.5},
        "algorithm": "boosted", "mode": "quadratic", "epsilon": 1.0, "delta": 1e-5,
        "n_grid": [200_000], "trials": 1, "master_seed": 20250810, "boosting": {"beta": 0.5},
    }))
    out = tmp_path / "boosted.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert '""I"": 3, ""J"": 6' in out.read_text()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9c2fbc58df218dc91009e3041ca0c1e74c3dd05ec103d301388ad1f0e28bf6ce")


@pytest.mark.parametrize("algorithm, n, digest", [
    ("smd_vertex", 20_000,
     "96a872cc39060249ff461559d5af284914b665305970c22813825e7927ac4e8d"),
    ("smd_bias_reduced", 200_000,
     "a13aa942a19a3fcc6f78d5f73bb0c5f9c5f485591ec18958965058e795879046"),
])
def test_gathered_gradient_bytes_are_pinned(tmp_path, algorithm, n, digest):
    # 110 x 110 lies above the bilinear game's _GATHER_MIN_ENTRIES, so the sparsified
    # points' gradients gather their support's columns and rows (both blocks at K = 1,
    # one or both at the bias-reduced solver's 2^(N+1) draws)
    gen = np.random.Generator(np.random.PCG64([15, 110]))
    payoff = gen.uniform(-1.0, 1.0, size=(110, 110))
    cfg = tmp_path / "game.json"
    cfg.write_text(json.dumps({
        "version": 1, "problem": {"kind": "matrix_game", "payoff": payoff.tolist(),
                                  "noise_scale": 0.5},
        "algorithm": algorithm, "mode": "quadratic", "epsilon": 1.0, "delta": 1e-5,
        "n_grid": [n], "trials": 2, "master_seed": 20250810,
    }))
    out = tmp_path / "game.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_synth_bytes_are_pinned(tmp_path):
    out = tmp_path / "synthetic.csv"
    assert main(["synth", "--config", str(REPO / "configs" / "synth_example.json"),
                 "--out", str(out)]) == EXIT_OK
    digests = [hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (out, tmp_path / "synthetic.csv.report.json")]
    assert digests == [
        "b53d937ceef50db5a5e07d95a9778f0341b0af5c3bc44334bed41f841915907d",
        "9d96e6204b3103f244806b863f7d33bb2b9e61a4b6341dc9988bfb5110f7fdee",
    ]


# ---- verify --------------------------------------------------------------------


def test_verify_writes_report(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["verify", "--suite", "value_bias", "--reps", "20000", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["suites"][0]["suite"] == "value_bias"


def test_verify_low_reps_warns(tmp_path):
    out = tmp_path / "rep.json"
    main(["verify", "--suite", "value_bias", "--reps", "500", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["suites"][0]["warning"]


def test_verify_unknown_suite(tmp_path):
    assert main(["verify", "--suite", "bogus", "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG


@pytest.mark.parametrize("flags", [
    ["--reps", "1"], ["--reps", "0"], ["--reps", "-5"],
    ["--reps", str(MAX_REPS + 1)], ["--reps", str(2**63 - 1)], ["--reps", str(10**23)],
    ["--seed", "-1"], ["--seed", str(2**64)],
], ids=["reps_1", "reps_0", "reps_negative", "reps_max_plus_1", "reps_2_63_minus_1",
        "reps_10_23", "seed_negative", "seed_2_64"])
@pytest.mark.parametrize("suite", ["all", "value_bias"])
def test_verify_bad_reps_or_seed_exits_2_before_any_suite(tmp_path, capsys, monkeypatch,
                                                          flags, suite):
    def unreachable(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_all_suites", unreachable)
    monkeypatch.setattr(cli, "verify_maurey_suite", unreachable)
    out = tmp_path / "rep.json"
    assert main(["verify", "--suite", suite, "--out", str(out), *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()


def test_verify_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "--suite", "value_tail", "--reps", "20000", "--out", str(a), "--seed", "7"])
    main(["verify", "--suite", "value_tail", "--reps", "20000", "--out", str(b), "--seed", "7"])
    assert a.read_bytes() == b.read_bytes()


# ---- synth ----------------------------------------------------------------------


def synth_config(tmp_path, data):
    data_file = tmp_path / "cats.csv"
    data_file.write_text("".join(f"{int(v)}\n" for v in data))
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({
        "version": 1,
        "problem": {
            "kind": "synth_data",
            "queries": [[1.0, -1.0], [0.5, 0.25]],
            "data_file": "cats.csv",
            "true_dist": [0.5, 0.5],
        },
        "epsilon": 1.0,
        "delta": 1e-5,
        "master_seed": 123,
    }))
    return cfg


def test_synth_end_to_end(tmp_path):
    data = RngStream(55).gen.integers(0, 2, size=4000)
    cfg = synth_config(tmp_path, data)
    out = tmp_path / "synthetic.csv"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    released = [int(v) for v in out.read_text().split()]
    assert len(released) == 4000 and set(released) <= {0, 1}
    report = json.loads((tmp_path / "synthetic.csv.report.json").read_text())
    assert report["max_query_error"] < 0.5

    out2 = tmp_path / "again.csv"
    main(["synth", "--config", str(cfg), "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("data", [[0.5, 1.7, 1, 0], ["a", 1], [2**63, 1]],
                         ids=["fractional", "text", "past_int64"])
def test_synth_rejects_malformed_inline_data(tmp_path, capsys, data):
    cfg = synth_config(tmp_path, [0, 1])
    doc = json.loads(cfg.read_text())
    del doc["problem"]["data_file"]
    doc["problem"]["data"] = data
    cfg.write_text(json.dumps(doc))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("problem", [
    {"queries": [[5.0] * 16], "data": list(range(16))},
    {"queries": [[0.5] * 16], "data": list(range(16)), "true_dist": [0.5, 0.5]},
], ids=["queries_outside_unit_interval", "true_dist_of_the_wrong_length"])
def test_synth_checks_its_problem_before_solving(tmp_path, capsys, monkeypatch, problem):
    doc = _synth_doc(tmp_path, **problem)
    del doc["problem"]["data_file"]
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps(doc))

    def solve(*args):
        raise AssertionError("the problem reached the solver")

    monkeypatch.setattr(cli, "synth_data_generate", solve)
    out = tmp_path / "o.csv"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: bad synth_data problem")
    assert not out.exists()


# ---- file formats ----------------------------------------------------------------


@pytest.mark.parametrize("rows,cols,body", [(2**31, 2**31, b""), (1000, 1000, bytes(16))],
                         ids=["2^31_square", "1000_square_over_16_bytes"])
def test_payoff_header_is_checked_against_the_file_size(tmp_path, capsys, rows, cols, body):
    (tmp_path / "game.bin").write_bytes(PAYOFF_MAGIC + struct.pack("<II", rows, cols) + body)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"kind": "matrix_game", "payoff_file": "game.bin"})
    tracemalloc.start()
    try:
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and "game.bin: truncated payoff matrix" in err
    assert peak < 1_000_000  # the headers claim 8 MB and 2^65 bytes


def test_payoff_roundtrip(tmp_path):
    m = RngStream(66).gen.normal(size=(7, 3))
    path = tmp_path / "payoff.bin"
    save_payoff(str(path), m)
    assert np.array_equal(load_payoff(str(path)), m)


def test_payoff_roundtrip_of_a_wide_matrix_is_a_writable_float64_array(tmp_path):
    m = RngStream(67).gen.normal(size=(3, 1000))
    path = tmp_path / "wide.bin"
    save_payoff(str(path), m)
    loaded = load_payoff(str(path))
    assert loaded.shape == (3, 1000) and loaded.dtype == np.float64
    assert loaded.flags.c_contiguous and loaded.flags.writeable
    assert np.array_equal(loaded, m)


def test_load_payoff_reads_into_the_array_alone(tmp_path):
    path = tmp_path / "big.bin"
    save_payoff(str(path), RngStream(68).gen.uniform(-1, 1, size=(1000, 1000)))
    tracemalloc.start()
    try:
        load_payoff(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_500_000  # the 8 MB matrix; reading bytes and copying them took 16 MB


def test_payoff_file_cut_short_after_the_size_check_is_truncated(tmp_path, monkeypatch):
    path = tmp_path / "short.bin"
    save_payoff(str(path), np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    fstat = os.fstat

    def eight_bytes_more(fd):  # the header check passes as if no byte were missing
        st = fstat(fd)
        return os.stat_result((*st[:6], st.st_size + 8, *st[7:]))

    monkeypatch.setattr(cli.os, "fstat", eight_bytes_more)
    with pytest.raises(ConfigError, match="truncated payoff matrix"):
        load_payoff(str(path))


def test_payoff_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ConfigError):
        load_payoff(str(path))


def test_payoff_file_config(tmp_path):
    m = RngStream(77).gen.uniform(-1, 1, size=(4, 4))
    save_payoff(str(tmp_path / "game.bin"), m)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"kind": "matrix_game", "payoff_file": "game.bin",
                               "noise_scale": 0.3}, n_grid=[400], trials=1)
    out = tmp_path / "f.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("case", ["missing_payoff", "short_payoff_header", "missing_data",
                                  "category_past_int64", "category_below_int64",
                                  "non_utf8_data", "non_utf8_config"])
def test_unreadable_input_exits_2_naming_the_file(tmp_path, capsys, case):
    if case.endswith("payoff") or case.endswith("header"):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, problem={"kind": "matrix_game", "payoff_file": "game.bin"})
        name, command = "game.bin", "run"
        if case == "short_payoff_header":
            (tmp_path / name).write_bytes(b"DPXM\x01")
    else:
        cfg = synth_config(tmp_path, [0, 1, 1])
        name, command = "cats.csv", "synth"
        contents = {"missing_data": None, "category_past_int64": b"1\n9223372036854775808\n",
                    "category_below_int64": b"1\n-9223372036854775809\n",
                    "non_utf8_data": b"\xff\xfe1\n", "non_utf8_config": b"1\n0\n"}[case]
        if contents is None:
            (tmp_path / name).unlink()
        else:
            (tmp_path / name).write_bytes(contents)
        if case == "non_utf8_config":
            cfg.write_bytes(b"\xff\xfe{")
            name = cfg.name
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and name in err and "Traceback" not in err


def test_categories_loader(tmp_path):
    path = tmp_path / "cats.csv"
    path.write_text("0\n2\n\n1\n")
    assert np.array_equal(load_categories(str(path)), [0, 2, 1])
    bad = tmp_path / "bad.csv"
    bad.write_text("0\nx\n")
    with pytest.raises(ConfigError):
        load_categories(str(bad))
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(ConfigError):
        load_categories(str(empty))


def test_categories_loader_names_the_bad_line(tmp_path):
    path = tmp_path / "cats.csv"
    path.write_text("3\n" * 1000 + "x\n" + "4\n")
    with pytest.raises(ConfigError, match=r"cats\.csv:1001: "):
        load_categories(str(path))


def _categories_by_row(path):
    """The row-by-row reader ``load_categories`` must agree with."""
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


def _outcome(load, path):
    try:
        return load(path).tolist()
    except (ConfigError, OverflowError) as exc:
        return (type(exc), str(exc))


_ROW = st.one_of(
    st.integers(0, 10**20).map(str),
    st.sampled_from(["", " ", "\t", "x", "-3", "+4", " 5 ", "1,2", '"6"', "1_0", "7\x0b", "0.5",
                    str(2**63 - 1), str(2**63)]),
)


@given(rows=st.lists(_ROW, max_size=30), eol=st.sampled_from(["\n", "\r\n"]),
       last=st.booleans())
@settings(max_examples=300, deadline=None)
def test_categories_loader_matches_row_reader(tmp_path_factory, rows, eol, last):
    path = str(tmp_path_factory.getbasetemp() / "rows.csv")
    with open(path, "w", newline="") as fh:
        fh.write(eol.join(rows) + (eol if last else ""))
    assert _outcome(load_categories, path) == _outcome(_categories_by_row, path)


# ---- outputs ---------------------------------------------------------------------


def test_atomic_write_keeps_the_old_output_on_error(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        with cli._atomic_write(str(target)) as fh:
            fh.write("partial\n")
            raise RuntimeError("fails partway")
    assert os.listdir(tmp_path) == ["out.csv"] and target.read_text() == "old\n"


def _synth_unwritable_at(tmp_path, monkeypatch, row):
    """Run synth with a report whose synthetic ``row`` cannot be written as a category."""
    cfg = synth_config(tmp_path, [0, 1, 1, 0])
    out = tmp_path / "o.csv"
    out.write_text("old\n")
    generate = cli.synth_data_generate

    def unwritable_row(*args):
        report = generate(*args)
        return dataclasses.replace(report, synthetic=np.array([0] * row + [None], dtype=object))

    monkeypatch.setattr(cli, "synth_data_generate", unwritable_row)
    with pytest.raises(TypeError):
        main(["synth", "--config", str(cfg), "--out", str(out)])
    assert sorted(os.listdir(tmp_path)) == ["cats.csv", "o.csv", "synth.json"]
    assert out.read_text() == "old\n"


def test_synth_failing_partway_through_its_csv_keeps_the_old_output(tmp_path, monkeypatch):
    _synth_unwritable_at(tmp_path, monkeypatch, 2)


def test_synth_failing_past_its_first_csv_chunk_keeps_the_old_output(tmp_path, monkeypatch):
    # the first chunk has been written to the temporary sibling when the second one fails
    _synth_unwritable_at(tmp_path, monkeypatch, cli.SYNTH_CHUNK_ROWS + 1)


def test_synth_csv_is_written_within_2_mb(tmp_path, monkeypatch):
    cfg = synth_config(tmp_path, [0, 1, 1, 0])
    generate, synthetic = cli.synth_data_generate, np.arange(200_000) % 2
    monkeypatch.setattr(cli, "synth_data_generate", lambda *args: dataclasses.replace(
        generate(*args), synthetic=synthetic))
    out = tmp_path / "o.csv"
    tracemalloc.start()
    try:
        code = main(["synth", "--config", str(cfg), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and out.read_text() == "0\n1\n" * 100_000
    assert peak < 2_000_000  # one chunk's strings; the 200,000 row strings at once took 15 MB


# ---- fuzzing the config boundary ---------------------------------------------------

# small numbers only: a drawn n_grid entry, trials, T, K, I or J stays far below 10^4
_FUZZ_VALUES = st.one_of(
    st.sampled_from(["abc", "", None, True, False, [], [1], {}, {"a": 1}, [[1.0, 2.0], [3.0]],
                     float("nan"), float("inf"), float("-inf"), -1, -2.5, 0, 0.5, 1.5, 2.0,
                     "quadratic", "second_order", "boosted", "nonprivate_smd",
                     "smd_bias_reduced", "dp_sco", "synth_data", "quadratic_sco"]),
    st.integers(-3, 40),
    st.floats(-2.0, 2.0),
)

_FUZZ_RUN = {
    "version": 1,
    "problem": {"kind": "matrix_game", "payoff": [[0.5, -0.2, 0.1], [-0.3, 0.4, 0.0],
                                                  [0.2, 0.1, -0.6]], "noise_scale": 0.3},
    "algorithm": "smd_vertex",
    "mode": "quadratic",
    "epsilon": 1.0,
    "delta": 1e-5,
    "n_grid": [300],
    "trials": 1,
    "master_seed": 7,
}
_FUZZ_CONFIGS = {
    "run": _FUZZ_RUN,
    "run_overridden": {**_FUZZ_RUN, "overrides": {"T": 10, "tau": 1e-4, "K": 1}},
    "run_boosted": {**_FUZZ_RUN, "algorithm": "boosted", "boosting": {"I": 1, "J": 1}},
    "synth": {
        "version": 1,
        "problem": {"kind": "synth_data", "queries": [[1.0, -1.0, 0.5], [0.25, 0.0, -0.5]],
                    "data": [0, 1, 2, 1, 0, 2, 1, 1], "true_dist": [0.25, 0.5, 0.25]},
        "epsilon": 1.0,
        "delta": 1e-5,
        "master_seed": 3,
    },
}


def _paths(node, prefix=()):
    """Key paths of a config's fields: every key of an object, the first entry of a list."""
    items = node.items() if isinstance(node, dict) else [(0, node[0])] if node else []
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@settings(max_examples=150, deadline=None)
@given(base=st.sampled_from(sorted(_FUZZ_CONFIGS)), data=st.data(), value=_FUZZ_VALUES)
def test_fuzzed_config_ends_in_a_documented_exit(base, data, value):
    doc = json.loads(json.dumps(_FUZZ_CONFIGS[base]))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    command = "synth" if base == "synth" else "run"
    with tempfile.TemporaryDirectory() as td:
        cfg, out = os.path.join(td, "cfg.json"), os.path.join(td, "out.csv")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", cfg, "--out", out])
        assert code in (0, 2, 3, 4, 5), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert os.listdir(td) == ["cfg.json"]
