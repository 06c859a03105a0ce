import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsimplex.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    load_categories,
    load_payoff,
    main,
    save_payoff,
)
from dpsimplex.errors import ConfigError

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


# ---- file formats ----------------------------------------------------------------


def test_payoff_roundtrip(tmp_path):
    m = RngStream(66).gen.normal(size=(7, 3))
    path = tmp_path / "payoff.bin"
    save_payoff(str(path), m)
    assert np.array_equal(load_payoff(str(path)), m)


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
