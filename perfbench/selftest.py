"""Self-test of the benchmark's output checks and of its tracer.

Usage: python3 perfbench/selftest.py

Runs small versions of the workloads' commands and shows that

* every check accepts the program's real output and rejects a corrupted
  copy of it: ``vertex_draws`` off by one, tau just above its privacy cap, a
  bias-reduced stopping weight above its cap, a boosted J off by one, a
  synthetic category out of range, and a verify suite flipped to failing;
* a command that exits with a code other than 0 (a verify suite that breaks
  its bound, a run stopped by its budget) makes the pass an error;
* a traced pass writes the same bytes as an untraced one, the tracer reports
  every per-layer metric, and uninstalling it restores the program;
* ``BENCHMARK.json`` names the same workloads and metrics as the code.

Prints one line per case and exits 1 if any case fails.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END, ROOT, SRC, WORK, run_pass  # noqa: E402

VERIFY_REPS = 10_000  # the smallest count verify reports without a low-reps warning
FAILURES = []


def case(label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if not ok:
        FAILURES.append(label)


def rejects(label: str, check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed as exc:
        case(f"{label} -> rejected ({exc})", True)
    else:
        case(f"{label} -> accepted", False)


def accepts(label: str, check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed as exc:
        case(f"{label} -> rejected ({exc})", False)
    else:
        case(f"{label} -> accepted", True)


def small_pass(wd):
    gen = np.random.Generator(np.random.PCG64([7, 99]))
    A = gen.uniform(-1.0, 1.0, size=(8, 8))
    problem = {"kind": "matrix_game", "payoff": A.tolist(), "noise_scale": workloads.NOISE_SCALE}

    def cfg(algorithm, n, **extra):
        return workloads.game_config(problem, algorithm, "quadratic", [n], 1, **extra)

    commands = [
        workloads.run_command(wd, "vertex", cfg("smd_vertex", 3_000), A),
        workloads.run_command(wd, "reduced", cfg("smd_bias_reduced", 100_000), A),
        workloads.run_command(wd, "boosted", cfg("boosted", 200_000, boosting={"beta": 0.5}), A),
        workloads.synth_command(wd, gen, 50_000),
        workloads.verify_command(wd, 7, VERIFY_REPS),
    ]
    return commands, A


def corrupt_row(rows, **changes):
    rows = copy.deepcopy(rows)
    plan = json.loads(rows[0]["plan_json"])
    for key, value in changes.items():
        if key in plan:
            plan[key] = value
        else:
            rows[0][key] = str(value)
    rows[0]["plan_json"] = json.dumps(plan, sort_keys=True)
    return rows


def test_checks(commands, wd, A) -> None:
    vertex, reduced, boosted, synth, verify = commands
    L0 = float(np.abs(A).max()) + workloads.NOISE_SCALE
    ln1d = math.log(1.0 / workloads.DELTA)

    rows = checks.read_run_csv(wd / "vertex.csv")
    spec = vertex.spec
    accepts("smd_vertex row", checks.check_run, rows, spec)
    rejects("smd_vertex vertex_draws + 1", checks.check_run,
            corrupt_row(rows, vertex_draws=int(rows[0]["vertex_draws"]) + 1), spec)
    plan = json.loads(rows[0]["plan_json"])
    cap = plan["B_batch"] * workloads.EPSILON / (
        16.0 * L0 * math.sqrt(plan["T"] * (plan["K"] + 1) * ln1d))
    rejects("smd_vertex tau = cap * (1 + 1e-6)", checks.check_run,
            corrupt_row(rows, tau=cap * (1 + 1e-6)), spec)

    rows = checks.read_run_csv(wd / "reduced.csv")
    spec = reduced.spec
    accepts("smd_bias_reduced row", checks.check_run, rows, spec)
    plan = json.loads(rows[0]["plan_json"])
    cap = workloads.EPSILON**2 / (48.0 * ln1d * (9.0 * plan["tau"] * plan["alpha"] * L0) ** 2)
    rejects("smd_bias_reduced U = cap * (1 + 1e-6)", checks.check_run,
            corrupt_row(rows, U=cap * (1 + 1e-6)), spec)

    rows = checks.read_run_csv(wd / "boosted.csv")
    spec = boosted.spec
    accepts("boosted row", checks.check_run, rows, spec)
    rejects("boosted J + 1", checks.check_run,
            corrupt_row(rows, J=json.loads(rows[0]["plan_json"])["J"] + 1), spec)

    synthetic = checks.read_synthetic(wd / "synthetic.csv")
    report = json.loads((wd / "synthetic.csv.report.json").read_text())
    sspec = synth.spec
    accepts("synth output", checks.check_synth, synthetic, report, sspec)
    bad = list(synthetic)
    bad[0] = sspec.queries.shape[1]
    rejects("synth category = domain size", checks.check_synth, bad, report, sspec)

    vreport = json.loads((wd / "verify.json").read_text())
    accepts("verify report", checks.check_verify, vreport, VERIFY_REPS)
    flipped = copy.deepcopy(vreport)
    suite = flipped["suites"][3]
    suite["measured"] = suite["bound"] + 2 * suite["slack"] + 1e-3
    suite["passed"] = False
    rejects(f"verify suite {suite['suite']} flipped to failing", checks.check_verify,
            flipped, VERIFY_REPS)


def test_trace(commands) -> None:
    from dpsimplex import cli, simplex

    originals = (simplex.sparsify, cli.solve_dp_sco, simplex.SimplexPoint.__post_init__)
    plain = run_pass(commands, cli.main)
    case(f"untraced pass: {plain.failed} failed commands, check errors {plain.errors}",
         plain.failed == 0 and not plain.errors)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = run_pass(commands, cli.main, tracer)
    finally:
        tracer.uninstall()
    case(f"traced pass: {traced.failed} failed commands, check errors {traced.errors}",
         traced.failed == 0 and not traced.errors)
    case("traced pass writes the same bytes as the untraced pass", traced.digest == plain.digest)
    case("uninstall restores the program's functions",
         originals == (simplex.sparsify, cli.solve_dp_sco, simplex.SimplexPoint.__post_init__))
    metrics = tracer.metrics(1)
    missing = set(layertrace.METRICS) - set(metrics) - {"trace.overhead_s"}
    case(f"tracer reports every per-layer metric (missing: {sorted(missing)})", not missing)
    zero = [k for k, (v, _) in metrics.items() if not v > 0]
    case(f"every per-layer metric is nonzero on the small pass (zero: {zero})", not zero)


def test_failing_commands(commands) -> None:
    from dpsimplex import cli

    vertex, verify = commands[0], commands[-1]
    report_path = verify.outputs[0]

    def verify_breaking_a_bound(argv):
        # what verify writes and returns when a suite's measured value exceeds
        # bound + slack: the suite and the report marked failed, EXIT_ORACLE
        assert cli.main(argv) == 0
        report = json.loads(report_path.read_text())
        suite = report["suites"][0]
        suite["measured"] = suite["bound"] + 2 * suite["slack"] + 1e-3
        suite["passed"] = False
        report["passed"] = False
        report_path.write_text(json.dumps(report))
        return cli.EXIT_ORACLE

    def run_out_of_budget(argv):
        return cli.EXIT_BUDGET

    for label, command, main in (("verify exits EXIT_ORACLE", verify, verify_breaking_a_bound),
                                 ("run exits EXIT_BUDGET", vertex, run_out_of_budget)):
        outcome = run_pass([command], main)
        case(f"{label} -> failed {outcome.failed}, errors {outcome.errors}",
             outcome.failed == 1 and len(outcome.errors) == 1)


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    case("BENCHMARK.json workloads match workloads.WORKLOADS",
         {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS)
    case("BENCHMARK.json end_to_end metrics match run.END_TO_END",
         {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END)
    case("BENCHMARK.json per_layer metrics match layertrace.METRICS",
         {m["name"]: m["unit"] for m in spec["per_layer"]} == layertrace.METRICS)


def main() -> int:
    sys.path.insert(0, str(SRC))
    wd = WORK / f"selftest-{os.getpid()}"
    wd.mkdir(parents=True, exist_ok=True)
    try:
        commands, A = small_pass(wd)
        test_trace(commands)
        test_checks(commands, wd, A)
        test_failing_commands(commands)
        test_benchmark_json()
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all cases passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
