"""Outside-in benchmark of dpsimplex through its CLI entry point.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, measures the set-up time of
fresh interpreters, then repeats whole passes of the workload's commands
(``dpsimplex.cli.main`` for ``run``, ``synth`` and ``verify``) in this
process until ``--seconds`` are spent, checking every output of every pass.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``layertrace`` with ``--trace 1``.
"""
import os

# Pin BLAS to one thread before numpy loads; the setup probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_PROBES = 3  # fresh interpreters timed before the passes and again after them
END_TO_END = {"wall_s": "s", "samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_setup(commands, count: int) -> list[float]:
    """Set-up times of ``count`` fresh interpreters loading this workload's inputs."""
    configs = [str(c) for cmd in commands for c in cmd.configs]
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *configs]
    times = []
    for _ in range(count):
        out = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class PassResult(NamedTuple):
    wall: float  # seconds in the commands' ``main`` calls
    failed: int  # commands that exited with a code other than 0
    errors: list  # check failures and nonzero exits
    digest: str  # of every file the successful commands wrote
    rss_mb: float  # peak RSS of this process after the commands, before the checks


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(commands, main, tracer=None) -> PassResult:
    """Run every command of one pass, then check what each wrote.

    The checks run after all the commands, so that ``rss_mb`` is read before
    the checks' own arrays can raise the peak. A command that exits with a
    code other than 0 is counted as failed and is also an error: its output
    cannot be trusted (``verify`` exits nonzero when a suite breaks its bound).
    """
    wall = 0.0
    errors = []
    ran = []
    for cmd in commands:
        for p in cmd.outputs:
            p.unlink(missing_ok=True)
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            started = time.perf_counter()
            if tracer is None:
                code = main(cmd.argv)
            else:
                code = tracer.call("cli.main", main, cmd.argv)
            wall += time.perf_counter() - started
        if code == 0:
            ran.append(cmd)
        else:
            errors.append(f"{cmd.name}: exit {code}: {log.getvalue().strip()}")
    rss_mb = peak_rss_mb()
    for cmd in ran:
        try:
            cmd.check()
        except CheckFailed as exc:
            errors.append(f"{cmd.name}: {exc}")
    outputs = [p for cmd in ran for p in cmd.outputs]
    return PassResult(wall, len(commands) - len(ran), errors, digest(outputs), rss_mb)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dpsimplex" / "__init__.py").is_file():
        print(f"benchmark: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from dpsimplex import cli

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        commands = workloads.build(args.workload, args.seed, workdir)
        probe_setup(commands, 1)  # unmeasured: warms the file cache
        # probes at both ends of the run, so that its median spans the run
        setup_times = probe_setup(commands, SETUP_PROBES)
        size = sum(cmd.size for cmd in commands)
        inputs_rss_mb = peak_rss_mb()
        program_rss_mb = None

        tracer = None
        if args.trace:
            import layertrace

            tracer = layertrace.Tracer()
        walls, traced_walls = [], []
        attempted = failed = 0
        digests = set()
        correct = True
        started = time.perf_counter()
        while True:
            traced = tracer is not None and len(walls) > len(traced_walls)
            if traced:
                tracer.install()
            try:
                outcome = run_pass(commands, cli.main, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            for message in outcome.errors:
                print(f"check failed: {message}", file=sys.stderr)
                correct = False
            if program_rss_mb is None:
                # later readings would include the first pass's checks
                program_rss_mb = outcome.rss_mb
            attempted += len(commands)
            failed += outcome.failed
            digests.add(outcome.digest)
            wall = outcome.wall
            (traced_walls if traced else walls).append(wall)
            print(f"pass {attempted // len(commands)}{' traced' if traced else ''}: "
                  f"{wall:.3f} s", file=sys.stderr)
            elapsed = time.perf_counter() - started
            enough = len(walls) + len(traced_walls) >= (2 if tracer else 1)
            if enough and elapsed + wall > args.seconds:
                break
        setup_times += probe_setup(commands, SETUP_PROBES)
        print("setup probes: " + " ".join(f"{t:.3f}" for t in setup_times), file=sys.stderr)
        print(f"peak rss: {inputs_rss_mb:.1f} MB after generating the inputs, "
              f"{program_rss_mb:.1f} MB after the first pass's commands, "
              f"{peak_rss_mb():.1f} MB after every check", file=sys.stderr)
        if len(digests) > 1:
            print("passes wrote different bytes", file=sys.stderr)
            correct = False

        if tracer is None:
            wall_s = statistics.median(walls)
            values = {
                "wall_s": wall_s,
                "samples_per_s": size / wall_s,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": program_rss_mb,
            }
            metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        else:
            metrics = tracer.metrics(len(traced_walls))
            overhead = statistics.median(traced_walls) - statistics.median(walls)
            metrics["trace.overhead_s"] = (overhead, "s")
            tracer.write(WORK / f"trace-{args.workload}-{args.seed}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
