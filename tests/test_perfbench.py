import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_selftest_passes():
    # the benchmark's tracer finds the solvers' layers by function name (to_point,
    # mwu_step, running_average, sparsify, ...); a refactor that stops calling one
    # leaves its per-layer metric at 0, which the self-test rejects
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
