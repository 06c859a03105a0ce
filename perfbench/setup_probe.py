"""Time a fresh interpreter's set-up: import ``dpsimplex.cli`` and load inputs.

Usage: python3 perfbench/setup_probe.py SRC_DIR [CONFIG ...]

Loads each config with the program's loaders (``load_config``, then
``load_payoff`` / ``load_categories`` for the files it names) and prints the
elapsed seconds. Nothing is imported before the clock starts.
"""
import os
import sys
import time


def main() -> None:
    started = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from dpsimplex import cli

    for path in sys.argv[2:]:
        cfg = cli.load_config(path)
        problem = cfg["problem"]
        base = os.path.dirname(os.path.abspath(path))
        if "payoff_file" in problem:
            cli.load_payoff(os.path.join(base, problem["payoff_file"]))
        if "data_file" in problem:
            cli.load_categories(os.path.join(base, problem["data_file"]))
    print(repr(time.perf_counter() - started))


if __name__ == "__main__":
    main()
