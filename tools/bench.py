"""Collect the benchmark's end-to-end results into one file, ``BENCH_<name>.json`` at the root.

Runs the unchanged ``perfbench/run.py --seed 1 --seconds 35 --trace 0`` on
``sweep-box``, ``chain-q`` and ``fp-xcheck``, one after another, and writes
each workload's record and result lines (the last two lines run.py prints),
the Python version and whether gmpy2 imports.  A failing run stops it with
run.py's exit status, and no file is written.

    python tools/bench.py NAME
"""

from __future__ import annotations

import importlib
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-box", "chain-q", "fp-xcheck")
ARGS = ("--seed", "1", "--seconds", "35", "--trace", "0")


def imports(name):
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


def run(workload):
    """The record and result lines of one run, parsed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, *ARGS]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{workload}: perfbench/run.py exits {done.returncode}\n{done.stderr}")
    record, result = map(json.loads, done.stdout.splitlines()[-2:])
    return {"record": record["record"], "result": result}


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python tools/bench.py NAME  (writes BENCH_NAME.json)")
    bench = {"python": platform.python_version(), "gmpy2": imports("gmpy2"), "args": list(ARGS)}
    bench["workloads"] = {workload: run(workload) for workload in WORKLOADS}
    path = ROOT / f"BENCH_{argv[0]}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main(sys.argv[1:])
