"""Smoke test of the interleaved A/B tool, ``tools/ab.py``, on its tiny job sets."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_tool_reports_every_job_set():
    sets = "sweep-box,chain-q,fp-xcheck,exponents-q,chain-fp-large"
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), src, src, "--sets", sets, "--passes", "3", "--tiny"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = run.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == sets.split(",")
    for line in lines:
        assert re.fullmatch(r"[\w-]+: time ratio B/A \d+\.\d{3} \[\d+\.\d{3}-\d+\.\d{3}\], B faster in [0-3]/3 passes", line)


def test_ab_tool_names_the_set_and_the_filter_that_keep_no_job():
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), src, src, "--sets", "exponents-q", "--only", "nomatch", "--tiny"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr == "exponents-q: no job's label contains 'nomatch'\n"
