"""Mutation smoke: hand-made mutants of ``src/`` that their own test file must kill.

Each entry is (name, file, exact old text, new text, test file).  For each
entry the runner copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary directory, runs that entry's test file there and requires it to
pass, then replaces the old text (which must occur exactly once) by the new
one and runs the test file again.  A mutant counts as killed when pytest
exits 1 (tests failed) or runs past ``TIMEOUT`` (a hang, reported as such).
The run fails if an old text is missing or repeated, if the unmutated copy
does not pass, if pytest exits with any other code, or if a mutant passes.
An entry changes together with the code it names; a refactor that moves an
old text updates the entry.

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POLY, BASIS, DERIVATION, ORACLE = (f"src/logvf/{name}.py" for name in ("poly", "basis", "derivation", "oracle"))
KERNELS = "tests/test_kernels.py"
TIMEOUT = 300  # seconds per pytest run

MUTANTS = (
    ("the Q bias one byte short", POLY, "half = 1 << (8 * w - 1)", "half = 1 << (8 * w - 9)", KERNELS),
    ("the struct route up to 2^65", POLY, "if 0 < p <= 1 << 64 and w >= 8:", "if 0 < p <= 1 << 65 and w >= 8:", KERNELS),
    ("the slot width one bit short", POLY, "(4 * p.bit_length() + 72) // 8", "(4 * p.bit_length() + 71) // 8", KERNELS),
    ("the Barrett shift one bit short", POLY, "3 * p.bit_length() + 32", "3 * p.bit_length() + 31", KERNELS),
    (
        "the Barrett mask rounded down to a power of two",
        POLY,
        "barrett(p, v.bit_length().bit_length())",
        "barrett(p, v.bit_length().bit_length() - 1)",
        KERNELS,
    ),
    ("the 1/j! scaling dropped", POLY, "yield from (t * i % p for t, i in", "yield from (t for t, i in", KERNELS),
    ("the product route up to len(cs) <= p + 1", POLY, "elif k and p and len(cs) <= p:", "elif k and p and len(cs) <= p + 1:", KERNELS),
    (
        "the sign of c in _rank_mod_p",
        ORACLE,
        "c = p - pow(pivot & low, -1, p)",
        "c = pow(pivot & low, -1, p)",
        "tests/test_oracle.py",
    ),
    (
        # m = mult itself is equivalent now: taylor_window stops at T_D, and a
        # nonzero h has a nonzero T_i there; reading too few coefficients is the
        # failure the raw multiplicity caused (y dy accepted for {y: 3})
        "m = min(mult, D) in is_member",
        DERIVATION,
        "any(taylor_window(h, a, b, p, min(mult, d + 1)))",
        "any(taylor_window(h, a, b, p, min(mult, d)))",
        "tests/test_derivation.py",
    ),
    (
        "the Q denominators not cleared in is_member",
        DERIVATION,
        "f, g, _ = _cleared(f, g)",
        "pass",
        "tests/test_derivation.py",
    ),
    ("the parity test in _step", BASIS, "if monic and py and d % 2:", "if monic and py:", "tests/test_basis.py"),
    (
        "a g-vanishing step leaves theta2 its stale div",
        BASIS,
        "theta2 = (qg if monic else div_linear_power(u2, ax, ay, p, 1), None, *theta2[2:])",
        "theta2 = (qg if monic else div_linear_power(u2, ax, ay, p, 1), div2, *theta2[2:])",
        "tests/test_basis.py",
    ),
)


def check():
    """The entries whose old text does not occur exactly once, as ``(name, count)``."""
    return [(name, n) for name, path, old, _, _ in MUTANTS if (n := (ROOT / path).read_text().count(old)) != 1]


def _pytest(tmp, env, tests):
    """pytest's exit code on the test file ``tests`` in the copy ``tmp``, or None past ``TIMEOUT``."""
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", tests],
            cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def run(name, path, old, new, tests):
    """The outcome of one entry in a fresh copy, ``killed...``, ``SURVIVED`` or ``ERROR...``; and the seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        probe = [sys.executable, "-c", "import logvf; print(logvf.__file__)"]
        where = subprocess.run(probe, cwd=tmp, env=env, capture_output=True, text=True, check=True).stdout
        if not Path(where.strip()).resolve().is_relative_to(Path(tmp).resolve()):
            raise SystemExit(f"the copy is not the logvf imported: {where.strip()}")
        start = time.perf_counter()
        if (code := _pytest(tmp, env, tests)) != 0:
            return f"ERROR: the unmutated copy exits {code}", time.perf_counter() - start
        target = Path(tmp) / path
        target.write_text(target.read_text().replace(old, new))
        code = _pytest(tmp, env, tests)
        outcome = {1: "killed", 0: "SURVIVED", None: f"killed by the {TIMEOUT} s timeout (a hang)"}
        return outcome.get(code, f"ERROR: pytest exits {code}"), time.perf_counter() - start


def main():
    bad = check()
    for name, n in bad:
        print(f"{name}: old text occurs {n} times, not once")
    if bad:
        return 1
    failures = 0
    for entry in MUTANTS:
        outcome, seconds = run(*entry)
        failures += not outcome.startswith("killed")
        print(f"{outcome} in {seconds:.1f} s: {entry[0]} ({entry[4]})", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
