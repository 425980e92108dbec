"""Mutation smoke: hand-made mutants of ``src/`` that their own test file must kill.

Each entry is (name, file, exact old text, new text, test file).  The runner
copies ``src/``, ``tests/`` and ``pyproject.toml`` once into a temporary
directory and runs each distinct test file there unmutated, once; each must
pass.  Then, for each entry, it replaces the old text (which must occur
exactly once) by the new one, runs the entry's test file, and restores the
text.  A mutant counts as killed when pytest exits 1 (tests failed) or runs
past ``TIMEOUT`` (a hang, reported as such).  The run fails if an old text is
missing or repeated, if an unmutated test file does not pass, if pytest exits
with any other code, or if a mutant passes.
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
        # taylor_window caps the multiplicity at T_D; reading too few coefficients
        # is the failure an uncapped read of y^m's top coefficients once caused
        # (y dy accepted for {y: 3})
        "one Taylor coefficient too few in is_member",
        DERIVATION,
        "any(taylor_window(h, a, b, p, mult))",
        "any(taylor_window(h, a, b, p, mult - 1))",
        "tests/test_derivation.py",
    ),
    (
        "the Q denominators not cleared in is_member",
        DERIVATION,
        "f, g, _ = _cleared(f, g)",
        "pass",
        "tests/test_derivation.py",
    ),
    (
        "the generic step's t without its minus sign over F_p",
        BASIS,
        "s, t = 1, -f_val * pow(g_val, -1, p) % p",
        "s, t = 1, f_val * pow(g_val, -1, p) % p",
        "tests/test_basis.py",
    ),
    ("beta^d's zeros on the wrong end", BASIS, "zip(v, w + pad if ax else pad + w)", "zip(v, pad + w if ax else w + pad)", "tests/test_basis.py"),
    ("the non-monic ax^d dropped", BASIS, "g_val *= ax**d", "g_val *= 1", "tests/test_basis.py"),
    (
        "the inverse Taylor shift out of a window at +b",
        BASIS,
        "a, -b, p, degree + 1))",
        "a, b, p, degree + 1))",
        "tests/test_basis.py",
    ),
    (
        "a g-vanishing step also shifts theta1's window",
        BASIS,
        "return (u1, div1, theta1[2] + 1,",
        "return (u1 >> 8 * residue_width(p) if type(u1) is int else u1, div1, theta1[2] + 1,",
        "tests/test_basis.py",
    ),
    (
        "the generic window step's dropped slot unchecked",
        BASIS,
        "if ((u1 & low) + t * (u2 & low)) % p:",
        "if False:",
        "tests/test_basis.py",
    ),
    ("update_basis's dropped slots unchecked", BASIS, "            if value:", "            if False:", "tests/test_basis.py"),
    ("the window route up to degree p", BASIS, "return top < line[2]", "return top <= line[2]", "tests/test_basis.py"),
    (
        "a g-vanishing step leaves theta2 its stale div",
        BASIS,
        "theta2 = (qg, None, *theta2[2:])",
        "theta2 = (qg, div2, *theta2[2:])",
        "tests/test_basis.py",
    ),
)


def check():
    """The entries whose old text does not occur exactly once, as ``(name, count)``."""
    return [(name, n) for name, path, old, _, _ in MUTANTS if (n := (ROOT / path).read_text().count(old)) != 1]


def _pytest(tmp, env, tests):
    """pytest's exit code on the test file ``tests`` in the copy ``tmp`` and its seconds; None past ``TIMEOUT``."""
    start = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", tests],
            cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT,
        ).returncode
    except subprocess.TimeoutExpired:
        code = None
    shutil.rmtree(Path(tmp) / ".hypothesis", ignore_errors=True)  # no run replays another's examples
    return code, time.perf_counter() - start


def copy(tmp):
    """Copy ``src/``, ``tests/`` and ``pyproject.toml`` into ``tmp``; the environment importing logvf from it."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, Path(tmp) / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp)
    env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    probe = [sys.executable, "-c", "import logvf; print(logvf.__file__)"]
    where = subprocess.run(probe, cwd=tmp, env=env, capture_output=True, text=True, check=True).stdout
    if not Path(where.strip()).resolve().is_relative_to(Path(tmp).resolve()):
        raise SystemExit(f"the copy is not the logvf imported: {where.strip()}")
    return env


def run(tmp, env, name, path, old, new, tests):
    """The outcome of one entry in the copy, ``killed...``, ``SURVIVED`` or ``ERROR...``; and the seconds."""
    target = Path(tmp) / path
    text = target.read_text()
    target.write_text(text.replace(old, new))
    try:
        code, seconds = _pytest(tmp, env, tests)
    finally:
        target.write_text(text)
    outcome = {1: "killed", 0: "SURVIVED", None: f"killed by the {TIMEOUT} s timeout (a hang)"}
    return outcome.get(code, f"ERROR: pytest exits {code}"), seconds


def main():
    bad = check()
    for name, n in bad:
        print(f"{name}: old text occurs {n} times, not once")
    if bad:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        env = copy(tmp)
        for tests in dict.fromkeys(entry[4] for entry in MUTANTS):
            code, seconds = _pytest(tmp, env, tests)
            status = "passed" if code == 0 else f"ERROR: exits {code}"
            print(f"{status} in {seconds:.1f} s: unmutated {tests}", flush=True)
            if code != 0:
                return 1
        failures = 0
        for entry in MUTANTS:
            outcome, seconds = run(tmp, env, *entry)
            failures += not outcome.startswith("killed")
            print(f"{outcome} in {seconds:.1f} s: {entry[0]} ({entry[4]})", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
