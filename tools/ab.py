"""Interleaved in-process A/B of two ``src/`` trees of logvf.

Each tree's ``logvf`` package is copied under its own name (``logvf_a``,
``logvf_b``) into a temporary directory and imported side by side.  A pass
runs every job of the chosen job sets on both trees, job by job, the order
alternating between jobs and between passes, and sums each side's time.  The
report gives, per job set, the median of the per-pass time ratios B/A, their
quartiles and the number of passes in which B was faster.

Job sets: ``sweep-box``, ``chain-q`` and ``fp-xcheck`` come from
``perfbench.workloads`` unchanged; ``exponents-q`` is ``exponents()`` over Q
on lines of height 2 to 3, including 2x+y:108, 3x-2y:95, x+2y:84, x-3y:119;
``chain-fp-large`` is ``build_basis`` over F_(2^31-1) on y, x, x+y, x-y at
|mu| 2000, 4000 and 8000 (100 and 200 with ``--tiny``), Saito-verified.
Each answer is checked once with the job's own check on both trees.

    python tools/ab.py PARENT/src src --sets sweep-box,exponents-q --passes 21
"""

from __future__ import annotations

import argparse
import importlib
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # nothing lands in the trees or in perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import workloads  # noqa: E402

EXPONENT_FAMILIES = (
    ((2, 1, 108), (3, -2, 95), (1, 2, 84), (1, -3, 119)),
    ((0, 1, 40), (1, 0, 40), (2, 1, 35), (3, -2, 30), (1, 3, 25)),
    ((1, 1, 60), (1, -1, 55), (2, -3, 50), (3, 1, 45)),
)


class ExponentsJob:
    """``exponents()`` of one arrangement over Q; the check asks that they split |mu|, larger first."""

    def __init__(self, lines):
        self.label = f"Q:exponents:{sum(m for _, _, m in lines)}"
        self.text = workloads.arrangement_text("Q", [((a, b), m) for a, b, m in lines])

    def prepare(self, lv):
        self.arrangement = lv.cli.parse_arrangement_text(self.text)

    def solve(self, lv):
        return lv.exponents(self.arrangement)

    def check(self, lv, answer):
        if sum(answer) != self.arrangement.total or answer[0] < answer[1]:
            return [f"exponents {answer} do not split |mu| = {self.arrangement.total}"]
        return []


class ChainFpJob:
    """``build_basis`` over F_(2^31-1) on y, x, x+y, x-y, each of multiplicity |mu|/4; the check is Saito's criterion."""

    def __init__(self, total):
        lines = [(form, total // 4) for form in ((0, 1), (1, 0), (1, 1), (1, -1))]
        self.label = f"F_2147483647:balanced:{total}"
        self.text = workloads.arrangement_text("F 2147483647", lines)

    def prepare(self, lv):
        self.arrangement = lv.cli.parse_arrangement_text(self.text)

    def solve(self, lv):
        return lv.build_basis(self.arrangement)

    def check(self, lv, answer):
        return [] if lv.verify_basis(answer, self.arrangement) else [f"no basis of {self.arrangement}"]


def job_set(name, seed, tiny):
    if name == "chain-fp-large":
        return [ChainFpJob(total) for total in ((100, 200) if tiny else (2000, 4000, 8000))]
    if name == "exponents-q":
        shrink = 10 if tiny else 1
        families = EXPONENT_FAMILIES[:1] if tiny else EXPONENT_FAMILIES
        return [ExponentsJob([(a, b, max(1, m // shrink)) for a, b, m in lines]) for lines in families]
    return workloads.WORKLOADS[name](random.Random(seed), tiny=tiny)


def load(src, name, into):
    """The ``logvf`` package under ``src`` imported as ``name`` from a copy in ``into``."""
    shutil.copytree(Path(src) / "logvf", Path(into) / name)
    return importlib.import_module(name), importlib.import_module(f"{name}.cli")


def compare(trees, name, seed, passes, tiny, only):
    """Per-pass time ratios B/A of one job set, after checking every answer once."""
    sides = []
    for lv in trees:
        jobs = [job for job in job_set(name, seed, tiny) if only in job.label]
        if not jobs:
            raise SystemExit(f"{name}: no job's label contains {only!r}")
        for job in jobs:
            job.prepare(lv)
            problems = job.check(lv, job.solve(lv))
            if problems:
                raise SystemExit(f"{lv.__name__} {name}: {problems[0]}")
        sides.append(jobs)
    ratios = []
    for k in range(passes):
        spent = [0.0, 0.0]
        for i, pair in enumerate(zip(*sides)):
            order = (0, 1) if (i + k) % 2 == 0 else (1, 0)
            for s in order:
                start = time.perf_counter()
                pair[s].solve(trees[s])
                spent[s] += time.perf_counter() - start
        ratios.append(spent[1] / spent[0])
    return ratios


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="the src/ directory of tree A (the baseline)")
    parser.add_argument("b", help="the src/ directory of tree B")
    parser.add_argument("--sets", default="sweep-box,exponents-q")
    parser.add_argument("--passes", type=int, default=21)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--only", default="", help="keep the jobs whose label contains this, e.g. dominant:160")
    parser.add_argument("--tiny", action="store_true", help="the tiny job sets, for a smoke test")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as into:
        sys.path.insert(0, into)
        trees = [load(src, name, into)[0] for src, name in ((args.a, "logvf_a"), (args.b, "logvf_b"))]
        for name in args.sets.split(","):
            ratios = compare(trees, name, args.seed, args.passes, args.tiny, args.only)
            q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
            faster = sum(r < 1 for r in ratios)
            print(f"{name}: time ratio B/A {median:.3f} [{q1:.3f}-{q3:.3f}], B faster in {faster}/{len(ratios)} passes")


if __name__ == "__main__":
    main()
