"""Self-test of the benchmark: every metric is emitted and the correctness gate bites.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs at a tiny size (one round of small inputs) with a fixed
seed, untraced and traced.  Wrong answers are then planted into the jobs'
results to show that the checks count them as failures.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny_run(name, trace=False):
    return run.run(name, seed=7, seconds=0.0, trace=trace, tiny=True)


def test_spec_names_every_workload():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace):
    record, result = tiny_run(name, trace)
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    env = record["environment"]
    assert {"nproc", "cpu", "python", "rational_backend", "commit", "seed"} <= set(env)
    assert {"jobs", "mu_min", "mu_max", "lines_max", "fields", "input_coeff_bits_max"} <= set(record["input"])


def test_traced_run_accounts_for_the_layers():
    record, result = tiny_run("chain-q", trace=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s") and not k.startswith("bench."))
    total = layers + metrics["bench.self_s"] + metrics["bench.trace_s"]
    assert total == pytest.approx(metrics["trace.wall_s"], abs=1e-5)
    assert metrics["basis.step.calls"] == sum(
        metrics[f"basis.step.{b}"] for b in ("generic", "g_vanishing", "f_vanishing")
    )
    assert metrics["cli.parse_arrangement_text.calls"] >= 1


def _plant(monkeypatch, cls, tamper):
    solve = cls.solve

    def planted(self, lv):
        return tamper(lv, self, solve(self, lv))

    monkeypatch.setattr(cls, "solve", planted)


def _shift_chain(lv, job, answer):
    """Shifted exponents: the larger basis member picks up a spurious factor y."""
    pair = answer["pair"]
    y = lv.LinearForm(pair.field, 0, 1)
    answer["pair"] = lv.BasisPair(pair.theta1.times_linear(y), pair.theta2)
    return answer


def _shift_oracle(lv, job, answer):
    """Shifted oracle exponents where the job asks the oracle; shifted chain exponents elsewhere."""
    if answer["oracle"] is None:
        return _shift_chain(lv, job, answer)
    d1, d2 = answer["oracle"]
    answer["oracle"] = (d1 + 1, d2 - 1)
    return answer


def _shift_sweep(lv, job, report):
    rows = tuple(
        lv.ExperimentRow(r.mu, r.total, r.d1 + 1, r.d2 - 1, r.difference + 2, r.predicted_two, r.hypothesis_ok)
        for r in report.rows
    )
    return lv.PropositionReport(report.lo, report.hi, rows)


@pytest.mark.parametrize(
    "name, cls, tamper",
    [
        ("chain-q", workloads.ChainJob, _shift_chain),
        ("fp-xcheck", workloads.ChainJob, _shift_chain),
        ("fp-xcheck", workloads.ChainJob, _shift_oracle),
        ("sweep-box", workloads.SweepJob, _shift_sweep),
    ],
)
def test_planted_wrong_answer_is_a_failure(monkeypatch, name, cls, tamper):
    _plant(monkeypatch, cls, tamper)
    record, result = tiny_run(name)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert record["fail_ratio"] == 1.0


def test_job_that_raises_is_a_failure(monkeypatch):
    def boom(self, lv):
        raise ArithmeticError("planted")

    monkeypatch.setattr(workloads.ChainJob, "solve", boom)
    record, result = tiny_run("chain-q")
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert any("planted" in p for p in record["problems"])


def test_same_seed_same_inputs():
    texts = [[job.text for job in workloads.chain_q_round(random.Random(3))] for _ in range(2)]
    assert texts[0] == texts[1]
    assert texts[0] != [job.text for job in workloads.chain_q_round(random.Random(4))]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "chain-q", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
