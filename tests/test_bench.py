"""The checked-in BENCH files of ``tools/bench.py`` carry every end-to-end metric of every workload."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_files_have_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {workload["name"] for workload in spec["workloads"]}
    metrics = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        bench = json.loads(path.read_text())
        assert type(bench["python"]) is str and type(bench["gmpy2"]) is bool, path.name
        assert set(bench["workloads"]) == workloads, path.name
        for workload, run in bench["workloads"].items():
            assert run["record"]["workload"] == workload and run["result"]["correct"], (path.name, workload)
            got = run["result"]["metrics"]
            for name, unit in metrics.items():
                assert got[name]["unit"] == unit and got[name]["value"] > 0, (path.name, workload, name)
