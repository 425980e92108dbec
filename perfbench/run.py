#!/usr/bin/env python3
"""Layered benchmark for logvf.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.  One
process runs one workload as a closed loop with a single caller: one job at a
time, each job's inputs generated from ``--seed``, every answer checked
outside the timed region.  The run draws a fixed set of jobs (whole rounds,
see ``workloads.py``) and times it in passes until ``--seconds`` have
passed; each job reports the mean of its passes.

With ``--trace 0`` the last line of standard output is the result with the
end-to-end metrics; with ``--trace 1`` one pass over the same jobs runs under
the span tracer of ``tracing.py`` and the result carries the per-layer
metrics, then the pass is replayed untraced to give ``trace.overhead_ratio``.  The
line before the result is a JSON record of the machine, the inputs and the
percentiles used.  Exit status: 0 when every answer is right, 1 when a job
failed, 2 for bad arguments or when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 3
REPICK_EVERY_S = 1.0
TRACE_TOLERANCE_S = 1e-6

# BENCHMARK.json at the root of the checkout names every metric and its unit.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class Failure(Exception):
    """The program under test cannot be run at all (exit status 2, no result)."""


class CpuPicker:
    """Keeps the process on the least-slowed CPU it may use.

    On a shared host each virtual CPU is slowed by its neighbours on its own,
    by up to 1.6x for tens of seconds, so a run that stays on one CPU can be
    slow from start to end while the other CPU is fast.  Between jobs, at most
    once a second, :meth:`settle` times a fixed spin loop on every allowed CPU
    and pins the process to the fastest.  This moves only the benchmark
    process; the timed calls are unchanged.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = -math.inf

    def settle(self) -> None:
        if len(self.cpus) < 2 or time.perf_counter() - self.last < REPICK_EVERY_S:
            return
        best = min(self.cpus, key=self._probe)
        os.sched_setaffinity(0, {best})
        self.last = time.perf_counter()

    @staticmethod
    def _probe(cpu) -> float:
        os.sched_setaffinity(0, {cpu})
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            x = 0
            for i in range(50_000):
                x += i
            best = min(best, time.perf_counter() - t0)
        return best


# ----------------------------------------------------------------------
# set-up: import, fields, the run's inputs
# ----------------------------------------------------------------------


def import_logvf():
    if not (SRC / "logvf" / "__init__.py").is_file():
        raise Failure(f"no logvf package under {SRC.relative_to(ROOT)}/; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lv = importlib.import_module("logvf")
    importlib.import_module("logvf.cli")
    return lv


def setup_once(name, seed, baseline_modules, tracer=None, tiny=False):
    """One full set-up from a cold ``logvf`` import up to the run's jobs ready to run.

    Every module imported since ``baseline_modules`` was taken is dropped
    first, so each repetition pays the package's import (and the standard
    library modules it pulls in) again.
    """
    for key in [k for k in sys.modules if k not in baseline_modules]:
        del sys.modules[key]
    t0 = time.perf_counter()
    lv = import_logvf()
    with traced(tracer, tracing.BENCH_SETUP):
        # the fields the workloads use, each with its trial-division primality check
        lv.Field(workloads.P31)
        lv.Field(workloads.P_ORACLE)
        rng = random.Random(seed)
        jobs = prepare_jobs(lv, name, rng, tiny)
    return lv, jobs, time.perf_counter() - t0


def traced(tracer, name):
    """Trace the block as root span ``name``, or do nothing in an untraced run."""
    return tracer.root(name) if tracer is not None else contextlib.nullcontext()


def prepare_jobs(lv, name, rng, tiny=False):
    """The run's jobs: ``workloads.ROUNDS[name]`` rounds drawn from ``rng``, parsed."""
    jobs = []
    for _ in range(1 if tiny else workloads.ROUNDS[name]):
        jobs += workloads.WORKLOADS[name](rng, tiny)
    for job in jobs:
        job.prepare(lv)
    return jobs


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------


class Outcome:
    """Per-job timings and check results of one measured phase.

    ``jobs`` holds one entry per job: ``(job, seconds, problems, answer)``,
    where ``seconds`` is the mean of its passes, ``problems`` gathers what
    the checks found in any pass and ``answer`` is that of the last pass.
    """

    def __init__(self, jobs):
        self.passes = 0
        self.failed_solves = 0
        self._jobs = list(jobs)
        self._times = [[] for _ in self._jobs]
        self._problems = [[] for _ in self._jobs]
        self._answers = [None for _ in self._jobs]

    def record(self, i, elapsed, problems, answer):
        self._times[i].append(elapsed)
        self._problems[i] += problems
        self._answers[i] = answer
        if problems:
            self.failed_solves += self._jobs[i].size

    @property
    def jobs(self) -> list[tuple]:
        return [
            (job, statistics.fmean(times), problems, answer)
            for job, times, problems, answer in zip(self._jobs, self._times, self._problems, self._answers)
        ]

    def attempted(self) -> int:
        return self.passes * sum(job.size for job in self._jobs)

    def failed(self) -> int:
        return self.failed_solves


def run_job(lv, job, cpus: CpuPicker, tracer=None):
    """Time one job (the tracer, if any, wraps exactly the timed call)."""
    cpus.settle()
    gc.collect()
    error = None
    answer = None
    with traced(tracer, tracing.BENCH_JOB):
        t0 = time.perf_counter()
        try:
            answer = job.solve(lv)
        except Exception as exc:  # a job that raises is a failed job, not a crash
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return answer, elapsed, error


def check_job(lv, job, answer, error):
    if error is not None:
        return [error]
    try:
        return job.check(lv, answer)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def measure(lv, jobs, seconds, cpus, order, tracer=None):
    """Time every job once per pass, in passes until ``seconds`` have passed and at least ``MIN_PASSES``.

    Neighbours on a shared host slow this process down by 1.1x to 1.9x, in
    phases of seconds to tens of seconds.  Each pass runs the jobs in a
    fresh order drawn from ``order``, so a job's passes land at unrelated
    moments, and the job reports the mean of its passes: every job then
    sees the same average of the phases of the run.  A traced run makes a
    single pass, so its counts are those of the job set.
    """
    out = Outcome(jobs)
    passes = 1 if tracer is not None else MIN_PASSES
    indices = list(range(len(jobs)))
    start = time.perf_counter()
    while out.passes < passes or (tracer is None and time.perf_counter() - start < seconds):
        order.shuffle(indices)
        for i in indices:
            answer, elapsed, error = run_job(lv, jobs[i], cpus, tracer)
            out.record(i, elapsed, check_job(lv, jobs[i], answer, error), answer)
        out.passes += 1
    return out


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def job_ms(job, elapsed) -> float:
    """Wall time per job in ms; a sweep call is spread over its tuples."""
    return 1e3 * elapsed / job.size


def tail(values):
    """(percentile, value) for the highest whole percentile with at least 10 of ``values`` beyond it.

    A workload's job count is fixed, so the percentile is the same in every
    run of it; with fewer than 11 jobs the maximum is reported as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    pct = 100 * (n - 10) // n if n > 10 else 100
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, ordered[rank - 1]


def end_to_end(out: Outcome, setup_times):
    per_job = [job_ms(job, t) for job, t, _, _ in out.jobs]
    pct, tail_ms = tail(per_job)
    metrics = {
        "solve_per_s": sum(job.size for job, _, _, _ in out.jobs) / sum(t for _, t, _, _ in out.jobs),
        "solve_ms_p50": statistics.median(per_job),
        "solve_ms_tail": tail_ms,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"tail_percentile": pct, "samples": len(per_job), "passes": out.passes}
    return metrics, extra


def per_layer(tracer: tracing.Tracer, traced: Outcome, replay_s: float):
    calls, self_s, roots, min_self = tracer.summary()
    metrics = {}
    for name, _, _ in tracing.TARGETS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    counts = tracer.counts
    solves = traced.attempted()
    bits = [job.out_bits(answer) for job, _, problems, answer in traced.jobs if not problems]
    metrics["poly.rational_operand_ratio"] = _ratio(counts["poly.rational_calls"], counts["poly.kernel_calls"])
    metrics["poly.coeff_bits_max"] = max(bits, default=0)
    metrics["derivation.primitive.rescale_ratio"] = _ratio(
        counts["derivation.primitive.rescaled"], calls["derivation.primitive"]
    )
    for branch in ("generic", "g_vanishing", "f_vanishing"):
        metrics[f"basis.step.{branch}"] = counts[f"basis.step.{branch}"]
    metrics["basis.steps_per_solve"] = _ratio(calls["basis.step"], solves)
    metrics["oracle.dims_per_solve"] = _ratio(calls["oracle.dim_degree"], calls["oracle.exponents_by_oracle"])
    metrics["bench.self_s"] = self_s[tracing.BENCH_JOB] + self_s[tracing.BENCH_SETUP]
    metrics["bench.trace_s"] = sum(tracer.ov)
    metrics["trace.wall_s"] = sum(wall for wall, _, _ in roots)
    metrics["trace.overhead_ratio"] = _ratio(sum(t for _, t, _, _ in traced.jobs), replay_s)
    problems = []
    for wall, own, book in roots:
        if abs(wall - own - book) > TRACE_TOLERANCE_S:
            problems.append(f"trace accounting: span wall {wall:.6f} s != self {own:.6f} s + tracer {book:.6f} s")
    if min_self < -TRACE_TOLERANCE_S:
        problems.append("trace accounting: a span has negative self time")
    return metrics, problems


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# the record
# ----------------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(lv, seed, nproc):
    backend = lv.field._rational
    return {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "rational_backend": f"{backend.__module__}.{backend.__qualname__}",
        "commit": git_commit(),
        "seed": seed,
    }


def input_record(out: Outcome):
    jobs = [job for job, _, _, _ in out.jobs]
    by_class: dict[str, list[float]] = {}
    for job, t, _, _ in out.jobs:
        by_class.setdefault(job.label, []).append(job_ms(job, t))
    bits = [job.out_bits(answer) for job, _, problems, answer in out.jobs if not problems]
    return {
        "jobs": sum(job.size for job in jobs),
        "calls": len(jobs),
        "mu_min": min(job.mu_range[0] for job in jobs),
        "mu_max": max(job.mu_range[1] for job in jobs),
        "lines_min": min(job.lines() for job in jobs),
        "lines_max": max(job.lines() for job in jobs),
        "fields": sorted({job.field_name for job in jobs}),
        "input_coeff_bits_max": max(job.in_bits for job in jobs),
        "output_coeff_bits_max": max(bits, default=0),
        "median_ms_by_class": {k: round(statistics.median(v), 3) for k, v in sorted(by_class.items())},
    }


# ----------------------------------------------------------------------


def run(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns ``(record, result)``.  ``tiny`` shrinks every input (self-test only)."""
    baseline_modules = set(sys.modules)
    setup_times = []
    tracer = tracing.Tracer() if trace else None
    cpus = CpuPicker()
    for i in range(SETUP_REPEATS):
        cpus.settle()
        last = i == SETUP_REPEATS - 1
        lv, jobs, elapsed = setup_once(name, seed, baseline_modules, tracer if last else None, tiny)
        setup_times.append(elapsed)
    # warm-up: one small job, untimed, so lazy caches fill before measuring
    warm = min(jobs, key=lambda job: job.mu_range[1])
    run_job(lv, warm, cpus)
    gc.freeze()

    out = measure(lv, jobs, seconds, cpus, random.Random(f"order-{seed}"), tracer)
    record = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(lv, seed, len(cpus.cpus)),
        "input": input_record(out),
    }
    problems = [f"{job.label}: {p}" for job, _, probs, _ in out.jobs for p in probs]
    if trace:
        replay_s = sum(run_job(lv, job, cpus)[1] for job, _, _, _ in out.jobs)
        metrics, trace_problems = per_layer(tracer, out, replay_s)
        problems += trace_problems
    else:
        metrics, extra = end_to_end(out, setup_times)
        record.update(extra)
    attempted, failed = out.attempted(), out.failed()
    record["fail_ratio"] = failed / attempted
    record["problems"] = problems[:20]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    return record, result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, metric in result["metrics"].items():
        print(f"{key:45s} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    print(f"{'fail_ratio':45s} {record['fail_ratio']:>14.6g} failed/attempted", file=sys.stderr)
    for problem in record["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
