#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size of every workload.

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted, that traced
spans nest under the right parents, that a corrupted output or a wrong
reference value is counted as a failure, and that the benchmark refuses to
run without the package source.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

SEED = 1

# child span -> a name that must appear among its ancestors
EXPECTED_ANCESTOR = {
    "cli.main": "job",
    "orbitmeasure.pushforward_minvec": "cli.cmd_compare",
    "latgeo.lattice_points_in_box_exact": "orbitmeasure.pushforward_minvec",
    "latgeo.hecke_scaled_lattice": "cli.cmd_compare",
    "numberfield.frac_nearest": "approx.scan_records",
    "approx.record_minima": "cli.cmd_littlewood",
    "approx.scaled_minima": "cli.cmd_littlewood",
    "approx._block_candidates": "approx.scan_records",
    "approx._linear_candidates": "approx.scan_records",
}


def bench_run(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics(workload: str, trace: int, spec: dict) -> None:
    proc = bench_run(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in want]
    assert list(result["metrics"]) == names, (workload, trace, set(names) ^ set(result["metrics"]))
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), (m["name"], got)
        if not trace:
            assert got["value"] > 0, (workload, m["name"], got)


def check_spans(workload: str) -> None:
    path = os.path.join(run.WORK, f"trace-{workload}-s{SEED}.json")
    with open(path) as fh:
        spans = json.load(fh)["spans"]
    assert spans, workload
    seen = set()
    for i, (name, t0, t1, parent, job, _) in enumerate(spans):
        assert t0 <= t1, (i, name)
        if parent < 0:
            assert name == "job", (i, name)
            continue
        pname, p0, p1, _, pjob, _ = spans[parent]
        assert parent < i and pjob == job, (i, name, parent)
        assert p0 <= t0 and t1 <= p1, f"{name} is not inside its parent {pname}"
        want = EXPECTED_ANCESTOR.get(name)
        if want is not None:
            a = parent
            while a >= 0 and spans[a][0] != want:
                a = spans[a][3]
            assert a >= 0, f"{name} has no ancestor {want}"
        seen.add(name)
    assert "cli.main" in seen and len(seen) > 3, (workload, seen)


def _corrupt(out_dir: str) -> None:
    """Change the second field of the last row of the job's main CSV: an
    integer gains one, a float doubles."""
    for name in ("records.csv", "minima.csv", "measure_k0.csv", "measure_k1.csv"):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) > 1, f"{path} has no rows to corrupt"
        fields = lines[-1].split(",")
        v = fields[1]
        fields[1] = str(int(v) + 1) if v.lstrip("-").isdigit() else repr(2 * float(v))
        lines[-1] = ",".join(fields)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return
    raise AssertionError(f"nothing to corrupt in {out_dir}")


def check_failures_counted(workload: str) -> None:
    jobs = make_jobs(workload, SEED, "smoke")
    work = os.path.join(run.WORK, f"smoke-{os.getpid()}")
    try:
        hook = lambda index, out: _corrupt(out) if index == 0 else None  # noqa: E731
        runner = run.Runner(jobs, work, {}, after_job=hook)
        runner.run_pass()
        runner.run_pass()
        assert runner.failed == 2, (workload, runner.failed, runner.failures)
        assert all(f.startswith(jobs[0].key) for f in runner.failures), runner.failures

        ref = run._load_reference()
        assert jobs[0].key in ref, f"no reference recorded for {jobs[0].key}"
        bad = json.loads(json.dumps(ref[jobs[0].key]))
        key = next(iter(bad["exact"]))
        bad["exact"][key] = bad["exact"][key] + [0] if isinstance(bad["exact"][key], list) \
            else str(bad["exact"][key]) + "0"
        runner = run.Runner(jobs[:1], work, {jobs[0].key: bad})
        runner.run_pass()
        assert runner.failed == 1 and "reference" in runner.failures[0], runner.failures
        runner = run.Runner(jobs, work, ref)
        runner.run_pass()
        assert runner.failed == 0, runner.failures
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_refuses_without_source(workload: str) -> None:
    bare = os.path.join(run.WORK, f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = bench_run(workload, 0, cwd=bare)
        assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # every workload is smoke-tested, also one BENCHMARK.json leaves untimed
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    run.import_package()
    for workload in WORKLOADS:
        check_metrics(workload, 0, spec)
        check_metrics(workload, 1, spec)
        check_spans(workload)
        check_failures_counted(workload)
        print(f"ok {workload}")
    check_refuses_without_source(spec["workloads"][0]["name"])
    print("ok refuses to run without the package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
