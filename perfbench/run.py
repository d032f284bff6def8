#!/usr/bin/env python3
"""Benchmark of the diophlat command line, one workload per run.

    python3 perfbench/run.py --workload orbit-compare --seed 3 --seconds 40 --trace 0

Run from the repository root.  The workload's jobs (see workloads.py) run
back to back in this process through ``diophlat.cli.main``: a closed loop
with one client.  The job list is repeated in passes until ``--seconds`` is
used up; every output is checked (checks.py).  With ``--trace 0`` the last
line of standard output is a JSON object carrying the end-to-end metrics;
with ``--trace 1`` passes alternate untraced and traced (tracing.py) and
the object carries the per-layer metrics.  Timings are averaged over the
whole run, because the speed of a shared host drifts in phases of many
seconds.  See README.md for every metric.

Exit status: 0 when every output checks, 1 when any job failed (the result
is still printed, with ``"correct": false``), 2 when the package source is
not found next to this directory (nothing is printed on standard output).
"""

from __future__ import annotations

import os
import sys

# pin native thread pools before numpy is imported, here and in the probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_PROBES = 5


def import_package():
    """Import diophlat from ``src/`` of this checkout and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "diophlat", "__init__.py")):
        print(f"error: no diophlat package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import diophlat

    if not os.path.realpath(diophlat.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: diophlat resolved to {diophlat.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return diophlat


def parse_args(argv=None):
    from workloads import SIZES, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="smoke: tiny jobs for perfbench/smoke.py")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once (import, inputs, warm-up job) and exit")
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's first-pass outputs in reference.json")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args, jobs) -> dict:
    import mpmath
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": _git_commit(),
        "loadavg_start": os.getloadavg(),
        "thread_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "jobs": [j.key for j in jobs],
    }


# ---------------------------------------------------------------------------
# running and checking jobs
# ---------------------------------------------------------------------------


class Runner:
    """Runs the job list in passes, times each job and checks its outputs.

    The first run of a job gets the full checks (invariants, and the
    reference when one is recorded for the job); every later run of it,
    traced or not, must write byte-identical files.
    """

    def __init__(self, jobs, work_dir: str, reference: dict, after_job=None):
        from checks import Checker

        self.jobs = jobs
        self.work_dir = work_dir
        self.reference = reference
        self.after_job = after_job  # test hook: called with (index, out_dir)
        self.checker = Checker()
        self.first: dict[int, tuple[str, bool]] = {}
        self.summaries: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def out_dir(self, index: int) -> str:
        return os.path.join(self.work_dir, f"j{index:02d}" if index >= 0 else "warmup")

    def run_job(self, index: int, job, tracer=None, check: bool = True) -> float:
        import diophlat.cli

        out = self.out_dir(index)
        argv = job.argv(out)
        buf = io.StringIO()
        rc = None
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_job(index)
        try:
            with contextlib.redirect_stdout(buf):
                rc = diophlat.cli.main(argv)
        except Exception:  # a job that raises is a failed job, not a crash
            problem = traceback.format_exc(limit=3)
        else:
            problem = None if rc == 0 else f"exit status {rc}"
        finally:
            if tracer is not None:
                tracer.end_job()
        elapsed = time.perf_counter() - t0
        if self.after_job is not None:
            self.after_job(index, out)
        if problem is None and check:
            problem = self._check(index, job, out, buf.getvalue())
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{job.key}: {problem}")
        return elapsed

    def _check(self, index: int, job, out: str, stdout: str):
        from checks import compare_reference, digest

        dig = digest(out)
        if index in self.first:
            first_digest, ok = self.first[index]
            if dig != first_digest:
                return "outputs differ from the first run of this job"
            return None if ok else "outputs failed their checks on the first run"
        summary, errors = self.checker.summarize(job, out, stdout)
        ref = self.reference.get(job.key)
        if ref is not None:
            errors += compare_reference(summary, ref)
        self.first[index] = (dig, not errors)
        self.summaries[index] = summary
        return "; ".join(errors[:5]) if errors else None

    def run_pass(self, tracer=None) -> tuple[float, list[float]]:
        gc.collect()
        times = [self.run_job(i, job, tracer) for i, job in enumerate(self.jobs)]
        return sum(times), times


def pass_items(workload: str, jobs, summaries: dict) -> int:
    """Work items in one pass: orbit samples, scanned k, or records written."""
    if workload == "records-horizon":
        return sum(summaries[i]["exact"].get("records", 0) for i in range(len(jobs))
                   if i in summaries)
    return sum(j.items for j in jobs)


def setup_probes(args) -> list[float]:
    """Wall time of fresh processes that set up (interpreter, import, inputs,
    warm-up job) and exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"error: setup probe exited with {proc.returncode}")
    return times


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

UNITS = {"s": "s", "self_s": "s", "calls": "count", "us_per_sample": "us"}

TRACED_FUNCTIONS = {
    "orbitmeasure.pushforward_minvec": ("s", "self_s", "calls"),
    "orbitmeasure.sample_orbit": ("s",),
    "latgeo.lattice_points_in_box_exact": ("s", "calls"),
    "latgeo.hecke_scaled_lattice": ("s",),
    "latgeo.conjugator_data": ("s",),
    "latgeo._enumerate_scaled_ball": ("s", "calls"),
    "approx._linear_candidates": ("s",),
    "approx._block_candidates": ("s",),
    "approx.record_minima": ("s",),
    "approx.scaled_minima": ("s",),
    "approx.scan_records": ("s", "self_s", "calls"),
    "approx.direction_measure": ("s",),
    "approx.sweep_weights": ("s",),
    "numberfield.frac_nearest": ("s", "calls"),
    "numberfield.make_field": ("s",),
    "numberfield.power_tuple": ("s",),
    "spheremeasure.normalize": ("s",),
    "spheremeasure.distance": ("s",),
    "spheremeasure.min_arc_mass": ("s",),
}


def layer_metrics(summary: dict, untraced: list[float], traced: list[float],
                  attempted: int, failed: int) -> dict:
    from tracing import LAYERS

    fns, counts = summary["functions"], summary["counts"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def ratio(a, b):
        return a / b if b else 0.0

    for fn, keys in TRACED_FUNCTIONS.items():
        entry = fns.get(fn, {"s": 0.0, "self_s": 0.0, "calls": 0})
        for key in keys:
            put(f"{fn}.{key}", entry[key], UNITS[key])
    samples = counts.get("orbitmeasure.pushforward_minvec.samples", 0)
    hits = counts.get("orbitmeasure.pushforward_minvec.hits", 0)
    points = counts.get("latgeo.lattice_points_in_box_exact.points", 0)
    records = counts.get("approx.scan_records.records", 0)
    push_s = fns.get("orbitmeasure.pushforward_minvec", {"s": 0.0})["s"]
    put("orbitmeasure.pushforward_minvec.us_per_sample", 1e6 * ratio(push_s, samples), "us")
    put("orbitmeasure.samples", samples, "count")
    put("orbitmeasure.hit_frac", ratio(hits, samples), "ratio")
    put("latgeo.lattice_points_in_box_exact.points", points, "count")
    put("latgeo.box_points_per_hit", ratio(points, hits), "ratio")
    put("approx.k_scanned", counts.get("approx.record_minima.k", 0)
        + counts.get("approx.scaled_minima.k", 0), "count")
    put("approx.records", records, "count")
    put("approx.accept_frac", ratio(records, summary["rechecked"]), "ratio")
    put("spheremeasure.atoms", counts.get("spheremeasure.normalize.atoms", 0), "count")
    put("cli.io.s", summary["io_s"], "s")
    put("cli.io.bytes", sum(v for k, v in counts.items() if k.endswith(".bytes")), "bytes")
    for layer in LAYERS:
        put(f"{layer}.self_s", summary["layer_self_s"][layer], "s")
    put("job.s", summary["job_s"], "s")
    put("ops_failed_frac", ratio(failed, attempted), "ratio")
    put("trace.overhead_frac", statistics.mean(traced) / statistics.mean(untraced) - 1.0,
        "ratio")
    put("trace.coverage", 1.0 - ratio(summary["layer_self_s"]["cli"], summary["job_s"]), "ratio")
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _load_reference() -> dict:
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)["jobs"]
    except FileNotFoundError:
        return {}


def _record_reference(runner: Runner, commit: str) -> None:
    data = {"commit": commit, "jobs": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            data = json.load(fh)
    for i, summary in runner.summaries.items():
        data["jobs"][runner.jobs[i].key] = summary
    data["commit"] = commit
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


def run_probe(args) -> int:
    import_package()
    from workloads import make_jobs, warmup_job

    make_jobs(args.workload, args.seed, args.size)
    probe_dir = os.path.join(WORK, f"probe-{os.getpid()}")
    runner = Runner([], probe_dir, {})
    try:
        runner.run_job(-1, warmup_job(args.workload), check=False)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    return 0 if runner.failed == 0 else 1


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    if args.setup_probe:
        return run_probe(args)
    import_package()
    from workloads import make_jobs, warmup_job

    probe_times = setup_probes(args)

    jobs = make_jobs(args.workload, args.seed, args.size)
    info = stamp(args, jobs)
    work_dir = os.path.join(WORK, f"run-{os.getpid()}")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    runner = Runner(jobs, work_dir, _load_reference())
    untraced, traced, pass_job_times = [], [], []
    try:
        runner.run_job(-1, warmup_job(args.workload))
        t_loop = time.perf_counter()
        pass_cost = []
        while True:
            t_pass = time.perf_counter()
            wall, times = runner.run_pass()
            untraced.append(wall)
            pass_job_times.append(times)
            if tracer is not None:
                tracer.install()
                try:
                    traced.append(runner.run_pass(tracer)[0])
                finally:
                    tracer.uninstall()
            pass_cost.append(time.perf_counter() - t_pass)
            used = time.perf_counter() - t_loop
            if args.record_reference or used + statistics.median(pass_cost) > args.seconds:
                break
        measured_s = time.perf_counter() - t_loop
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    info["loadavg_end"] = os.getloadavg()
    info["passes"] = len(untraced)
    info["measured_s"] = measured_s
    if args.record_reference and runner.failed == 0:
        _record_reference(runner, info["git_commit"])

    items = pass_items(args.workload, jobs, runner.summaries)
    # one pass's time and each job's time, averaged over every pass of the run
    wall = statistics.mean(untraced)
    job_means = [statistics.mean(t) for t in zip(*pass_job_times)]
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(probe_times), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "job_s.p50": {"value": statistics.median(job_means), "unit": "s"},
            "items_per_s": {"value": items / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        info["job_count"] = sum(map(len, pass_job_times))
        info["job_mean_s"] = job_means
        info["items_per_pass"] = items
        info["setup_probes_s"] = probe_times
    else:
        from tracing import summarize

        summary = summarize(tracer.spans, len(traced))
        metrics = layer_metrics(summary, untraced, traced, runner.attempted, runner.failed)
        os.makedirs(WORK, exist_ok=True)
        trace_path = os.path.join(WORK, f"trace-{args.workload}-s{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "counts"],
                       "spans": tracer.spans}, fh)
        info["trace_file"] = os.path.relpath(trace_path, ROOT)
        info["traced_functions"] = summary["functions"]
    info["untraced_pass_s"] = untraced
    info["traced_pass_s"] = traced
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print("stamp " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
