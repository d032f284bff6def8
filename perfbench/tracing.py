"""Span tracing of the diophlat layers from outside the package.

``Tracer.install`` replaces every public function of the layer modules, in
every layer namespace that binds it (so ``approx.frac_nearest`` and
``orbitmeasure.lattice_points_in_box_exact`` are wrapped where they are
called), with a wrapper that records a span: name, start, end, parent span
and job id.  ``uninstall`` restores the originals; the package source is
never edited.  Spans are kept in memory and written out when the run ends.

A few per-call counts are taken at the same boundaries (points returned,
samples, hits, records, k scanned, atoms, bytes written).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

LAYERS = ("numberfield", "latgeo", "approx", "orbitmeasure", "spheremeasure", "cli")

# Scalar helpers called once per k inside the O(K) loops; a wrapper there
# would cost more than the work it measures.
UNWRAPPED = frozenset({"numberfield.is_prime", "numberfield.padic_valuation",
                       "numberfield.padic_norm"})

# Private entry points worth a span of their own: the two candidate scans on
# either side of the linear/block switch, and the enumeration kernel both
# the block scan and the orbit pushforward run.  Missing names are skipped.
EXTRA = ("approx._linear_candidates", "approx._block_candidates",
         "latgeo._enumerate_scaled_ball")

ROOT = "job"


def _path_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


def _push_counts(args, kwargs, result):
    n = args[0].count
    return {"samples": n, "hits": round(result.total_mass * n)}


PROBES = {
    "latgeo.lattice_points_in_box_exact": lambda a, kw, r: {"points": len(r)},
    "orbitmeasure.pushforward_minvec": _push_counts,
    "approx.scan_records": lambda a, kw, r: {"records": len(r)},
    "approx.record_minima": lambda a, kw, r: {"k": a[2]},
    "approx.scaled_minima": lambda a, kw, r: {"k": a[2]},
    "spheremeasure.normalize": lambda a, kw, r: {"atoms": r.n_atoms},
}


def is_io(name: str) -> bool:
    fn = name.rpartition(".")[2]
    return fn.startswith("save_") and fn.endswith("_csv")


class Tracer:
    """Spans are lists ``[name, start, end, parent, job, counts]``; parent is
    an index into ``spans`` (-1 for a job root)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job = -1
        self._patches: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"diophlat.{m}") for m in LAYERS]
        names = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") and name not in EXTRA) or name in UNWRAPPED:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    names[obj] = name
        wrappers = {fn: self._wrap(fn, name) for fn, name in names.items()}
        for ns in [*modules, importlib.import_module("diophlat")]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)
        if probe is None and is_io(name):
            probe = _path_bytes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside a job: the benchmark's own checks
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1], self._job, None]
            stack.append(len(spans))
            spans.append(rec)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[1] = t0
                stack.pop()
            if probe is not None:
                rec[5] = probe(args, kwargs, result)
            return result

        return wrapper

    # -- job roots -----------------------------------------------------------

    def begin_job(self, job_id: int) -> None:
        self._job = job_id
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, job_id, None])

    def end_job(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._job = -1


def layer_of(name: str) -> str:
    return name.partition(".")[0]


def summarize(spans: list[list], passes: int) -> dict:
    """Per-pass totals: time, self time and calls per function, counts, and
    self time per layer.  ``cli`` self time includes the job root's."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    fn: dict[str, dict] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    counts: dict[str, float] = {}
    io_s = job_s = 0.0
    rechecked = 0
    for i, (name, t0, t1, parent, _, extra) in enumerate(spans):
        dur = t1 - t0
        self_s = dur - child[i]
        entry = fn.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += dur
        entry["self_s"] += self_s
        entry["calls"] += 1
        if name == ROOT:
            job_s += dur
            layer_self["cli"] += self_s
        elif is_io(name):
            io_s += dur
        else:
            layer_self[layer_of(name)] += self_s
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if name == "numberfield.frac_nearest" and spans[parent][0] == "approx.scan_records":
            rechecked += 1
    scale = 1.0 / max(passes, 1)
    for entry in fn.values():
        for key in entry:
            entry[key] *= scale
    return {
        "functions": fn,
        "layer_self_s": {k: v * scale for k, v in layer_self.items()},
        "counts": {k: v * scale for k, v in counts.items()},
        "io_s": io_s * scale,
        "job_s": job_s * scale,
        "rechecked": rechecked * scale,
    }
