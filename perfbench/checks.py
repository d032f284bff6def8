"""Output checks for benchmark jobs.

Three layers of check:

* invariants, for any seed: weights plus empty fraction equal one, orbit
  mass equals hits / N, every record passes the exact test
  ``q * delta^n < eps^n`` recomputed with ``frac_nearest``, minima values
  recompute from ``frac_nearest``, printed totals match the CSVs;
* references recorded at the commit that defined the benchmark: integers
  (record q and p-vectors, minima k, scaled argmin, orbit hits, atom counts)
  must match exactly and floats to 1e-12 relative;
* byte identity: a job run again, traced or not, must write the same bytes
  (compared through ``digest``).

``summarize`` returns the job's summary and the list of invariant breaches.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from fractions import Fraction

from diophlat.numberfield import frac_nearest, make_field, padic_valuation, power_tuple

REL_TOL = 1e-12


def digest(out_dir: str) -> str:
    """sha256 over the names and bytes of every file the job wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b)) or a == b


class Checker:
    """Recomputes what the checks need with the unwrapped library functions."""

    def __init__(self):
        self._tuples = {}

    def tuple_for(self, coeffs: str, bits: int):
        key = (coeffs, bits)
        if key not in self._tuples:
            field = make_field([int(c) for c in coeffs.split(",")], bits)
            self._tuples[key] = power_tuple(field)
        return self._tuples[key]

    def summarize(self, job, out_dir: str, stdout: str):
        handler = getattr(self, "_" + job.command)
        errors: list[str] = []
        exact: dict = {}
        floats: dict = {}
        try:
            handler(job, out_dir, stdout, exact, floats, errors)
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return {"exact": exact, "float": floats}, errors

    # -- per command -------------------------------------------------------

    def _compare(self, job, out_dir, stdout, exact, floats, errors):
        N = int(job.option("--N"))
        text = _read(out_dir, "compare.txt")
        if text.strip() != stdout.strip():
            errors.append("compare.txt differs from the printed report")
        blocks = re.split(r"^k=", text, flags=re.M)[1:]
        ks = [int(k) for k in job.option("--k-range").split(",")]
        if len(blocks) != len(ks):
            errors.append(f"report has {len(blocks)} k blocks, expected {len(ks)}")
            return
        for k, block in zip(ks, blocks):
            time_rows = _csv_rows(out_dir, f"measure_k{k}.csv")
            orbit_lines = _read(out_dir, f"orbit_measure_k{k}.csv").splitlines()
            if not orbit_lines[0].startswith(f"# seed={job.option('--seed')} "):
                errors.append(f"k={k}: orbit CSV header does not carry the seed")
            orbit_rows = [[float(x) for x in ln.split(",")] for ln in orbit_lines[2:] if ln]
            time_mass = math.fsum(float(r[-1]) for r in time_rows)
            orbit_mass = math.fsum(r[-1] for r in orbit_rows)
            hits = round(orbit_mass * N)
            if abs(orbit_mass * N - hits) > 1e-6:
                errors.append(f"k={k}: orbit mass {orbit_mass!r} is not hits/N for N={N}")
            for r in orbit_rows:
                if abs(math.hypot(*r[:-1]) - 1.0) > 1e-9 or r[-1] <= 0:
                    errors.append(f"k={k}: orbit atom {r} is not a unit vector with weight")
                    break
            report = _report_values(block)
            if not close(report["time-average mass"], time_mass):
                errors.append(f"k={k}: printed time-average mass disagrees with the CSV")
            if not close(report["orbit-average mass"], orbit_mass):
                errors.append(f"k={k}: printed orbit-average mass disagrees with the CSV")
            if not 0.0 <= time_mass <= 1.0 + 1e-12:
                errors.append(f"k={k}: time-average mass {time_mass!r} outside [0, 1]")
            exact[f"k{k}.hits"] = hits
            exact[f"k{k}.time_atoms"] = len(time_rows)
            exact[f"k{k}.orbit_atoms"] = len(orbit_rows)
            for name, value in report.items():
                floats[f"k{k}.{name}"] = value

    def _scan(self, job, out_dir, stdout, exact, floats, errors):
        coeffs = job.option("--coeffs")
        tup = self.tuple_for(coeffs, int(job.option("--bits")))
        n = tup.n
        ell = int(job.option("--ell"))
        eps = float(job.option("--epsilon"))
        eps_pow = Fraction(eps) ** n
        rows = _csv_rows(out_dir, "records.csv")
        m = re.search(r"^records: (\d+)$", stdout, re.M)
        if m is None or int(m.group(1)) != len(rows):
            errors.append("printed record count disagrees with records.csv")
        m = re.search(r"^weight sum: (\S+)\s+empty fraction: (\S+)$", stdout, re.M)
        weights = [float(r[n + 4]) for r in rows]
        empty = float(m.group(2)) if m else math.nan
        if not abs(math.fsum(weights) + empty - 1.0) <= 1e-12:
            errors.append("weights plus empty fraction do not sum to one")
        qp = hashlib.sha256()
        last_q = 0
        for r in rows:
            q = int(r[0])
            pvec = tuple(int(x) for x in r[1 : n + 1])
            qp.update(f"{q}:{','.join(map(str, pvec))};".encode())
            if q <= last_q:
                errors.append(f"records not in ascending q at q={q}")
            last_q = q
            p_true, disp, delta = frac_nearest(tup, q * ell)
            dispf = [float(x) for x in disp]
            norm = math.sqrt(sum(x * x for x in dispf))
            expected = [float(delta), math.log(q) / n, math.log(eps) - math.log(float(delta))]
            expected += [x / norm for x in dispf]
            got = [float(x) for x in r[n + 1 : n + 4] + r[n + 5 :]]
            if p_true != pvec:
                errors.append(f"q={q}: p-vector is not the nearest integer vector")
            elif not q * delta**n < eps_pow:
                errors.append(f"q={q}: fails the exact test q * delta^n < eps^n")
            elif math.gcd(q, *(abs(p) for p in pvec)) != 1:
                errors.append(f"q={q}: pair is not primitive")
            elif len(got) != len(expected) or not all(map(close, got, expected)):
                errors.append(f"q={q}: delta, interval or direction disagree with frac_nearest")
            if len(errors) > 5:
                return
        exact["records"] = len(rows)
        exact["qp_sha256"] = qp.hexdigest()
        floats["empty_fraction"] = empty
        floats["weights"] = weights

    def _measure(self, job, out_dir, stdout, exact, floats, errors):
        for k in (int(x) for x in job.option("--k-range").split(",")):
            rows = _csv_rows(out_dir, f"measure_k{k}.csv")
            m = re.search(rf"^k={k}: atoms=(\d+) mass=(\S+) ->", stdout, re.M)
            weights = [float(r[-1]) for r in rows]
            mass = math.fsum(weights)
            if m is None or int(m.group(1)) != len(rows) or not close(float(m.group(2)), mass):
                errors.append(f"k={k}: printed atoms or mass disagree with the CSV")
            if not 0.0 <= mass <= 1.0 + 1e-12 or any(w <= 0 for w in weights):
                errors.append(f"k={k}: weights are not a sub-probability")
            exact[f"k{k}.atoms"] = len(rows)
            floats[f"k{k}.weights"] = weights
            floats[f"k{k}.coords"] = [float(r[0]) for r in rows]

    def _littlewood(self, job, out_dir, stdout, exact, floats, errors):
        tup = self.tuple_for(job.option("--coeffs"), 192)
        n = tup.n
        p = int(job.option("--p"))
        K = int(job.option("--K"))
        minima = _csv_rows(out_dir, "minima.csv")
        ks = [int(r[0]) for r in minima]
        vals = [float(r[1]) for r in minima]
        if not ks or ks[0] != 1 or ks[-1] > K or any(a >= b for a, b in zip(ks, ks[1:])):
            errors.append("minima k values are not ascending within [1, K] from k=1")
        if any(a <= b for a, b in zip(vals, vals[1:])):
            errors.append("minima values are not strictly decreasing")
        for k, v in zip(ks, vals):
            kp = k // p ** padic_valuation(k, p)
            if not close(v, float(kp) ** (1.0 / n) * float(frac_nearest(tup, k)[2])):
                errors.append(f"minimum at k={k} does not recompute")
                break
        scaled = _csv_rows(out_dir, "scaled.csv")
        ms = [int(x) for x in job.option("--m-range").split(",")]
        if [int(r[0]) for r in scaled] != ms:
            errors.append("scaled.csv rows do not follow the m range")
        for r in scaled:
            m, ell, arg = int(r[0]), int(r[1]), int(r[2])
            val, sc = float(r[3]), float(r[4])
            if ell != p**m or not 1 <= arg <= K:
                errors.append(f"m={m}: bad ell or argmin")
                continue
            if not close(val, float(arg) ** (1.0 / n) * float(frac_nearest(tup, arg * ell)[2])):
                errors.append(f"m={m}: min value does not recompute at k={arg}")
            if not close(sc, ell ** (1.0 / n) * val):
                errors.append(f"m={m}: scaled value is not ell^(1/n) * min")
        exact["minima_k"] = ks
        exact["scaled_argmin"] = [int(r[2]) for r in scaled]
        floats["minima_value"] = vals
        floats["scaled_min"] = [float(r[3]) for r in scaled]


def compare_reference(summary: dict, ref: dict) -> list[str]:
    """Breaches of an exact or 1e-12-relative match against a reference."""
    errors = []
    if summary["exact"] != ref["exact"]:
        bad = sorted(k for k in ref["exact"] if summary["exact"].get(k) != ref["exact"][k])
        errors.append(f"integers differ from the reference: {bad or 'keys'}")
    if summary["float"].keys() != ref["float"].keys():
        errors.append("float keys differ from the reference")
        return errors
    for key, want in ref["float"].items():
        got = summary["float"][key]
        pairs = zip(got, want) if isinstance(want, list) else [(got, want)]
        if isinstance(want, list) and len(got) != len(want):
            errors.append(f"{key}: length differs from the reference")
        elif not all(close(a, b) for a, b in pairs):
            errors.append(f"{key}: differs from the reference beyond 1e-12 relative")
    return errors


def _read(out_dir: str, name: str) -> str:
    with open(os.path.join(out_dir, name)) as fh:
        return fh.read()


def _csv_rows(out_dir: str, name: str) -> list[list[str]]:
    lines = _read(out_dir, name).splitlines()
    return [ln.split(",") for ln in lines[1:] if ln]


def _report_values(block: str) -> dict:
    """Numeric lines of one k block of compare.txt, keyed by their label."""
    out = {}
    for line in block.splitlines()[1:]:
        label, _, value = line.strip().rpartition(":")
        if value.strip() != "n/a (a side is the zero measure)":
            out[label.strip()] = float(value)
    return out
