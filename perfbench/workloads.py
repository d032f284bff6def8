"""Job lists for the three benchmark workloads, generated from a seed.

A job is one ``diophlat`` subcommand line.  The seed drives every drawn
input; the program sees only the generated arguments.  Draws are stratified
and antithetic (a draw u is paired with 1 - u) so that every seed asks for
about the same total work while the inputs themselves differ from seed to
seed.  The split between the linear q-scan and the octave-block scan is a
fixed property of the program at the commit that defined this benchmark
(``LINEAR_SCAN_LIMIT = 200_000``); it is written here as a number, not
imported, so later versions of the program receive identical inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

GOLDEN = "-1,-1,1"  # x^2 - x - 1
CUBIC = "-1,-3,0,1"  # x^3 - 3x - 1, cyclic
QUARTIC = "1,-4,-1,4,1"  # x^4 + 4x^3 - x^2 - 4x + 1

LINEAR_QMAX = 200_000
WORKLOADS = ("orbit-compare", "littlewood", "records-horizon")
SIZES = ("full", "smoke")


@dataclass(frozen=True)
class Job:
    """One subcommand line, without ``--out``; ``items`` is its planned work
    count (orbit samples, scanned k) or ``None`` when the outputs give it."""

    command: str
    args: tuple[str, ...]
    items: int | None = None

    def argv(self, out_dir: str) -> list[str]:
        return [self.command, *self.args, "--threads", "1", "--out", out_dir]

    @property
    def key(self) -> str:
        return " ".join((self.command, *self.args))

    def option(self, name: str) -> str:
        """The value passed for ``--name`` (``--coeffs=...`` form included)."""
        for i, a in enumerate(self.args):
            if a == name:
                return self.args[i + 1]
            if a.startswith(name + "="):
                return a.split("=", 1)[1]
        raise KeyError(name)


def _fmt(x: float) -> str:
    return repr(round(x, 6))


# ---------------------------------------------------------------------------
# orbit-compare: the record side against the orbit side, as in
# scripts/compare_directions.py --quick, at a smaller sample count
# ---------------------------------------------------------------------------

_COMPARE_FIELDS = {
    "golden": (GOLDEN, "0.45", "30", "30"),
    "cubic": (CUBIC, "0.4", "25", "25"),
}


def _compare_job(field: str, N: int, seed: int) -> Job:
    coeffs, eps, T, L = _COMPARE_FIELDS[field]
    args = (f"--coeffs={coeffs}", "--p", "2", "--k-range", "0,1", "--epsilon", eps,
            "--T", T, "--L", L, "--N", str(N), "--seed", str(seed))
    return Job("compare", args, items=2 * N)


def orbit_compare(rng: random.Random, size: str) -> list[Job]:
    n_golden, n_cubic = (1500, 500) if size == "full" else (30, 12)
    order = ["golden", "cubic", "golden"]
    return [
        _compare_job(f, n_golden if f == "golden" else n_cubic, rng.randrange(1, 2**31))
        for f in order
    ]


# ---------------------------------------------------------------------------
# littlewood: O(K) residue loops only; K drawn from a narrow band
# ---------------------------------------------------------------------------

_M_RANGE = (0, 1, 2, 3)


def _littlewood_job(coeffs: str, K: int) -> Job:
    args = (f"--coeffs={coeffs}", "--p", "2", "--K", str(K),
            "--m-range", ",".join(str(m) for m in _M_RANGE))
    return Job("littlewood", args, items=K * (1 + len(_M_RANGE)))


def littlewood(rng: random.Random, size: str) -> list[Job]:
    """Cubic, golden, cubic.  The cubic pair takes K and lo + hi - K, so its
    total is the same for every seed; the golden ratio (one residue per k
    instead of two) gets 4/3 of the cubic K, so that the three jobs cost
    about the same and the median job is not an edge between two sizes."""
    lo, hi = (300_000, 330_000) if size == "full" else (2_000, 2_200)
    K = rng.randint(lo, hi)
    K_golden = rng.randint(4 * lo // 3, 4 * hi // 3)
    return [_littlewood_job(CUBIC, K), _littlewood_job(GOLDEN, K_golden),
            _littlewood_job(CUBIC, lo + hi - K)]


# ---------------------------------------------------------------------------
# records-horizon: certified record scans at 1024 bits, on both sides of the
# linear/block switch, for d = 2, 3, 4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _HorizonField:
    coeffs: str
    n: int
    T_range: tuple[float, float]
    eps_range: tuple[float, float]
    commands: tuple[str, ...]


# The T ranges stop below the enumeration cliff recorded in README.md.
# Golden eps stays above the Lagrange constant 1/sqrt(5) = 0.4472, where
# every convergent is a record and the record count grows with T; below it
# only finitely many records exist.  Direction-measure CSVs cover S^0 and
# S^1 only, so the quartic (n = 3) gets scan jobs alone.
_HORIZON_FIELDS = (
    _HorizonField(GOLDEN, 1, (6.0, 150.0), (0.45, 0.49), ("scan", "measure")),
    _HorizonField(CUBIC, 2, (3.0, 75.0), (0.36, 0.44), ("scan", "measure")),
    _HorizonField(QUARTIC, 3, (2.0, 20.0), (0.36, 0.44), ("scan", "scan")),
)


def _horizon_job(f: _HorizonField, command: str, T: float, eps: float, k: int) -> Job:
    args = [f"--coeffs={f.coeffs}", "--bits", "1024", "--epsilon", _fmt(eps), "--T", _fmt(T)]
    if command == "scan":
        args += ["--ell", str(2**k)]
    else:
        args += ["--p", "2", "--k-range", str(k)]
    return Job(command, tuple(args))


def _pair(u: float, lo: float, hi: float) -> tuple[float, float]:
    return lo + u * (hi - lo), lo + (1.0 - u) * (hi - lo)


def _u(rng: random.Random) -> float:
    return rng.uniform(0.2, 0.25)


def records_horizon(rng: random.Random, size: str) -> list[Job]:
    """Per field, three pairs of jobs: a linear-scan pair (k = 0, scan), a
    pair in the lower half of the block range (k = 1) and one in the upper
    half (k = 2, scan).  Within a pair the seed draws u in [0.2, 0.25] and
    the jobs take u and 1 - u across the stratum: q_max on the linear side
    (so the pair scans the same length for every seed), T on the block side.
    eps takes u and 1 - u across its band too (a fresh u), the other way
    round, so the longer horizon gets the smaller eps and the pair's record
    count barely moves with the seed.  The narrow u band keeps the cost of
    each job, and so the median job time, nearly the same for every seed:
    with eps drawn across its whole band, the median job time still moved
    by 10% from seed to seed.
    """
    jobs = []
    for f in _HORIZON_FIELDS:
        T_lo, T_hi = f.T_range
        q_hi = 0.999 * LINEAR_QMAX
        if size == "smoke":
            T_hi = min(T_hi, T_lo + 10.0)
            q_hi = min(q_hi, 4.0 * math.exp(f.n * T_lo))
        b_lo = math.log(1.01 * LINEAR_QMAX) / f.n
        b_hi = max(T_hi, b_lo + 1.0)
        mid = 0.5 * (b_lo + b_hi)
        pairs = [
            ("scan", 0, [math.log(q) / f.n for q in _pair(_u(rng), math.exp(f.n * T_lo), q_hi)]),
            (f.commands[1], 1, _pair(_u(rng), b_lo, mid)),
            ("scan", 2, _pair(_u(rng), mid, b_hi)),
        ]
        for command, k, Ts in pairs:
            # Ts ascend (u < 1/2), so the shorter horizon gets the larger eps
            eps = sorted(_pair(_u(rng), *f.eps_range), reverse=True)
            for T, e in zip(Ts, eps):
                jobs.append(_horizon_job(f, command, T, e, k))
    return jobs


_GENERATORS = {
    "orbit-compare": orbit_compare,
    "littlewood": littlewood,
    "records-horizon": records_horizon,
}


def make_jobs(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The job list of one pass; the same seed gives the same list."""
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"), size)


def warmup_job(workload: str) -> Job:
    """A small job of the workload's kind, run once before timing."""
    if workload == "orbit-compare":
        return _compare_job("golden", 20, 1)
    if workload == "littlewood":
        return _littlewood_job(CUBIC, 1000)
    return _horizon_job(_HORIZON_FIELDS[0], "scan", 6.0, 0.45, 0)
