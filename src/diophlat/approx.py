"""Approximation records, membership intervals, sweep weights and minima.

A record is a primitive pair (pvec, q) whose scaled defect beats epsilon
somewhere on the time horizon: with delta = |q * target - pvec|_inf, the
membership interval is (ln(q)/n, ln(eps/delta)) and a record exists exactly
when that interval meets (0, T).

Enumeration is exact: record scans and scaled minima cover q dyadically,
enumerating the unipotent lattice in one box per octave, each octave's
reduction warm-started from the last, and every candidate is re-checked with
integer arithmetic before acceptance.  Only the p-adically weighted running
minima of record_minima use a linear scan of k with fixed-point residues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import EpsilonBelowFloor, EpsilonTooLarge, InvalidInput, PrecisionExhausted
from .numberfield import (
    DISP_CERT_BITS,
    AlgebraicTuple,
    NotPrime,
    frac_nearest,
    is_prime,
    padic_valuation,
)
from . import latgeo
from . import spheremeasure as sm


@dataclass(frozen=True)
class ApproxRecord:
    """One rational approximation with its membership interval and direction."""

    q: int
    pvec: tuple[int, ...]
    dispvec: tuple[float, ...]
    delta: float
    t_lo: float
    t_hi: float
    theta: tuple[float, ...]


@dataclass(frozen=True)
class WeightedApproxList:
    records: tuple[ApproxRecord, ...]
    T: float
    epsilon: float
    weights: tuple[float, ...]
    empty_fraction: float


def q_limit(n: int, T: float) -> int:
    """floor(e^{nT}), evaluated in extended precision."""
    if T <= 0:
        return 0
    with mpmath.workdps(60):
        return int(mpmath.floor(mpmath.exp(mpmath.mpf(n) * mpmath.mpf(T))))


def _eps_power(eps: float, n: int) -> Fraction:
    return Fraction(eps) ** n


def _record_from_q(tup: AlgebraicTuple, ell: int, q: int, eps: float, eps_pow: Fraction):
    """Exact membership test for denominator q; returns a record or None."""
    pvec, disp, delta = frac_nearest(tup, q * ell)
    if math.gcd(q, *(abs(p) for p in pvec)) != 1:
        return None
    if delta == 0:
        return None
    n = tup.n
    # strict q^{1/n} * delta < eps, done on integers
    if q * delta**n >= eps_pow:
        return None
    dispf = tuple(float(x) for x in disp)
    deltaf = float(delta)
    t_lo = math.log(q) / n
    t_hi = math.log(eps) - math.log(deltaf)
    nrm = math.sqrt(sum(x * x for x in dispf))
    theta = tuple(x / nrm for x in dispf)
    return ApproxRecord(q, pvec, dispf, deltaf, t_lo, t_hi, theta)


def _octave_candidates(tup: AlgebraicTuple, ell: int, eps: float, qmax: int):
    """Candidate q values from one lattice-box enumeration per octave of q.

    A record with q in [2^j, 2^{j+1}) gives a vector of u(ell*alpha) Z^d whose
    first n coordinates are below eps * 2^{-j/n} and whose last equals q, so
    a box with dyadic radii covering the octave catches all of them.

    Octave j+1 rescales octave j's box by powers of two, so the basis is
    warm-started: the columns are first moved by the unimodular transform
    that reduced the previous octave, which leaves only a few sweeps.
    """
    n = tup.n
    d = tup.dim
    bits = tup.frac_bits
    scale = 1 << bits
    mant = tup.alpha_mantissas()
    eps_exp = math.ceil(math.log2(eps))
    if 2.0**eps_exp < eps:
        eps_exp += 1
    # reduced[k] = sum_i T[k][i] * column_i, carried from octave to octave
    T = [[int(i == k) for i in range(d)] for k in range(d)]
    qs = set()
    for j in range(qmax.bit_length()):
        # radii 2^{eps_exp - floor(j/n)} for the first n rows, 2^{j+1} last
        sh_first = eps_exp - j // n
        sh_last = j + 1
        emax = max(sh_first, sh_last)
        cols = []
        for col in range(d):
            column = []
            for row in range(d):
                if row < n:
                    if col == row:
                        v = scale
                    elif col == d - 1:
                        v = ell * mant[row]
                    else:
                        v = 0
                    column.append(v << (emax - sh_first))
                else:
                    v = scale if col == d - 1 else 0
                    column.append(v << (emax - sh_last))
            cols.append(column)
        step, cols = latgeo._lagrange_reduce(latgeo._int_mat_mul(T, cols))
        T = latgeo._int_mat_mul(step, T)
        coeffs = latgeo._enumerate_scaled_ball(cols, bits + emax, cap=latgeo.POINT_CAP)
        for m in coeffs:
            q = abs(sum(mk * row[-1] for mk, row in zip(m, T)))
            if 1 <= q <= qmax:
                qs.add(q)
    return sorted(qs)


def _block_candidates(tup: AlgebraicTuple, ell: int, eps: float, qmax: int):
    """The candidate stage of scan_records.  A name of its own, so that a
    trace (perfbench) tells it apart from scaled_minima's octave boxes."""
    return _octave_candidates(tup, ell, eps, qmax)


def scan_records(tup: AlgebraicTuple, ell: int, eps: float, T: float) -> list[ApproxRecord]:
    """All primitive records of the target ell*alpha active before time T.

    Returns exactly the records with t_lo < min(T, t_hi), in ascending q:
    the octave boxes of _octave_candidates, each candidate re-checked exactly.
    """
    if ell < 1:
        raise InvalidInput("ell must be positive")
    if eps <= 0:
        raise InvalidInput("eps must be positive")
    if eps > 0.5:
        raise EpsilonTooLarge("eps above 1/2 breaks nearest-vector uniqueness")
    if T <= 0:
        return []
    qmax = q_limit(tup.n, T)
    if qmax < 1:
        return []
    if qmax.bit_length() > 512:
        raise InvalidInput("horizon too large: e^{nT} beyond 2^512")
    _horizon_guard(tup, ell, eps, qmax)
    eps_pow = _eps_power(eps, tup.n)
    out = []
    for q in _block_candidates(tup, ell, eps, qmax):
        rec = _record_from_q(tup, ell, q, eps, eps_pow)
        if rec is not None:
            out.append(rec)
    return out


def sweep_weights(records, T: float, eps: float | None = None) -> WeightedApproxList:
    """Time-averaged weights: each active record accrues dt / (T * |active|).

    empty_fraction is the leftover share of [0, T] with no active record, so
    the weights and the empty fraction always sum to one exactly.
    """
    if T <= 0:
        raise InvalidInput("T must be positive")
    recs = tuple(records)
    if eps is None:
        eps = 0.0
    if not recs:
        return WeightedApproxList((), T, eps, (), 1.0)

    events = []
    for idx, r in enumerate(recs):
        lo = max(r.t_lo, 0.0)
        hi = min(r.t_hi, T)
        if lo < hi:
            events.append((lo, 0, idx))
            events.append((hi, 1, idx))
    weights = [0.0] * len(recs)
    if events:
        events.sort()
        active: set[int] = set()
        prev = 0.0
        for t, kind, idx in events:
            if t > prev and active:
                share = (t - prev) / (T * len(active))
                for a in active:
                    weights[a] += share
            prev = max(prev, t)
            if kind == 0:
                active.add(idx)
            else:
                active.discard(idx)
    total = math.fsum(weights)
    return WeightedApproxList(recs, T, eps, tuple(weights), 1.0 - total)


def direction_measure(
    tup: AlgebraicTuple,
    p: int,
    k: int,
    eps: float,
    T: float,
    enforce_floor: bool = False,
    floor: float | None = None,
) -> sm.DirectionMeasure:
    """Atomic direction measure: atom theta(r) with weight w(r, T) per record
    of the target p^k * alpha.  Total mass is one minus the empty fraction.

    The admissibility floor p^{-k/n} is advisory; pass enforce_floor=True to
    reject eps at or below it.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 0:
        raise InvalidInput("k must be nonnegative")
    if floor is None:
        floor = p ** (-k / tup.n)
    if enforce_floor and eps <= floor:
        raise EpsilonBelowFloor(f"eps={eps} is not above the floor {floor}")
    records = scan_records(tup, p**k, eps, T)
    wal = sweep_weights(records, T, eps)
    atoms = [(r.theta, w) for r, w in zip(wal.records, wal.weights) if w > 0]
    return sm.from_atoms(tup.n, atoms)


def record_minima(tup: AlgebraicTuple, p: int, K: int):
    """Running minima of (k |k|_p)^{1/n} * |<k alpha>|_inf over k <= K.

    Returns the ascending list of (k, value) where the value improves.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if K < 1:
        raise InvalidInput("K must be positive")
    _guard(tup, K)
    bits = tup.frac_bits
    full = 1 << bits
    half = full >> 1
    incs = [m % full for m in tup.alpha_mantissas()]
    rs = [0] * len(incs)
    n = tup.n
    inv_scale = math.ldexp(1.0, -bits)
    best = math.inf
    out = []
    for k in range(1, K + 1):
        dmax = 0
        for i, inc in enumerate(incs):
            r = rs[i] + inc
            if r >= full:
                r -= full
            rs[i] = r
            dist = r if r < half else full - r
            if dist > dmax:
                dmax = dist
        kp = k // p ** padic_valuation(k, p)
        val = float(kp) ** (1.0 / n) * (float(dmax) * inv_scale)
        if val < best:
            best = val
            out.append((k, val))
    return out


def scaled_minima(tup: AlgebraicTuple, ell: int, K: int):
    """(min, argmin) of k^{1/n} * |<k * ell * alpha>|_inf over k <= K.

    The k come from one lattice box per octave at eps = 1, which is
    complete: k = 1 already gives a value of at most 1/2, so every k that
    improves on it has |<k ell alpha>|_inf below k^{-1/n}.  Each candidate
    is evaluated exactly on the fixed-point mantissas, as frac_nearest does
    under the same guard, and the first k to reach the minimum is kept.
    """
    if ell < 1 or K < 1:
        raise InvalidInput("ell and K must be positive")
    _guard(tup, K * ell)
    n = tup.n
    bits = tup.frac_bits
    full = 1 << bits
    half = full >> 1
    mants = [ell * m for m in tup.alpha_mantissas()]
    inv_scale = math.ldexp(1.0, -bits)
    best = math.inf
    arg = 0
    for k in _octave_candidates(tup, ell, 1.0, K):
        dmax = max(abs((k * m + half) % full - half) for m in mants)
        val = float(k) ** (1.0 / n) * (float(dmax) * inv_scale)
        if val < best:
            best = val
            arg = k
    return best, arg


def _guard(tup: AlgebraicTuple, kmax: int) -> None:
    if kmax * max(tup.max_err_ulps(), 1) >= 1 << (tup.frac_bits - DISP_CERT_BITS):
        raise PrecisionExhausted(
            f"k up to {kmax} exceeds the certified range at {tup.frac_bits} bits"
        )


def _horizon_guard(tup: AlgebraicTuple, ell: int, eps: float, qmax: int) -> None:
    """Refuse a scan whose displacement error at q = qmax is not 2^-64 of
    the defect eps * qmax^{-1/n} that decides membership there.

    The error is qmax * ell * max_err_ulps * 2^-frac_bits; the test
    (err * 2^64)^n * qmax < eps^n is done on integers.
    """
    n = tup.n
    eps_pow = _eps_power(eps, n)
    err = qmax * ell * max(tup.max_err_ulps(), 1)
    if err**n * qmax * eps_pow.denominator >= eps_pow.numerator << (
        n * (tup.frac_bits - DISP_CERT_BITS)
    ):
        raise PrecisionExhausted(
            f"q up to {qmax} at ell={ell} is beyond the certified horizon "
            f"at {tup.frac_bits} bits"
        )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_records_csv(path, wal: WeightedApproxList, n: int) -> None:
    cols = (
        ["q"]
        + [f"p_{i+1}" for i in range(n)]
        + ["delta", "t_lo", "t_hi", "weight"]
        + [f"theta_{i+1}" for i in range(n)]
    )
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for r, w in zip(wal.records, wal.weights):
            row = (
                [str(r.q)]
                + [str(p) for p in r.pvec]
                + [f"{r.delta:.17g}", f"{r.t_lo:.17g}", f"{r.t_hi:.17g}", f"{w:.17g}"]
                + [f"{x:.17g}" for x in r.theta]
            )
            fh.write(",".join(row) + "\n")


def save_minima_csv(path, minima) -> None:
    with open(path, "w") as fh:
        fh.write("k,value,is_record\n")
        for k, v in minima:
            fh.write(f"{k},{v:.17g},1\n")
