"""Approximation records, membership intervals, sweep weights and minima.

A record is a primitive pair (pvec, q) whose scaled defect beats epsilon
somewhere on the time horizon: with delta = |q * target - pvec|_inf, the
membership interval is (ln(q)/n, ln(eps/delta)) and a record exists exactly
when that interval meets (0, T).

Enumeration is exact: record scans and both minima cover q dyadically,
enumerating the unipotent lattice in one box per octave, each octave's
reduction warm-started from the last, and every candidate is re-checked with
integer arithmetic (numberfield._nearest) before acceptance.  No k is scanned
one at a time: the p-adically weighted running minima of record_minima write
k = p^v k' with p not dividing k', and take their candidates from the eps = 1
boxes of p^v alpha over k' <= K / p^v (see record_minima).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import EpsilonTooLarge, InvalidInput, PrecisionExhausted
from .numberfield import DISP_CERT_BITS, AlgebraicTuple, NotPrime, _nearest, is_prime
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
    pvec, disp, dmax = _nearest(tup, q * ell)
    n = tup.n
    bits = tup.frac_bits
    # strict q^{1/n} * delta < eps with delta = dmax 2^-bits, done on integers
    if dmax == 0 or q * dmax**n * eps_pow.denominator >= eps_pow.numerator << (n * bits):
        return None
    if math.gcd(q, *(abs(p) for p in pvec)) != 1:
        return None
    # int / int rounds once, as float(Fraction) does
    dispf = tuple(x / (1 << bits) for x in disp)
    deltaf = dmax / (1 << bits)
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
    that reduced the previous octave, and each box is reduced once, by the
    enumeration kernel, from there.
    """
    n = tup.n
    d = tup.dim
    bits = tup.frac_bits
    scale = 1 << bits
    eps_exp = math.ceil(math.log2(eps))
    if 2.0**eps_exp < eps:
        eps_exp += 1
    # u(ell*alpha) at 2^-bits
    u = [[scale * (i == j) for j in range(d)] for i in range(d)]
    for i, m in enumerate(tup.alpha_mantissas()):
        u[i][n] = ell * m
    # the box's columns are T times the raw ones, T carried from octave to octave
    T = [[int(i == k) for i in range(d)] for k in range(d)]
    qs = set()
    for j in range(qmax.bit_length()):
        # radii 2^{eps_exp - floor(j/n)} for the first n rows, 2^{j+1} last
        cols, emax = latgeo._box_columns(u, [eps_exp - j // n] * n + [j + 1])
        cols = latgeo._int_mat_mul(T, cols)
        step, coeffs = latgeo._enumerate_scaled_ball(cols, bits + emax, cap=latgeo.POINT_CAP)
        for m in coeffs:
            q = abs(sum(mk * row[-1] for mk, row in zip(m, T)))
            if 1 <= q <= qmax:
                qs.add(q)
        T = latgeo._int_mat_mul(step, T)
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
    if not (0 < eps < math.inf):
        raise InvalidInput("eps must be positive and finite")
    if eps > 0.5:
        raise EpsilonTooLarge("eps above 1/2 breaks nearest-vector uniqueness")
    if not math.isfinite(T):
        raise InvalidInput("T must be finite")
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
    tup: AlgebraicTuple, p: int, k: int, eps: float, T: float
) -> sm.DirectionMeasure:
    """Atomic direction measure: atom theta(r) with weight w(r, T) per record
    of the target p^k * alpha.  Total mass is one minus the empty fraction.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 0:
        raise InvalidInput("k must be nonnegative")
    wal = sweep_weights(scan_records(tup, p**k, eps, T), T, eps)
    thetas = np.array([r.theta for r in wal.records]).reshape(-1, tup.n)
    wts = np.array(wal.weights)
    keep = wts > 0
    return sm.merge_atoms(sm.DirectionMeasure(tup.n, thetas[keep], wts[keep]))


def record_minima(tup: AlgebraicTuple, p: int, K: int):
    """Running minima of (k |k|_p)^{1/n} * |<k alpha>|_inf over k <= K.

    Returns the ascending list of (k, value) where the value improves.

    Write k = p^v k' with p not dividing k'; the value is then
    k'^{1/n} |<k' p^v alpha>|_inf, and k = 1 already gives at most 1/2.  So
    every improving k comes from the eps = 1 octave boxes of p^v alpha over
    k' <= K / p^v, as in scaled_minima; the candidates are evaluated exactly
    in ascending k.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if K < 1:
        raise InvalidInput("K must be positive")
    _horizon_guard(tup, 1, 1.0, K)
    cands = []
    pv = 1
    while pv <= K:
        cands += [(pv * kp, val) for kp, val in _minima_values(tup, pv, K // pv) if kp % p]
        pv *= p
    best = math.inf
    out = []
    for k, val in sorted(cands):
        if val < best:
            best = val
            out.append((k, val))
    return out


def scaled_minima(tup: AlgebraicTuple, ell: int, K: int):
    """(min, argmin) of k^{1/n} * |<k * ell * alpha>|_inf over k <= K.

    The k come from one lattice box per octave at eps = 1, which is
    complete: k = 1 already gives a value of at most 1/2, so every k that
    improves on it has |<k ell alpha>|_inf below k^{-1/n}.  Each candidate
    is evaluated exactly on the fixed-point mantissas, and the first k to
    reach the minimum is kept.
    """
    if ell < 1 or K < 1:
        raise InvalidInput("ell and K must be positive")
    _horizon_guard(tup, ell, 1.0, K)
    arg, best = min(_minima_values(tup, ell, K), key=lambda kv: kv[1], default=(0, math.inf))
    return best, arg


def _minima_values(tup: AlgebraicTuple, ell: int, K: int):
    """(k, k^{1/n} |<k ell alpha>|_inf) over the candidates of the eps = 1
    octave boxes of ell * alpha up to K, in ascending k, evaluated exactly
    on the fixed-point mantissas."""
    scale = 1 << tup.frac_bits
    for k in _octave_candidates(tup, ell, 1.0, K):
        yield k, float(k) ** (1.0 / tup.n) * (_nearest(tup, k * ell)[2] / scale)


def _horizon_guard(tup: AlgebraicTuple, ell: int, eps: float, qmax: int) -> None:
    """Refuse a scan or minimum whose displacement error at q = qmax is not
    2^-64 of the defect eps * qmax^{-1/n} that decides membership there.

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
