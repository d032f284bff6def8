"""Approximation records, membership intervals, sweep weights and minima.

A record is a primitive pair (pvec, q) whose scaled defect beats epsilon
somewhere on the time horizon: with delta = |q * target - pvec|_inf, the
membership interval is (ln(q)/n, ln(eps/delta)) and a record exists exactly
when that interval meets (0, T).

Enumeration is exact: record scans and both minima cover q dyadically,
enumerating the unipotent lattice in one box of tight radius per three
octaves, each box's reduction warm-started from the last.  Each point of a
box is tested exactly at the box's own precision, and every q that passes
is re-checked with integer arithmetic (numberfield._nearest) before
acceptance.  No k is scanned one at a time: the p-adically weighted running
minima of record_minima write k = p^v k' with p not dividing k', and take
their candidates from the eps = 1 boxes of p^v alpha over k' <= K / p^v (see
record_minima).
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EpsilonTooLarge, InvalidInput, NotPrime, PrecisionExhausted
from .exact import _iroot
from .numberfield import DISP_CERT_BITS, AlgebraicTuple, _nearest, is_prime
from . import latgeo
from . import spheremeasure as sm


@dataclass(frozen=True)
class ApproxRecord:
    """One rational approximation with its membership interval and direction."""

    q: int
    pvec: tuple[int, ...]
    delta: float
    t_lo: float
    t_hi: float
    theta: tuple[float, ...]


@dataclass(frozen=True)
class WeightedApproxList:
    records: tuple[ApproxRecord, ...]
    weights: tuple[float, ...]
    empty_fraction: float


def q_limit(n: int, T: float) -> int:
    """floor(e^{nT}) exactly, 0 for T <= 0: decimal's exp of the exact nT,
    correctly rounded at g = 25 digits past the integer part, g doubling
    while that lies within 10^(3-g) of an integer (e^{nT} is none, by
    Lindemann).  A result of 2^512 or more raises InvalidInput, and so does
    nT > 355 (e^355 > 2^512) before any large number."""
    if T <= 0:
        return 0
    if n * T > 355:
        raise InvalidInput("horizon too large: e^{nT} beyond 2^512")
    x, g = decimal.Context(prec=decimal.MAX_PREC).multiply(n, decimal.Decimal(T)), 25
    while True:
        ctx = decimal.Context(prec=int(n * T / math.log(10)) + 1 + g)
        y = ctx.exp(x)
        if abs(ctx.subtract(y, y.to_integral_value())) > decimal.Decimal(1).scaleb(3 - g):
            if y >= 1 << 512:
                raise InvalidInput("horizon too large: e^{nT} beyond 2^512")
            return int(y)
        g *= 2


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
    return ApproxRecord(q, pvec, deltaf, t_lo, t_hi, theta)


def _tight_radius(eps: float, n: int, a: int) -> Fraction:
    """A dyadic r = R / 2^s with eps 2^{-a/n} <= r < (1 + 2^-30) eps 2^{-a/n},
    for 0 < eps <= 1.

    With 2^eps_exp the least power of two >= eps, s = 32 - eps_exp + ceil(a/n)
    makes x = 2^s eps 2^{-a/n} at least 2^{s + eps_exp - 1 - ceil(a/n)} = 2^31.
    x^n is the rational num^n 2^{sn} / (den^n 2^a); Y = ceil(x^n) and R is
    the least integer with R^n >= Y, one above the n-th root of Y - 1.  So
    R^n >= Y >= x^n gives R >= x, and (R - 1)^n < Y < x^n + 1 <= (x + 1)^n
    gives R < x + 2 <= x (1 + 2^-30).
    """
    num, den = eps.as_integer_ratio()
    eps_exp = (num - 1).bit_length() - den.bit_length() + 1
    s = 32 - eps_exp - (-a // n)
    Y = -(-(num**n << (s * n)) // (den**n << a))
    return Fraction(_iroot(Y - 1, n) + 1, 1 << s)


OCTAVES_PER_BOX = 3  # the fastest of w = 2, 3, 4 on the records-horizon workload


def _octave_candidates(tup: AlgebraicTuple, ell: int, eps: float, qmax: int):
    """Candidate q values from one lattice-box enumeration per
    w = OCTAVES_PER_BOX octaves of q, for eps <= 1: a superset of the q of
    every record of ell*alpha up to qmax.

    A record with q in [2^a, 2^top) gives a vector of u(ell*alpha) Z^d whose
    first n coordinates are below eps * q^{-1/n} <= eps * 2^{-a/n} and whose
    last equals q.  So the box with the first n radii r_a = _tight_radius
    (eps * 2^{-a/n} rounded up to a dyadic, within 2^-30) and the last
    radius 2^top catches all of them; a = 0, w, 2w, ... and
    top = min(a + w, bit length of qmax).  At the tight radius a box over
    [Q, 2^w Q) holds about 2^{n+1} eps^n 2^w points, so the points per
    octave grow as 2^w / w: a third more at w = 3 than at w = 2, for a third
    fewer reductions and kernel calls, and the exact test below keeps the
    extra points from costing re-checks.  The best pass of five alternating
    6 s records-horizon runs (seed 3, a shared 2-core Xeon) took 96-101 ms
    at w = 3, 104-115 ms at w = 2 and 98-104 ms at w = 4.

    Each box is built from ell*alpha rounded to the nearest multiple of 2^-b,
    U_i = ell*alpha_i 2^b to the nearest integer, with
    b = min(frac_bits, top - e + 42) and 2^{e-1} <= r_a < 2^e, not from the
    full mantissas.  Rounding moves a point with q < 2^top by at most
    q 2^{-b-1} < 2^{e-43} <= 2^-42 r_a per axis, far inside the kernel's
    1e-9 radius margin, so no point of the box is lost; the last coordinate
    q is exact.

    The kernel returns the ball around the box, one sign of each +-m pair,
    and points with q outside [2^a, 2^top), so each point m (coefficients on
    the columns, q = |m_d|) is tested exactly at precision b before it
    becomes a candidate: X_i = 2^b m_i + U_i m_d for i < n is the point at
    2^-b, and q is kept when 2^a <= q < 2^top, q <= qmax and
    q * max(2 max_i |X_i| - q, 0)^n * den < num * 2^{(b+1)n}
    with eps^n = num / den; the |X_i| of -m are those of m.  No record is
    lost: the record's own point m = (-p, q), p its nearest integer vector,
    or -m lies in the box, and
    |X_i 2^-b - (q ell alpha_i - p_i)| <= q 2^{-b-1} with
    |q ell alpha_i - p_i| <= delta on the full mantissas, so
    2 max_i |X_i| - q <= 2^{b+1} delta, and q delta^n < eps^n makes the
    test pass.  At eps = 1 the same keeps every k with
    k^{1/n} |<k ell alpha>|_inf below 1, and so every k that improves a
    minimum, since k = 1 already gives at most 1/2.  The callers re-check
    the kept q on the full mantissas.

    Each box is reduced once, from the transform T that reduced the box
    before.
    """
    n = tup.n
    d = tup.dim
    bits = tup.frac_bits
    eps_pow = _eps_power(eps, n)
    mant = [ell * m for m in tup.alpha_mantissas()]
    T = None  # the last box's reduction, carried to the next
    qs = set()
    for a in range(0, qmax.bit_length(), OCTAVES_PER_BOX):
        top = min(a + OCTAVES_PER_BOX, qmax.bit_length())
        r = _tight_radius(eps, n, a)
        e = r.numerator.bit_length() - r.denominator.bit_length() + 1
        b = min(bits, top - e + 42)
        sh = bits - b
        # u(ell*alpha) at 2^-b, ell*alpha rounded to nearest
        U = [(m + (1 << sh >> 1)) >> sh for m in mant]
        u = [[(1 << b) * (i == k) for k in range(d)] for i in range(d)]
        for i, Ui in enumerate(U):
            u[i][n] = Ui
        T, coeffs = latgeo._box_coeffs(u, b, [r] * n + [1 << top], start=T)
        lo, hi = 1 << a, min(qmax, (1 << top) - 1)
        lim = eps_pow.numerator << ((b + 1) * n)
        for m in coeffs:
            q = abs(m[-1])
            if lo <= q <= hi:
                x = max(abs((mi << b) + Ui * m[-1]) for mi, Ui in zip(m, U))
                if q * max(2 * x - q, 0) ** n * eps_pow.denominator < lim:
                    qs.add(q)
    return sorted(qs)


def scan_records(tup: AlgebraicTuple, ell: int, eps: float, T: float) -> list[ApproxRecord]:
    """All primitive records of the target ell*alpha active before time T.

    Returns exactly the records with t_lo < min(T, t_hi), in ascending q:
    the boxes of _octave_candidates, each candidate re-checked exactly.
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
    _horizon_guard(tup, ell, eps, qmax)
    eps_pow = _eps_power(eps, tup.n)
    out = []
    for q in _octave_candidates(tup, ell, eps, qmax):
        rec = _record_from_q(tup, ell, q, eps, eps_pow)
        if rec is not None:
            out.append(rec)
    return out


def sweep_weights(records, T: float) -> WeightedApproxList:
    """Time-averaged weights: each active record accrues dt / (T * |active|).

    empty_fraction is the leftover share of [0, T] with no active record, so
    the weights and the empty fraction always sum to one exactly.
    """
    if not 0 < T < math.inf:
        raise InvalidInput("T must be positive and finite")
    recs = tuple(records)
    if not recs:
        return WeightedApproxList((), (), 1.0)

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
    return WeightedApproxList(recs, tuple(weights), 1.0 - total)


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
    wal = sweep_weights(scan_records(tup, p**k, eps, T), T)
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

    The k come from the lattice boxes of _octave_candidates at eps = 1,
    which are complete: k = 1 already gives a value of at most 1/2, so
    every k that improves on it has |<k ell alpha>|_inf below k^{-1/n}.
    Each candidate is evaluated exactly on the fixed-point mantissas, and
    the first k to reach the minimum is kept.
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
