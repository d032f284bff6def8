"""Approximation records, membership intervals, sweep weights and minima.

A record is a primitive pair (pvec, q) whose scaled defect beats epsilon
somewhere on the time horizon: with delta = |q * target - pvec|_inf, the
membership interval is (ln(q)/n, ln(eps/delta)) and a record exists exactly
when that interval meets (0, T).

Enumeration is exact: record scans and both minima cover q dyadically,
enumerating the unipotent lattice in one box of tight radius per
OCTAVES_PER_BOX octaves, each box's reduction warm-started from the last,
and all boxes in one batch.  Each point that passes a float screen with a
proven rounding bound is tested exactly at its box's own precision, and
every q that passes is re-checked with integer arithmetic
(numberfield._nearest) before acceptance.  No k is scanned one at a time:
the p-adically weighted running minima of record_minima write k = p^v k'
with p not dividing k', and take their candidates from the eps = 1 boxes of
p^v alpha over k' <= K / p^v (see record_minima).
"""

from __future__ import annotations

import decimal
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EpsilonTooLarge, InvalidInput, NotPrime, PrecisionExhausted
from .exact import _ints_to_floats_scaled, _iroot
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


OCTAVES_PER_BOX = 6  # the fastest of w = 3 to 7 on the records-horizon workload


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
    octave grow as 2^w / w, for w times fewer reductions; the float screen
    below evaluates the extra points in bulk, so they cost no re-checks.
    The best of 15 alternating in-process passes of the seed-1 and seed-3
    records-horizon job lists (a shared 2-core Xeon) took 75 and 71 ms at
    w = 6, 76-82 ms at w = 4, 77-78 ms at w = 5, 77-80 ms at w = 7 and
    83-84 ms at w = 3.

    Each box is built from ell*alpha rounded to the nearest multiple of 2^-b,
    U_i = ell*alpha_i 2^b to the nearest integer, with
    b = min(frac_bits, top - e + 42) and 2^{e-1} <= r_a < 2^e, not from the
    full mantissas.  Rounding moves a point with q < 2^top by at most
    q 2^{-b-1} < 2^{e-43} <= 2^-42 r_a per axis, far inside the kernel's
    1e-9 radius margin, so no point of the box is lost; the last coordinate
    q is exact.  Each box is reduced once, from the transform T that reduced
    the box before (_octave_boxes), and all boxes are enumerated in one
    batch.

    The kernel returns the ball around each box, one sign of each +-c pair,
    and points with q outside [2^a, 2^top), so each point is tested exactly
    at precision b before it becomes a candidate: its coordinates X = sum_k
    c_k R[k] at 2^-b (R the box's reduced columns) have X_d = 2^b m_d, so
    q = |X_d| 2^-b, and q is kept when 2^a <= q < 2^top, q <= qmax and
    q * max(2 max_{i<d} |X_i| - q, 0)^n * den < num * 2^{(b+1)n}
    with eps^n = num / den; the |X_i| of -c are those of c.  No record is
    lost: the record's own point m = (-p, q), p its nearest integer vector,
    or -m lies in the box, and
    |X_i 2^-b - (q ell alpha_i - p_i)| <= q 2^{-b-1} with
    |q ell alpha_i - p_i| <= delta on the full mantissas, so
    2 max_i |X_i| - q <= 2^{b+1} delta, and q delta^n < eps^n makes the
    test pass.  At eps = 1 the same keeps every k with
    k^{1/n} |<k ell alpha>|_inf below 1, and so every k that improves a
    minimum, since k = 1 already gives at most 1/2.  The callers re-check
    the kept q on the full mantissas.

    Only the points that the float screen keeps take that exact test
    (_float_screen).  With x = X 2^-b, h = 2^{-b-1} and
    M = max_{i<d} |x_i|, the test reads q (M - q h)^n < eps^n, that is
    M < q h + eps q^{-1/n}, a sum of positive terms.  Every point is
    evaluated at once as x' = c R', R' the reduced columns at 2^-b
    truncated to floats, together with S = |c| |R'|.  Truncation errs by
    under 2^-52 of each entry and a sum of d products by at most d 2^-53 of
    S in any order, so e = d 2^-48 S + 2^-1000 bounds |x' - x| eight times
    over, and its 2^-1000 covers every underflow.  So q_lo = |x'_d| - e_d
    and q_hi = |x'_d| + e_d bound q, and M' = max_i(|x'_i| - e_i) <= M, the
    rounding of each subtraction covered by the slack of e.  A point is
    dropped when q_hi < 2^a, q_lo > hi (1 + 2^-30), or
    M' > (q_hi h + eps max(q_lo, 2^a)^{-1/n}) (1 + 2^-30) + 2^-1000: the
    right side is at least q h + eps q^{-1/n} for every q in
    [max(q_lo, 2^a), q_hi], as its float evaluation (q_hi h an exact
    scaling) errs by under 2^-40 relative and 2^-1000 absolute, so no point
    the exact test keeps is dropped.  A point with a bound that is not
    finite, or in an octave past the float range, is kept.
    """
    n = tup.n
    eps_pow = _eps_power(eps, n)
    boxes, octaves = _octave_boxes(tup, ell, eps, qmax)
    owner, C = latgeo._enumerate_scaled_ball(boxes, latgeo.POINT_CAP)
    qs = set()
    for p in np.flatnonzero(_float_screen(C, owner, boxes, octaves, eps, n)):
        a, hi, b = octaves[owner[p]]
        c = C[p].tolist()
        X = [sum(map(operator.mul, c, col)) for col in zip(*boxes[owner[p]][1])]
        q = abs(X[n]) >> b
        if 1 << a <= q <= hi and q * max(2 * max(map(abs, X[:n])) - q, 0) ** n \
                * eps_pow.denominator < eps_pow.numerator << ((b + 1) * n):
            qs.add(q)
    return sorted(qs)


def _octave_boxes(tup: AlgebraicTuple, ell: int, eps: float, qmax: int):
    """(boxes, octaves): the reduced boxes of _octave_candidates, each from
    the transform of the one before, and per box (a, hi, b), its q in
    [2^a, hi] and its precision 2^-b."""
    n = tup.n
    d = tup.dim
    bits = tup.frac_bits
    mant = [ell * m for m in tup.alpha_mantissas()]
    T = None  # the last box's reduction, carried to the next
    boxes, octaves = [], []
    for a in range(0, qmax.bit_length(), OCTAVES_PER_BOX):
        top = min(a + OCTAVES_PER_BOX, qmax.bit_length())
        r = _tight_radius(eps, n, a)
        e = r.numerator.bit_length() - r.denominator.bit_length() + 1
        b = min(bits, top - e + 42)
        sh = bits - b
        # u(ell*alpha) at 2^-b, ell*alpha rounded to nearest
        u = [[(1 << b) * (i == k) for k in range(d)] for i in range(d)]
        for i, m in enumerate(mant):
            u[i][n] = (m + (1 << sh >> 1)) >> sh
        boxes.append(latgeo._reduce_box(u, b, [r] * n + [1 << top], start=T))
        T = boxes[-1][0]
        octaves.append((a, min(qmax, (1 << top) - 1), b))
    return boxes, octaves


def _float_screen(C, owner, boxes, octaves, eps: float, n: int) -> np.ndarray:
    """Mask of the points c = C[p] of boxes[owner[p]] that the float screen
    of _octave_candidates keeps: every point its exact test keeps."""
    d = n + 1
    a, hi, b = (np.array(v, dtype=object) for v in zip(*octaves))
    with np.errstate(over="ignore", invalid="ignore"):
        b = b.astype(np.int64)
        R = _ints_to_floats_scaled(np.array([row for box in boxes for row in box[1]], dtype=object),
                                   np.repeat(b, d)[:, None])
        R, b = R.reshape(-1, d, d), b[owner]
        lo, hi = np.ldexp(1.0, a.astype(np.int64))[owner], _ints_to_floats_scaled(hi, 0)[owner]
        c = C.astype(float)
        x = sum(c[:, k, None] * R[owner, k] for k in range(d))
        err = d * 2.0**-48 * sum(np.abs(c[:, k, None] * R[owner, k]) for k in range(d)) + 2.0**-1000
        q, eq = np.abs(x[:, n]), err[:, n]
        M = np.max(np.abs(x[:, :n]) - err[:, :n], axis=1)
        rhs = np.ldexp(q + eq, -b - 1) + eps * np.maximum(q - eq, lo) ** (-1.0 / n)
        drop = (q + eq < lo) | (q - eq > hi * (1 + 2.0**-30)) | (M > rhs * (1 + 2.0**-30) + 2.0**-1000)
    return ~drop | ~(np.isfinite(err).all(axis=1) & np.isfinite(hi))


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
