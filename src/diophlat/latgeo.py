"""Matrices, unimodular lattices, cone-point enumeration and Hecke neighbors.

The enumeration works on exact dyadic data: basis entries (float64 values
are dyadic rationals) are integerized exactly, each box's columns are
LLL-reduced in integer arithmetic, and the branch and bound, run once over a
batch of boxes, reads its bounds from the exact Gram-Schmidt data of the
reduced bases, so extreme diagonal skew cannot defeat them.  Callers
re-filter candidates exactly.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInput, NotPrime, PrecisionExhausted, SingularEmbedding,
                     StructureViolation, TooManyPoints)
from .exact import (_companion, _divisors, _int_det, _int_inverse, _int_mat_mul, _integerize,
                    _ints_to_floats_scaled, _iroot, _lll_reduce, _ring_matrix, _scaled_ratio,
                    _xgcd)
from .numberfield import DISP_CERT_BITS, AlgebraicTuple, is_prime

POINT_CAP = 10**6

_DET_TOL = 1e-10
_CERT_DOUBLINGS = 2  # a basis is rounded at 2**-S, 2**-2S or 2**-4S


@dataclass(frozen=True)
class SquareMatrix:
    """Dense square matrix of finite floats."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("entries must be square")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def det(self) -> float:
        return float(np.linalg.det(self.entries))


@dataclass(frozen=True)
class LatticeBasis:
    """Column basis of a lattice: the integers exact_mantissa at scale
    2**-exact_scale, and nothing else.

    matrix is their truncation to floats and covolume their exact |det|,
    both read off the mantissas when asked for.  Enumeration at large
    diagonal skew reads only the mantissas, since 53-bit entries develop
    spurious thin directions at coefficient scale e^L.  The bases built from
    a tuple have covolume one, certified where their mantissas are rounded
    (_exact_scaled_embedding); float bases come in exactly, by from_floats.

    unit_logs, when present, are d-1 independent rows w with
    exp(diag(w, -sum w)) mapping the lattice onto itself: the first d-1
    log-embeddings of a basis of the stabilizing units among the products of
    powers of d-1 short units, so the orbit is periodic modulo their span.
    """

    exact_mantissa: tuple
    exact_scale: int
    unit_logs: tuple | None = None

    @classmethod
    def from_floats(cls, entries) -> LatticeBasis:
        """The basis whose mantissas are the exact dyadic values of the
        finite square float matrix entries; its matrix gives them back."""
        ints, scale = _integerize(SquareMatrix(entries).entries)
        return cls(tuple(map(tuple, ints)), scale)

    @property
    def dim(self) -> int:
        return len(self.exact_mantissa)

    @property
    def matrix(self) -> SquareMatrix:
        return SquareMatrix(_ints_to_floats_scaled(np.array(self.exact_mantissa, dtype=object),
                                                   self.exact_scale))

    @property
    def covolume(self) -> float:
        return _scaled_ratio(abs(_int_det(self.exact_mantissa)), 1, self.dim * self.exact_scale)


# ---------------------------------------------------------------------------
# elementary matrices
# ---------------------------------------------------------------------------


def diag_flow(t: float, d: int) -> SquareMatrix:
    """diag(e^t, ..., e^t, e^{-(d-1)t}), determinant one."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    vals = [math.exp(t)] * (d - 1) + [math.exp(-(d - 1) * t)]
    return SquareMatrix(np.diag(vals))


def unipotent(values, d: int | None = None) -> SquareMatrix:
    """Identity with the given vector in the last column above the diagonal."""
    vals = [float(v) for v in values]
    if d is None:
        d = len(vals) + 1
    if len(vals) != d - 1:
        raise ValueError("need d-1 values")
    m = np.eye(d)
    m[: d - 1, d - 1] = vals
    return SquareMatrix(m)


def _exact_scaled_embedding(tup: AlgebraicTuple, p: int, k: int):
    """(ints, T): integer mantissas of Bnorm a(-t_k) at scale 2**-T.

    Bnorm = M / |det M|**(1/d) for M the integer embedding mantissas (the
    fixed-point scale cancels), and a(-t_k) rescales column j by p**(e_j/d),
    e_j = -k for j < d-1 and k(d-1) at j = d-1.  Each entry x is rounded once,
    from the integer d-th root of floor((2x)**d 2**(dT) p**e_j / |det M|).
    The product has determinant +-1, and the rounding is certified: the
    exact |det| of the mantissas must be 2**(d T) to within _DET_TOL.  T is
    frac_bits, doubled while the rounding misses that, at most
    _CERT_DOUBLINGS times; past them PrecisionExhausted is raised.

    PrecisionExhausted is raised before any rounding in two cases.
    (a) k log2(p) / d > frac_bits - DISP_CERT_BITS: the first n columns are
    scaled by p**(-k/d), so their mantissas at 2**-frac_bits keep fewer than
    DISP_CERT_BITS bits.  (b) p**k times the largest entry of Bnorm, with
    2**d to spare, passes the float range: the float entries of the scaled
    basis reach that entry times p**((d-1)k/d).  A singular M raises
    SingularEmbedding.
    """
    d, S = tup.dim, tup.frac_bits
    room = d * (S - DISP_CERT_BITS)
    # p**k >= 2**k, so k > room settles (a) without building a huge power
    if k > room or (pk := p**k) > 1 << room:
        raise PrecisionExhausted(
            f"k={k} leaves fewer than {DISP_CERT_BITS} of {S} fraction bits in the scaled columns"
        )
    M = tup.embed_mantissa
    detM = abs(_int_det(M))
    if detM == 0:
        raise SingularEmbedding("tuple does not span: embedding determinant vanishes")
    top = max(abs(x) for row in M for x in row)
    if (top * pk << d) ** d >= detM << d * sys.float_info.max_exp:
        raise PrecisionExhausted(f"p**k = {p}**{k} passes the float range of the basis")
    cols = [(1, detM * pk)] * (d - 1) + [(pk ** (d - 1), detM)]  # p**e_j / |det M| = a / b
    for T in (S << i for i in range(_CERT_DOUBLINGS + 1)):
        out = tuple(tuple((-1 if x < 0 else 1)
                          * (_iroot(((2 * abs(x)) ** d * a << d * T) // b, d) + 1 >> 1)
                          for x, (a, b) in zip(row, cols)) for row in M)
        if _scaled_ratio(abs(abs(_int_det(out)) - (1 << d * T)), 1, d * T) <= _DET_TOL:
            return out, T
    raise PrecisionExhausted(f"rounded at 2**-{T}, the basis misses covolume 1 by over {_DET_TOL}")


def embedding_lattice(tup: AlgebraicTuple):
    """Row-embedding matrix B and the covolume-one lattice it spans.

    B row j is (1, sigma_j(alpha_1), ..., sigma_j(alpha_n)) in the tuple's
    order; the normalized basis B / |det B|**(1/d), the k = 0 basis of
    hecke_scaled_lattice, is given by its exact mantissas.
    """
    return SquareMatrix(tup.embed_floats()), LatticeBasis(*_exact_scaled_embedding(tup, 2, 0))


def hecke_scaled_lattice(tup: AlgebraicTuple, p: int, k: int) -> LatticeBasis:
    """Normalized basis Bnorm a(-t_k) with t_k = k/(n+1) * ln p, its rows
    in the tuple's order (the designated embedding last).

    Rescaling by p**(k/d) gives the index-p**k sublattice of Bnorm Z^d spanned
    by (b_1, ..., b_{d-1}, p**k b_d).  The lattice embeds the module
    M_k = Z + Z theta + ... + Z p**k theta**n, and unit_logs carries the log
    vectors of units stabilizing it.  The precision guards of
    _exact_scaled_embedding apply.
    """
    if k < 0:
        raise InvalidInput("k must be nonnegative")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    ints, scale = _exact_scaled_embedding(tup, p, k)
    return LatticeBasis(ints, scale, _stabilizer_unit_logs(tup, p**k))


# units stabilizing M_k, verified in exact integer arithmetic

_UNIT_LOG_REACH = 2.0  # search units with every |log sigma_i(u)| <= this
# farthest a unit power reaches (sup norm over all d log-embeddings): folding
# to the nearest translate shortens only samples longer than half a row, and
# 192-bit bases resolve half widths up to ~52; past it the fold is trivial
_FOLD_REACH = 100.0


def _stabilizer_unit_logs(tup: AlgebraicTuple, pk: int):
    """Log vectors (first d-1 embeddings) of a short basis of the exponents
    e with u**e M = M, u_i the units of _short_units and M = Z + Z theta +
    ... + Z pk theta**n; None without d-1 units, or when a unit would step
    past _FOLD_REACH.

    u**e M is the kernel mod pk of the last row of A(e)**-1, A(e) the ring
    matrix of u**e; that row is primitive mod p, so scaled to 1 at its first
    entry prime to p it names the class of e modulo the stabilizer.  Each
    unit steps until its power's class is one the earlier units reach, which
    gives a Hermite row, and the class table grows by the steps between.
    LLL on the log vectors shortens the rows.  Each row is checked exactly:
    the last row of A(e) vanishes mod pk off the corner, so u**e is integral
    on the basis of M, with determinant one as the units have.
    """
    units = _short_units(tup)
    if units is None:
        return None
    if pk == 1:
        # every unit stabilizes M_0 = Z[theta]: the rows are the units as chosen
        return tuple(tuple(logs[:-1]) for _, logs in units)
    r = len(units)
    inv = [_int_inverse(A) for A, _ in units]

    def step(v, A):
        w = [sum(map(operator.mul, v, col)) for col in zip(*A)]
        c = pow(next(x for x in w if math.gcd(x, pk) == 1), -1, pk)
        return tuple([x * c % pk for x in w])

    one = (0,) * r + (1,)
    table = {one: (0,) * r}
    hermite = []
    for i, ((_, logs), Ai) in enumerate(zip(units, inv)):
        v, m = step(one, Ai), 1
        while v not in table:
            m += 1
            if m * max(map(abs, logs)) > _FOLD_REACH:
                return None
            v = step(v, Ai)
        hermite.append(tuple(-x for x in table[v][:i]) + (m,) + (0,) * (r - 1 - i))
        if i < r - 1:  # the last unit's classes name no later row
            for w, t in list(table.items()):
                for j in range(1, m):
                    w = step(w, Ai)
                    table[w] = t[:i] + (j,) + t[i + 1:]
    # LLL on the full log vectors at 2**-40; its T acts on the exponent rows
    full = [[round(x * 2**40) for x in logs] for _, logs in units]
    T = _lll_reduce([[sum(e * x for e, x in zip(h, col)) for col in zip(*full)] for h in hermite])[0]
    rows = []
    for t in T:
        e = [sum(a * h[j] for a, h in zip(t, hermite)) for j in range(r)]
        v = one  # the scaled last row of A(e), from the units' own matrices
        for (A, _), Ai, x in zip(units, inv, e):
            for _ in range(abs(x)):
                v = step(v, A if x > 0 else Ai)
        if v != one:
            raise StructureViolation("unit power does not stabilize the module")
        rows.append(tuple(math.fsum(x * lg[c] for x, (_, lg) in zip(e, units)) for c in range(r)))
    return tuple(rows)


@functools.cache
def _short_units(tup: AlgebraicTuple):
    """(A, logs) for d-1 short totally positive units with independent log
    vectors, A the ring matrix and logs all d log-embeddings in the tuple's
    row order; None when the search cube holds fewer.  They do not depend
    on k, so each tuple's are searched once.

    Candidates are the points of the k = 0 lattice, given by its mantissas
    ints at 2**-S, in the cube of half-side c e**2, c the common entry of its
    first column (Bnorm e_1 = c (1, ..., 1), so the point of x is
    c sigma(x)).  Of each +-x the sign with a positive last row is kept
    only if its multiplication matrix on the power basis is integral with
    determinant one, checked exactly; total positivity is read off the exact
    embedding mantissas.  The d-1 shortest independent log vectors are taken,
    ties going to the lesser log vector, whatever the kernel's order.
    """
    d = tup.dim
    ints, S = _exact_scaled_embedding(tup, 2, 0)
    c = ints[0][0]
    _, coeffs = _box_coeffs(ints, S, [c / (1 << S) * math.exp(_UNIT_LOG_REACH)] * d)
    # float prefilter: norms are integers, so |N - 1| < 1/2 loses no unit;
    # int / int entries, since ints can pass the float range past 1024 bits
    sig = np.array(coeffs, dtype=float) @ np.array([[x / c for x in row] for row in ints]).T
    near = (np.abs(np.prod(sig, axis=1) - 1.0) < 0.5) & np.all(sig * sig[:, -1:] > 0, axis=1)
    C = _companion(tup.field.polynomial.coeffs)
    units = []
    for idx in np.flatnonzero(near):
        m = coeffs[idx]
        if sum(map(operator.mul, ints[-1], m)) < 0:
            m = tuple(-x for x in m)
        vals = [sum(ints[i][j] * m[j] for j in range(d)) for i in range(d)]
        A = _ring_matrix(m, C)
        if _int_det(A) != 1 or min(vals) <= 0:
            continue
        units.append((tuple(map(tuple, A)), tuple(math.log(v / c) for v in vals)))
    units.sort(key=lambda u: (math.fsum(x * x for x in u[1]), u[1]))
    chosen = []
    for A, logs in units:
        # logs of dependent units agree to rounding; independent ones span a
        # volume of the order of the regulator
        trial = [lg for _, lg in chosen] + [logs]
        if np.linalg.matrix_rank(np.array(trial), tol=1e-6) == len(trial):
            chosen.append((A, logs))
        if len(chosen) == d - 1:
            break
    return tuple(chosen) if len(chosen) == d - 1 else None


@dataclass(frozen=True)
class ConjugatorData:
    """Conjugator with the lattice basis it is exact against.

    U carries zeros in the last column above the corner and maps the column
    span of basis onto the columns of u(alpha); basis spans the k = 0 lattice
    of hecke_scaled_lattice (they differ by the integer unimodular G**-1).
    """

    U: SquareMatrix
    U0: SquareMatrix
    basis: LatticeBasis


def conjugator_data(tup: AlgebraicTuple) -> ConjugatorData:
    """Block conjugator U with U (Bnorm G**-1) = u(alpha), Bnorm the k = 0
    basis of hecke_scaled_lattice and G an integer unimodular matrix.

    By Euler's lemma the trace dual of Z[theta] is f'(theta)**-1 Z[theta]
    (Serre, Local Fields, III.6), so the integers h_k = Tr(theta**k /
    f'(theta)) are 0 for k < n, 1 at k = n, and h_k = -sum f_i h_(k-d+i)
    after.  Column j of U belongs to embedding sigma_j, with beta_j =
    1 / f'(sigma_j theta): rows i < n hold beta_j (sigma_D(theta**(i+1)) -
    sigma_j(theta**(i+1))), row n holds beta_j, all times |det B|**(1/d).
    On sigma(x) for x in Z[theta], U gives (q alpha - p, q) with q =
    Tr(x / f'(theta)) and p_i = Tr(theta**(i+1) x / f'(theta)), so U Bnorm
    = u G with G[i][m] = -h_(i+1+m) for i < n and G[n][m] = h_m; its rows
    are those of the Hankel matrix (h_(i+m)), 1 on the antidiagonal and 0
    above it, so |det G| = 1.  The column of the designated embedding D,
    the last one, is exactly 0 above the corner for every field.

    Each entry of U is a ratio of integers rounded once: b_j = R 2**(S(d-3)
    - 96) / P_j, R = floor(|det M|**(1/d) 2**(S+96)) and P_j the product of
    M[j][1] - M[k][1] over k != j.  PrecisionExhausted is raised when U0 has
    no finite float inverse, as the pushforward's box radii need one.
    """
    ints, scale = _exact_scaled_embedding(tup, 2, 0)
    d, n, S = tup.dim, tup.n, tup.frac_bits
    f = tup.field.polynomial.coeffs
    h = [0] * n + [1]
    for k in range(d, 2 * d - 1):
        h.append(-sum(f[i] * h[k - d + i] for i in range(d)))
    G = [[-h[i + 1 + m] for m in range(d)] for i in range(n)] + [h[:d]]
    M = tup.embed_mantissa  # B = M 2**-S, its rows in the order of U's columns
    R = _iroot(abs(_int_det(M)) << d * (S + 96), d)
    P = [math.prod(M[j][1] - M[k][1] for k in range(d) if k != j) for j in range(d)]
    with np.errstate(all="ignore"):
        try:
            U = np.array([[_scaled_ratio(R * (M[-1][i] - row[i]), Pj, 96 + S * (4 - d))
                           for Pj, row in zip(P, M)] for i in range(1, d)]
                         + [[_scaled_ratio(R, Pj, 96 + S * (3 - d)) for Pj in P]])
            U0 = U.copy()
            U0[n, :n] = 0.0
            ok = np.all(np.isfinite(np.linalg.inv(U0)))
        except (OverflowError, np.linalg.LinAlgError):
            ok = False
    if not ok:
        raise PrecisionExhausted("the conjugator's block U0 has no finite float inverse")
    basis = LatticeBasis(tuple(map(tuple, _int_mat_mul(ints, _int_inverse(G)))), scale)
    return ConjugatorData(U=SquareMatrix(U), U0=SquareMatrix(U0), basis=basis)


def conjugation_residual(tup: AlgebraicTuple, ell: int, exponent_rule: str = "corrected") -> float:
    """Max-entry residual of u(ell*alpha) - a(t) u(alpha) a(-t).

    The corrected rule takes t = ln(ell)/(n+1), which scales the last column
    by exactly ell; the uncorrected rule takes t = ln(ell)/n and scales it
    by ell**((n+1)/n) instead.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    n = tup.n
    d = tup.dim
    if exponent_rule == "corrected":
        t = math.log(ell) / (n + 1)
    elif exponent_rule == "uncorrected":
        t = math.log(ell) / n
    else:
        raise ValueError("exponent_rule must be 'corrected' or 'uncorrected'")
    alphas = tup.alpha_floats()
    lhs = unipotent([ell * a for a in alphas], d).entries
    rhs = diag_flow(t, d).entries @ unipotent(alphas, d).entries @ diag_flow(-t, d).entries
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# box enumeration on exact dyadic data
# ---------------------------------------------------------------------------


def _reduce_box(ints, scale: int, radii, start=None):
    """(T, R, B, mu): the first phase of the box enumeration, run box by box,
    for the box |x_i| <= radii_i and the basis given exactly as the integer
    mantissas ints at 2**-scale.

    Row i is scaled by the exact integer s_i = floor(2**G / radii_i), G the
    least exponent that leaves every s_i at least 2**16, so the box lies in
    the cube |s_i x_i| <= 2**G and _enumerate_scaled_ball enumerates the
    ball around it; callers re-filter against the true radii.  Power-of-two
    radii give the box's columns times one power of two.  The radii are
    positive floats or dyadic rationals (an infinite float raises
    OverflowError).

    The scaled columns are LLL-reduced exactly, from their transform by
    start (the T of an earlier box) when one is given.  T is the reduction's
    unimodular transform (reduced column k = sum_j T[k][j] column j), which
    starts at start and takes the reduction's row operations, to start the
    next box from.  R[k] is reduced column k with the row scales divided
    out, so the point of kernel coefficients c is sum_k c_k R[k] at
    2**-scale, exactly, and its coefficients on the columns of ints are c T.
    B_i = D_{i+1} / D_i and mu_kj = lam_kj / D_{j+1} are the exact
    Gram-Schmidt data of the scaled reduced columns, each rounded to float
    once.
    """
    d = len(ints)
    ratios = [r.as_integer_ratio() for r in radii]  # each den a power of two
    if len(ratios) != d or any(num <= 0 for num, _ in ratios):
        raise ValueError("need one positive radius per coordinate")
    G = 16 + max((num - 1).bit_length() - den.bit_length() + 1 for num, den in ratios)
    s = [(den << G) // num if G >= 0 else den // (num << -G) for num, den in ratios]
    cols = [[s[i] * ints[i][j] for i in range(d)] for j in range(d)]
    T, red, D, lam = _lll_reduce(cols if start is None else _int_mat_mul(start, cols), start)
    B = [_gs_bound(D[i + 1], D[i], 2 * (scale + G)) for i in range(d)]
    mu = [[lam[k][j] / D[j + 1] for j in range(k)] for k in range(d)]
    return T, [[x // si for x, si in zip(col, s)] for col in red], B, mu


def _box_points(C, R, scale: int) -> np.ndarray:
    """The points sum_k c_k R[k] of the rows c of C, in one exact product of
    Python integers, then truncated toward zero at 2**-scale."""
    return _ints_to_floats_scaled(C.astype(object) @ np.array(R, dtype=object), scale)


def _box_coeffs(ints, scale: int, radii, start=None):
    """(T, coefficient vectors m on the columns of ints) of the ball around
    the box |x_i| <= radii_i: _reduce_box, then the kernel on a batch of
    this one box, whose cap is POINT_CAP.  One m of each +-m, never 0."""
    box = _reduce_box(ints, scale, radii, start)
    C = _enumerate_scaled_ball([box], POINT_CAP)[1]
    return box[0], list(map(tuple, (C.astype(object) @ np.array(box[0], dtype=object)).tolist()))


def lattice_points_in_box_exact(ints, scale: int, radii) -> np.ndarray:
    """Rows [P; -P], P the points of the kernel's one c of each +-c for the
    box |x_i| <= radii_i and more of the ball around it (callers re-filter),
    in the kernel's order, for the basis B given exactly as integer
    mantissas at 2**-scale; complete up to a 1e-9 relative margin, zero
    omitted.  Points are evaluated with integer arithmetic (_box_points): at
    high diagonal skew that is the only way to see the cancellation down to
    O(1).  -P is the truncation of -B m up to the sign of a zero.
    """
    box = _reduce_box(ints, scale, radii)
    P = _box_points(_enumerate_scaled_ball([box], POINT_CAP)[1], box[1], scale)
    return np.concatenate([P, -P])


def _gs_bound(num: int, den: int, shift: int) -> float:
    """num / den * 2**-shift as a float, or 1e300, far above the ball, when
    it passes the float range: a smaller bound only widens the intervals, and
    the callers re-filter."""
    try:
        return _scaled_ratio(num, den, shift)
    except OverflowError:
        return 1e300


def _box_batches(boxes, rows: int):
    """Runs (i, j) of the boxes of _reduce_box whose balls hold at most rows
    points together, or one box alone: level k of a ball has at most
    2 sqrt(d / B_k) + 3 integers per node, up to the radius margin, and a
    B_k that underflowed to 0 leaves its box alone, for the kernel to refuse."""
    i, size = 0, 0.0
    for j, (_, _, B, _) in enumerate(boxes):
        points = math.prod(2.0 * math.sqrt(len(B) / b) + 3.0 if b else math.inf for b in B)
        if j > i and size + points > rows:
            yield i, j
            i, size = j, 0.0
        size += points
    if i < len(boxes):
        yield i, len(boxes)


def _enumerate_scaled_ball(boxes, cap: int):
    """(owner, C): the second phase of the box enumeration, run once over a
    batch of boxes of _reduce_box.  The rows of the int64 array C are the
    coefficient vectors c with |sum_k c_k b_k|_2 <= sqrt(d)(1 + margin), b_k
    the scaled reduced columns of box owner, one c of each +-c and never
    zero, as a level whose higher coefficients are all 0 takes only v >= 0,
    and v >= 1 at level 0 (Fincke and Pohst, Math. Comp. 44, 1985; Schnorr
    and Euchner, Math. Programming 66, 1994).  Rows come box by box, and
    within a box in the lexicographic order of (c_{d-1}, ..., c_0): the
    order of the depth-first branch and bound, which stays as an oracle in
    the tests.

    The search runs breadth first, one vectorized step per level over every
    open node of every box: centers, the ceil and floor of the interval
    ends, the sign rule and the partial norms, each the float expression of
    the depth-first search, evaluated in its order.  Reduction gives
    B_k >= (74/100)**(k-i) B_i for k > i, so the coefficients above level i
    are O(sqrt(d / B_i)) and the rounding of B and mu moves each bound there
    by orders of magnitude less than the 1e-9 radius margin.

    A box raises TooManyPoints when it emits more than cap vectors or visits
    more than 60 cap nodes (each point in the ball at a level above 0 is a
    node).
    Only the ends of an interval can fall outside the ball, so each level
    counts the points between its ends against both limits before it builds
    any of them; and the all-zero path reaches level 0 with the whole ball,
    where [1, sqrt(radius2 / B_0)] past cap + 3 holds more than cap points,
    which is checked before a B_0 that underflowed to 0 divides.
    """
    d, nb = len(boxes[0][2]), len(boxes)
    radius2 = d * (1.0 + 1e-9) ** 2 + 1e-12
    Bs = np.array([B for _, _, B, _ in boxes])
    if np.any(Bs[:, 0] * (cap + 3) ** 2 < radius2):
        raise TooManyPoints("enumeration exceeded the point cap")
    MU = np.zeros((nb, d, d))
    for i, (_, _, _, mu) in enumerate(boxes):
        for k in range(1, d):
            MU[i, k, :k] = mu[k]
    owner = np.arange(nb)
    C = np.zeros((nb, d), dtype=np.int64)
    partial = np.zeros(nb)
    free = np.ones(nb, dtype=bool)  # every coefficient above the level is 0
    nodes = np.ones(nb)
    for level in range(d - 1, -1, -1):
        center = np.zeros(len(owner))
        for k in range(level + 1, d):
            center += MU[owner, k, level] * C[:, k]
        center = -center
        s = np.sqrt((radius2 - partial) / Bs[owner, level])
        lo = np.ceil(center - s - 1e-12)
        hi = np.floor(center + s + 1e-12)
        lo[free] = np.maximum(lo[free], 0 if level else 1)
        width = np.maximum(hi - lo + 1, 0)
        inner = np.bincount(owner, np.maximum(width - 2, 0), nb)
        if np.any(inner > (60 * cap - nodes if level else cap)):
            raise TooManyPoints("enumeration exceeded the point cap")
        width = width.astype(np.int64)
        node = np.repeat(np.arange(len(owner)), width)
        v = lo.astype(np.int64)[node] + np.arange(len(node)) - np.repeat(np.cumsum(width) - width, width)
        dv = v - center[node]
        part = partial[node] + Bs[owner[node], level] * dv * dv
        inside = part <= radius2
        node, v = node[inside], v[inside]
        owner, C, partial, free = owner[node], C[node], part[inside], free[node] & (v == 0)
        C[:, level] = v
        if level:
            nodes += np.bincount(owner, minlength=nb)
            over = nodes > 60 * cap
        else:
            over = np.bincount(owner, minlength=nb) > cap
        if np.any(over):
            raise TooManyPoints("enumeration exceeded the point cap")
    return owner, C


def in_cone(coords, eps: float) -> np.ndarray:
    """Mask of the points v, given by their coordinate arrays coords[0..d-1]
    (all of one shape), with 0 < max_{i<d} |v_i| < eps and |v_d| <= 1.
    This is the one definition of the cone; both members of each +-v pair
    lie in it."""
    *head, last = coords
    sup = np.abs(head[0])
    for x in head[1:]:
        np.maximum(sup, np.abs(x), out=sup)
    return (sup > 0.0) & (sup < eps) & (np.abs(last) <= 1.0)


# ---------------------------------------------------------------------------
# Hecke neighbors
# ---------------------------------------------------------------------------


def _ordered_factorizations(m: int, d: int):
    if d == 1:
        yield (m,)
        return
    for a in _divisors(m):
        for rest in _ordered_factorizations(m // a, d - 1):
            yield (a,) + rest


def hecke_neighbors(d: int, m: int):
    """Upper-triangular Hermite-form integer matrices of determinant m.

    Positive diagonal; each entry above the diagonal is reduced mod the
    diagonal entry below it.  Rows are coefficient vectors: the index-m
    sublattice of a basis B is spanned by B @ H.T, and dividing by m**(1/d)
    gives the normalized neighbor.
    """
    if d < 2 or m < 1:
        raise ValueError("need d >= 2 and m >= 1")
    out = []
    for diag in _ordered_factorizations(m, d):
        offsets = [(i, j) for j in range(d) for i in range(j)]

        def fill(idx, current):
            if idx == len(offsets):
                H = np.zeros((d, d), dtype=int)
                for t in range(d):
                    H[t, t] = diag[t]
                for (pos, val) in zip(offsets, current):
                    H[pos[0], pos[1]] = val
                out.append(H)
                return
            _, j = offsets[idx]
            for v in range(diag[j]):
                fill(idx + 1, current + [v])

        fill(0, [])
    return out


def hecke_apply(basis: LatticeBasis, H: np.ndarray) -> LatticeBasis:
    """Normalized index-m neighbor of a basis along one Hermite matrix."""
    m = int(round(abs(np.linalg.det(H))))
    mat = basis.matrix.entries @ H.T.astype(float) / m ** (1.0 / basis.dim)
    return LatticeBasis.from_floats(mat)


def elementary_divisors(H: np.ndarray):
    """Elementary divisors from gcds of k x k minors (meant for d <= 4)."""
    from itertools import combinations

    M = [[int(x) for x in row] for row in np.asarray(H)]
    d = len(M)
    gcds = []
    for k in range(1, d + 1):
        g = 0
        for rows in combinations(range(d), k):
            for cols_ in combinations(range(d), k):
                sub = [[M[i][j] for j in cols_] for i in rows]
                g = math.gcd(g, _int_det(sub))
        gcds.append(g)
    out = []
    prev = 1
    for dk in gcds:
        out.append(dk // prev)
        prev = dk
    return tuple(out)


def hecke_neighbors_typed(d: int, p: int, ks):
    """Neighbors of index p**sum(ks) whose quotient type is (p^k_1, ..., p^k_d)."""
    ks = sorted(int(k) for k in ks)
    if len(ks) != d:
        raise ValueError("need one exponent per dimension")
    want = tuple(p**k for k in ks)
    return [
        H
        for H in hecke_neighbors(d, p ** sum(ks))
        if tuple(sorted(elementary_divisors(H))) == want
    ]


def save_matrix_csv(path, mat) -> None:
    """Row-major CSV at 17 significant digits."""
    arr = mat.entries if isinstance(mat, SquareMatrix) else np.asarray(mat, dtype=float)
    with open(path, "w") as fh:
        for row in np.atleast_2d(arr):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def save_lattice_csv(path, basis: LatticeBasis) -> None:
    """The exact basis: a "# scale=S" line, then the rows of its integer
    mantissas, the entries at 2**-S."""
    with open(path, "w") as fh:
        fh.write(f"# scale={basis.exact_scale}\n")
        for row in basis.exact_mantissa:
            fh.write(",".join(map(str, row)) + "\n")


def load_lattice_csv(path) -> LatticeBasis:
    """The basis of a lattice file.  The file comes from outside the program,
    so a missing or non-integer scale, ragged or non-integer rows and a zero
    determinant raise ValueError."""
    with open(path) as fh:
        key, _, scale = fh.readline().partition("=")
        if key.lstrip("#").strip() != "scale":
            raise ValueError("a lattice file starts with a '# scale=S' line")
        rows = tuple(tuple(map(int, line.split(","))) for line in map(str.strip, fh) if line)
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("lattice rows must form a square matrix")
    if _int_det(rows) == 0:
        raise ValueError("lattice basis is singular")
    return LatticeBasis(rows, int(scale))


def hnf_canonical(M) -> tuple:
    """Canonical Hermite form of the column span of a nonsingular integer
    matrix; usable as a dictionary key for lattice identity."""
    A = [[int(x) for x in row] for row in np.asarray(M)]
    n = len(A)
    cols = [list(c) for c in zip(*A)]
    for r in range(n - 1, -1, -1):
        nz = [j for j in range(r + 1) if cols[j][r] != 0]
        if not nz:
            raise ValueError("singular matrix")
        j0 = nz[0]
        for j in nz[1:]:
            a, b = cols[j0][r], cols[j][r]
            g, x, y = _xgcd(a, b)
            c0 = [x * u + y * v for u, v in zip(cols[j0], cols[j])]
            c1 = [-(b // g) * u + (a // g) * v for u, v in zip(cols[j0], cols[j])]
            cols[j0], cols[j] = c0, c1
        cols[j0], cols[r] = cols[r], cols[j0]
        if cols[r][r] < 0:
            cols[r] = [-u for u in cols[r]]
        for j in range(r + 1, n):
            q = cols[j][r] // cols[r][r]
            if q:
                cols[j] = [u - q * v for u, v in zip(cols[j], cols[r])]
    return tuple(tuple(c) for c in cols)
