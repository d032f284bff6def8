"""Matrices, unimodular lattices, cone-point enumeration and Hecke neighbors.

The enumeration kernel works on exact dyadic data: basis entries (float64
values are dyadic rationals) are integerized exactly, the columns are
LLL-reduced in integer arithmetic, and the branch and bound reads its bounds
from the exact Gram-Schmidt data of the reduced basis, so extreme diagonal
skew cannot defeat them.  Callers re-filter candidates exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidInput, NotPrime, SingularEmbedding, StructureViolation, TooManyPoints
from .numberfield import AlgebraicTuple, _divisors, _poly_mod, is_prime

POINT_CAP = 10**6

_DET_TOL = 1e-10


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
    """Column basis of a lattice with covolume bookkeeping.

    exact_mantissa, when present, gives the same basis as integers at scale
    2**-exact_scale; enumeration at large diagonal skew needs it, since 53-bit
    entries develop spurious thin directions at coefficient scale e^L.

    unit_logs, when present, are d-1 independent rows w with
    exp(diag(w, -sum w)) mapping the lattice onto itself: the first d-1
    log-embeddings of units that stabilize it, so the diagonal orbit is
    periodic modulo their span.
    """

    matrix: SquareMatrix
    covolume: float
    unimodular: bool = False
    exact_mantissa: tuple | None = None
    exact_scale: int | None = None
    unit_logs: tuple | None = None

    def __post_init__(self):
        det = abs(self.matrix.det())
        if abs(self.covolume - det) > _DET_TOL * max(1.0, det):
            raise ValueError("covolume disagrees with |det|")
        if self.unimodular and abs(self.covolume - 1.0) > _DET_TOL:
            raise ValueError("unimodular flag requires covolume 1")

    @property
    def dim(self) -> int:
        return self.matrix.dim


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
    """Integer mantissas of Bnorm a(-t_k) at scale 2**-frac_bits.

    Bnorm = M / |det M|**(1/d) for M the integer embedding mantissas (the
    fixed-point scale cancels), and a(-t_k) rescales column j by a d-th root
    of a power of p; the column factors are evaluated once at high precision.
    """
    import mpmath

    d = tup.dim
    S = tup.frac_bits
    M = [list(row) for row in tup.embed_mantissa]
    detM = _int_det(M)
    if detM == 0:
        raise SingularEmbedding("tuple does not span: embedding determinant vanishes")
    with mpmath.workprec(S + 96):
        root = mpmath.root(mpmath.mpf(abs(detM)), d)
        out = []
        for i in range(d):
            row = []
            for j in range(d):
                e = -k if j < d - 1 else k * (d - 1)
                cj = mpmath.power(p, mpmath.mpf(e) / d) / root
                row.append(int(mpmath.nint(mpmath.mpf(M[i][j]) * cj * 2**S)))
            out.append(tuple(row))
    return tuple(out), S


def embedding_lattice(tup: AlgebraicTuple):
    """Row-embedding matrix B and its covolume-one normalization.

    B row j is (1, sigma_j(alpha_1), ..., sigma_j(alpha_n)); the normalized
    basis divides by |det B|**(1/d) and carries exact mantissas.
    """
    B = tup.embed_floats()
    det = float(np.linalg.det(B))
    if abs(det) < _DET_TOL:
        raise SingularEmbedding("tuple does not span: embedding determinant vanishes")
    d = tup.dim
    Bn = B / abs(det) ** (1.0 / d)
    raw = SquareMatrix(B)
    mat = SquareMatrix(Bn)
    mant, scale = _exact_scaled_embedding(tup, 2, 0)
    return raw, LatticeBasis(
        mat, covolume=abs(mat.det()), unimodular=True,
        exact_mantissa=mant, exact_scale=scale,
    )


def hecke_scaled_lattice(tup: AlgebraicTuple, p: int, k: int) -> LatticeBasis:
    """Normalized basis Bnorm a(-t_k) with t_k = k/(n+1) * ln p.

    Rescaling by p**(k/d) gives the index-p**k sublattice of Bnorm Z^d spanned
    by (b_1, ..., b_{d-1}, p**k b_d); the identity is verified here.  The
    lattice embeds the module M_k = Z + Z theta + ... + Z p**k theta**n, and
    unit_logs carries the log vectors of units stabilizing it.
    """
    if k < 0:
        raise InvalidInput("k must be nonnegative")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    _, bnorm = embedding_lattice(tup)
    d = tup.dim
    t_k = k * math.log(p) / d
    mat = bnorm.matrix.entries @ diag_flow(-t_k, d).entries
    coeff = np.linalg.solve(bnorm.matrix.entries, mat * p ** (k / d))
    expected = np.diag([1.0] * (d - 1) + [float(p**k)])
    if not np.allclose(coeff, expected, atol=1e-8 * p**k):
        raise AssertionError("hecke scaling lost the sublattice structure")
    sm = SquareMatrix(mat)
    mant, scale = _exact_scaled_embedding(tup, p, k)
    return LatticeBasis(
        sm, covolume=abs(sm.det()), unimodular=True,
        exact_mantissa=mant, exact_scale=scale,
        unit_logs=_stabilizer_unit_logs(tup, bnorm, p**k),
    )


# units stabilizing M_k, verified in exact integer arithmetic

_UNIT_LOG_REACH = 2.0  # search units with every |log sigma_i(u)| <= this
# longest stabilizer log row kept (sup norm over all d embeddings): folding
# to the nearest translate shortens only samples longer than half a row, and
# 192-bit bases resolve half widths up to ~52; past it the fold is trivial
_FOLD_REACH = 100.0


def _stabilizer_unit_logs(tup: AlgebraicTuple, bnorm: LatticeBasis, pk: int):
    """Log vectors (first d-1 embeddings) of d-1 independent totally positive
    units u with u M = M, for M = Z + Z theta + ... + Z pk theta**n; None
    when the search cube holds fewer independent units, or when a row would
    be longer than _FOLD_REACH.

    Candidates are the points of the k = 0 lattice in the cube of half-side
    c e**2, c the common entry of its first column (Bnorm e_1 = c (1, ..., 1),
    so the point of x is c sigma(x)).  Each is kept only if its
    multiplication matrix on the power basis is integral with determinant
    one, checked exactly; total positivity is read off the exact embedding
    mantissas.  The d-1 shortest independent log vectors are taken, and the
    least power of each that stabilizes M gives a row.
    """
    d = tup.dim
    ints, S = bnorm.exact_mantissa, bnorm.exact_scale
    c = ints[0][0]
    # the enumeration ball, radius sqrt(d) 2**16 / a for the columns scaled
    # by a at 2**-(S + 16), just circumscribes the cube; a power-of-two
    # radius would enlarge it up to 2**d-fold in volume
    a = math.floor(2**16 / (_int_to_float_scaled(c, S) * math.exp(_UNIT_LOG_REACH)))
    cols = [[a * ints[i][j] for i in range(d)] for j in range(d)]
    _, coeffs = _enumerate_scaled_ball(cols, S + 16, POINT_CAP)
    # float prefilter: norms are integers, so |N - 1| < 1/2 loses no unit;
    # int / int entries, since ints can pass the float range past 1024 bits
    sig = np.array(coeffs, dtype=float) @ np.array([[x / c for x in row] for row in ints]).T
    near = (np.abs(np.prod(sig, axis=1) - 1.0) < 0.5) & np.all(sig > 0, axis=1)
    f = [Fraction(x) for x in tup.field.polynomial.coeffs]
    units = []
    for idx in np.flatnonzero(near):
        m = coeffs[idx]
        vals = [sum(ints[i][j] * m[j] for j in range(d)) for i in range(d)]
        A = _mult_matrix(m, f)
        if _int_det(A) != 1 or min(vals) <= 0:
            continue
        units.append((A, [math.log(v / c) for v in vals]))
    units.sort(key=lambda u: math.fsum(x * x for x in u[1]))
    chosen = []
    for A, logs in units:
        # logs of dependent units agree to rounding; independent ones span a
        # volume of the order of the regulator
        trial = [lg for _, lg in chosen] + [logs]
        if np.linalg.matrix_rank(np.array(trial), tol=1e-6) == len(trial):
            chosen.append((A, logs))
        if len(chosen) == d - 1:
            break
    if len(chosen) < d - 1:
        return None
    rows = []
    for A, logs in chosen:
        # u has finite order mod pk, so some power stabilizes M; on the basis
        # of M its matrix is D^-1 A**m D, D = diag(1, ..., 1, pk), integral iff
        # _stabilizes, with the determinant of A**m
        P, m = A, 1
        while not _stabilizes(P, pk):
            m += 1
            if m * max(map(abs, logs)) > _FOLD_REACH:
                return None
            P = _int_mat_mul(P, A)
        if _int_det(P) != 1:
            raise StructureViolation("unit power does not stabilize the module")
        rows.append(tuple(m * x for x in logs[: d - 1]))
    return tuple(rows)


def _mult_matrix(m, f):
    """Matrix of multiplication by sum m_j theta**j on the power basis,
    columns reduced mod the monic f (so the entries are integers)."""
    d = len(f) - 1
    cols = []
    for j in range(d):
        col = _poly_mul_mod(list(m), [0] * j + [1], f)
        cols.append([int(x) for x in col] + [0] * (d - len(col)))
    return [list(r) for r in zip(*cols)]


def _int_mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][t] * B[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def _stabilizes(A, pk: int) -> bool:
    """Whether the map with power-basis matrix A is integral on the basis
    (1, theta, ..., theta**(n-1), pk theta**n): only the last row is divided
    by pk, and off the corner its entries must vanish mod pk."""
    return not any(x % pk for x in A[-1][:-1])


@dataclass(frozen=True)
class ConjugatorData:
    """Conjugator with the lattice basis it is exact against.

    U carries zeros in the last column above the corner and maps the column
    span of basis onto the columns of u(alpha); basis spans the same lattice
    as Bnorm (they differ by the integer unimodular matrix gamma).
    """

    U: SquareMatrix
    U0: SquareMatrix
    basis: LatticeBasis
    gamma: np.ndarray


def conjugator_data(tup: AlgebraicTuple) -> ConjugatorData:
    """Block conjugator U with U (Bnorm gamma) = u(alpha) for integer gamma.

    For some tuples the plain u Bnorm^-1 already has the block form and gamma
    is the identity.  Otherwise a basis change of the same lattice is built
    exactly in the field: it exists whenever the non-designated roots are
    rational in the designated one, which covers the desk-scale tuples.
    """
    _, bnorm = embedding_lattice(tup)
    d = tup.dim
    u = unipotent(tup.alpha_floats(), d).entries
    bn = bnorm.matrix.entries

    gamma = np.eye(d, dtype=int)
    U = u @ np.linalg.inv(bn)
    if np.any(np.abs(U[: d - 1, d - 1]) > _DET_TOL):
        delta = _block_basis_change(tup)
        if delta is None:
            raise StructureViolation(
                "no integral basis change realizes the block conjugator; "
                "the non-designated roots are not rational in the designated one"
            )
        gamma = np.rint(np.linalg.inv(delta.astype(float))).astype(int)
        if not np.array_equal(delta @ gamma, np.eye(d, dtype=int)):
            raise StructureViolation("basis change is not unimodular")
        U = u @ delta.astype(float) @ np.linalg.inv(bn)
        if np.any(np.abs(U[: d - 1, d - 1]) > _DET_TOL):
            raise StructureViolation("constructed basis change failed to verify")

    if abs(abs(np.linalg.det(U)) - 1.0) > _DET_TOL:
        raise StructureViolation("conjugator determinant is not unimodular")
    U = U.copy()
    U[: d - 1, d - 1] = 0.0  # certified zeros; keeps the flow limit monotone
    U0 = U.copy()
    U0[d - 1, : d - 1] = 0.0

    adapted = bn @ gamma.astype(float)
    sm = SquareMatrix(adapted)
    basis = LatticeBasis(sm, covolume=abs(sm.det()), unimodular=True)
    return ConjugatorData(
        U=SquareMatrix(U),
        U0=SquareMatrix(U0),
        basis=basis,
        gamma=gamma,
    )


# exact field arithmetic for the basis change (fractions, power basis mod f)


def _poly_mul_mod(a, b, f):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_mod(out, f)


def _poly_compose_mod(g, h, f):
    """g(h(x)) mod f, all coefficients ascending."""
    acc = [Fraction(0)]
    for c in reversed(g):
        acc = _poly_mul_mod(acc, h, f)
        acc[0] += Fraction(c)
        acc = _poly_mod(acc, f)
    return acc


def _fraction_solve(A, b):
    """Exact Gaussian elimination for a small rational system."""
    n = len(A)
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [x - factor * y for x, y in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def _express_last_root(tup: AlgebraicTuple):
    """Coordinates over Q of the last-row root in powers of the designated
    root, or None when no exact expression exists."""
    from itertools import permutations

    d = tup.dim
    f = [Fraction(c) for c in tup.field.polynomial.coeffs]
    emb = tup.embed_floats()
    roots = emb[:, 1]  # designated first, then the others ascending
    theta = roots[0]
    s = roots[d - 1]
    # conjugates of s under the other embeddings range over the remaining
    # roots (the designated one included)
    rest = [r for r in roots if r != s]
    B = emb
    for perm in permutations(range(d - 1)):
        svec = np.array([s] + [rest[perm[i]] for i in range(d - 1)])
        try:
            c = np.linalg.solve(B, svec)
        except np.linalg.LinAlgError:
            continue
        h = [Fraction(x).limit_denominator(10**9) for x in c]
        # exact gate: h(theta) must be a root of f, and numerically equal s
        comp = _poly_compose_mod([Fraction(x) for x in tup.field.polynomial.coeffs], h, f)
        if any(x != 0 for x in comp):
            continue
        val = sum(float(h[i]) * theta**i for i in range(d))
        if abs(val - s) < 1e-9:
            return h
    return None


def _block_basis_change(tup: AlgebraicTuple):
    """Integer unimodular delta with delta (Bnorm^-1 e_d) parallel to
    (-alpha, 1), built exactly; None when the field offers no such change."""
    d = tup.dim
    f = [Fraction(c) for c in tup.field.polynomial.coeffs]
    h = _express_last_root(tup)
    if h is None:
        return None
    # column j of G: coordinates of g_j(s), the synthetic-division
    # coefficients of f(y) / (y - s) evaluated at the last-row root s
    gpolys = [[Fraction(1)]]
    coeffs = tup.field.polynomial.coeffs
    for m in range(d - 1, 0, -1):
        nxt = _poly_mul_mod(gpolys[0], h, f)
        nxt[0] += Fraction(coeffs[m])
        gpolys.insert(0, _poly_mod(nxt, f))
    G = [[Fraction(0)] * d for _ in range(d)]
    for j, g in enumerate(gpolys):
        for i, x in enumerate(g):
            G[i][j] = x
    # target rows: coords of -theta^i for i = 1..n, then coords of 1
    lam_candidates = [[Fraction(1)]]
    for mpow in (1, 2, 3):
        mono = [Fraction(0)] * mpow + [Fraction(1)]
        lam_candidates.append(_poly_mod(mono, f))
    for lam in lam_candidates:
        rows = []
        ok = True
        for i in list(range(1, d)) + [0]:
            mono = [Fraction(0)] * i + [Fraction(1)]
            target = _poly_mul_mod(mono, lam, f)
            if i != 0:
                target = [-x for x in target]
            target = target + [Fraction(0)] * (d - len(target))
            sol = _fraction_solve(G, target[:d])
            if sol is None or any(x.denominator != 1 for x in sol):
                ok = False
                break
            rows.append([int(x) for x in sol])
        if not ok:
            continue
        det = _int_det(rows)
        if abs(det) == 1:
            return np.array(rows, dtype=int)
    return None


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


def _dyadic_from_float(x: float):
    m, e = math.frexp(x)
    return int(m * 2**53), e - 53


def _integerize(mat: np.ndarray):
    """Exact integer matrix M and scale s with mat = M * 2**-s."""
    d = mat.shape[0]
    raw = [[_dyadic_from_float(float(mat[i][j])) for j in range(d)] for i in range(d)]
    emin = min((e for row in raw for (m, e) in row if m != 0), default=0)
    ints = [[(m << (e - emin)) if m else 0 for (m, e) in row] for row in raw]
    return ints, -emin


def _nearest_int_ratio(num: int, den: int) -> int:
    """round(num / den) for den > 0, ties toward +infinity."""
    return (2 * num + den) // (2 * den)


def _lll_reduce(cols):
    """Integral LLL reduction of integer columns (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.6.7, delta = 99/100).

    Returns (T, reduced, D, lam) with reduced[j] = sum_i T[j][i] * cols[i]
    and T unimodular.  D[i] is the Gram determinant of the first i reduced
    columns (D[0] = 1) and lam[k][j] = D[j+1] mu_kj for j < k, so the
    Gram-Schmidt data B_i = D[i+1] / D[i] and mu_kj are exact rationals.  On
    return every |2 lam[k][j]| <= D[j+1], and the Lovasz condition
    100 D[k+1] D[k-1] >= 99 D[k]**2 - 100 lam[k][k-1]**2 holds.
    """
    d = len(cols)
    b = [list(c) for c in cols]
    T = [[int(i == j) for i in range(d)] for j in range(d)]
    D = [1, sum(x * x for x in b[0])] + [0] * (d - 1)
    lam = [[0] * d for _ in range(d)]

    def red(k, l):
        if 2 * abs(lam[k][l]) > D[l + 1]:
            q = _nearest_int_ratio(lam[k][l], D[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            T[k] = [x - q * y for x, y in zip(T[k], T[l])]
            lam[k][l] -= q * D[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        T[k], T[k - 1] = T[k - 1], T[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        B = (D[k - 1] * D[k + 1] + lk * lk) // D[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (D[k + 1] * lam[i][k - 1] - lk * t) // D[k]
            lam[i][k - 1] = (B * t + lk * lam[i][k]) // D[k + 1]
        D[k] = B

    if D[1] == 0:
        raise ValueError("degenerate basis")
    k, kmax = 1, 0
    while k < d:
        if k > kmax:
            # incremental Gram-Schmidt on the new column, every division exact
            kmax = k
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    u = (D[i + 1] * u - lam[k][i] * lam[j][i]) // D[i]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    raise ValueError("degenerate basis")
                else:
                    D[k + 1] = u
        red(k, k - 1)
        if 100 * D[k + 1] * D[k - 1] < 99 * D[k] ** 2 - 100 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return T, b, D, lam


def _int_to_float_scaled(v: int, scale_bits: int) -> float:
    if v == 0:
        return 0.0
    sign = -1.0 if v < 0 else 1.0
    a = abs(v)
    nb = a.bit_length()
    if nb <= 53:
        return sign * math.ldexp(a, -scale_bits)
    return sign * math.ldexp(a >> (nb - 53), nb - 53 - scale_bits)


def _exact_basis(basis: LatticeBasis):
    """Integer mantissas and scale of a basis: its exact ones when it carries
    them, else the exact dyadic values of its float entries."""
    if basis.exact_mantissa is not None:
        return basis.exact_mantissa, basis.exact_scale
    return _integerize(basis.matrix.entries)


def _box_columns(ints, exps):
    """Integer columns of the basis ints with row i divided by 2**exps[i],
    and emax: at scale 2**-(scale + emax) for ints at 2**-scale, exactly."""
    d = len(ints)
    emax = max(exps)
    return [[ints[i][j] << (emax - exps[i]) for i in range(d)] for j in range(d)], emax


def lattice_points_in_box_exact(ints, scale: int, radii, cap: int = POINT_CAP):
    """Pairs (m, point) with (B m) inside the box |x_i| <= radii_i, for the
    basis B given exactly as integer mantissas at 2**-scale.

    Complete up to a 1e-9 relative margin and a per-axis enlargement of the
    radii to powers of two; callers re-filter against the true radii.  Points
    are evaluated with integer arithmetic: at high diagonal skew that is the
    only way to see the cancellation down to O(1).  Zero is omitted.
    """
    d = len(ints)
    if len(radii) != d:
        raise ValueError("need one radius per coordinate")
    exps = []
    for r in radii:
        r = float(r)
        if r <= 0:
            raise ValueError("radii must be positive")
        e = math.ceil(math.log2(r))
        if 2.0**e < r:  # guard against log2 rounding
            e += 1
        exps.append(e)
    cols, emax = _box_columns(ints, exps)
    _, coeffs = _enumerate_scaled_ball(cols, scale + emax, cap)
    if not coeffs:
        return []
    # every point in one exact product of Python integers, then truncated
    exact = np.array(coeffs, dtype=object) @ np.array(ints, dtype=object).T
    pts = np.frompyfunc(lambda x: _int_to_float_scaled(x, scale), 1, 1)(exact).astype(float)
    return list(zip(coeffs, pts))


def _scaled_ratio(num: int, den: int, shift: int) -> float:
    """num / den * 2**-shift, rounded to float once."""
    return num / (den << shift) if shift >= 0 else (num << -shift) / den


def _enumerate_scaled_ball(int_cols, scale_bits: int, cap: int):
    """(T, coefficient vectors m) with |B m|_2 <= sqrt(d)(1 + margin), for
    the basis B given by exact integer columns at 2**-scale_bits.

    The columns are LLL-reduced exactly; T is the reduction's unimodular
    transform (reduced[j] = sum_i T[j][i] * int_cols[i]), for callers that
    start the next box from it, and m is on int_cols.  The branch and bound
    runs on the exact Gram-Schmidt data B_i = D_{i+1} / D_i and
    mu_kj = lam_kj / D_{j+1}, each rounded to float once.  Reduction gives
    B_k >= (74/100)**(k-i) B_i for k > i, so the coefficients above level i
    are O(sqrt(d / B_i)) and the rounding moves each bound there by orders
    of magnitude less than the 1e-9 radius margin.
    """
    d = len(int_cols)
    T, _, D, lam = _lll_reduce(int_cols)
    B = [_scaled_ratio(D[i + 1], D[i], 2 * scale_bits) for i in range(d)]
    mu = [[lam[k][j] / D[j + 1] for j in range(k)] for k in range(d)]
    radius2 = d * (1.0 + 1e-9) ** 2 + 1e-12

    out = []
    c = [0] * d
    partial = [0.0] * (d + 1)
    nodes = [0]

    def descend(level: int):
        nodes[0] += 1
        if nodes[0] > 60 * cap or len(out) > cap:
            raise TooManyPoints("enumeration exceeded the point cap")
        rem = radius2 - partial[level + 1]
        if rem < 0:
            return
        center = -sum(mu[k][level] * c[k] for k in range(level + 1, d))
        s = math.sqrt(rem / B[level])
        for v in range(math.ceil(center - s - 1e-12), math.floor(center + s + 1e-12) + 1):
            c[level] = v
            dv = v - center
            partial[level] = partial[level + 1] + B[level] * dv * dv
            if partial[level] > radius2:
                continue
            if level == 0:
                m = tuple(sum(T[j][i] * c[j] for j in range(d)) for i in range(d))
                if any(m):
                    out.append(m)
                    if len(out) > cap:
                        raise TooManyPoints("enumeration exceeded the point cap")
            else:
                descend(level - 1)
        c[level] = 0

    descend(d - 1)
    return T, out


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
    d = basis.dim
    mat = basis.matrix.entries @ H.T.astype(float) / m ** (1.0 / d)
    sm = SquareMatrix(mat)
    return LatticeBasis(sm, covolume=abs(sm.det()), unimodular=basis.unimodular)


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


def _int_det(M) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination; every division is exact."""
    A = [list(row) for row in M]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if A[r][k] != 0), None)
            if piv is None:
                return 0
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


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


def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def save_matrix_csv(path, mat) -> None:
    """Row-major CSV at 17 significant digits."""
    arr = mat.entries if isinstance(mat, SquareMatrix) else np.asarray(mat, dtype=float)
    with open(path, "w") as fh:
        for row in np.atleast_2d(arr):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def load_matrix_csv(path) -> SquareMatrix:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(x) for x in line.split(",")])
    return SquareMatrix(np.array(rows))


def save_lattice_csv(path, basis: LatticeBasis) -> None:
    """Matrix CSV preceded by a covolume header line."""
    with open(path, "w") as fh:
        fh.write(f"# covolume={basis.covolume:.17g} unimodular={int(basis.unimodular)}\n")
        for row in basis.matrix.entries:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def load_lattice_csv(path) -> LatticeBasis:
    rows = []
    covolume, unimodular = None, False
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                for tok in line[1:].split():
                    key, _, val = tok.partition("=")
                    if key == "covolume":
                        covolume = float(val)
                    elif key == "unimodular":
                        unimodular = bool(int(val))
                continue
            if line:
                rows.append([float(x) for x in line.split(",")])
    sm = SquareMatrix(np.array(rows))
    if covolume is None:
        covolume = abs(sm.det())
    return LatticeBasis(sm, covolume=covolume, unimodular=unimodular)


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
