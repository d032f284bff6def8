"""Two former block conjugators, kept as oracles for latgeo.conjugator_data
on Galois fields.  Both act on Bnorm in the tuple's former row order, the
designated embedding first: each reads the tuple's rows through
_designated_first, the one place where that order lives on.  They put the
conjugator's zeros in the column of the last row's root in that order, so
they need that root to be rational in the designated one; every non-Galois
field raises StructureViolation.

relation_conjugator_data is the integer relation path: the last-row root s
is expressed in powers of the designated one by an LLL relation, an integer
synthetic division of f at s gives the basis change gamma, and U = u delta
Bnorm^-1 with delta the adjugate of gamma.

conjugator_data is the float search before it: the last-row root is
expressed by a float solve against each ordering of the other roots, rounded
with limit_denominator; the basis change tries lam = 1, theta, theta^2,
theta^3; and the conjugator takes the identity whenever u Bnorm^-1 already
passes the float block test, with float gates on the corner and the
determinant.  Its field arithmetic is the former one of latgeo: Fraction
polynomials mod f and Fraction Gauss-Jordan.

mpmath_scaled_embedding and mpmath_conjugator_U are the mpmath evaluations
that latgeo._exact_scaled_embedding and latgeo.conjugator_data made before
they took integer roots: the column factors at T + 96 bits and U at
frac_bits + 96 bits, each result rounded from there."""

from fractions import Fraction
from itertools import permutations

import mpmath
import numpy as np

from dataclasses import dataclass

from diophlat.errors import PrecisionExhausted, StructureViolation
from diophlat.exact import (_companion, _int_det, _int_inverse, _int_mat_mul, _lll_reduce,
                            _ring_matrix, _scaled_ratio)
from diophlat.latgeo import (_CERT_DOUBLINGS, LatticeBasis, SquareMatrix, _exact_scaled_embedding,
                             unipotent)
from field_oracle import _poly_mod

_DET_TOL = 1e-10


def _designated_first(rows):
    """The rows of a tuple's embedding (a tuple of rows or an array) in the
    former order: the designated embedding, the tuple's last row, first."""
    return np.roll(rows, 1, axis=0) if isinstance(rows, np.ndarray) else rows[-1:] + rows[:-1]


@dataclass(frozen=True)
class OracleConjugator:
    """U (basis) = u(alpha) with basis = Bnorm gamma, Bnorm in tuple row order."""

    U: SquareMatrix
    U0: SquareMatrix
    basis: LatticeBasis
    gamma: np.ndarray


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


def express_last_root(tup):
    """Coordinates over Q of the last-row root in powers of the designated
    root, or None when no exact expression is found."""
    d = tup.dim
    f = [Fraction(c) for c in tup.field.polynomial.coeffs]
    emb = _designated_first(tup.embed_floats())
    roots = emb[:, 1]  # designated first, then the others ascending
    theta = roots[0]
    s = roots[d - 1]
    # conjugates of s under the other embeddings range over the remaining
    # roots (the designated one included)
    rest = [r for r in roots if r != s]
    for perm in permutations(range(d - 1)):
        svec = np.array([s] + [rest[perm[i]] for i in range(d - 1)])
        try:
            c = np.linalg.solve(emb, svec)
        except np.linalg.LinAlgError:
            continue
        h = [Fraction(x).limit_denominator(10**9) for x in c]
        # exact gate: h(theta) must be a root of f, and numerically equal s
        if any(x != 0 for x in _poly_compose_mod(f, h, f)):
            continue
        val = sum(float(h[i]) * theta**i for i in range(d))
        if abs(val - s) < 1e-9:
            return h
    return None


def block_basis_change(tup):
    """Integer unimodular delta with delta (Bnorm^-1 e_d) parallel to
    (-alpha, 1), trying the multipliers lam = 1, theta, theta^2, theta^3;
    None when none of them gives one."""
    d = tup.dim
    f = [Fraction(c) for c in tup.field.polynomial.coeffs]
    h = express_last_root(tup)
    if h is None:
        return None
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
    lam_candidates = [[Fraction(1)]]
    for mpow in (1, 2, 3):
        lam_candidates.append(_poly_mod([Fraction(0)] * mpow + [Fraction(1)], f))
    for lam in lam_candidates:
        rows = []
        for i in list(range(1, d)) + [0]:
            target = _poly_mul_mod([Fraction(0)] * i + [Fraction(1)], lam, f)
            if i != 0:
                target = [-x for x in target]
            target = target + [Fraction(0)] * (d - len(target))
            sol = _fraction_solve(G, target[:d])
            if sol is None or any(x.denominator != 1 for x in sol):
                break
            rows.append([int(x) for x in sol])
        else:
            if abs(_int_det(rows)) == 1:
                return np.array(rows, dtype=int)
    return None


def conjugator_data(tup):
    """The former conjugator_data, float gates and identity path included."""
    d = tup.dim
    u = unipotent(tup.alpha_floats(), d).entries
    B = _designated_first(tup.embed_floats())
    bn = B / abs(float(np.linalg.det(B))) ** (1.0 / d)

    gamma = np.eye(d, dtype=int)
    U = u @ np.linalg.inv(bn)
    if np.any(np.abs(U[: d - 1, d - 1]) > _DET_TOL):
        delta = block_basis_change(tup)
        if delta is None:
            raise StructureViolation("no integral basis change realizes the block conjugator")
        gamma = np.rint(np.linalg.inv(delta.astype(float))).astype(int)
        if not np.array_equal(delta @ gamma, np.eye(d, dtype=int)):
            raise StructureViolation("basis change is not unimodular")
        U = u @ delta.astype(float) @ np.linalg.inv(bn)
        if np.any(np.abs(U[: d - 1, d - 1]) > _DET_TOL):
            raise StructureViolation("constructed basis change failed to verify")

    if abs(abs(np.linalg.det(U)) - 1.0) > _DET_TOL:
        raise StructureViolation("conjugator determinant is not unimodular")
    U = U.copy()
    U[: d - 1, d - 1] = 0.0
    U0 = U.copy()
    U0[d - 1, : d - 1] = 0.0

    basis = LatticeBasis.from_floats(bn @ gamma.astype(float))
    return OracleConjugator(U=SquareMatrix(U), U0=SquareMatrix(U0), basis=basis, gamma=gamma)


# the integer relation path

def divide_at_root(H, c, f):
    """Synthetic division of f(y) by y - s on integers, for H the matrix of
    c s: the coordinates of w_j = c**(d-1-j) g_j(s) for j = d-1, ..., 0, then
    of w_-1 = c**d f(s), where f(y) = (y - s) sum g_j(s) y**j + f(s).  From
    g_(d-1) = 1 and g_(j-1) = s g_j + f_j, w_(j-1) = H w_j + f_j c**(d-j) e_0.
    """
    d = len(H)
    w = [int(i == 0) for i in range(d)]
    out = [w]
    for j in range(d - 1, -1, -1):
        w = [sum(x * y for x, y in zip(row, w)) for row in H]
        w[0] += f[j] * c ** (d - j)
        out.append(w)
    return out


def relation_last_root(tup):
    """(H, c) with H the integer matrix of c s, for s the last-row root and
    c a nonzero integer, or None when none is found.

    c s = -(c_0 + c_1 theta + ... + c_n theta**n) comes from an integer
    relation c_0 + ... + c_n theta**n + c s = 0: the first LLL-reduced column
    of the lattice spanned by (e_i, X_i), X_i the leading bits of the i-th
    fixed-point mantissa (Cohen, A Course in Computational Algebraic Number
    Theory, 2.7.2).  The bits start at 64 and double up to frac_bits.  It is
    kept only when c**d f(s) = 0 in Z[theta], and when the full mantissas and
    their error bounds place that root at the last row and at no other.
    """
    d = tup.dim
    S = tup.frac_bits
    mant, err = _designated_first(tup.embed_mantissa), _designated_first(tup.embed_err_ulps)
    f = tup.field.polynomial.coeffs
    C = _companion(f)
    xs = list(mant[0]) + [mant[d - 1][1]]
    bits = 64
    while True:
        shift = max(S - bits, 0)
        cols = [[int(i == j) for j in range(d + 1)] + [x >> shift] for i, x in enumerate(xs)]
        rel = _lll_reduce(cols)[1][0][: d + 1]
        c = rel[d]
        if c:
            val = -sum(x * m for x, m in zip(rel, mant[0]))
            E = sum(abs(x) * e for x, e in zip(rel, err[0]))
            rows = [j for j in range(d)
                    if abs(val - c * mant[j][1]) <= E + abs(c) * err[j][1]]
            if rows == [d - 1]:
                H = _ring_matrix([-x for x in rel[:d]], C)
                if not any(divide_at_root(H, c, f)[-1]):
                    return H, c
        if shift == 0:
            return None
        bits *= 2


def relation_basis_change(tup):
    """Integer unimodular gamma = G^T P, as rows of Python ints, or None.
    Column j of G holds the coordinates of g_j(s), the synthetic-division
    coefficients of f(y) / (y - s) at the last-row root s, and P has columns
    -e_1, ..., -e_n, e_0."""
    d = tup.dim
    found = relation_last_root(tup)
    if found is None:
        return None
    H, c = found
    ws = divide_at_root(H, c, tup.field.polynomial.coeffs)
    G = []  # row j of G^T is w_j / c**(d-1-j); a remainder leaves G nonintegral
    for j in range(d):
        q, r = zip(*(divmod(x, c ** (d - 1 - j)) for x in ws[d - 1 - j]))
        if any(r):
            return None
        G.append(q)
    gamma = [[-g[i + 1] for i in range(d - 1)] + [g[0]] for g in G]
    return gamma if abs(_int_det(gamma)) == 1 else None


def relation_conjugator_data(tup):
    """U (Bnorm gamma) = u(alpha) with gamma from relation_basis_change and
    U = u delta Bnorm^-1, delta the exact adjugate of gamma; PrecisionExhausted
    when an entry of gamma or delta passes 2**53."""
    mant, scale = _exact_scaled_embedding(tup, 2, 0)
    mant = _designated_first(mant)
    d = tup.dim
    gamma = relation_basis_change(tup)
    if gamma is None:
        raise StructureViolation("no integral basis change realizes the block conjugator")
    delta = _int_inverse(gamma)
    if max(abs(x) for M in (gamma, delta) for row in M for x in row) > 1 << 53:
        raise PrecisionExhausted("the basis change has entries past 2**53, beyond a float")
    u = unipotent(tup.alpha_floats(), d).entries
    B = _designated_first(tup.embed_floats())
    bn = B / abs(float(np.linalg.det(B))) ** (1.0 / d)
    U = u @ np.array(delta, dtype=float) @ np.linalg.inv(bn)
    U[: d - 1, d - 1] = 0.0  # zeros by construction; keeps the flow limit monotone
    U0 = U.copy()
    U0[d - 1, : d - 1] = 0.0
    basis = LatticeBasis(tuple(map(tuple, _int_mat_mul(mant, gamma))), scale)
    return OracleConjugator(U=SquareMatrix(U), U0=SquareMatrix(U0), basis=basis,
                            gamma=np.array(gamma, dtype=int))


# the mpmath evaluations

def mpmath_scaled_embedding(tup, p, k):
    """(ints, T) as _exact_scaled_embedding gave them from mpmath: the column
    factors p**(e_j/d) / |det M|**(1/d) at T + 96 bits, each entry rounded
    to the nearest integer, with the same certification of |det| and the
    same doublings of T; PrecisionExhausted past them.  The guards on k and
    on the float range are left to the caller."""
    d, S = tup.dim, tup.frac_bits
    M = tup.embed_mantissa
    detM = abs(_int_det(M))
    for T in (S << i for i in range(_CERT_DOUBLINGS + 1)):
        with mpmath.workprec(T + 96):
            root = mpmath.root(mpmath.mpf(detM), d)
            cs = [mpmath.power(p, mpmath.mpf(-k if j < d - 1 else k * (d - 1)) / d) / root
                  for j in range(d)]
            out = tuple(tuple(int(mpmath.nint(mpmath.mpf(x) * c * 2**T)) for x, c in zip(row, cs))
                        for row in M)
        if _scaled_ratio(abs(abs(_int_det(out)) - (1 << d * T)), 1, d * T) <= _DET_TOL:
            return out, T
    raise PrecisionExhausted(f"rounded at 2**-{T}, the basis misses covolume 1 by over {_DET_TOL}")


def mpmath_conjugator_U(tup):
    """The trace-dual U of conjugator_data as mpmath gave it: b_j = |det
    B|**(1/d) / f'(sigma_j theta) at frac_bits + 96 bits, rows i < n b_j
    (sigma_D(theta**(i+1)) - sigma_j(theta**(i+1))) and row n b_j, each
    converted to float from there."""
    d, S = tup.dim, tup.frac_bits
    M = tup.embed_mantissa
    with mpmath.workprec(S + 96):
        root = mpmath.ldexp(mpmath.root(abs(_int_det(M)), d), S * (d - 2))
        b = [root / mpmath.fprod(M[j][1] - M[k][1] for k in range(d) if k != j)
             for j in range(d)]
        return np.array([[float(mpmath.ldexp(bj * (M[-1][i] - row[i]), -S))
                          for bj, row in zip(b, M)] for i in range(1, d)]
                        + [[float(bj) for bj in b]])
