"""The former block conjugator, kept as an oracle for latgeo.conjugator_data:
the last-row root is expressed in powers of the designated one by a float
solve against each ordering of the other roots, rounded with
limit_denominator; the basis change tries lam = 1, theta, theta^2, theta^3;
and the conjugator takes the identity whenever u Bnorm^-1 already passes the
float block test, with float gates on the corner and the determinant.  Its
field arithmetic is the former one of latgeo: Fraction polynomials mod f and
Fraction Gauss-Jordan."""

from fractions import Fraction
from itertools import permutations

import numpy as np

from diophlat.errors import StructureViolation
from diophlat.exact import _int_det
from diophlat.latgeo import ConjugatorData, LatticeBasis, SquareMatrix, unipotent
from field_oracle import _poly_mod

_DET_TOL = 1e-10


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
    emb = tup.embed_floats()
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
    B = tup.embed_floats()
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
    return ConjugatorData(U=SquareMatrix(U), U0=SquareMatrix(U0), basis=basis, gamma=gamma)
