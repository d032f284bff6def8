"""Exact arithmetic on Python integers, with no domain types: integer
matrices (determinant, inverse, product, LLL), Z[theta] as companion-matrix
arithmetic, floats as dyadic integers, and integer polynomials (coefficients
ascending, c_0 first) with their Sturm chains and scaled evaluation.
"""

import math

import numpy as np


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


def _int_inverse(M):
    """Inverse of a unimodular integer matrix: its adjugate signed by
    det M = +-1, entry (i, j) the cofactor of M at (j, i)."""
    det = _int_det(M)
    if abs(det) != 1:
        raise ValueError("matrix is not unimodular")
    n = len(M)
    return [[(-1) ** (i + j) * det * _int_det([r[:i] + r[i + 1:] for t, r in enumerate(M) if t != j])
             for j in range(n)] for i in range(n)]


def _int_mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][t] * B[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _nearest_int_ratio(num: int, den: int) -> int:
    """round(num / den) for den > 0, ties toward +infinity."""
    return (2 * num + den) // (2 * den)


def _iroot(y: int, d: int) -> int:
    """floor(y**(1/d)) for y >= 0: integer Newton steps (Cohen, A Course in
    Computational Algebraic Number Theory, 1.7.1) down to the floor from a
    start at or above the root.  The start is a step (mean inequality) from
    the float root of the top 64 bits while that is shifted by at most 64
    bits; past that, it is one above the root of the top half of the bits,
    shifted back, so that few full-size steps remain."""
    if y < 2:
        return y
    if (s := max(y.bit_length() - 64, 0) // d) <= 64:
        x = max(int(float(y >> s * d) ** (1.0 / d)), 1) << s
        x = ((d - 1) * x + y // x ** (d - 1)) // d
    else:
        s = y.bit_length() // (2 * d)
        x = _iroot(y >> s * d, d) + 1 << s
    while (z := ((d - 1) * x + y // x ** (d - 1)) // d) < x:
        x = z
    return x


def _lll_reduce(cols, start=None):
    """Integral LLL reduction of integer columns (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.6.7, delta = 99/100).

    Returns (T, reduced, D, lam) with reduced[j] = sum_i R[j][i] * cols[i]
    for a unimodular R, and T = R start: T starts at start (unimodular, the
    identity when None) and takes every row operation of the reduction, so
    for cols = start C, reduced[j] = sum_i T[j][i] * C[i] with no further
    product.  D[i] is the Gram determinant of the first i reduced columns
    (D[0] = 1) and lam[k][j] = D[j+1] mu_kj for j < k, so the Gram-Schmidt
    data B_i = D[i+1] / D[i] and mu_kj are exact rationals.  On return every
    |2 lam[k][j]| <= D[j+1], and the Lovasz condition
    100 D[k+1] D[k-1] >= 99 D[k]**2 - 100 lam[k][k-1]**2 holds.
    """
    d = len(cols)
    b = [list(c) for c in cols]
    if start is None:
        start = [[int(i == j) for i in range(d)] for j in range(d)]
    T = [list(r) for r in start]
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


def _companion(f):
    """Matrix C of multiplication by theta on the power basis, for the monic
    f with ascending coefficients: theta**n maps to -f_0 - ... - f_n theta**n."""
    d = len(f) - 1
    return [[-f[i] if j == d - 1 else int(i == j + 1) for j in range(d)] for i in range(d)]


def _ring_matrix(m, C):
    """m(C) = sum m_j C**j by Horner: for C = _companion(f), the integer
    matrix of multiplication by sum m_j theta**j, the element of Z[theta]
    (Cohen, A Course in Computational Algebraic Number Theory, 4.2.2)."""
    d = len(C)
    acc = [[0] * d for _ in range(d)]
    for c in reversed(m):
        acc = _int_mat_mul(acc, C)
        for i in range(d):
            acc[i][i] += c
    return acc


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


def _scaled_ratio(num: int, den: int, shift: int) -> float:
    """num / den * 2**-shift, rounded to float once."""
    return num / (den << shift) if shift >= 0 else (num << -shift) / den


def _ints_to_floats_scaled(vals: np.ndarray, scale_bits: int) -> np.ndarray:
    """Floats of an object array of integers at scale 2**-scale_bits, as one
    array truncation: each magnitude is cut to its top 53 bits, then scaled."""
    mag = np.abs(vals)
    sh = np.maximum(np.frompyfunc(int.bit_length, 1, 1)(mag).astype(np.int64) - 53, 0)
    top = (mag >> sh).astype(float)
    return np.ldexp(np.where(vals < 0, -top, top), sh - scale_bits)


def _poly_derivative(coeffs):
    return tuple(i * c for i, c in enumerate(coeffs) if i > 0)


def _scaled_eval(coeffs, a: int, e: int) -> int:
    """2**(e * deg f) * f(a / 2**e) for integer coefficients: an integer with
    the sign of f(a / 2**e)."""
    acc, shift = 0, 0
    for c in reversed(coeffs):
        acc = acc * a + (c << shift)
        shift += e
    return acc


def _sign_at(coeffs, a: int, e: int) -> int:
    """Sign of f(a / 2**e), evaluated with a / 2**e in lowest terms."""
    t = e if a == 0 else min(e, (a & -a).bit_length() - 1)
    v = _scaled_eval(coeffs, a >> t, e - t)
    return (v > 0) - (v < 0)


def _sturm_chain(coeffs):
    """Sturm chain of f on integers, by pseudo-remainders (Cohen, A Course in
    Computational Algebraic Number Theory, 3.1.2): each division step scales
    the dividend by |lead| > 0, so each negated remainder, its content
    divided out, is a positive multiple of the rational one and keeps every
    sign."""
    chain = [tuple(coeffs), _poly_derivative(coeffs)]
    while len(chain[-1]) > 1:
        a, b = list(chain[-2]), chain[-1]
        scale, sign = abs(b[-1]), (b[-1] > 0) - (b[-1] < 0)
        while len(a) >= len(b):
            q, k = sign * a[-1], len(a) - len(b)
            a = [scale * x for x in a]
            for i, y in enumerate(b):
                a[k + i] -= q * y
            while a and a[-1] == 0:
                a.pop()
        if not a:
            break
        g = math.gcd(*a)
        chain.append(tuple(-x // g for x in a))
    return chain


def _variations(values) -> int:
    signs = [(v > 0) - (v < 0) for v in values]
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _variations_at(chain, a: int, e: int) -> int:
    return _variations([_sign_at(c, a, e) for c in chain])


def _variations_at_inf(chain, sign: int) -> int:
    vals = []
    for c in chain:
        lead = c[-1]
        deg = len(c) - 1
        vals.append(lead * sign**deg)
    return _variations(vals)


def _divisors(m: int):
    out = []
    i = 1
    while i * i <= m:
        if m % i == 0:
            out.append(i)
            if i != m // i:
                out.append(m // i)
        i += 1
    return sorted(out)
