"""Totally real fields from monic integer polynomials, with certified embeddings.

A field is presented by its minimal polynomial; roots are isolated with an
integral Sturm chain and refined to dyadic intervals, each kept as integer
numerators over its own power of two.  Tuples are powers of the largest
root, and the embedding matrix is kept in integer fixed point (mantissa at
scale 2**-frac_bits plus an error bound in ulps) so that fractional parts of
k*alpha stay certified for k far beyond what float64 can carry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InvalidInput,
    NotPrime,
    NotSquarefree,
    NotTotallyReal,
    PrecisionExhausted,
    Reducible,
)
from .exact import (_poly_derivative, _scaled_eval, _sign_at, _sturm_chain,
                    _variations_at, _variations_at_inf)

# Displacements from _nearest (and frac_nearest) are certified to 2**-DISP_CERT_BITS.
DISP_CERT_BITS = 64

DEFAULT_PRECISION_BITS = 192


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimalPolynomial:
    """Monic integer polynomial, coefficients c_0..c_d with c_d = 1."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 3:
            raise InvalidInput("degree must be at least 2")
        if coeffs[-1] != 1:
            raise InvalidInput("polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def cauchy_bound(self) -> int:
        return 1 + max(abs(c) for c in self.coeffs[:-1])


@dataclass(frozen=True)
class NumberField:
    """A totally real field, its polynomial irreducible, with isolated,
    refined real root intervals.

    roots are disjoint dyadic intervals in ascending order; each has a strict
    sign change and width at most 2**-precision_bits.
    """

    polynomial: MinimalPolynomial
    roots: tuple[tuple[Fraction, Fraction], ...]
    precision_bits: int

    @property
    def degree(self) -> int:
        return self.polynomial.degree

    def root_floats(self) -> tuple[float, ...]:
        return tuple(float((lo + hi) / 2) for lo, hi in self.roots)


@dataclass(frozen=True)
class AlgebraicTuple:
    """Powers of the largest root, with fixed-point embedding matrix.

    embed row j, column i holds sigma_j(alpha_i) as an integer mantissa at
    scale 2**-frac_bits; embed_err[j][i] bounds the error in ulps.  Row j is
    at field.roots[j]: the designated embedding (the largest root) is last,
    where the flow a(t) contracts.  Column 0 is exactly one.
    """

    field: NumberField
    n: int
    embed_mantissa: tuple[tuple[int, ...], ...]
    embed_err_ulps: tuple[tuple[int, ...], ...]
    frac_bits: int

    @property
    def dim(self) -> int:
        return self.n + 1

    def embed_floats(self) -> np.ndarray:
        scale = 1 << self.frac_bits
        return np.array([[m / scale for m in row] for row in self.embed_mantissa])

    def alpha_mantissas(self) -> tuple[int, ...]:
        return self.embed_mantissa[-1][1:]

    def alpha_floats(self) -> tuple[float, ...]:
        scale = 1 << self.frac_bits
        return tuple(m / scale for m in self.alpha_mantissas())

    def max_err_ulps(self) -> int:
        return max(max(row) for row in self.embed_err_ulps)


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------


def make_field(coeffs, precision_bits: int = DEFAULT_PRECISION_BITS) -> NumberField:
    """Build a totally real field from monic integer coefficients (c_0 first).

    Raises NotSquarefree, NotTotallyReal or, at any degree, Reducible, in
    this order, when the polynomial is unsuitable.  Roots come back as
    disjoint dyadic intervals of width at most 2**-precision_bits with a
    verified sign change at the endpoints.
    """
    poly = coeffs if isinstance(coeffs, MinimalPolynomial) else MinimalPolynomial(tuple(coeffs))
    if precision_bits < 64:
        raise InvalidInput("precision_bits must be at least 64")

    chain = _sturm_chain(poly.coeffs)
    # gcd(f, f') trivial iff the sturm chain terminates in a nonzero constant
    if len(chain[-1]) > 1:
        raise NotSquarefree(f"{poly.coeffs} shares a factor with its derivative")

    total = _variations_at_inf(chain, -1) - _variations_at_inf(chain, 1)
    if total != poly.degree:
        raise NotTotallyReal(
            f"{poly.coeffs} has {total} real roots, needs {poly.degree}"
        )

    isolated = _isolate_roots(poly, chain)
    refined = [_refine_root(poly, lo, hi, e, precision_bits) for lo, hi, e in isolated]
    # the factor test needs m (B + 2)**(m - 1) < 2**bits for m <= d/2;
    # narrower brackets serve it alone, so the roots stay those of the field
    h = poly.degree // 2
    test_bits = (h * (poly.cauchy_bound() + 2) ** (h - 1)).bit_length()
    _raise_if_factor(poly, refined if test_bits <= precision_bits else
                     [_refine_root(poly, lo, hi, e, test_bits) for lo, hi, e in isolated])
    return NumberField(poly, tuple((Fraction(lo, 1 << e), Fraction(hi, 1 << e))
                                   for lo, hi, e in refined), precision_bits)


def _raise_if_factor(poly: MinimalPolynomial, brackets):
    """Raise Reducible if f has a monic integer factor g, by exact division.

    f reducible has one of degree m <= d/2, prod(x - r) over m roots (Cohen,
    A Course in Computational Algebraic Number Theory, ch. 3).  With |r| < B,
    the Cauchy bound, and brackets (lo / 2**e, hi / 2**e] of width 2**-b, the
    product over their midpoints is within m (B + 2)**(m - 1) 2**-(b + 1) of
    g in each coefficient: below 1/2, rounding gives g.
    """
    f, s = poly.coeffs, max(e for _, _, e in brackets) + 1
    mids = [(lo + hi) << (s - e - 1) for lo, hi, e in brackets]
    for m in range(1, poly.degree // 2 + 1):
        for sub in itertools.combinations(mids, m):
            p = [1]
            for r in sub:
                p = [a - r * b for a, b in zip([0] + p, p + [0])]
            # the coefficient of x**j is p_j / 2**(s (m - j)), rounded
            g = [(2 * c + (1 << t)) >> (t + 1) for c, t in zip(p, range(s * m, -1, -s))]
            rem = list(f)
            for k in range(len(f) - 1, m - 1, -1):
                rem[k - m:k + 1] = [a - rem[k] * b for a, b in zip(rem[k - m:k + 1], g)]
            if not any(rem):
                raise Reducible(f"{f} has the monic factor {tuple(g)} (c_0 first)")


def _isolate_roots(poly: MinimalPolynomial, chain):
    """Brackets (lo, hi, e) in ascending order: the interval
    (lo / 2**e, hi / 2**e] holds exactly one root.  Each bracket carries its
    own exponent, since close roots separate far below the Cauchy bound."""
    bound = poly.cauchy_bound()
    queue = [(-bound, bound, 0,
              _variations_at(chain, -bound, 0), _variations_at(chain, bound, 0))]
    done = []
    while queue:
        lo, hi, e, vlo, vhi = queue.pop()
        k = vlo - vhi
        if k == 0:
            continue
        if k == 1:
            done.append((lo, hi, e))
            continue
        # a dyadic root of a monic integer polynomial is an integer r,
        # hence the factor x - r
        mid = lo + hi
        if _sign_at(poly.coeffs, mid, e + 1) == 0:
            raise Reducible(f"{poly.coeffs} has the root {Fraction(mid, 1 << e + 1)}")
        vmid = _variations_at(chain, mid, e + 1)
        queue.append((2 * lo, mid, e + 1, vlo, vmid))
        queue.append((mid, 2 * hi, e + 1, vmid, vhi))
    done.sort(key=lambda b: Fraction(b[0], 1 << b[2]))
    return done


def _refine_root(poly: MinimalPolynomial, lo: int, hi: int, e: int, bits: int):
    """Shrink the bracket (lo / 2**e, hi / 2**e) below 2**-bits; returns
    the narrower bracket (lo, hi, e).

    Bisection carries the bracket to 2**-48; Newton steps rounded to
    2**-nacc finish (nacc = 2 acc - 4, acc that of the last kept step), each
    kept only if the bracket of half width 2**(2 - nacc) around it lies in
    the current one with a sign change, else two bisections follow.  The
    root is simple and alone in the bracket: f has lo's sign left of it.
    """
    coeffs = poly.coeffs
    dcoeffs = _poly_derivative(coeffs)
    sign_lo = _sign_at(coeffs, lo, e)

    def halve(lo, hi, e):
        mid = lo + hi
        if _sign_at(coeffs, mid, e + 1) == sign_lo:
            return mid, 2 * hi, e + 1
        return 2 * lo, mid, e + 1

    while (hi - lo) << 48 > 1 << e:
        lo, hi, e = halve(lo, hi, e)
    acc = 48
    x, s = lo + hi, e + 1
    while (hi - lo) << (bits + 4) > 1 << e:
        fx = _scaled_eval(coeffs, x, s)
        dfx = _scaled_eval(dcoeffs, x, s)
        if dfx:
            nacc = min(2 * acc - 4, bits + 8)
            # x - f(x)/f'(x) = (x dfx - fx) / (dfx 2**s), rounded half-even to 2**-nacc
            xn = round(Fraction((x * dfx - fx) << nacc, dfx << s))
            a, b = xn - 4, xn + 4
            if (lo << nacc <= a << e and b << e <= hi << nacc
                    and _sign_at(coeffs, a, nacc) == sign_lo != _sign_at(coeffs, b, nacc)):
                lo, hi, e = a, b, nacc
                x, s, acc = xn, nacc, nacc
                continue
        lo, hi, e = halve(*halve(lo, hi, e))
        x, s = lo + hi, e + 1
    return lo, hi, e


# ---------------------------------------------------------------------------
# tuples and fixed-point embedding
# ---------------------------------------------------------------------------


def _fx_mul(m1: int, e1: int, m2: int, e2: int, bits: int):
    """Multiply two fixed-point values with error bounds in ulps."""
    half = 1 << (bits - 1)
    m = (m1 * m2 + half) >> bits
    err = ((abs(m1) * e2 + abs(m2) * e1 + e1 * e2) >> bits) + 2
    return m, err


def power_tuple(field: NumberField) -> AlgebraicTuple:
    """Tuple (theta, theta^2, ..., theta^n) for theta the largest root, row j at field.roots[j]."""
    d = field.degree
    n = d - 1
    bits = field.precision_bits
    scale = 1 << bits

    mant_rows, err_rows = [], []
    for lo, hi in field.roots:
        mid = (lo + hi) / 2
        m0 = round(mid * scale)
        e0 = int((hi - lo) / 2 * scale) + 2
        mant, errs = [scale], [0]
        m, e = m0, e0
        mant.append(m)
        errs.append(e)
        for _ in range(2, n + 1):
            m, e = _fx_mul(m, e, m0, e0, bits)
            mant.append(m)
            errs.append(e)
        mant_rows.append(tuple(mant))
        err_rows.append(tuple(errs))

    return AlgebraicTuple(
        field=field,
        n=n,
        embed_mantissa=tuple(mant_rows),
        embed_err_ulps=tuple(err_rows),
        frac_bits=bits,
    )


def _nearest(tup: AlgebraicTuple, k: int):
    """Nearest integer vector to k*alpha on the fixed-point mantissas.

    Returns (pvec, disp, dmax): disp holds the signed displacements as
    integers at scale 2**-frac_bits, in [-1/2, 1/2), and dmax is their
    largest absolute value, certified to 2**-64.
    """
    if k < 1:
        raise ValueError("k must be positive")
    bits = tup.frac_bits
    if k * max(tup.max_err_ulps(), 1) >= 1 << (bits - DISP_CERT_BITS):
        raise PrecisionExhausted(
            f"k={k} exceeds the certified range at {bits} fraction bits"
        )
    half = 1 << (bits - 1)
    ts = [k * m for m in tup.alpha_mantissas()]
    pvec = tuple((t + half) >> bits for t in ts)
    disp = tuple(t - (p << bits) for t, p in zip(ts, pvec))
    return pvec, disp, max(abs(x) for x in disp)


def frac_nearest(tup: AlgebraicTuple, k: int):
    """Nearest integer vector to k*alpha with signed displacements.

    Returns (pvec, dispvec, delta) with dispvec exact dyadic Fractions in
    [-1/2, 1/2) and delta their max absolute value, certified to 2**-64.
    """
    pvec, disp, dmax = _nearest(tup, k)
    scale = 1 << tup.frac_bits
    return pvec, tuple(Fraction(x, scale) for x in disp), Fraction(dmax, scale)


def is_prime(p: int) -> bool:
    """Primality of p < 2**64 (InvalidInput beyond): trial division by the
    first twelve primes, then strong probable-prime tests to them as bases,
    which decide every p < 3.18e23 (Sorenson and Webster, Math. Comp. 2017)."""
    if p >= 1 << 64:
        raise InvalidInput(f"p = {p} is not below 2^64")
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % a == 0 for a in small):
        return p in small
    s = ((p - 1) & -(p - 1)).bit_length() - 1
    # p - 1 = 2**s d with d odd: a**d = 1, or a**(2**j d) = -1 for a j < s
    d = (p - 1) >> s
    return all(pow(a, d, p) == 1 or any(pow(a, d << j, p) == p - 1 for j in range(s))
               for a in small)


def padic_valuation(k: int, p: int) -> int:
    if k < 1 or p < 2:
        raise ValueError(f"the p-adic valuation needs k >= 1 and p >= 2, not k={k}, p={p}")
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


def padic_norm(k: int, p: int) -> Fraction:
    """|k|_p = p**-v for v the largest power of p dividing k."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return Fraction(1, p ** padic_valuation(k, p))
