"""The n = 1 oracle for records and minima without a lattice: the periodic
continued fraction of a real quadratic irrational.

For eps <= 1/2, Legendre's theorem makes every primitive (p, q) with
q ||q beta|| < eps a convergent of beta.  A k = p^v k' (p not dividing k')
that improves the running minimum of k' ||k' p^v alpha|| has a value below
1/2, the value of k = 1, and a primitive k' does better than its multiples,
so k' is a convergent denominator of p^v alpha.  For beta = (P + sqrt D)/Q
with Q | D - P^2 the complete quotients stay of that form, and the integer
recurrence a = floor((P + sqrt D)/Q), P' = aQ - P, Q' = (D - P'^2)/Q gives
the partial quotients exactly (Perron, Die Lehre von den Kettenbruechen;
Jacobson and Williams, Solving the Pell Equation, 2009)."""

import math
from fractions import Fraction


def quadratic(coeffs, alpha: float, m: int = 1):
    """(P, D, Q) with m alpha = (P + sqrt D)/Q and Q | D - P^2, alpha the
    root of x^2 + b x + c (coeffs [c, b, 1]) nearest the float alpha."""
    c, b, one = coeffs
    assert one == 1
    disc = b * b - 4 * c
    root = math.sqrt(disc)
    sign = 1 if abs(-b + root - 2 * alpha) < abs(-b - root - 2 * alpha) else -1
    # m alpha = (-m b + sign m sqrt disc) / 2, and (-m b)^2 - m^2 disc = 4 m^2 c
    return -sign * m * b, m * m * disc, 2 * sign


def denominators(P: int, D: int, Q: int, limit: int):
    """The distinct convergent denominators q_0 = 1, q_1, ... of
    (P + sqrt D)/Q up to limit, ascending (q_1 = q_0 when a_1 = 1)."""
    r = math.isqrt(D)

    def step(P, Q):
        # floor((P + sqrt D)/Q) with r < sqrt D < r + 1: for Q < 0 the
        # quotient lies just above (P + r + 1)/Q, with no integer between
        a = (P + r + (Q < 0)) // Q
        P = a * Q - P
        return a, P, (D - P * P) // Q

    _, P, Q = step(P, Q)  # a_0 moves the numerators only
    out, q_prev, q = [1], 0, 1
    while True:
        a, P, Q = step(P, Q)
        q_prev, q = q, a * q + q_prev
        if q > limit:
            return out
        if q != out[-1]:
            out.append(q)


def scaled_distance(P: int, D: int, Q: int, k: int) -> float:
    """k ||k (P + sqrt D)/Q||, from one isqrt at 2 bits(k) + 64 fractional
    bits: the truncation moves k ||.|| by at most k 2^-s / |Q|, far below
    1e-12 of a value of at least about 1 / (a_{j+1} + 2)."""
    s = 2 * k.bit_length() + 64
    num = (k * P << s) + math.isqrt(D * k * k << 2 * s)
    den = abs(Q) << s
    if Q < 0:
        num = -num
    rem = num % den
    return float(Fraction(k * min(rem, den - rem), den))


def record_minima(coeffs, alpha: float, p: int, K: int):
    """The running minima of (k |k|_p) ||k alpha|| over k <= K, as
    approx.record_minima lists them."""
    cands = []
    pv = 1
    while pv <= K:
        P, D, Q = quadratic(coeffs, alpha, pv)
        cands += [(pv * kp, scaled_distance(P, D, Q, kp))
                  for kp in denominators(P, D, Q, K // pv) if kp % p]
        pv *= p
    best, out = math.inf, []
    for k, val in sorted(cands):
        if val < best:
            best = val
            out.append((k, val))
    return out


def scaled_minimum(coeffs, alpha: float, ell: int, K: int):
    """(min, argmin) of k ||k ell alpha|| over k <= K, as
    approx.scaled_minima returns it."""
    P, D, Q = quadratic(coeffs, alpha, ell)
    return min((scaled_distance(P, D, Q, k), k) for k in denominators(P, D, Q, K))


def records(coeffs, alpha: float, ell: int, eps: float, qmax: int):
    """The q <= qmax of the records of ell alpha: the convergent
    denominators with q ||q ell alpha|| < eps."""
    P, D, Q = quadratic(coeffs, alpha, ell)
    return [q for q in denominators(P, D, Q, qmax) if scaled_distance(P, D, Q, q) < eps]
