"""The former record-scan geometry, kept as an oracle for
approx._octave_candidates: one lattice box per octave [2^j, 2^{j+1}) of q,
with the power-of-two radii 2^{eps_exp - floor(j/n)} of the first n
coordinates (up to 2^{2n-1} times too large in volume, and for n >= 2 the n
boxes of one radius class nested).  Also the former octave boxes of
approx._octave_candidates, each point tested exactly with no float screen
(unscreened_candidates), and that exact test on the points of the batch
(exact_prefilter)."""

from fractions import Fraction

import numpy as np

from diophlat import approx, latgeo


def per_octave_candidates(tup, ell, eps, qmax):
    """Candidate q values from one box per octave of q, for eps <= 1.

    Octave j builds its box from ell*alpha rounded to
    b_j = min(frac_bits, j + 1 + j//n - eps_exp + 41) fractional bits, which
    moves a point with q < 2^{j+1} by at most 2^-42 of the box radius, and
    is reduced once, from the transform of the octave before.
    """
    n = tup.n
    d = tup.dim
    bits = tup.frac_bits
    num, den = eps.as_integer_ratio()  # eps_exp = ceil(log2 eps), exactly
    eps_exp = (num - 1).bit_length() - den.bit_length() + 1
    mant = [ell * m for m in tup.alpha_mantissas()]
    T = None
    qs = set()
    for j in range(qmax.bit_length()):
        b = min(bits, j + 1 + j // n - eps_exp + 41)
        sh = bits - b
        u = [[(1 << b) * (i == k) for k in range(d)] for i in range(d)]
        for i, m in enumerate(mant):
            u[i][n] = (m + (1 << sh >> 1)) >> sh
        radii = [Fraction(1, 1 << (j // n - eps_exp))] * n + [2 ** (j + 1)]
        T, coeffs = latgeo._box_coeffs(u, b, radii, start=T)
        qs.update(q for q in (abs(m[-1]) for m in coeffs) if 1 <= q <= qmax)
    return sorted(qs)


def unscreened_candidates(tup, ell, eps, qmax):
    """The former approx._octave_candidates: the same boxes, reduced and
    enumerated one at a time, and every point of every box through the
    exact test at the box's precision, with no float screen before it."""
    n = tup.n
    d = tup.dim
    bits = tup.frac_bits
    eps_pow = Fraction(eps) ** n
    mant = [ell * m for m in tup.alpha_mantissas()]
    w = approx.OCTAVES_PER_BOX
    T = None
    qs = set()
    for a in range(0, qmax.bit_length(), w):
        top = min(a + w, qmax.bit_length())
        r = approx._tight_radius(eps, n, a)
        e = r.numerator.bit_length() - r.denominator.bit_length() + 1
        b = min(bits, top - e + 42)
        sh = bits - b
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


def exact_prefilter(C, owner, boxes, octaves, eps, n):
    """Mask of the points c = C[p] of boxes[owner[p]] (approx._octave_boxes)
    that pass the exact test at their box's precision, each evaluated on
    its own."""
    eps_pow = Fraction(eps) ** n
    keep = []
    for c, k in zip(C.tolist(), owner.tolist()):
        a, hi, b = octaves[k]
        X = [sum(ci * Rk[i] for ci, Rk in zip(c, boxes[k][1])) for i in range(n + 1)]
        q = abs(X[n]) >> b
        keep.append(1 << a <= q <= hi and q * max(2 * max(abs(x) for x in X[:n]) - q, 0) ** n
                    * eps_pow.denominator < eps_pow.numerator << ((b + 1) * n))
    return np.array(keep, dtype=bool)
