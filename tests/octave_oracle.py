"""The former record-scan geometry, kept as an oracle for
approx._octave_candidates: one lattice box per octave [2^j, 2^{j+1}) of q,
with the power-of-two radii 2^{eps_exp - floor(j/n)} of the first n
coordinates (up to 2^{2n-1} times too large in volume, and for n >= 2 the n
boxes of one radius class nested)."""

from fractions import Fraction

from diophlat import latgeo


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
