"""The former root path of numberfield.make_field, kept as an oracle for the
dyadic integer one: a Sturm chain of Fraction coefficients (remainders by
_poly_mod, the former rational remainder of numberfield) evaluated by a
Fraction Horner scheme, Fraction brackets bisected at gcd-normalized
midpoints, and Newton steps on Fractions, each verified by an exact integer
sign test on the lowest-terms numerator and denominator.

Its irreducibility checks are the former ones: a rational root test over the
divisors of c_0 and, for quartics, a search for two monic quadratic factors.
It builds every totally real polynomial of degree 5 or more unchecked;
has_small_factor certifies those that numberfield.make_field rejects."""

import math
from fractions import Fraction

from diophlat.errors import InvalidInput, NotSquarefree, NotTotallyReal, Reducible
from diophlat.exact import _divisors, _poly_derivative
from diophlat.numberfield import MinimalPolynomial, NumberField


def _poly_mod(a, b):
    """Remainder of a by b over the rationals (coefficients ascending, b of
    Fractions), as a list with a nonzero top coefficient or [0]."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while a and a[-1] == 0:
        a.pop()
    while len(a) - 1 >= db:
        da = len(a) - 1
        q = a[-1] / lb
        for i in range(db + 1):
            a[da - db + i] -= q * b[i]
        while a and a[-1] == 0:
            a.pop()
    return a or [Fraction(0)]


def _poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _frac_sign(coeffs, x: Fraction) -> int:
    """Sign of f(x) for integer coefficients, as the sign of the integer
    b^deg f(a/b) with x = a/b and b > 0."""
    a, b = x.numerator, x.denominator
    acc, bk = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * bk
        bk *= b
    return (acc > 0) - (acc < 0)


def _sturm_chain(coeffs):
    chain = [tuple(Fraction(c) for c in coeffs)]
    deriv = _poly_derivative(coeffs)
    if deriv:
        chain.append(tuple(Fraction(c) for c in deriv))
    while len(chain[-1]) > 1:
        rem = _poly_mod(chain[-2], chain[-1])
        if not any(rem):
            break
        chain.append(tuple(-c for c in rem))
    return chain


def _variations(values) -> int:
    signs = [(v > 0) - (v < 0) for v in values]
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _variations_at(chain, x: Fraction) -> int:
    return _variations([_poly_eval(c, x) for c in chain])


def _variations_at_inf(chain, sign: int) -> int:
    vals = []
    for c in chain:
        lead = c[-1]
        deg = len(c) - 1
        vals.append(lead * sign**deg)
    return _variations(vals)


def _count_roots(chain, lo: Fraction, hi: Fraction) -> int:
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def _integer_root_exists(coeffs) -> bool:
    """Rational root test for a monic integer polynomial (roots are integers)."""
    c0 = coeffs[0]
    if c0 == 0:
        return True
    for r in _divisors(abs(c0)):
        for cand in (r, -r):
            if _poly_eval(coeffs, Fraction(cand)) == 0:
                return True
    return False


def _quartic_has_quadratic_factor(coeffs) -> bool:
    """Check for a monic integer quadratic factor of a monic quartic."""
    c0, c1, c2, c3, _ = coeffs
    if c0 == 0:
        return True
    for b in _divisors(abs(c0)):
        for bb in (b, -b):
            e, rem = divmod(c0, bb)
            if rem != 0:
                continue
            # (x^2+ax+bb)(x^2+cx+e): a+c=c3, ac=c2-bb-e, a*e+bb*c=c1
            s = c2 - bb - e
            disc = c3 * c3 - 4 * s
            if disc < 0:
                continue
            r = math.isqrt(disc)
            if r * r != disc:
                continue
            for a in {(c3 + r) // 2, (c3 - r) // 2}:
                c = c3 - a
                if a * c == s and a * e + bb * c == c1:
                    return True
    return False


def has_small_factor(coeffs) -> bool:
    """Whether f has a monic integer factor x + b or x^2 + a x + b, by exact
    division over every candidate: b divides c_0 != 0, and the roots lie below
    the Cauchy bound B in size, so |a| < 2B.  Every reducible f of degree 5
    or less has one."""
    c0 = coeffs[0]
    if c0 == 0:
        return True
    bound = 1 + max(abs(c) for c in coeffs[:-1])
    f = [Fraction(c) for c in coeffs]
    for b in _divisors(abs(c0)):
        for bb in (b, -b):
            for g in [(bb, 1)] + [(bb, a, 1) for a in range(1 - 2 * bound, 2 * bound)]:
                if not any(_poly_mod(f, [Fraction(c) for c in g])):
                    return True
    return False


def make_field(coeffs, precision_bits: int = 192) -> NumberField:
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

    if _integer_root_exists(poly.coeffs):
        raise Reducible(f"{poly.coeffs} has a rational root")
    if poly.degree == 4 and _quartic_has_quadratic_factor(poly.coeffs):
        raise Reducible(f"{poly.coeffs} splits into two monic quadratics")

    isolated = _isolate_roots(poly, chain)
    refined = tuple(_refine_root(poly, lo, hi, precision_bits) for lo, hi in isolated)
    return NumberField(poly, refined, precision_bits)


def _isolate_roots(poly: MinimalPolynomial, chain):
    bound = poly.cauchy_bound()
    queue = [(Fraction(-bound), Fraction(bound))]
    done = []
    while queue:
        lo, hi = queue.pop()
        k = _count_roots(chain, lo, hi)
        if k == 0:
            continue
        if k == 1:
            done.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        # mid cannot be a root: dyadic roots of a monic integer polynomial
        # are integers, excluded by the rational-root check
        queue.append((lo, mid))
        queue.append((mid, hi))
    done.sort()
    return done


def _refine_root(poly: MinimalPolynomial, lo: Fraction, hi: Fraction, bits: int):
    """Shrink a bracketing interval below 2**-bits.

    Bisection with exact integer sign tests carries the bracket to ~48 bits;
    Newton steps (rounded back to dyadics) finish, each verified by an exact
    sign change before the bracket is accepted; the rounding precision grows
    only with an accepted step.
    """
    coeffs = poly.coeffs
    dcoeffs = _poly_derivative(coeffs)
    target = Fraction(1, 2 ** (bits + 4))

    sign_lo = _frac_sign(coeffs, lo)

    def bisect_until(a, b, sa, width):
        while b - a > width:
            m = (a + b) / 2
            sm = _frac_sign(coeffs, m)
            if sm == sa:
                a = m
            else:
                b = m
        return a, b

    lo, hi = bisect_until(lo, hi, sign_lo, Fraction(1, 2**48))
    acc = 48
    x = (lo + hi) / 2
    while hi - lo > target:
        fx = _poly_eval(coeffs, x)
        dfx = _poly_eval(dcoeffs, x)
        if dfx == 0:
            lo, hi = bisect_until(lo, hi, _frac_sign(coeffs, lo), (hi - lo) / 4)
            x = (lo + hi) / 2
            continue
        step = fx / dfx
        nacc = min(2 * acc - 4, bits + 8)
        scale = 2**nacc
        xn = Fraction(round((x - step) * scale), scale)
        w = Fraction(1, 2 ** (nacc - 2))
        a, b = xn - w, xn + w
        if lo <= a and b <= hi and _frac_sign(coeffs, a) * _frac_sign(coeffs, b) < 0:
            lo, hi = a, b
            x, acc = xn, nacc
        else:
            lo, hi = bisect_until(lo, hi, _frac_sign(coeffs, lo), (hi - lo) / 4)
            x = (lo + hi) / 2
    return lo, hi
