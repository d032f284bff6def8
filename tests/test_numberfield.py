import random
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

import diophlat as dl
from diophlat import exact
from diophlat.errors import (
    InvalidInput,
    NotPrime,
    NotSquarefree,
    NotTotallyReal,
    PrecisionExhausted,
    Reducible,
)
from diophlat.numberfield import is_prime, padic_valuation

import field_oracle
from conftest import CUBIC_COEFFS, CYCLIC_QUARTIC_COEFFS, PHI_COEFFS, QUARTIC_COEFFS
from field_oracle import _poly_eval


def bisection_root(coeffs, lo, hi, bits):
    """Independent refinement oracle: pure dyadic bisection with exact signs."""

    def sgn(x):
        v = sum(Fraction(c) * x**i for i, c in enumerate(coeffs))
        return (v > 0) - (v < 0)

    lo, hi = Fraction(lo), Fraction(hi)
    s_lo = sgn(lo)
    assert s_lo * sgn(hi) < 0
    while hi - lo > Fraction(1, 2**bits):
        mid = (lo + hi) / 2
        if sgn(mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestMakeField:
    def test_golden_roots_match_bisection_oracle(self, phi_field):
        want = [bisection_root([-1, -1, 1], -1, 0, 100), bisection_root([-1, -1, 1], 1, 2, 100)]
        got = phi_field.root_floats()
        assert abs(got[0] - float(want[0])) < 1e-25 + 1e-15
        assert abs(got[1] - float(want[1])) < 1e-15
        assert abs(got[0] - -0.6180339887) < 1e-9
        assert abs(got[1] - 1.6180339887) < 1e-9

    def test_cubic_roots_match_bisection_oracle(self, cubic_field):
        coeffs = [-1, -3, 0, 1]
        brackets = [(-2, -1), (-1, 0), (1, 2)]
        want = [float(bisection_root(coeffs, a, b, 100)) for a, b in brackets]
        got = cubic_field.root_floats()
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-14
        assert abs(got[0] - -1.5320888862) < 1e-9
        assert abs(got[1] - -0.3472963553) < 1e-9
        assert abs(got[2] - 1.8793852416) < 1e-9

    def test_complex_polynomial_rejected(self):
        with pytest.raises(NotTotallyReal):
            dl.make_field([1, 0, 1])

    def test_square_factor_rejected(self):
        with pytest.raises(NotSquarefree):
            dl.make_field([1, -2, 1])  # (x-1)^2

    def test_rational_root_rejected(self):
        with pytest.raises(Reducible):
            dl.make_field([-2, 1, 1])  # (x+2)(x-1)

    def test_quartic_quadratic_factor_rejected(self):
        # (x^2-2)(x^2-3) = x^4 - 5x^2 + 6, totally real but reducible
        with pytest.raises(Reducible):
            dl.make_field([6, 0, -5, 0, 1])

    def test_degree_five_builds_with_no_warning(self):
        # x^5 - 5x^3 + 4x - 1 is totally real and irreducible, which the
        # factor test decides at every degree
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = dl.make_field([-1, 4, 0, -5, 0, 1], 128)
        assert len(field.roots) == 5

    def test_root_certificates(self, phi_field, cubic_field):
        for field in (phi_field, cubic_field):
            poly = field.polynomial
            prev_hi = None
            for lo, hi in field.roots:
                assert _poly_eval(poly.coeffs, lo) * _poly_eval(poly.coeffs, hi) < 0
                assert hi - lo <= Fraction(1, 2**field.precision_bits)
                if prev_hi is not None:
                    assert lo > prev_hi
                prev_hi = hi


def outcome(build, coeffs, bits):
    """Roots of build(coeffs, bits), or the type of the error it raises."""
    try:
        return build(coeffs, bits).roots
    except (NotSquarefree, Reducible, NotTotallyReal) as exc:
        return type(exc)


def mignotte(d, a):
    """x^d - 2(ax - 1)^2: two roots within about a**(-(d+2)/2) of 1/a."""
    return [-2, 4 * a, -2 * a * a] + [0] * (d - 3) + [1]


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@st.composite
def totally_real_polys(draw, low=2, high=5):
    """prod(x - r_i) + c of degree low to high, with roots at least 3 apart
    and |c| <= 2: the product is at least 2.25 in size halfway between
    neighbouring roots and 1.5 away from the outer ones, so f keeps its d
    sign changes."""
    d = draw(st.integers(low, high))
    roots = [draw(st.integers(-30, 30))]
    for _ in range(d - 1):
        roots.append(roots[-1] + draw(st.integers(3, 60)))
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    coeffs[0] += draw(st.sampled_from([-2, -1, 1, 2]))
    return coeffs


class TestIntegerSignTests:
    """The dyadic integer root path against the former Fraction path."""

    @pytest.mark.parametrize("coeffs", [[-1, -1, 1], [-1, -3, 0, 1], [1, -4, -1, 4, 1],
                                        [1, 1, -4, -4, 1], [-1, -100003, -100000, 1]])
    @pytest.mark.parametrize("bits", [64, 192, 1024, 2048])
    def test_roots_match_fraction_path(self, coeffs, bits):
        assert dl.make_field(coeffs, bits).roots == field_oracle.make_field(coeffs, bits).roots

    # close root pairs: rejected Newton steps, and isolation about 100 bits
    # below the Cauchy bound for a = 10^6 and 10^9
    @pytest.mark.parametrize("a", [10, 10**3, 10**6, 10**9])
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("bits", [64, 192, 1024])
    def test_mignotte_roots_match_fraction_path(self, d, a, bits):
        coeffs = mignotte(d, a)
        assert dl.make_field(coeffs, bits).roots == field_oracle.make_field(coeffs, bits).roots

    def test_rejected_newton_steps_keep_their_precision(self, monkeypatch):
        # a rejected Newton step keeps the rounding precision, so the close
        # root pair of x^3 - 2(10x - 1)^2 finishes by Newton steps; raising it
        # on every step left 1723 sign tests at 1024 bits, mostly bisection
        calls = []
        sign_at = exact._sign_at

        def counting(*args):
            calls.append(args)
            return sign_at(*args)

        # isolation looks _sign_at up in exact (_variations_at), refinement in
        # numberfield, so both sign tests are counted
        monkeypatch.setattr(exact, "_sign_at", counting)
        monkeypatch.setattr(dl.numberfield, "_sign_at", counting)
        dl.make_field(mignotte(3, 10), 1024)
        assert len(calls) <= 400

    @given(totally_real_polys(), st.sampled_from([64, 192, 1024]))
    def test_totally_real_sweep_matches_fraction_path(self, coeffs, bits):
        got = outcome(dl.make_field, coeffs, bits)
        assert got == outcome(field_oracle.make_field, coeffs, bits)
        assert got is Reducible or len(got) == len(coeffs) - 1

    @given(st.lists(st.integers(-12, 12), min_size=2, max_size=5))
    @example([2, 6, -1, -5, 0])  # (x^2 - 2)(x^3 - 3x - 1)
    def test_errors_match_fraction_path(self, low):
        # the oracle builds quintics unchecked: where the factor test rejects
        # one, an exact monic factor certifies it
        coeffs = low + [1]
        got, want = outcome(dl.make_field, coeffs, 64), outcome(field_oracle.make_field, coeffs, 64)
        if got is Reducible and len(coeffs) == 6 and isinstance(want, tuple):
            assert field_oracle.has_small_factor(coeffs)
        else:
            assert got == want

    @given(st.lists(st.integers(-12, 12), min_size=2, max_size=5))
    def test_sturm_chain_is_positive_multiples_of_the_rational_one(self, low):
        # pseudo-remainders with their content divided out keep every sign
        coeffs = low + [1]
        got, want = exact._sturm_chain(coeffs), field_oracle._sturm_chain(coeffs)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            ratio = g[-1] / w[-1]
            assert ratio > 0 and list(g) == [ratio * y for y in w]


@st.composite
def reducible_polys(draw):
    """Squarefree products of 2 or 3 totally real monic integer factors, each
    of degree 1 to 3, of total degree at most 8."""
    degrees = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)
                   .filter(lambda ds: sum(ds) <= 8))
    f = [1]
    for k in degrees:
        f = poly_mul(f, draw(totally_real_polys(k, k)))
    assume(len(exact._sturm_chain(f)[-1]) == 1)
    return f


class TestFactorTest:
    """make_field decides irreducibility at every degree: one exact division
    per subset of at most d/2 roots."""

    @given(reducible_polys())
    def test_products_of_totally_real_factors(self, coeffs):
        for bits in (64, 192):
            with pytest.raises(Reducible):
                dl.make_field(coeffs, bits)

    @pytest.mark.parametrize("coeffs", [
        [6, 0, -5, 0, 1],  # (x^2 - 2)(x^2 - 3)
        [2, 6, -1, -5, 0, 1],  # (x^2 - 2)(x^3 - 3x - 1)
        [-1, 0, 9, 0, -6, 0, 1],  # (x^3 - 3x - 1)(x^3 - 3x + 1)
        # (x^2 - 2^200 - 1)(x^2 - 2^202 - 1): 64-bit brackets leave the
        # products of the roots +-2^100 and of the roots +-2^101 in doubt, so
        # the test refines its own to 404 bits
        [(2**200 + 1) * (2**202 + 1), 0, -2**200 - 2**202 - 2, 0, 1],
    ])
    @pytest.mark.parametrize("bits", [64, 192, 1024])
    def test_named_products(self, coeffs, bits):
        with pytest.raises(Reducible):
            dl.make_field(coeffs, bits)

    def test_wide_quartic_refines_further_for_the_test_alone(self, monkeypatch):
        # x^4 - 2^63 x^2 + 1 is irreducible; 2 (B + 2) passes 2^64, so the
        # test reads brackets refined to 65 bits, narrower than the roots,
        # and the field keeps the 64-bit roots of the Fraction path
        coeffs = [1, 0, -2**63, 0, 1]
        seen = []
        test = dl.numberfield._raise_if_factor
        monkeypatch.setattr(dl.numberfield, "_raise_if_factor",
                            lambda poly, brackets: seen.append(brackets) or test(poly, brackets))
        field = dl.make_field(coeffs, 64)
        assert field.roots == field_oracle.make_field(coeffs, 64).roots
        assert all(Fraction(hi - lo, 1 << e) < b - a for (lo, hi, e), (a, b) in zip(seen[0], field.roots))

    def test_huge_constant_terms_decide_at_once(self):
        # a divisor loop over c_0 took seconds at 10^16, and minutes beyond
        t0 = time.perf_counter()
        assert len(dl.make_field([-10**22, -1, 1]).roots) == 2
        assert time.perf_counter() - t0 < 0.1
        t0 = time.perf_counter()
        with pytest.raises(NotTotallyReal):
            dl.make_field([10**22, 0, 1])
        assert time.perf_counter() - t0 < 0.1


class TestPowerTuple:
    def test_phi_tuple(self, phi_tuple):
        assert phi_tuple.n == 1
        assert abs(phi_tuple.alpha_floats()[0] - 1.6180339887) < 1e-9

    def test_cubic_tuple_is_powers_of_largest_root(self, cubic_tuple):
        a1, a2 = cubic_tuple.alpha_floats()
        assert abs(a1 - 1.8793852416) < 1e-9
        assert abs(a2 - 3.5320888862) < 1e-9
        assert abs(a2 - a1 * a1) < 1e-15

    def test_embed_column_zero_is_ones(self, phi_tuple, cubic_tuple):
        for tup in (phi_tuple, cubic_tuple):
            emb = tup.embed_floats()
            assert all(x == 1.0 for x in emb[:, 0])

    @pytest.mark.parametrize("coeffs", [[-1, -3, 0, 1], [1, -4, -1, 4, 1]])
    def test_embed_floats_correctly_rounded(self, coeffs):
        # mantissas below and above 2**970, where ldexp(float(m)) would overflow
        sizes = set()
        for bits in (64, 1024, 4096):
            tup = dl.power_tuple(dl.make_field(coeffs, bits))
            want = [[float(Fraction(m, 2**bits)) for m in row] for row in tup.embed_mantissa]
            assert tup.embed_floats().tolist() == want
            sizes |= {abs(m) < 2**970 for row in tup.embed_mantissa for m in row}
        assert sizes == {True, False}

    def test_embed_row_one_is_designated_values(self, cubic_tuple):
        emb = cubic_tuple.embed_floats()
        for i, a in enumerate(cubic_tuple.alpha_floats()):
            assert abs(emb[-1, i + 1] - a) < 1e-15

    @pytest.mark.parametrize("bits", [192, 1024])
    @pytest.mark.parametrize("coeffs", [PHI_COEFFS, CUBIC_COEFFS, QUARTIC_COEFFS,
                                        CYCLIC_QUARTIC_COEFFS],
                             ids=["phi", "cubic", "quartic", "cyclic_quartic"])
    def test_row_j_is_at_root_j(self, coeffs, bits):
        # one row order from the field on: row j embeds at field.roots[j]
        tup = dl.power_tuple(dl.make_field(coeffs, bits))
        scale = 1 << tup.frac_bits
        assert len(tup.embed_mantissa) == len(tup.field.roots)
        for (lo, hi), row, err in zip(tup.field.roots, tup.embed_mantissa, tup.embed_err_ulps):
            assert lo * scale - err[1] <= row[1] <= hi * scale + err[1]

    def test_embed_error_bound_invariant(self, phi_tuple, cubic_tuple):
        for tup in (phi_tuple, cubic_tuple):
            assert tup.max_err_ulps() <= 2 ** (tup.frac_bits / 2)

    def test_conjugate_product_is_constant_term(self, phi_tuple, cubic_tuple):
        for tup in (phi_tuple, cubic_tuple):
            d = tup.dim
            emb = tup.embed_floats()
            prod = 1.0
            for j in range(d):
                prod *= emb[j, 1]
            c0 = tup.field.polynomial.coeffs[0]
            assert abs(prod - (-1) ** d * c0) < 1e-12


class TestFracNearest:
    def test_known_displacements(self, phi_tuple):
        p, disp, delta = dl.frac_nearest(phi_tuple, 1)
        assert p == (2,)
        assert abs(float(disp[0]) - -0.3819660113) < 1e-10
        p, disp, delta = dl.frac_nearest(phi_tuple, 5)
        assert p == (8,)
        assert abs(float(disp[0]) - 0.0901699437) < 1e-10
        p, disp, delta = dl.frac_nearest(phi_tuple, 8)
        assert p == (13,)
        assert abs(float(disp[0]) - -0.0557280900) < 1e-10
        # Fibonacci identity |F_6 phi - F_7| = phi^-6
        phi = (1 + 5**0.5) / 2
        assert abs(float(delta) - phi**-6) < 1e-12

    def test_disp_in_halfopen_interval(self, cubic_tuple):
        for k in (1, 7, 103, 4096):
            _, disp, delta = dl.frac_nearest(cubic_tuple, k)
            for x in disp:
                assert Fraction(-1, 2) <= x < Fraction(1, 2)
            assert delta == max(abs(x) for x in disp)

    def test_agrees_with_doubled_precision_oracle(self, phi_tuple, phi_tuple_hi, cubic_tuple, cubic_tuple_hi):
        rng = random.Random(7)
        tol = Fraction(1, 2**64)
        for tup, hi in ((phi_tuple, phi_tuple_hi), (cubic_tuple, cubic_tuple_hi)):
            for _ in range(200):
                k = rng.randrange(1, 10**6)
                p1, d1, delta1 = dl.frac_nearest(tup, k)
                p2, d2, delta2 = dl.frac_nearest(hi, k)
                assert p1 == p2
                for a, b in zip(d1, d2):
                    assert abs(a - b) <= tol
                assert abs(delta1 - delta2) <= tol

    def test_precision_guard(self, phi_tuple):
        with pytest.raises(PrecisionExhausted):
            dl.frac_nearest(phi_tuple, 2**180)

    def test_k_must_be_positive(self, phi_tuple):
        with pytest.raises(ValueError):
            dl.frac_nearest(phi_tuple, 0)


class TestIsPrime:
    def test_matches_a_sieve_below_1e5(self):
        n = 10**5
        sieve = [False, False] + [True] * (n - 2)
        for i in range(2, 317):
            if sieve[i]:
                sieve[i * i::i] = [False] * len(range(i * i, n, i))
        assert [p for p in range(-3, n) if is_prime(p)] == [p for p in range(n) if sieve[p]]

    def test_pseudoprimes(self):
        # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to the bases
        # 2, 3, 5 and 7; the Carmichael number 252601 = 41 * 61 * 101 passes
        # a Fermat test to every base prime to it
        for n in (3215031751, 252601):
            assert not is_prime(n)

    def test_mersenne_prime_2_61(self):
        # trial division up to sqrt(p) would take minutes
        assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)

    def test_refuses_2_64_and_beyond(self):
        assert is_prime(2**64 - 59)  # the largest prime below 2^64
        with pytest.raises(InvalidInput):
            is_prime(2**64)


class TestPadicNorm:
    @pytest.mark.parametrize(
        "k,p,want",
        [(8, 2, Fraction(1, 8)), (12, 2, Fraction(1, 4)), (7, 2, Fraction(1))],
    )
    def test_examples(self, k, p, want):
        assert dl.padic_norm(k, p) == want

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            dl.padic_norm(5, 6)

    @pytest.mark.parametrize("k, p", [(0, 2), (-4, 2), (8, 1), (8, 0), (8, -2)])
    def test_valuation_refuses_bad_input(self, k, p):
        # k = 0 and p = 1 looped forever, p = 0 divided by zero
        with pytest.raises(ValueError):
            padic_valuation(k, p)

    @given(st.integers(min_value=1, max_value=10**6), st.sampled_from([2, 3, 5, 7, 11]))
    def test_norm_times_power_is_coprime_part_inverse(self, k, p):
        norm = dl.padic_norm(k, p)
        v = 0
        kk = k
        while kk % p == 0:
            kk //= p
            v += 1
        assert norm == Fraction(1, p**v)
        assert (k * norm).denominator == 1 or (k * norm) * p**v == k
