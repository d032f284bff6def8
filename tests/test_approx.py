import math
import random
import time
from unittest import mock
from fractions import Fraction

import numpy as np
import pytest

import diophlat as dl
from diophlat import approx, latgeo
from diophlat.approx import ApproxRecord, q_limit
from diophlat.errors import EpsilonTooLarge, InvalidInput, PrecisionExhausted
from diophlat.exact import _integerize
from diophlat.latgeo import lattice_points_in_box_exact
from diophlat.numberfield import padic_valuation

from kernel_oracle import lagrange_enumerate
from octave_oracle import per_octave_candidates
from sphere_oracle import from_atoms

PHI_COEFFS = [-1, -1, 1]
CUBIC_COEFFS = [-1, -3, 0, 1]
QUARTIC_COEFFS = [1, -4, -1, 4, 1]


def brute_scan(tup, ell, eps, T):
    """Oracle: frac_nearest over every q up to e^{nT}, Fraction comparisons."""
    n = tup.n
    qmax = q_limit(n, T)
    eps_pow = Fraction(eps) ** n
    out = []
    for q in range(1, qmax + 1):
        pvec, disp, delta = dl.frac_nearest(tup, q * ell)
        if math.gcd(q, *(abs(p) for p in pvec)) != 1:
            continue
        if delta > 0 and q * delta**n < eps_pow:
            out.append((q, pvec))
    return out


def residue_loop(tup, ell, kmax):
    """Oracle: (k, sup distance of k * ell * alpha to Z^n) for k = 1..kmax,
    the distance as an integer at 2^-frac_bits, by fixed-point residues."""
    full = 1 << tup.frac_bits
    half = full >> 1
    incs = [(m * ell) % full for m in tup.alpha_mantissas()]
    rs = [0] * len(incs)
    for k in range(1, kmax + 1):
        dmax = 0
        for i, inc in enumerate(incs):
            r = rs[i] + inc
            if r >= full:
                r -= full
            rs[i] = r
            dist = r if r < half else full - r
            if dist > dmax:
                dmax = dist
        yield k, dmax


def linear_record_minima(tup, p, K):
    """Oracle: running minima of (k |k|_p)^{1/n} |<k alpha>|_inf, one k at a
    time over k = 1..K."""
    inv_scale = math.ldexp(1.0, -tup.frac_bits)
    best = math.inf
    out = []
    for k, dmax in residue_loop(tup, 1, K):
        kp = k // p ** padic_valuation(k, p)
        val = float(kp) ** (1.0 / tup.n) * (float(dmax) * inv_scale)
        if val < best:
            best = val
            out.append((k, val))
    return out


def linear_candidates(tup, ell, eps, qmax):
    """Oracle: every q <= qmax with q * delta^n < eps^n, one q at a time."""
    n = tup.n
    eps_pow = Fraction(eps) ** n
    rhs = eps_pow.numerator << (n * tup.frac_bits)
    return [q for q, dmax in residue_loop(tup, ell, qmax) if q * dmax**n * eps_pow.denominator < rhs]


def records_of(tup, ell, eps, qs):
    """The records among the candidates qs, as (q, pvec), exactly re-checked."""
    eps_pow = Fraction(eps) ** tup.n
    recs = (approx._record_from_q(tup, ell, q, eps, eps_pow) for q in qs)
    return [(r.q, r.pvec) for r in recs if r is not None]


def linear_scaled_minima(tup, ell, K):
    """Oracle: (min, first argmin) of k^{1/n} |<k ell alpha>|_inf over k <= K."""
    inv_scale = math.ldexp(1.0, -tup.frac_bits)
    best, arg = math.inf, 0
    for k, dmax in residue_loop(tup, ell, K):
        val = float(k) ** (1.0 / tup.n) * (float(dmax) * inv_scale)
        if val < best:
            best, arg = val, k
    return best, arg


def pair_boxes(tup, ell, eps, qmax):
    """(u, radii) per box of _octave_candidates, u(ell*alpha) from the full
    mantissas at 2^-frac_bits: the tight radius of 2^a for the first n
    coordinates and 2^top for q, a = 0, 2, 4, ..."""
    n = tup.n
    d = tup.dim
    u = [[(1 << tup.frac_bits) * (i == j) for j in range(d)] for i in range(d)]
    for i, m in enumerate(tup.alpha_mantissas()):
        u[i][n] = ell * m
    for a in range(0, qmax.bit_length(), 2):
        top = min(a + 2, qmax.bit_length())
        yield u, [approx._tight_radius(eps, n, a)] * n + [1 << top]


def cold_block_candidates(tup, ell, eps, qmax):
    """Oracle: the boxes of pair_boxes, each reduced from the raw unipotent
    basis by the former kernel (pairwise reduction, float QR bounds) behind
    the same box front end."""
    def former_kernel(cols, scale_bits, cap, start=None):
        return None, lagrange_enumerate(cols, scale_bits, cap)

    qs = set()
    with mock.patch.object(latgeo, "_enumerate_scaled_ball", former_kernel):
        for u, radii in pair_boxes(tup, ell, eps, qmax):
            coeffs = latgeo._box_coeffs(u, tup.frac_bits, radii)[1]
            qs.update(abs(m[-1]) for m in coeffs if 1 <= abs(m[-1]) <= qmax)
    return sorted(qs)


def full_precision_candidates(tup, ell, eps, qmax):
    """Oracle: the warm-started boxes of pair_boxes, every box built from
    the full mantissas of ell*alpha at 2^-frac_bits."""
    T = None
    qs = set()
    for u, radii in pair_boxes(tup, ell, eps, qmax):
        T, coeffs = latgeo._box_coeffs(u, tup.frac_bits, radii, start=T)
        qs.update(abs(m[-1]) for m in coeffs if 1 <= abs(m[-1]) <= qmax)
    return sorted(qs)


def synthetic_record(t_lo, t_hi, theta=(1.0,)):
    nrm = math.sqrt(sum(x * x for x in theta))
    return ApproxRecord(
        q=1,
        pvec=(0,) * len(theta),
        delta=max(abs(x) for x in theta),
        t_lo=t_lo,
        t_hi=t_hi,
        theta=tuple(x / nrm for x in theta),
    )


def mpmath_floor_exp(n, T):
    """Oracle: floor(e^{nT}) at 600 digits, far past the 155 of e^354."""
    import mpmath

    with mpmath.workdps(600):
        return int(mpmath.floor(mpmath.exp(mpmath.mpf(n) * mpmath.mpf(T))))


_draws = random.Random(23)
Q_LIMIT_DRAWS = [(_draws.randint(1, 3), _draws.uniform(0.0, 118.0)) for _ in range(40)]


class TestQLimit:
    # (1, 150) read 5,981 too many at 60 digits, inside the golden ratio's
    # records-horizon range
    @pytest.mark.parametrize("n, T", [(1, 150.0), (2, 75.0), (3, 118.0), (1, 354.0)]
                             + Q_LIMIT_DRAWS)
    def test_exact_floor(self, n, T):
        assert q_limit(n, T) == mpmath_floor_exp(n, T)

    @pytest.mark.parametrize("n, T", [(1, 1e-300), (3, 5e-324), (1, 0.5)])
    def test_below_two_is_one(self, n, T):
        # e^{nT} within 10^-300 of 1: the guard digits double until they resolve it
        assert q_limit(n, T) == 1

    @pytest.mark.parametrize("n, T", [(1, 355.5), (2, 1e20), (3, 1e300), (1, math.inf)])
    def test_huge_horizon_raises_at_once(self, n, T):
        t0 = time.perf_counter()
        with pytest.raises(InvalidInput, match="horizon too large"):
            q_limit(n, T)
        assert time.perf_counter() - t0 < 0.1


class TestScanRecords:
    def test_phi_eps_half_T2(self, phi_tuple):
        recs = dl.scan_records(phi_tuple, 1, 0.5, 2.0)
        assert [r.q for r in recs] == [1, 2, 3, 5]
        assert [r.pvec for r in recs] == [(2,), (3,), (5,), (8,)]
        # q = 4 is excluded: 4 * <4 phi> = 1.8885...
        assert 4 not in [r.q for r in recs]

    def test_phi_badly_approximable_floor(self, phi_tuple):
        assert dl.scan_records(phi_tuple, 1, 0.3, 5.0) == []

    def test_phi_short_horizon(self, phi_tuple):
        recs = dl.scan_records(phi_tuple, 1, 0.5, 0.2)
        assert len(recs) == 1
        r = recs[0]
        assert (r.q, r.pvec) == (1, (2,))
        assert r.t_lo == 0.0
        assert abs(r.t_hi - 0.26931) < 2e-4

    @pytest.mark.parametrize("ell,eps,T", [(1, 0.45, 6.0), (2, 0.4, 5.0), (1, 0.49, 4.0)])
    def test_matches_brute_force_phi(self, phi_tuple, ell, eps, T):
        got = [(r.q, r.pvec) for r in dl.scan_records(phi_tuple, ell, eps, T)]
        assert got == brute_scan(phi_tuple, ell, eps, T)

    @pytest.mark.parametrize("ell,eps,T", [(1, 0.4, 3.5), (2, 0.45, 3.0)])
    def test_matches_brute_force_cubic(self, cubic_tuple, ell, eps, T):
        got = [(r.q, r.pvec) for r in dl.scan_records(cubic_tuple, ell, eps, T)]
        assert got == brute_scan(cubic_tuple, ell, eps, T)

    def test_block_and_linear_methods_agree(self, phi_tuple, cubic_tuple):
        for tup, eps, T in ((phi_tuple, 0.45, 9.0), (cubic_tuple, 0.4, 4.2)):
            blk = dl.scan_records(tup, 1, eps, T)
            lin = linear_candidates(tup, 1, eps, q_limit(tup.n, T))
            assert [(r.q, r.pvec) for r in blk] == records_of(tup, 1, eps, lin)

    def test_records_are_primitive_with_unit_theta(self, cubic_tuple):
        for r in dl.scan_records(cubic_tuple, 1, 0.4, 6.0):
            assert math.gcd(r.q, *(abs(p) for p in r.pvec)) == 1
            assert abs(sum(x * x for x in r.theta) - 1.0) < 1e-12
            assert r.delta <= 0.5
            assert r.t_lo < r.t_hi

    def test_interval_iff_quality(self, phi_tuple):
        # t_lo < t_hi exactly when q^{1/n} delta < eps
        for r in dl.scan_records(phi_tuple, 1, 0.49, 8.0):
            assert r.q ** (1.0 / phi_tuple.n) * r.delta < 0.49

    def test_eps_too_large(self, phi_tuple):
        with pytest.raises(EpsilonTooLarge):
            dl.scan_records(phi_tuple, 1, 0.51, 1.0)

    def test_eps_exactly_half_allowed(self, phi_tuple):
        assert dl.scan_records(phi_tuple, 1, 0.5, 1.0)

    def test_nonpositive_horizon_empty(self, phi_tuple):
        assert dl.scan_records(phi_tuple, 1, 0.4, 0.0) == []

    @pytest.mark.parametrize("ell,eps,T", [(0, 0.4, 2.0), (1, 0.0, 2.0), (1, -0.1, 2.0), (1, 0.4, 400.0),
                                           (1, math.nan, 2.0), (1, 0.4, math.nan)])
    def test_invalid_input_is_typed(self, phi_tuple, ell, eps, T):
        with pytest.raises(InvalidInput) as info:
            dl.scan_records(phi_tuple, ell, eps, T)
        assert isinstance(info.value, ValueError) and isinstance(info.value, dl.DiophlatError)

    def test_other_input_checks_are_typed(self, phi_tuple):
        calls = [
            lambda: dl.sweep_weights([], 0.0),
            lambda: dl.sweep_weights([], math.nan),
            lambda: dl.sweep_weights([], math.inf),
            lambda: dl.direction_measure(phi_tuple, 2, -1, 0.4, 1.0),
            lambda: dl.record_minima(phi_tuple, 2, 0),
            lambda: dl.scaled_minima(phi_tuple, 0, 10),
            lambda: dl.scaled_minima(phi_tuple, 1, 0),
        ]
        for call in calls:
            with pytest.raises(InvalidInput):
                call()

    def test_uncertified_horizon_raises(self, phi_tuple):
        # at 192 bits the displacement error near q = e^80 is 2^-75, far above
        # the defects 0.45 / q that decide membership there; unguarded, the
        # scan returned 145 records against 164 at 512 bits
        with pytest.raises(PrecisionExhausted):
            dl.scan_records(phi_tuple, 1, 0.45, 80.0)


class TestOctaveEngine:
    """The warm-started boxes over pairs of octaves against the linear loop,
    against the same boxes reduced from the raw basis or built at full
    precision, and against the former one-box-per-octave geometry."""

    @pytest.mark.parametrize("coeffs", [PHI_COEFFS, CUBIC_COEFFS, QUARTIC_COEFFS])
    def test_matches_linear_oracle(self, coeffs):
        # eps near 1/2 for more records; q_max on both sides of 2e5
        eps = 0.49
        tup = dl.power_tuple(dl.make_field(coeffs, 192))
        for ell in (1, 2, 4, 8):
            lin = linear_candidates(tup, ell, eps, 210_000)
            want = records_of(tup, ell, eps, lin)
            for qmax in (190_000, 210_000):
                blk = approx._octave_candidates(tup, ell, eps, qmax)
                assert {q for q in lin if q <= qmax} <= set(blk), (ell, qmax)
                got = records_of(tup, ell, eps, blk)
                assert got == [r for r in want if r[0] <= qmax], (ell, qmax)

    @pytest.mark.parametrize(
        "coeffs,eps,T",
        [(PHI_COEFFS, 0.45, 134.0), (CUBIC_COEFFS, 0.4, 66.0), (QUARTIC_COEFFS, 0.4, 18.0)],
    )
    def test_matches_cold_start_oracle(self, coeffs, eps, T):
        # at ell = 4 the last box is skewed by 2^{(n+1)/n * log2 q_max}:
        # about 2^390 (golden), 2^285 (cubic) and 2^104 (quartic)
        tup = dl.power_tuple(dl.make_field(coeffs, 1024))
        qmax = q_limit(tup.n, T)
        assert qmax.bit_length() * (tup.n + 1) // tup.n > 100
        got = approx._octave_candidates(tup, 4, eps, qmax)
        assert got == cold_block_candidates(tup, 4, eps, qmax)
        old = per_octave_candidates(tup, 4, eps, qmax)
        assert records_of(tup, 4, eps, got) == records_of(tup, 4, eps, old)

    @pytest.mark.parametrize("coeffs", [PHI_COEFFS, CUBIC_COEFFS, QUARTIC_COEFFS])
    @pytest.mark.parametrize("bits,qbits", [(96, 48), (192, 56), (1024, 56)])
    def test_per_octave_precision_matches_full_precision(self, coeffs, bits, qbits):
        # eps = 1/2 is the largest a scan takes, eps = 1 the minima's box.
        # At 96 bits the last boxes keep every bit: b reaches frac_bits from
        # a = 26 (d = 2; 28 at eps = 1), 36 (d = 3) and 40 (d = 4) on.
        tup = dl.power_tuple(dl.make_field(coeffs, bits))
        qmax = (1 << qbits) - 1
        for eps in (0.5, 1.0):
            for ell in (1, 4, 2**16):
                got = approx._octave_candidates(tup, ell, eps, qmax)
                want = full_precision_candidates(tup, ell, eps, qmax)
                assert got == want, (eps, ell)
                # the records, where the mantissas certify them
                cert = (1 << (bits - 64)) // (ell * max(tup.max_err_ulps(), 1))
                recs = records_of(tup, ell, eps, [q for q in got if q < cert])
                assert recs == records_of(tup, ell, eps, [q for q in want if q < cert])
                old = per_octave_candidates(tup, ell, eps, qmax)
                assert recs == records_of(tup, ell, eps, [q for q in old if q < cert])

    @pytest.mark.parametrize(
        "coeffs,T", [(PHI_COEFFS, 134.0), (CUBIC_COEFFS, 66.0), (QUARTIC_COEFFS, 18.0)]
    )
    def test_records_and_minima_match_per_octave_oracle(self, monkeypatch, coeffs, T):
        tup = dl.power_tuple(dl.make_field(coeffs, 1024))
        qmax = q_limit(tup.n, T)
        for ell in (1, 2, 4):
            for eps in (0.4, 0.45, 0.5, 1.0):
                got = approx._octave_candidates(tup, ell, eps, qmax)
                old = per_octave_candidates(tup, ell, eps, qmax)
                assert records_of(tup, ell, eps, got) == records_of(tup, ell, eps, old), (ell, eps)
        K = 10**12
        got = [dl.scaled_minima(tup, ell, K) for ell in (1, 2, 4)], dl.record_minima(tup, 2, K)
        monkeypatch.setattr(approx, "_octave_candidates", per_octave_candidates)
        assert got == ([dl.scaled_minima(tup, ell, K) for ell in (1, 2, 4)], dl.record_minima(tup, 2, K))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tight_radius_bounds(self, n):
        # eps 2^{-a/n} <= r < (1 + 2^-30) eps 2^{-a/n}, checked on n-th powers
        for eps in (0.4, 0.45, 0.49, 0.5, 1.0, 2.0**-40, 0.3 + 2.0**-52):
            e = Fraction(eps) ** n
            for a in range(0, 1100, 7):
                r = approx._tight_radius(eps, n, a)
                assert r.denominator & (r.denominator - 1) == 0
                assert e <= r**n * 2**a < e * (1 + Fraction(1, 2**30)) ** n, (eps, a)

    def test_one_kernel_call_per_pair_of_octaves(self, monkeypatch, cubic_tuple):
        calls = []
        kernel = latgeo._enumerate_scaled_ball

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(latgeo, "_enumerate_scaled_ball", counting)
        for T in (0.2, 1.0, 5.0, 8.3):
            qmax = q_limit(cubic_tuple.n, T)
            calls.clear()
            dl.scan_records(cubic_tuple, 2, 0.45, T)
            assert len(calls) == (qmax.bit_length() + 1) // 2, T
        calls.clear()
        dl.scaled_minima(cubic_tuple, 1, 10**6)
        assert len(calls) == 10


class TestEnumerationCliff:
    """d = 4 scans where pairwise reduction with float QR bounds visited
    millions of nodes per box: far skewed octave boxes at ell = 4, and the
    cyclic quartic at ell = 1 from its first boxes on."""

    def test_quartic_past_t20(self):
        tup = dl.power_tuple(dl.make_field(QUARTIC_COEFFS, 1024))
        t0 = time.perf_counter()
        recs = dl.scan_records(tup, 4, 0.4, 23.0)
        assert time.perf_counter() - t0 < 1.0
        want = records_of(tup, 4, 0.4, cold_block_candidates(tup, 4, 0.4, q_limit(3, 20.0)))
        assert [(r.q, r.pvec) for r in recs if r.t_lo < min(20.0, r.t_hi)] == want

    def test_cyclic_quartic_ell1(self, cyclic_quartic_tuple):
        tup = cyclic_quartic_tuple
        t0 = time.perf_counter()
        recs = dl.scan_records(tup, 1, 0.4, 4.5)
        assert time.perf_counter() - t0 < 1.0
        want = records_of(tup, 1, 0.4, linear_candidates(tup, 1, 0.4, q_limit(3, 4.5)))
        assert [(r.q, r.pvec) for r in recs] == want
        t0 = time.perf_counter()
        dl.scan_records(tup, 1, 0.4, 12.0)
        assert time.perf_counter() - t0 < 1.0


class TestDaniCorrespondence:
    def grid(self, tup, eps, M):
        n = tup.n
        eps_pow = Fraction(eps) ** n
        brute = False
        for m in range(1, M + 1):
            _, _, delta = dl.frac_nearest(tup, m)
            if m * delta**n < eps_pow:
                brute = True
                break
        recs = dl.scan_records(tup, 1, eps, math.log(M) / n)
        return brute, recs

    @pytest.mark.parametrize("eps", [0.45, 0.49])
    @pytest.mark.parametrize("M", [10, 100, 1000])
    def test_equivalence_and_cone_vectors(self, phi_tuple, cubic_tuple, eps, M):
        for tup in (phi_tuple, cubic_tuple):
            brute, recs = self.grid(tup, eps, M)
            assert brute == bool(recs)
            d = tup.dim
            for r in recs:
                t = (r.t_lo + r.t_hi) / 2
                flow = dl.diag_flow(t, d).entries @ dl.unipotent(tup.alpha_floats(), d).entries
                vec = flow @ np.array([-p for p in r.pvec] + [r.q], dtype=float)
                proj = np.max(np.abs(vec[: d - 1]))
                assert 0.0 < proj < eps
                assert abs(vec[d - 1]) <= 1.0

    def test_both_sides_false(self, phi_tuple):
        brute, recs = self.grid(phi_tuple, 0.3, 100)
        assert not brute and not recs


class TestSweepWeights:
    def test_phi_closed_form(self, phi_tuple):
        recs = dl.scan_records(phi_tuple, 1, 0.5, 1.0)
        wal = dl.sweep_weights(recs, 1.0)
        by_q = {r.q: w for r, w in zip(wal.records, wal.weights)}
        assert abs(by_q[1] - 0.26931) < 1e-4
        assert abs(by_q[2] - 0.05734) < 1e-4
        assert abs(sum(wal.weights) - 0.32665) < 1e-4
        assert abs(wal.empty_fraction - 0.67335) < 1e-4

    def test_synthetic_overlap(self):
        recs = [synthetic_record(0.0, 1.0), synthetic_record(0.5, 1.0)]
        wal = dl.sweep_weights(recs, 1.0)
        assert abs(wal.weights[0] - 0.75) < 1e-12
        assert abs(wal.weights[1] - 0.25) < 1e-12

    def test_empty(self):
        wal = dl.sweep_weights([], 1.0)
        assert wal.weights == ()
        assert wal.empty_fraction == 1.0

    def test_mass_identity_exact(self, phi_tuple):
        recs = dl.scan_records(phi_tuple, 1, 0.45, 8.0)
        wal = dl.sweep_weights(recs, 8.0)
        assert sum(wal.weights) + wal.empty_fraction == 1.0
        # independent union-length oracle for the covered time
        T = 8.0
        ivals = sorted((max(r.t_lo, 0.0), min(r.t_hi, T)) for r in recs)
        covered = 0.0
        cur_lo, cur_hi = None, None
        for lo, hi in ivals:
            if lo >= hi:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        assert abs(sum(wal.weights) - covered / T) < 1e-9

    def test_weight_bound(self, cubic_tuple):
        T = 5.0
        recs = dl.scan_records(cubic_tuple, 1, 0.4, T)
        wal = dl.sweep_weights(recs, T)
        for r, w in zip(wal.records, wal.weights):
            assert w <= (min(r.t_hi, T) - r.t_lo) / T + 1e-15

    def test_quadrature_oracle(self, phi_tuple):
        T = 2.0
        recs = dl.scan_records(phi_tuple, 1, 0.5, T)
        wal = dl.sweep_weights(recs, T)
        grid = 10**4
        hits = 0
        for i in range(grid):
            t = (i + 0.5) * T / grid
            qmax = int(math.exp(t))
            nonempty = False
            for q in range(1, qmax + 1):
                _, _, delta = dl.frac_nearest(phi_tuple, q)
                if q < math.exp(t) and math.exp(t) * float(delta) < 0.5:
                    nonempty = True
                    break
            hits += nonempty
        assert abs(sum(wal.weights) - hits / grid) < 1e-3


class TestDirectionMeasure:
    def test_phi_T1(self, phi_tuple):
        mu = dl.direction_measure(phi_tuple, 2, 0, 0.5, 1.0)
        masses = {int(v[0]): w for v, w in zip(mu.vectors, mu.weights)}
        assert abs(masses[-1] - 0.26931) < 1e-4
        assert abs(masses[1] - 0.05734) < 1e-4

    def test_phi_long_horizon_both_signs(self, phi_tuple):
        mu = dl.direction_measure(phi_tuple, 2, 0, 0.5, 10.0)
        masses = {int(v[0]): w for v, w in zip(mu.vectors, mu.weights)}
        assert masses[1] > 0 and masses[-1] > 0

    def test_no_records_zero_measure(self, phi_tuple):
        mu = dl.direction_measure(phi_tuple, 3, 0, 0.3, 4.0)
        assert mu.is_zero()

    def test_mass_is_one_minus_empty(self, cubic_tuple):
        T = 6.0
        mu = dl.direction_measure(cubic_tuple, 2, 0, 0.4, T)
        recs = dl.scan_records(cubic_tuple, 1, 0.4, T)
        wal = dl.sweep_weights(recs, T)
        assert abs(mu.total_mass - (1.0 - wal.empty_fraction)) < 1e-12


class TestTimeAverageIdentity:
    def one_case(self, tup, ell, eps, T, dt):
        """Grid oracle: average the cone directions of a(t) u(ell a) Z^d over
        a fine t-grid, keeping the positive-last-coordinate representative of
        each +-v pair (that side carries the q > 0 record)."""
        d = tup.dim
        uni = dl.unipotent([ell * a for a in tup.alpha_floats()], d).entries
        sign_masses = {}
        atoms = {}
        steps = int(round(T / dt))
        for i in range(steps):
            t = (i + 0.5) * dt
            mat = dl.diag_flow(t, d).entries @ uni
            dirs = []
            for m, v in lattice_points_in_box_exact(*_integerize(mat), [eps] * (d - 1) + [1.0]):
                proj = np.max(np.abs(v[: d - 1]))
                if v[d - 1] > 0 and 0.0 < proj < eps and v[d - 1] <= 1.0:
                    dirs.append(v[: d - 1] / np.linalg.norm(v[: d - 1]))
            for v in dirs:
                key = tuple(np.round(v, 6))
                atoms[key] = atoms.get(key, 0.0) + 1.0 / (len(dirs) * steps)
        mu = dl.direction_measure(tup, 2, 0, eps, T) if ell == 1 else None
        if mu is None:
            recs = dl.scan_records(tup, ell, eps, T)
            wal = dl.sweep_weights(recs, T)
            mu = from_atoms(
                tup.n, [(r.theta, w) for r, w in zip(wal.records, wal.weights) if w > 0]
            )
        ref = {}
        for v, w in zip(mu.vectors, mu.weights):
            key = tuple(np.round(v, 6))
            ref[key] = ref.get(key, 0.0) + w
        return atoms, ref

    def test_phi(self, phi_tuple):
        dt = 0.001
        T = 3.0
        atoms, ref = self.one_case(phi_tuple, 1, 0.45, T, dt)
        nrec = len(ref)
        bound = 2 * dt * max(1.0, nrec / T)
        keys = set(atoms) | set(ref)
        total_diff = sum(abs(atoms.get(k, 0.0) - ref.get(k, 0.0)) for k in keys)
        assert total_diff <= bound

    def test_cubic(self, cubic_tuple):
        dt = 0.002
        T = 4.0
        atoms, ref = self.one_case(cubic_tuple, 1, 0.4, T, dt)
        nrec = len(ref)
        bound = 2 * dt * max(1.0, nrec / T)
        keys = set(atoms) | set(ref)
        total_diff = sum(abs(atoms.get(k, 0.0) - ref.get(k, 0.0)) for k in keys)
        assert total_diff <= bound


class TestMinima:
    def test_phi_record_sequence(self, phi_tuple):
        got = dl.record_minima(phi_tuple, 2, 200)
        want = [(1, 0.381966), (2, 0.236068), (8, 0.055728), (144, 0.027950)]
        assert len(got) == len(want)
        for (k, v), (wk, wv) in zip(got, want):
            assert k == wk
            assert abs(v - wv) < 1e-5

    def test_phi_p3_first_record(self, phi_tuple):
        got = dl.record_minima(phi_tuple, 3, 10)
        assert got[0][0] == 1
        assert abs(got[0][1] - 0.381966) < 1e-5

    def test_values_strictly_decrease(self, cubic_tuple):
        vals = [v for _, v in dl.record_minima(cubic_tuple, 2, 5000)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_brute_force_small(self, cubic_tuple):
        K = 400
        best = math.inf
        want = []
        for k in range(1, K + 1):
            _, _, delta = dl.frac_nearest(cubic_tuple, k)
            kp = k
            v2 = 0
            while kp % 2 == 0:
                kp //= 2
                v2 += 1
            val = kp ** 0.5 * float(delta)
            if val < best:
                best = val
                want.append(k)
        got = [k for k, _ in dl.record_minima(cubic_tuple, 2, K)]
        assert got == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("field", ["phi", "cubic", "quartic"])
    def test_octave_boxes_match_linear_record_minima(self, request, field, p):
        tup = request.getfixturevalue(f"{field}_tuple")
        want = linear_record_minima(tup, p, 200_001)
        for K in (1, p - 1, p, 4000, 200_001):
            if K >= 1:
                assert dl.record_minima(tup, p, K) == [r for r in want if r[0] <= K], K

    def test_record_minima_far_past_a_linear_loop(self, cubic_tuple_1024):
        # K = 10^12 is out of reach of a loop over k; the same minima come
        # back at twice the precision
        hi = dl.power_tuple(dl.make_field(CUBIC_COEFFS, 2048))
        got = dl.record_minima(cubic_tuple_1024, 2, 10**12)
        assert len(got) >= 8 and got == dl.record_minima(hi, 2, 10**12)

    def test_guard_is_relative_to_the_scaled_value(self, phi_tuple):
        # at 192 bits the error of |<k alpha>| near k = 2^100 is about 2^-90,
        # so k^{1/2} |<k alpha>| carries an error near 2^-40; unguarded,
        # scaled_minima returned 0.2349 at k ~ 2.1e29 against 0.381966 at
        # k = 1 on a 1024-bit tuple
        with pytest.raises(PrecisionExhausted):
            dl.scaled_minima(phi_tuple, 1, 2**100)
        with pytest.raises(PrecisionExhausted):
            dl.record_minima(phi_tuple, 2, 2**100)
        val, arg = dl.scaled_minima(phi_tuple, 1, 2**63)
        assert arg == 1 and abs(val - 0.381966) < 1e-5

    def test_scaled_minima_examples(self, phi_tuple):
        val, arg = dl.scaled_minima(phi_tuple, 1, 100)
        assert (abs(val - 0.381966) < 1e-5) and arg == 1
        val, arg = dl.scaled_minima(phi_tuple, 2, 100)
        assert (abs(val - 0.222912) < 1e-5) and arg == 4
        val, arg = dl.scaled_minima(phi_tuple, 4, 100)
        assert (abs(val - 0.111456) < 1e-5) and arg == 2

    @pytest.mark.parametrize("coeffs", [PHI_COEFFS, CUBIC_COEFFS, QUARTIC_COEFFS])
    def test_octave_boxes_match_linear_loop(self, coeffs):
        tup = dl.power_tuple(dl.make_field(coeffs, 192))
        cases = [(ell, K) for ell in (1, 2, 3, 9) for K in (1, 7, 3000)]
        cases += [(ell, 200_001) for ell in (1, 8)]
        for ell, K in cases:
            assert dl.scaled_minima(tup, ell, K) == linear_scaled_minima(tup, ell, K), (ell, K)

    def test_scaling_bounded_factor(self, phi_tuple):
        vals = []
        for m in range(7):
            ell = 2**m
            val, _ = dl.scaled_minima(phi_tuple, ell, 10**4)
            vals.append(ell * val)
        assert max(vals) / min(vals) < 10


def window_mass(records, lo, hi):
    """Length of the union of the records' membership intervals inside
    [lo, hi], divided by hi - lo."""
    total, end = 0.0, lo
    for a, b in sorted((max(r.t_lo, lo), min(r.t_hi, hi)) for r in records):
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total / (hi - lo)


class TestExactQuadraticLimits:
    """For a real quadratic field the compact orbit is one closed geodesic,
    so both sides of the golden ratio have exact limits."""

    @pytest.mark.parametrize("k, mass", [
        (0, 0.0), (1, 0.402854748), (2, 0.441497389), (3, 0.681567404),
    ])
    def test_record_windows_over_one_period(self, k, mass):
        # over a whole period P of the stabilizer the records' membership
        # intervals cover the exact mass, once the window starts past the
        # first period (at T0 = 5 the k = 1 window is still 1.8e-7 off); at
        # k = 0 the one record is q = 1, since 1/sqrt 5 > eps
        tup = dl.power_tuple(dl.make_field(PHI_COEFFS, 1024))
        P = abs(latgeo.hecke_scaled_lattice(tup, 2, k).unit_logs[0][0])
        records = dl.scan_records(tup, 2**k, 0.4, 300.0)
        for T0 in (10, 20, 50):
            assert window_mass(records, T0, T0 + P) == pytest.approx(mass, abs=1e-8), T0

    def test_scaled_littlewood_row_reaches_its_limit(self, phi_tuple):
        # ell liminf_k k |<k ell theta>| = 1/sqrt(disc f) = 1/sqrt 5 for every
        # ell (Cassels 1957); a row reaches it at the first k for which
        # k ell theta - p is a unit of Z[ell theta]: 32 k = F_24 = 46368
        val, arg = dl.scaled_minima(phi_tuple, 32, 1449)
        assert arg == 1449 and abs(32 * val - 1 / math.sqrt(5)) <= 1e-9
        val, arg = dl.scaled_minima(phi_tuple, 32, 1448)
        assert abs(32 * val - 1.7888) < 1e-3
