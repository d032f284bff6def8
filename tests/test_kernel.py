"""The enumeration kernel (integral LLL, exact Gram-Schmidt bounds) against
the former kernel, and its box front end against brute force and the former
power-of-two front end; the former versions stay here as oracles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import diophlat as dl
from diophlat.errors import TooManyPoints
from diophlat.exact import _int_det, _int_mat_mul, _lll_reduce, _nearest_int_ratio
from diophlat.latgeo import _box_coeffs, _enumerate_scaled_ball

from kernel_oracle import (_box_columns, lagrange_enumerate, lagrange_reduce,
                           per_point_enumerate, pow2_box_coeffs, signed)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _apply(T, cols):
    d = len(cols)
    return [[sum(T[j][i] * cols[i][r] for i in range(d)) for r in range(d)] for j in range(d)]


def _norm2(m, cols):
    p = [sum(mi * c[r] for mi, c in zip(m, cols)) for r in range(len(cols))]
    return _dot(p, p)


def gram_schmidt_mu(cols):
    """Exact mu_kj = <b_k, b*_j> / <b*_j, b*_j> of integer columns."""
    d = len(cols)
    star, mu = [], [[Fraction(0)] * d for _ in range(d)]
    for k in range(d):
        v = [Fraction(x) for x in cols[k]]
        for j in range(k):
            mu[k][j] = _dot(cols[k], star[j]) / _dot(star[j], star[j])
            v = [a - mu[k][j] * b for a, b in zip(v, star[j])]
        star.append(v)
    return mu


@st.composite
def skewed_bases(draw):
    """(columns, scale bits): a small nonsingular integer basis of dimension
    2, 3 or 4 with its rows shifted by up to 2^200, and a scale that puts
    the enumeration ball near the shortest vector."""
    d = draw(st.integers(2, 4))
    entries = st.integers(-60, 60)
    rows = draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d))
    assume(_int_det(rows) != 0)
    shifts = draw(st.lists(st.integers(0, 200), min_size=d, max_size=d))
    cols, _ = _box_columns(rows, [-s for s in shifts])
    _, red = lagrange_reduce([c[:] for c in cols])
    shortest = min(_dot(c, c) for c in red)
    return cols, shortest.bit_length() // 2 + draw(st.integers(-1, 1))


def _one_sign_nonzero(coeffs):
    """No zero vector, no vector twice, and never both m and -m."""
    return all(any(m) for m in coeffs) and len(set(signed(coeffs))) == 2 * len(coeffs)


class TestLLLKernel:
    @given(skewed_bases())
    def test_matches_oracle_and_is_reduced(self, case):
        cols, scale_bits = case
        d = len(cols)
        T, red, D, lam = _lll_reduce([c[:] for c in cols])
        assert red == _apply(T, cols)
        assert abs(_int_det(T)) == 1
        # D and lam are the exact Gram-Schmidt data of the reduced columns
        gram = [[_dot(u, v) for v in red] for u in red]
        assert D == [1] + [_int_det([row[:i] for row in gram[:i]]) for i in range(1, d + 1)]
        mu = gram_schmidt_mu(red)
        for k in range(d):
            for j in range(k):
                assert lam[k][j] == D[j + 1] * mu[k][j]
                assert abs(2 * lam[k][j]) <= D[j + 1]
            if k:
                assert 100 * D[k + 1] * D[k - 1] >= 99 * D[k] ** 2 - 100 * lam[k][k - 1] ** 2

        def inside(coeffs):
            # the ball |B m|^2 <= d at 2^-scale_bits, tested on integers
            sh = 2 * scale_bits
            return {m for m in coeffs if _norm2(m, cols) << max(0, -sh) <= d << max(0, sh)}

        step, got = _enumerate_scaled_ball(cols, scale_bits, 10**5)
        assert step == T
        assert inside(signed(got)) == inside(lagrange_enumerate(cols, scale_bits))

    @given(skewed_bases(), st.data())
    def test_start_carried_inside_matches_product_after(self, case, data):
        # T started at S and reduced in place is T S of the reduction from
        # the identity, with the same reduced columns and Gram-Schmidt data
        cols, _ = case
        d = len(cols)
        S = _unimodular(data.draw, d, [[int(i == j) for j in range(d)] for i in range(d)])
        T, red, D, lam = _lll_reduce(_int_mat_mul(S, cols))
        assert _lll_reduce(_int_mat_mul(S, cols), S) == (_int_mat_mul(T, S), red, D, lam)


class TestLeafLevel:
    @given(skewed_bases(), st.integers(0, 40))
    def test_matches_per_point_leaf_and_cap(self, case, cap):
        # the same vectors in the same order, and the point cap at the same caps
        cols, scale_bits = case

        def run(enumerate_ball):
            try:
                return enumerate_ball([c[:] for c in cols], scale_bits, cap)
            except TooManyPoints:
                return "cap"

        assert run(_enumerate_scaled_ball) == run(per_point_enumerate)

    @given(skewed_bases())
    def test_one_of_each_sign_and_never_zero(self, case):
        # the former kernel's vectors, both signs of each, are the ones
        # emitted and their negatives
        cols, scale_bits = case
        got = _enumerate_scaled_ball([c[:] for c in cols], scale_bits, 10**5)[1]
        assert _one_sign_nonzero(got)
        want = per_point_enumerate([c[:] for c in cols], scale_bits, 10**5, both_signs=True)[1]
        assert sorted(signed(got)) == sorted(want)

    def test_wide_leaf_raises_before_building_its_interval(self):
        # the leaf interval spans +-sqrt(2) 2**100; building it overflowed
        with pytest.raises(TooManyPoints):
            _enumerate_scaled_ball([[1, 0], [0, 2**200]], 100, 10)


class TestLagrangeReduce:
    def test_high_skew_basis_comes_back_pairwise_reduced(self):
        # the octave box of q in [2^235, 2^236) for the target 64 * alpha of
        # the cyclic cubic at 512 bits (eps = 0.4): first rows scaled up by
        # 2^354 against the last; it needs 83 sweeps, beyond a cap of 80
        tup = dl.power_tuple(dl.make_field([-1, -3, 0, 1], 512))
        one = 1 << tup.frac_bits
        a1, a2 = (64 * m for m in tup.alpha_mantissas())
        sh = 354
        cols = [[one << sh, 0, 0], [0, one << sh, 0], [a1 << sh, a2 << sh, one]]
        T, red = lagrange_reduce([c[:] for c in cols])
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert _nearest_int_ratio(_dot(red[i], red[j]), _dot(red[i], red[i])) == 0
        assert red == _apply(T, cols)
        assert abs(_int_det(T)) == 1

    def test_dependent_columns_terminate(self):
        # three of these reduce to vectors summing to zero, which then trade
        # equal-norm steps in a cycle that no sweep leaves unchanged
        cols = [[2, 1, -1, 2], [-2, -2, 0, -2], [1, -2, -1, 0], [2, -1, 1, 0]]
        T, red = lagrange_reduce(cols)
        assert red == _apply(T, cols)


def _unimodular(draw, d, rows):
    """rows after a few random elementary row additions."""
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1),
                                           st.integers(-3, 3)), max_size=3 * d)):
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


@st.composite
def boxes(draw):
    """(ints, scale, radii, start): an integer basis of dimension 2, 3 or 4
    and determinant at most 3**d, given at 2**-scale, radii that are not
    powers of two, small enough to walk the box point by point, and a
    unimodular start."""
    d = draw(st.integers(2, 4))
    diag = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    rows = _unimodular(draw, d, [[diag[i] * (i == j) for j in range(d)] for i in range(d)])
    rows = [list(c) for c in zip(*_unimodular(draw, d, [list(c) for c in zip(*rows)]))]
    scale = draw(st.integers(0, 70))
    radii = draw(st.lists(st.floats(0.3, {2: 40.0, 3: 12.0, 4: 6.0}[d]), min_size=d, max_size=d))
    assume(all(math.frexp(r)[0] != 0.5 for r in radii))
    start = _unimodular(draw, d, [[int(i == j) for j in range(d)] for i in range(d)])
    return [[x << scale for x in row] for row in rows], scale, radii, start


class TestBoxFrontEnd:
    @given(boxes())
    def test_covers_the_box_with_and_without_start(self, case):
        ints, scale, radii, start = case
        d = len(ints)
        rows = [[x >> scale for x in row] for row in ints]
        cold = _box_coeffs(ints, scale, radii)[1]
        T, warm = _box_coeffs(ints, scale, radii, start=start)
        assert _one_sign_nonzero(cold) and _one_sign_nonzero(warm)
        got = set(signed(cold))
        assert set(signed(warm)) == got
        assert abs(_int_det(T)) == 1
        # every nonzero lattice point x of the box, walked over the integer
        # points: m = adj(B) x / det B is integral exactly on the lattice
        det = _int_det(rows)
        adj = np.array([[(-1) ** (i + j) * _int_det([r[:i] + r[i + 1:] for t, r in enumerate(rows)
                                                     if t != j])
                         for j in range(d)] for i in range(d)], dtype=np.int64)
        grid = np.array(list(itertools.product(*(range(-math.floor(r), math.floor(r) + 1)
                                                 for r in radii))), dtype=np.int64)
        m = grid @ adj.T
        on = np.all(m % det == 0, axis=1) & np.any(grid != 0, axis=1)
        want = {tuple(int(x) // det for x in row) for row in m[on]}
        assert want <= got
        # the power-of-two radii enclose the exact ones
        assert got <= set(signed(pow2_box_coeffs(ints, scale, radii)))

    def test_gram_schmidt_bounds_outside_the_float_range(self):
        # a box 2**600 wide puts B_0 below the float range, where it rounded
        # to 0 and divided; its all-zero leaf holds more than the cap
        with pytest.raises(TooManyPoints):
            _box_coeffs([[1, 0], [0, 1]], 0, [2**600, 1])
        # a box 2**-600 narrow puts B_1 above it, where the rounding raised
        # OverflowError; a finite smaller bound finds the same points
        assert set(signed(_box_coeffs([[1, 0], [0, 1]], 0, [2**-600, 1])[1])) == {(0, 1), (0, -1)}
