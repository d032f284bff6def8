"""The enumeration kernel (integral LLL, exact Gram-Schmidt bounds) against
the former kernel, its breadth-first batches against the former depth-first
search, and its box front end against brute force and the former
power-of-two front end; the former versions stay here as oracles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import diophlat as dl
from diophlat.errors import TooManyPoints
from diophlat.exact import _int_det, _int_mat_mul, _lll_reduce, _nearest_int_ratio
from diophlat.latgeo import _box_coeffs, _enumerate_scaled_ball, _reduce_box

from kernel_oracle import (_box_columns, ball_coeffs, depth_first, lagrange_enumerate,
                           lagrange_reduce, per_point_enumerate, pow2_box_coeffs, signed)


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


def _skewed_basis(draw, d):
    entries = st.integers(-60, 60)
    rows = draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d))
    assume(_int_det(rows) != 0)
    shifts = draw(st.lists(st.integers(0, 200), min_size=d, max_size=d))
    cols, _ = _box_columns(rows, [-s for s in shifts])
    _, red = lagrange_reduce([c[:] for c in cols])
    shortest = min(_dot(c, c) for c in red)
    return cols, shortest.bit_length() // 2 + draw(st.integers(-1, 1))


@st.composite
def skewed_bases(draw):
    """(columns, scale bits): a small nonsingular integer basis of dimension
    2, 3 or 4 with its rows shifted by up to 2^200, and a scale that puts
    the enumeration ball near the shortest vector."""
    return _skewed_basis(draw, draw(st.integers(2, 4)))


@st.composite
def skewed_batches(draw):
    """One to five boxes of _reduce_box on bases of skewed_bases of one
    dimension, 2, 3 or 4, each with unit radii or radii drawn in
    [2^-8, 2^8]."""
    d = draw(st.integers(2, 4))
    boxes = []
    for _ in range(draw(st.integers(1, 5))):
        cols, scale_bits = _skewed_basis(draw, d)
        radii = draw(st.one_of(st.just([1] * d), st.lists(st.floats(2.0**-8, 2.0**8),
                                                          min_size=d, max_size=d)))
        boxes.append(_reduce_box([list(r) for r in zip(*cols)], scale_bits, radii))
    return boxes


def _one_sign_nonzero(coeffs):
    """No zero vector, no vector twice, and never both m and -m."""
    return all(any(m) for m in coeffs) and len(set(signed(coeffs))) == 2 * len(coeffs)


class TestLLLKernel:
    @given(skewed_bases())
    # a draw whose ball holds 165,008 vectors of one sign, past the cap
    @example(([[0, 0, 1024, 0], [0, 512, 512, 0], [512, 0, 512, 0], [0, 1024, 0, 1]], 10))
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

        try:
            step, got = ball_coeffs(cols, scale_bits, 10**5)
        except TooManyPoints:
            # the ball holds more than the cap on the one sign emitted
            box = _reduce_box([list(r) for r in zip(*cols)], scale_bits, [1] * d)
            assert len(depth_first(box, 10**6)) > 10**5
            return
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

        assert run(ball_coeffs) == run(per_point_enumerate)

    @given(skewed_bases())
    def test_one_of_each_sign_and_never_zero(self, case):
        # the former kernel's vectors, both signs of each, are the ones
        # emitted and their negatives
        cols, scale_bits = case
        got = ball_coeffs([c[:] for c in cols], scale_bits, 10**5)[1]
        assert _one_sign_nonzero(got)
        want = per_point_enumerate([c[:] for c in cols], scale_bits, 10**5, both_signs=True)[1]
        assert sorted(signed(got)) == sorted(want)

    def test_wide_leaf_raises_before_building_its_interval(self):
        # the leaf interval spans +-sqrt(2) 2**100; building it overflowed
        with pytest.raises(TooManyPoints):
            ball_coeffs([[1, 0], [0, 2**200]], 100, 10)

    def test_cap_counts_the_one_sign_emitted(self):
        # the axis of the first column holds 11 points of each sign: the cap
        # of 12 holds them, though both signs would pass it
        assert ball_coeffs([[1, 0], [0, 2**20]], 3, 12)[1] == [(v, 0) for v in range(1, 12)]
        with pytest.raises(TooManyPoints):
            ball_coeffs([[1, 0], [0, 2**20]], 3, 10)


class TestBatch:
    @given(skewed_batches())
    def test_each_box_is_the_depth_first_search_and_a_batch_of_one(self, boxes):
        # the same vectors in the same order, box by box
        cap = 10**5
        try:
            owner, C = _enumerate_scaled_ball(boxes, cap)
        except TooManyPoints:
            with pytest.raises(TooManyPoints):
                for box in boxes:
                    depth_first(box, cap)
            return
        assert C.dtype == np.int64 and np.all(np.diff(owner) >= 0)
        for i, box in enumerate(boxes):
            got = list(map(tuple, C[owner == i].tolist()))
            assert got == depth_first(box, cap)
            alone = _enumerate_scaled_ball([box], cap)
            assert list(map(tuple, alone[1].tolist())) == got and not alone[0].any()


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
