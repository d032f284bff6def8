import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import diophlat as dl
from diophlat.errors import PrecisionExhausted, SingularEmbedding, StructureViolation, TooManyPoints
from diophlat.exact import (
    _companion,
    _int_det,
    _int_inverse,
    _int_mat_mul,
    _integerize,
    _ints_to_floats_scaled,
    _ring_matrix,
)
from diophlat.latgeo import (
    _FOLD_REACH,
    LatticeBasis,
    _box_coeffs,
    _exact_scaled_embedding,
    conjugator_data,
    elementary_divisors,
    hnf_canonical,
    in_cone,
    lattice_points_in_box_exact,
)

import conjugator_oracle
from conftest import CUBIC_COEFFS, CYCLIC_QUARTIC_COEFFS, PHI_COEFFS, QUARTIC_COEFFS
import stabilizer_oracle
from kernel_oracle import _int_to_float_scaled, box_pairs, box_points, enumerate_cone, signed

PHI = (1 + 5**0.5) / 2


def lattice_points_in_box(mat, radii):
    """The pairs (m, point) of the kernel, both signs of each, on the exact
    dyadic values of a float basis."""
    return box_pairs(*_integerize(np.asarray(mat, dtype=float)), radii)


def brute_force_box(mat, radii, coeff_bound=20):
    """Oracle: all coefficient vectors in the full box |m_i| <= coeff_bound."""
    d = mat.shape[0]
    axes = [np.arange(-coeff_bound, coeff_bound + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    pts = grid @ mat.T
    keep = np.all(np.abs(pts) <= np.asarray(radii) + 1e-12, axis=1)
    nonzero = np.any(grid != 0, axis=1)
    sel = grid[keep & nonzero]
    return {tuple(int(x) for x in row) for row in sel}


def simplest_cubic(a):
    """Shanks' x^3 - a x^2 - (a+3) x - 1, constant first: cyclic, with the
    other roots -1/(1+theta) and -1-1/theta in Z[theta]."""
    return [-1, -(a + 3), -a, 1]


@functools.lru_cache(maxsize=None)
def simplest_tuple(a, bits):
    return dl.power_tuple(dl.make_field(simplest_cubic(a), bits))


# the three lattices built from one tuple: Bnorm, a Hecke-scaled one and the
# conjugator's adapted basis
LATTICE_BUILDS = pytest.mark.parametrize("build", [
    lambda tup: dl.embedding_lattice(tup)[1],
    lambda tup: dl.hecke_scaled_lattice(tup, 2, 1),
    lambda tup: conjugator_data(tup).basis,
], ids=["embedding_lattice", "hecke_scaled_lattice", "conjugator_data"])


class TestDiagFlow:
    def test_identity_at_zero(self):
        assert np.allclose(dl.diag_flow(0.0, 3).entries, np.eye(3))

    def test_log2_dim3(self):
        m = dl.diag_flow(math.log(2), 3).entries
        assert np.allclose(np.diag(m), [2, 2, 0.25])

    def test_log3_dim2(self):
        m = dl.diag_flow(math.log(3), 2).entries
        assert np.allclose(np.diag(m), [3, 1 / 3])

    def test_determinant_one(self):
        for t in np.linspace(-10, 10, 21):
            for d in (2, 3, 4):
                assert abs(np.linalg.det(dl.diag_flow(t, d).entries) - 1.0) < 1e-12

    @given(st.floats(-5, 5), st.floats(-5, 5), st.sampled_from([2, 3, 4]))
    def test_flow_composition(self, s, t, d):
        lhs = dl.diag_flow(s, d).entries @ dl.diag_flow(t, d).entries
        rhs = dl.diag_flow(s + t, d).entries
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * float(np.max(np.abs(rhs)))


class TestUnipotent:
    def test_zero_is_identity(self):
        assert np.allclose(dl.unipotent([0.0, 0.0]).entries, np.eye(3))

    def test_phi(self):
        m = dl.unipotent([PHI]).entries
        assert np.allclose(m, [[1, PHI], [0, 1]])

    def test_cubic(self, cubic_tuple):
        m = dl.unipotent(cubic_tuple.alpha_floats()).entries
        assert abs(m[0, 2] - 1.8793852416) < 1e-9
        assert abs(m[1, 2] - 3.5320888862) < 1e-9
        assert abs(np.linalg.det(m) - 1.0) < 1e-14


class TestEmbeddingLattice:
    def test_phi_matrix_and_det(self, phi_tuple):
        B, bnorm = dl.embedding_lattice(phi_tuple)
        assert np.allclose(B.entries, [[1, 1 - PHI], [1, PHI]], atol=1e-12)
        assert abs(abs(B.det()) - 5**0.5) < 1e-12
        assert abs(bnorm.covolume - 1.0) < 1e-10

    def test_cubic_det_is_sqrt_disc(self, cubic_tuple):
        B, bnorm = dl.embedding_lattice(cubic_tuple)
        # disc(x^3 + px + q) = -4p^3 - 27q^2 = 81 here
        assert abs(abs(B.det()) - 9.0) < 1e-10
        assert abs(bnorm.covolume - 1.0) < 1e-10

    def test_exact_mantissas_match_floats(self, cubic_tuple):
        _, bnorm = dl.embedding_lattice(cubic_tuple)
        assert bnorm.exact_mantissa is not None
        s = bnorm.exact_scale
        approx = np.array(
            [[m / 2**s for m in row] for row in bnorm.exact_mantissa], dtype=float
        )
        assert np.max(np.abs(approx - bnorm.matrix.entries)) < 1e-12

    @LATTICE_BUILDS
    def test_equal_rows_raise_singular_embedding(self, cubic_tuple, build):
        rows = cubic_tuple.embed_mantissa
        tup = dataclasses.replace(cubic_tuple, embed_mantissa=(rows[0], rows[0], rows[2]))
        with pytest.raises(SingularEmbedding, match="embedding determinant vanishes"):
            build(tup)

    @LATTICE_BUILDS
    @pytest.mark.parametrize("a", [10**7, 10**8])
    def test_covolume_is_exact(self, build, a):
        # the float determinant of these bases strayed past the 1e-10 gate of
        # the unimodular flag; the determinant of the mantissas is exact
        lat = build(simplest_tuple(a, 192))
        assert lat.covolume == 1.0

    @LATTICE_BUILDS
    @pytest.mark.parametrize("field", ["phi", "cubic", "cyclic_quartic"])
    def test_matrix_is_the_mantissa_truncation(self, request, build, field):
        lat = build(request.getfixturevalue(f"{field}_tuple"))
        want = _ints_to_floats_scaled(np.array(lat.exact_mantissa, dtype=object), lat.exact_scale)
        assert lat.matrix.entries.tobytes() == want.tobytes()

    @LATTICE_BUILDS
    @pytest.mark.parametrize("field", ["phi", "cubic", "cyclic_quartic"])
    def test_covolume_is_one(self, request, build, field):
        assert build(request.getfixturevalue(f"{field}_tuple")).covolume == 1.0

    def test_float_entries_come_back_unchanged(self):
        mat = np.array([[0.1, -3e-200], [7.5e12, 0.0]])
        lat = LatticeBasis.from_floats(mat)
        assert lat.matrix.entries.tobytes() == mat.tobytes()
        # |det| = 3e-200 * 7.5e12 exactly, rounded once
        assert lat.covolume == float(Fraction(3e-200) * Fraction(7.5e12))


class TestHeckeScaledLattice:
    def test_k0_is_bnorm(self, phi_tuple):
        _, bnorm = dl.embedding_lattice(phi_tuple)
        lat = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        assert lat.exact_mantissa == bnorm.exact_mantissa
        assert np.allclose(lat.matrix.entries, bnorm.matrix.entries)

    def test_phi_k1_diagonal_scaling(self, phi_tuple):
        _, bnorm = dl.embedding_lattice(phi_tuple)
        lat = dl.hecke_scaled_lattice(phi_tuple, 2, 1)
        want = bnorm.matrix.entries @ np.diag([2**-0.5, 2**0.5])
        assert np.allclose(lat.matrix.entries, want)

    @pytest.mark.parametrize("bits", [192, 1024])
    @pytest.mark.parametrize("coeffs", [PHI_COEFFS, CUBIC_COEFFS, QUARTIC_COEFFS,
                                        CYCLIC_QUARTIC_COEFFS],
                             ids=["phi", "cubic", "quartic", "cyclic_quartic"])
    def test_k0_is_the_embedding_lattice(self, coeffs, bits):
        # the tuple, the field's lattice and the orbit's share one row order
        tup = dl.power_tuple(dl.make_field(coeffs, bits))
        want = dl.embedding_lattice(tup)[1].exact_mantissa
        assert dl.hecke_scaled_lattice(tup, 2, 0).exact_mantissa == want

    def test_cubic_k3_unimodular(self, cubic_tuple):
        lat = dl.hecke_scaled_lattice(cubic_tuple, 2, 3)
        assert abs(lat.covolume - 1.0) < 1e-9

    @pytest.mark.parametrize("a, p, k", [(10**5, 3, 3), (10**5, 7, 2), (10**6, 2, 5)])
    def test_simplest_cubics_at_1024_bits(self, a, p, k):
        # a float sublattice gate (a = 10^5) and the float unimodular gate
        # (a = 10^6) rejected these exact bases, whose entries reach 1e10
        lat = dl.hecke_scaled_lattice(simplest_tuple(a, 1024), p, k)
        assert lat.covolume == 1.0

    @pytest.mark.parametrize("field, p, k", [
        *((f, p, 2) for f in ("phi", "cubic", "quartic") for p in (2, 3, 7)),
        ("simplest", 3, 3), ("simplest", 7, 2),
    ])
    def test_mantissas_span_the_index_pk_sublattice(self, request, field, p, k):
        # column j of the mantissas at k is column j at k = 0 times f_j =
        # p**(e_j/d), e_j = -k for j < d-1 and e_d = k(d-1): the basis
        # (b_1, ..., b_{d-1}, p**k b_d) scaled by p**(-k/d).  Both are rounded
        # to integers, so they differ by at most (1 + f_j)/2, which is below
        # 1 off the last column
        import mpmath

        tup = (simplest_tuple(10**5, 1024) if field == "simplest"
               else request.getfixturevalue(f"{field}_tuple"))
        d, S = tup.dim, tup.frac_bits
        mk = dl.hecke_scaled_lattice(tup, p, k).exact_mantissa
        m0 = dl.hecke_scaled_lattice(tup, p, 0).exact_mantissa
        with mpmath.workprec(S + 96):
            for j in range(d):
                f = mpmath.power(p, mpmath.mpf(-k if j < d - 1 else k * (d - 1)) / d)
                for i in range(d):
                    assert abs(mk[i][j] - m0[i][j] * f) <= (1 + f) / 2 + 2**-32


# the golden ratio, x^2 - 3, the cyclic cubic, x^3 - 4x +- 1, both cyclic
# quartics, the non-Galois quartic and three simplest cubics
MPMATH_ORACLE_FIELDS = pytest.mark.parametrize("coeffs", [
    (-1, -1, 1), (-3, 0, 1), (-1, -3, 0, 1), (1, -4, 0, 1), (-1, -4, 0, 1),
    (1, 1, -4, -4, 1), (1, -4, -4, 1, 1), (1, -4, -1, 4, 1),
    *(tuple(simplest_cubic(a)) for a in (100, 10**5, 10**7)),
], ids=str)


class TestIntegerRootsMatchMpmath:
    # the embedding's entries and the conjugator's U were evaluated in mpmath
    # (tests/conjugator_oracle.py); the integer roots give the same bits
    @MPMATH_ORACLE_FIELDS
    @pytest.mark.parametrize("bits", [192, 1024])
    def test_scaled_embedding(self, coeffs, bits):
        tup = cached_tuple(coeffs, bits)
        for p in (2, 3):
            for k in range(6):
                want = conjugator_oracle.mpmath_scaled_embedding(tup, p, k)
                assert _exact_scaled_embedding(tup, p, k) == want

    @MPMATH_ORACLE_FIELDS
    @pytest.mark.parametrize("bits", [192, 1024])
    def test_conjugator_U(self, coeffs, bits):
        tup = cached_tuple(coeffs, bits)
        want = conjugator_oracle.mpmath_conjugator_U(tup)
        assert conjugator_data(tup).U.entries.tobytes() == want.tobytes()


class TestStabilizerUnits:
    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("field", ["phi", "cubic", "quartic"])
    def test_units_map_the_lattice_onto_itself(self, request, field, k):
        tup = request.getfixturevalue(f"{field}_tuple")
        lat = dl.hecke_scaled_lattice(tup, 2, k)
        d = tup.dim
        logs = np.array(lat.unit_logs, dtype=float)
        assert logs.shape == (d - 1, d - 1)
        assert np.linalg.matrix_rank(logs, tol=1e-6) == d - 1
        B = np.array(lat.exact_mantissa, dtype=float) * 2.0**-lat.exact_scale
        for row in logs:
            # a positive diagonal that maps the lattice onto itself by an
            # integer matrix of determinant one is diag(sigma(u)) for a
            # totally positive unit u stabilizing the module
            scale = np.exp(np.concatenate([row, [-row.sum()]]))
            T = np.linalg.solve(B, scale[:, None] * B)
            Tint = np.rint(T)
            assert np.max(np.abs(T - Tint)) < 1e-6
            assert _int_det([[int(x) for x in r] for r in Tint]) == 1

    def test_unit_logs_past_the_float_range(self, phi_tuple):
        # at 1100 bits the exact mantissas pass 2^1024, beyond a float
        hi = dl.power_tuple(dl.make_field([-1, -1, 1], 1100))
        want = np.array(dl.hecke_scaled_lattice(phi_tuple, 2, 0).unit_logs)
        got = np.array(dl.hecke_scaled_lattice(hi, 2, 0).unit_logs)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize(
        "field, p, k", [("phi", 2, 11), ("cubic", 2, 4), ("cubic", 2, 8), ("quartic", 7, 3)]
    )
    def test_search_stops_at_the_fold_reach(self, request, field, p, k):
        # the least stabilizing power grows with the index of the stabilizer;
        # rows longer than the fold reach are never built, and the lattice
        # then carries no unit logs
        tup = request.getfixturevalue(f"{field}_tuple")
        lat = dl.hecke_scaled_lattice(tup, p, k)
        for row in lat.unit_logs or ():
            full = np.concatenate([row, [-sum(row)]])
            assert np.max(np.abs(full)) <= _FOLD_REACH


def stabilizer_fixture(request, field):
    # x^4 + x^3 - 4x^2 - 4x + 1, the minimal polynomial of 2cos(2pi/15)
    if field == "cyclic_quartic_minpoly":
        return cached_tuple((1, -4, -4, 1, 1), 192)
    return request.getfixturevalue(f"{field}_tuple")


@functools.lru_cache(maxsize=None)
def cached_tuple(coeffs, bits):
    return dl.power_tuple(dl.make_field(list(coeffs), bits))


class TestStabilizerLattice:
    """The fold rows against the per-generator oracle and brute force."""

    @pytest.mark.parametrize("field, k, index", [
        ("cubic", 1, 7), ("cubic", 2, 7), ("cubic", 3, 28), ("cubic", 4, 112),
        ("quartic", 1, 12), ("quartic", 2, 24), ("quartic", 3, 48),
        ("cyclic_quartic", 1, 15), ("cyclic_quartic", 2, 15),
        ("cyclic_quartic_minpoly", 1, 15), ("cyclic_quartic_minpoly", 2, 15),
    ])
    def test_rows_span_the_stabilizer(self, request, field, k, index):
        # every exponent e in prod [0, o_i), o_i the least stabilizing power of
        # unit i, is tried exactly mod 2^k; the box is a fundamental domain of
        # the per-generator lattice, so the stabilizing e in it number
        # prod o_i / [Z^r : S]
        tup = stabilizer_fixture(request, field)
        pk = 2**k
        units = dl.latgeo._short_units(tup)
        orders = stabilizer_oracle.unit_orders(units, pk)
        r = len(units)
        pows = []
        for A, _ in units:
            P = [[int(i == j) for j in range(r + 1)] for i in range(r + 1)]
            pows.append([])
            for _ in range(max(orders)):
                pows[-1].append(P)
                P = [[x % pk for x in row] for row in _int_mat_mul(P, A)]

        def stabilizes(e):
            P = functools.reduce(_int_mat_mul, (pw[x] for pw, x in zip(pows, e)))
            return stabilizer_oracle.stabilizes(P, pk)

        stab = [e for e in itertools.product(*map(range, orders)) if stabilizes(e)]
        assert math.prod(orders) == index * len(stab)
        L0 = np.array([logs[:r] for _, logs in units])
        rows = np.array(dl.hecke_scaled_lattice(tup, 2, k).unit_logs)
        assert abs(abs(np.linalg.det(rows) / np.linalg.det(L0)) - index) < 1e-9
        # the rows lie in S, and S in their span
        E = np.linalg.solve(L0.T, rows.T).T
        assert np.max(np.abs(E - np.rint(E))) < 1e-9
        assert all(stabilizes([int(x) % o for x, o in zip(e, orders)]) for e in np.rint(E))
        C = np.linalg.solve(rows.T, (np.array(stab, dtype=float) @ L0).T)
        assert np.max(np.abs(C - np.rint(C))) < 1e-9

    @pytest.mark.parametrize("field", ["phi", "cubic", "quartic", "cyclic_quartic",
                                       "cyclic_quartic_minpoly"])
    def test_k0_rows_are_the_oracle_rows(self, request, field):
        tup = stabilizer_fixture(request, field)
        want = stabilizer_oracle.per_generator_unit_logs(tup, 1)
        assert dl.hecke_scaled_lattice(tup, 2, 0).unit_logs == want

    @pytest.mark.parametrize("field", ["phi", "cubic", "quartic", "cyclic_quartic",
                                       "cyclic_quartic_minpoly"])
    def test_units_do_not_depend_on_the_kernel_order(self, request, monkeypatch, field):
        # equal-length units (conjugates, inverses) are told apart by their
        # log vectors, not by which one the kernel emits first
        tup = stabilizer_fixture(request, field)
        want = [dl.hecke_scaled_lattice(tup, 2, k).unit_logs for k in range(3)]
        box_coeffs = dl.latgeo._box_coeffs

        def reversed_coeffs(*args, **kwargs):
            T, coeffs = box_coeffs(*args, **kwargs)
            return T, coeffs[::-1]

        monkeypatch.setattr(dl.latgeo, "_box_coeffs", reversed_coeffs)
        dl.latgeo._short_units.cache_clear()
        try:
            assert [dl.hecke_scaled_lattice(tup, 2, k).unit_logs for k in range(3)] == want
        finally:
            dl.latgeo._short_units.cache_clear()

    @pytest.mark.parametrize("k", range(12))
    def test_golden_rows_are_the_oracle_rows(self, phi_tuple, k):
        # rank 1: the stabilizer is generated by the least stabilizing power
        want = stabilizer_oracle.per_generator_unit_logs(phi_tuple, 2**k)
        assert dl.hecke_scaled_lattice(phi_tuple, 2, k).unit_logs == want


class TestIntDet:
    @staticmethod
    def cofactor_det(M):
        if len(M) == 1:
            return M[0][0]
        return sum(
            (-1) ** j * M[0][j] * TestIntDet.cofactor_det([r[:j] + r[j + 1:] for r in M[1:]])
            for j in range(len(M))
        )

    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-2**70, 2**70), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_bareiss_matches_cofactor_expansion(self, M):
        assert _int_det(M) == self.cofactor_det(M)

    def test_singular_and_pivoting(self):
        assert _int_det([[0, 1], [1, 0]]) == -1
        assert _int_det([[0, 0, 1], [0, 2, 0], [3, 0, 0]]) == -6
        assert _int_det([[1, 2], [2, 4]]) == 0
        assert _int_det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0


class TestIntInverse:
    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1),
                           st.integers(-2**70, 2**70)), min_size=1, max_size=12),
        st.booleans())))
    @example((4, [(0, 1, 2**70), (1, 2, -2**70), (3, 3, 2**64)], True))
    def test_inverts_products_of_elementary_matrices(self, case):
        # row operations row_i += c row_(i+s mod n) on the identity, or on
        # diag(-1, 1, ..., 1) for det = -1; entries pass 2**63 quickly
        n, steps, negate = case
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        M = [row[:] for row in eye]
        M[0][0] = -1 if negate else 1
        for i, s, c in steps:
            M[i] = [x + c * y for x, y in zip(M[i], M[(i + s) % n])]
        assert _int_det(M) == (-1 if negate else 1)
        inv = _int_inverse(M)
        assert _int_mat_mul(M, inv) == eye and _int_mat_mul(inv, M) == eye

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            _int_inverse([[2, 0], [0, 1]])


class TestRingMatrix:
    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=5), st.data())
    def test_multiplies_as_fraction_polynomials_mod_f(self, low, data):
        # m(C) maps the coordinates of x to those of m x mod f
        f = low + [1]
        d = len(low)
        elems = st.lists(st.integers(-2**70, 2**70), min_size=d, max_size=d)
        m, x = data.draw(elems), data.draw(elems)
        got = [sum(a * b for a, b in zip(row, x)) for row in _ring_matrix(m, _companion(f))]
        want = conjugator_oracle._poly_mul_mod(m, x, [Fraction(c) for c in f])
        assert got == want + [0] * (d - len(want))


def hankel_G(f):
    """The integer matrix G of U Bnorm = u G, from the traces h_k =
    Tr(theta**k / f'(theta)) evaluated on Fraction companion matrices:
    G[i][m] = -h_(i+1+m) for i < n and G[n][m] = h_m."""
    d = len(f) - 1
    C = [[Fraction(x) for x in row] for row in _companion(f)]
    dfC = _ring_matrix([i * c for i, c in enumerate(f)][1:], _companion(f))
    cols = [conjugator_oracle._fraction_solve(dfC, [int(i == j) for i in range(d)])
            for j in range(d)]
    inv = [list(row) for row in zip(*cols)]
    h, P = [], inv
    for _ in range(2 * d - 1):
        h.append(sum(P[i][i] for i in range(d)))
        P = [[sum(P[i][t] * C[t][j] for t in range(d)) for j in range(d)] for i in range(d)]
    assert all(x.denominator == 1 for x in h)
    h = [int(x) for x in h]
    return [[-h[i + 1 + m] for m in range(d)] for i in range(d - 1)] + [h[:d]]


def exact_residual(data, tup):
    """max |U basis - u(alpha)| on Fractions: the float entries of U, the
    basis mantissas and alpha's mantissas, each taken exactly."""
    d, S = tup.dim, tup.frac_bits
    U = [[Fraction(x) for x in row] for row in data.U.entries]
    B, s = data.basis.exact_mantissa, data.basis.exact_scale
    u = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for i, m in enumerate(tup.alpha_mantissas()):
        u[i][d - 1] = Fraction(m, 1 << S)
    return max(abs(sum(U[i][t] * B[t][j] for t in range(d)) / (1 << s) - u[i][j])
               for i in range(d) for j in range(d))


class TestConjugator:
    def test_phi_values(self, phi_tuple):
        # minus the former relation conjugator's U, which maps the lattice
        # onto the same point set
        data = conjugator_data(phi_tuple)
        U, U0 = data.U, data.U0
        fifth = 5**0.25
        assert np.allclose(U.entries, [[-fifth, 0], [-1 / fifth, 1 / fifth]], atol=1e-10)
        assert np.allclose(U0.entries, [[-fifth, 0], [0, 1 / fifth]], atol=1e-10)
        assert abs(np.linalg.det(U.entries) - -1.0) < 1e-12
        old = conjugator_oracle.relation_conjugator_data(phi_tuple).U.entries
        assert np.allclose(U.entries, -old, rtol=1e-15, atol=0)

    def test_defining_equation_both_tuples(self, phi_tuple, cubic_tuple):
        for tup in (phi_tuple, cubic_tuple):
            data = conjugator_data(tup)
            u = dl.unipotent(tup.alpha_floats(), tup.dim).entries
            resid = np.max(np.abs(data.U.entries @ data.basis.matrix.entries - u))
            assert resid < 1e-12
            assert abs(abs(np.linalg.det(data.U.entries)) - 1.0) < 1e-10
            d = tup.dim
            assert np.max(np.abs(data.U.entries[: d - 1, d - 1])) < 1e-12

    def test_cubic_needs_integral_basis_change(self, cubic_tuple):
        # the adapted basis is Bnorm G**-1, with G the Hankel matrix of the
        # traces of theta**k / f'(theta): an integer unimodular change of the
        # same lattice, not the identity
        data = conjugator_data(cubic_tuple)
        G = hankel_G(cubic_tuple.field.polynomial.coeffs)
        assert G == [[0, -1, 0], [-1, 0, -3], [0, 0, 1]]
        bnorm = dl.hecke_scaled_lattice(cubic_tuple, 2, 0)
        want = _int_mat_mul(bnorm.exact_mantissa, _int_inverse(G))
        assert data.basis.exact_mantissa == tuple(map(tuple, want))
        rel = np.linalg.solve(bnorm.matrix.entries, data.basis.matrix.entries)
        assert np.max(np.abs(rel - np.rint(rel))) < 1e-9
        assert not np.array_equal(np.rint(rel), np.eye(3))

    def test_flow_conjugation_monotone(self, phi_tuple, cubic_tuple):
        for tup in (phi_tuple, cubic_tuple):
            data = conjugator_data(tup)
            U, U0 = data.U, data.U0
            d = tup.dim
            prev = None
            for t in range(1, 11):
                gap = np.max(
                    np.abs(
                        dl.diag_flow(t, d).entries @ U.entries @ dl.diag_flow(-t, d).entries
                        - U0.entries
                    )
                )
                if prev is not None:
                    assert gap < prev
                prev = gap

    def test_non_galois_cubic_builds(self):
        # x^3 - 4x - 1: totally real, discriminant 229 is not a square, so the
        # conjugate roots are not rational in the designated one; the trace
        # dual needs no such relation
        tup = dl.power_tuple(dl.make_field([-1, -4, 0, 1], 192))
        data = conjugator_data(tup)
        u = dl.unipotent(tup.alpha_floats(), 3).entries
        assert np.max(np.abs(data.U.entries @ data.basis.matrix.entries - u)) < 1e-12
        assert not data.U.entries[:2, 2].any()


class TestExactConjugator:
    @pytest.mark.parametrize("bits", [192, 1024])
    @pytest.mark.parametrize("coeffs", [
        [-1, -1, 1], [-1, 1, 1], [-2, 0, 1],
        [-1, -3, 0, 1], [-1, -2, 1, 1], [1, -3, 0, 1],
        simplest_cubic(1), simplest_cubic(10), simplest_cubic(100),
        [1, 1, -4, -4, 1], [1, -4, -4, 1, 1],
    ], ids=str)
    def test_matches_float_search_oracle(self, coeffs, bits):
        # the relation oracle gives the former float search's gamma, U and
        # U0; the trace dual's basis is the orbit Bnorm times the inverse of
        # the Hankel G, and both conjugators take their bases onto u(alpha)
        tup = dl.power_tuple(dl.make_field(coeffs, bits))
        rel, old = conjugator_oracle.relation_conjugator_data(tup), conjugator_oracle.conjugator_data(tup)
        assert rel.gamma.dtype == old.gamma.dtype
        assert rel.gamma.tobytes() == old.gamma.tobytes()
        for a, b in ((rel.U, old.U), (rel.U0, old.U0)):
            assert a.entries.tobytes() == b.entries.tobytes()
        new = conjugator_data(tup)
        bnorm = dl.hecke_scaled_lattice(tup, 2, 0)
        want = _int_mat_mul(bnorm.exact_mantissa, _int_inverse(hankel_G(coeffs)))
        assert new.basis.exact_mantissa == tuple(map(tuple, want))
        assert new.basis.covolume == 1.0
        for data in (new, rel):
            assert exact_residual(data, tup) <= 1e-12 * np.abs(data.U.entries).max()

    @pytest.mark.parametrize("a", [10**3, 10**4, 10**5])
    def test_simplest_cubics_build(self, a):
        # the float search failed here: at a = 1000 its corner gate saw
        # 3.9e-10 of rounding, and from a = 10^4 limit_denominator(10**9) on
        # a float solve missed h = x^2 - (a+1) x - 2
        tup = dl.power_tuple(dl.make_field(simplest_cubic(a), 192))
        data = conjugator_data(tup)
        # h = (0, 0, 1, a, a^2 + a + 3)
        G = [[0, -1, -a], [-1, -a, -(a * a + a + 3)], [0, 0, 1]]
        assert hankel_G(simplest_cubic(a)) == G
        want = _int_mat_mul(dl.hecke_scaled_lattice(tup, 2, 0).exact_mantissa, _int_inverse(G))
        assert data.basis.exact_mantissa == tuple(map(tuple, want))
        U, basis = data.U.entries, data.basis.matrix.entries
        u = dl.unipotent(tup.alpha_floats(), 3).entries
        # U holds entries near 1e5 here, so the residual scales with them
        resid = np.max(np.abs(U @ basis - u))
        assert resid <= 1e-12 * np.max(np.abs(U)) * np.max(np.abs(basis))
        assert not U[:2, 2].any()

    @pytest.mark.parametrize("a", [10**3, 10**5, 10**6, 10**8])
    def test_simplest_cubics_residual(self, a):
        # U = u delta Bnorm**-1 inverted the float Bnorm: its exact residual
        # relative to max |U| was 8.2e-13, 1.2e-9, 1.3e-8 and 7.7e-7 here;
        # each trace-dual entry is rounded once
        tup = simplest_tuple(a, 192)
        data = conjugator_data(tup)
        assert exact_residual(data, tup) <= 1e-13 * np.abs(data.U.entries).max()

    def test_singular_float_block_raises(self):
        # x^4 - 2(10^6 x - 1)^2: the close root pair near 1e-6 leaves U0
        # singular in floats, so no box radius can be taken from its inverse
        tup = dl.power_tuple(dl.make_field([-2, 4000000, -2000000000000, 0, 1], 1024))
        with pytest.raises(PrecisionExhausted, match="finite float inverse"):
            conjugator_data(tup)

    def test_entry_past_the_float_range_raises(self):
        # x^4 - 2(10^100 x - 1)^2: the close root pair near 1e-100 puts
        # entries of U near 1e350, where the ratio of integers overflows
        a = 10**100
        tup = dl.power_tuple(dl.make_field([-2, 4 * a, -2 * a * a, 0, 1], 2048))
        assert not np.isfinite(conjugator_oracle.mpmath_conjugator_U(tup)).all()
        with pytest.raises(PrecisionExhausted, match="finite float inverse"):
            conjugator_data(tup)

    @pytest.mark.parametrize("coeffs", [[1, -4, -1, 4, 1], [-1, -4, 0, 1]], ids=str)
    @pytest.mark.parametrize("bits", [192, 1024])
    def test_non_galois_fields_raise(self, coeffs, bits):
        # in both former conjugators, which are oracles for Galois fields only
        tup = dl.power_tuple(dl.make_field(coeffs, bits))
        with pytest.raises(StructureViolation):
            conjugator_oracle.relation_conjugator_data(tup)
        with pytest.raises(StructureViolation):
            conjugator_oracle.conjugator_data(tup)

    @pytest.mark.parametrize("coeffs", [[1, -4, -1, 4, 1], [-1, -4, 0, 1], [1, -4, 0, 1],
                                        [1, -5, -1, 1], [-1, -5, 0, 1]], ids=str)
    @pytest.mark.parametrize("bits", [192, 1024])
    def test_non_galois_fields_build(self, coeffs, bits):
        tup = dl.power_tuple(dl.make_field(coeffs, bits))
        data = conjugator_data(tup)
        d = tup.dim
        assert not data.U.entries[: d - 1, d - 1].any()
        assert abs(abs(np.linalg.det(data.U.entries)) - 1.0) < 1e-10
        assert exact_residual(data, tup) <= 1e-13 * np.abs(data.U.entries).max()
        want = _int_mat_mul(dl.hecke_scaled_lattice(tup, 2, 0).exact_mantissa,
                            _int_inverse(hankel_G(coeffs)))
        assert data.basis.exact_mantissa == tuple(map(tuple, want))


class TestConjugationResidual:
    def test_ell_one_is_zero(self, phi_tuple):
        assert dl.conjugation_residual(phi_tuple, 1, "corrected") == 0.0
        assert dl.conjugation_residual(phi_tuple, 1, "uncorrected") == 0.0

    def test_corrected_rule_exact(self, phi_tuple, cubic_tuple):
        for tup in (phi_tuple, cubic_tuple):
            for ell in (2, 4, 9):
                assert dl.conjugation_residual(tup, ell, "corrected") < 1e-12

    def test_uncorrected_rule_off_by_scaling(self, phi_tuple):
        resid = dl.conjugation_residual(phi_tuple, 4, "uncorrected")
        assert abs(resid - 12 * PHI) < 1e-9


class TestBoxPoints:
    @given(st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=2), st.floats(0.3, 1.5),
           st.integers(0, 2))
    def test_bitwise_equal_to_per_point_oracle(self, cubic_tuple_1024, w, r, k):
        # 1024-bit mantissas pass 2^1024, so no entry survives a plain float
        # conversion; the one object product and the truncation must give the
        # per-point oracle's floats exactly, in the kernel's order: each m,
        # then each -m
        base = dl.hecke_scaled_lattice(cubic_tuple_1024, 2, k)
        ints, scale = base.exact_mantissa, base.exact_scale
        assert max(abs(x) for row in ints for x in row).bit_length() > 1024
        radii = r * np.exp(-np.array(w + [-sum(w)]))
        got = lattice_points_in_box_exact(ints, scale, radii)
        coeffs = signed(_box_coeffs(ints, scale, radii)[1])
        want = np.array([p for _, p in box_points(ints, scale, coeffs)])
        assert got.dtype == want.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_empty_box(self):
        got = lattice_points_in_box_exact(*_integerize(np.eye(2)), [0.5, 0.5])
        assert got.shape == (0, 2) and got.dtype == np.float64

    @given(st.lists(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(2**1100), 2**1100)),
                    min_size=1, max_size=6),
           st.integers(0, 1100))
    def test_array_truncation_matches_per_integer(self, vals, scale):
        # past 2^1024 after scaling the per-integer path overflows; box points
        # never get there
        vals = [v for v in vals if v.bit_length() - scale <= 1024]
        got = _ints_to_floats_scaled(np.array(vals, dtype=object), scale)
        want = np.array([_int_to_float_scaled(v, scale) for v in vals], dtype=float)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


class TestInCone:
    def test_faces(self):
        eps = 0.4
        head = np.array([0.0, 0.1, -0.39, 0.4, 0.2, 0.2, 0.1])
        last = np.array([0.5, 1.0, -1.0, 0.0, 1.0 + 1e-12, -0.3, np.nan])
        assert in_cone([head, last], eps).tolist() == [False, True, True, False, False, True, False]

    def test_sup_over_the_projection(self):
        x = np.array([[0.1, 0.5], [0.0, 0.0]])
        y = np.array([[0.3, 0.1], [0.0, 0.2]])
        z = np.zeros((2, 2))
        assert in_cone([x, y, z], 0.4).tolist() == [[True, False], [False, True]]


class TestEnumerateCone:
    def test_z2_empty(self):
        assert enumerate_cone(LatticeBasis.from_floats(np.eye(2)), 0.6) == ((), ())

    def test_rectangular_lattice(self):
        _, points = enumerate_cone(LatticeBasis.from_floats(np.diag([0.5, 2.0])), 0.6)
        got = sorted(tuple(np.round(p, 9)) for p in points)
        assert got == [(-0.5, 0.0), (0.5, 0.0)]

    def test_phi_normalized_contains_unit_column(self, phi_tuple):
        _, bnorm = dl.embedding_lattice(phi_tuple)
        _, points = enumerate_cone(bnorm, 0.7)
        target = 1 / 5**0.25
        assert any(
            abs(p[0] - s * target) < 1e-9 and abs(p[1] - s * target) < 1e-9
            for p in points
            for s in (1, -1)
        )

    def test_points_recoverable_and_symmetric(self, cubic_tuple):
        _, bnorm = dl.embedding_lattice(cubic_tuple)
        coeffs, points = enumerate_cone(bnorm, 0.8)
        assert len(points) % 2 == 0
        coeffset = set(coeffs)
        mat = bnorm.matrix.entries
        for m, p in zip(coeffs, points):
            assert tuple(-x for x in m) in coeffset
            rec = np.linalg.solve(mat, p)
            assert np.max(np.abs(rec - np.rint(rec))) < 1e-9

    @pytest.mark.parametrize(
        "mat,eps",
        [
            (np.eye(2), 0.9),
            (np.diag([0.5, 2.0]), 0.7),
            ([[1.0, PHI], [1.0, 1 - PHI]], 1.2),
            ([[0.3, 0.1, 0.0], [0.0, 2.0, 0.7], [0.1, 0.0, 1.4]], 0.8),
        ],
    )
    def test_matches_brute_force(self, mat, eps):
        mat = np.asarray(mat, dtype=float)
        d = mat.shape[0]
        radii = [eps] * (d - 1) + [1.0]
        got = {m for m, _ in lattice_points_in_box(mat, radii)}
        want = brute_force_box(mat, radii)
        # enumeration may return extra candidates inside the enlarged region
        # (radii rounded up to powers of two, times the sqrt(d) ball slack);
        # it must never miss a true point
        assert want <= got
        pts = {m: p for m, p in lattice_points_in_box(mat, radii)}
        enlarged = np.array([2.0 ** math.ceil(math.log2(r)) for r in radii])
        for m in got - want:
            p = pts[m]
            assert np.all(np.abs(p) <= enlarged * d**0.5 * 1.01)

    def test_skewed_flow_lattice_complete(self, phi_tuple):
        # a(t) u(alpha) hides cone points at coefficient scale e^t; at t = 7.9
        # the active membership window belongs to the Fibonacci pair q = 2584
        t = 7.9
        phi = phi_tuple.alpha_floats()[0]
        q = 2584
        delta = abs(q * phi - round(q * phi))
        assert math.log(q) < t < math.log(0.5 / delta)
        mat = dl.diag_flow(t, 2).entries @ dl.unipotent(phi_tuple.alpha_floats()).entries
        got = {m for m, _ in lattice_points_in_box(mat, [0.5, 1.0])}
        assert any(abs(m[1]) == q for m in got)

    def test_cap(self, monkeypatch):
        # the kernel reads the cap at call time
        monkeypatch.setattr(dl.latgeo, "POINT_CAP", 10)
        with pytest.raises(TooManyPoints):
            enumerate_cone(LatticeBasis.from_floats(np.diag([1e-4, 1e4])), 0.9)


class TestHecke:
    def test_m2_matrices(self):
        got = [H.tolist() for H in dl.hecke_neighbors(2, 2)]
        assert [[2, 0], [0, 1]] in got
        assert [[1, 0], [0, 2]] in got
        assert [[1, 1], [0, 2]] in got
        assert len(got) == 3

    def test_m3_count(self):
        assert len(dl.hecke_neighbors(2, 3)) == 4

    def test_m1_identity(self):
        got = dl.hecke_neighbors(2, 1)
        assert len(got) == 1
        assert np.array_equal(got[0], np.eye(2, dtype=int))

    def test_sigma1_counts(self):
        def sigma1(m):
            return sum(d for d in range(1, m + 1) if m % d == 0)

        for m in range(1, 21):
            assert len(dl.hecke_neighbors(2, m)) == sigma1(m)

    def test_prime_counts_d2(self):
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            assert len(dl.hecke_neighbors(2, p)) == p + 1

    def test_count_independent_of_base(self, phi_tuple):
        rng = np.random.default_rng(5)
        hs = dl.hecke_neighbors(2, 4)
        for _ in range(10):
            mat = rng.normal(size=(2, 2))
            while abs(np.linalg.det(mat)) < 0.3:
                mat = rng.normal(size=(2, 2))
            base = LatticeBasis.from_floats(mat)
            keys = set()
            for H in hs:
                nb = dl.hecke_apply(base, H)
                coeff = np.linalg.solve(base.matrix.entries, nb.matrix.entries * 4 ** (1 / 2))
                ints = np.rint(coeff).astype(int)
                assert np.max(np.abs(coeff - ints)) < 1e-6
                keys.add(hnf_canonical(ints))
            assert len(keys) == len(hs)

    def test_neighbors_are_distinct_lattices(self):
        keys = {hnf_canonical(H.T) for H in dl.hecke_neighbors(2, 2)}
        assert len(keys) == 3

    def test_typed_filter(self):
        # index p^2 neighbors of type (1, p^2) vs (p, p)
        both = dl.hecke_neighbors(2, 9)
        tall = dl.hecke_neighbors_typed(2, 3, [0, 2])
        square = dl.hecke_neighbors_typed(2, 3, [1, 1])
        assert len(tall) + len(square) == len(both)
        assert len(square) == 1
        for H in square:
            assert elementary_divisors(H) == (3, 3)

    def test_apply_preserves_unimodularity(self, phi_tuple):
        _, bnorm = dl.embedding_lattice(phi_tuple)
        for H in dl.hecke_neighbors(2, 6):
            nb = dl.hecke_apply(bnorm, H)
            assert abs(nb.covolume - 1.0) < 1e-9
