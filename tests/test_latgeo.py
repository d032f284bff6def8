import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import diophlat as dl
from diophlat.errors import StructureViolation, TooManyPoints
from diophlat.latgeo import (
    _FOLD_REACH,
    SquareMatrix,
    LatticeBasis,
    _int_det,
    _integerize,
    conjugator_data,
    elementary_divisors,
    hnf_canonical,
    in_cone,
    lattice_points_in_box_exact,
)

from kernel_oracle import box_points, enumerate_cone

PHI = (1 + 5**0.5) / 2


def lattice_points_in_box(mat, radii):
    """The kernel on the exact dyadic values of a float basis."""
    return lattice_points_in_box_exact(*_integerize(np.asarray(mat, dtype=float)), radii)


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


def make_basis(mat):
    sm = SquareMatrix(np.asarray(mat, dtype=float))
    return LatticeBasis(sm, covolume=abs(sm.det()))


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
        assert np.allclose(B.entries, [[1, PHI], [1, 1 - PHI]], atol=1e-12)
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


class TestHeckeScaledLattice:
    def test_k0_is_bnorm(self, phi_tuple):
        _, bnorm = dl.embedding_lattice(phi_tuple)
        lat = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        assert np.allclose(lat.matrix.entries, bnorm.matrix.entries)

    def test_phi_k1_diagonal_scaling(self, phi_tuple):
        _, bnorm = dl.embedding_lattice(phi_tuple)
        lat = dl.hecke_scaled_lattice(phi_tuple, 2, 1)
        want = bnorm.matrix.entries @ np.diag([2**-0.5, 2**0.5])
        assert np.allclose(lat.matrix.entries, want)

    def test_cubic_k3_unimodular(self, cubic_tuple):
        lat = dl.hecke_scaled_lattice(cubic_tuple, 2, 3)
        assert abs(lat.covolume - 1.0) < 1e-9


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


class TestConjugator:
    def test_phi_values(self, phi_tuple):
        data = conjugator_data(phi_tuple)
        U, U0 = data.U, data.U0
        fifth = 5**0.25
        assert np.allclose(U.entries, [[fifth, 0], [1 / fifth, -1 / fifth]], atol=1e-10)
        assert np.allclose(U0.entries, [[fifth, 0], [0, -1 / fifth]], atol=1e-10)
        assert abs(np.linalg.det(U.entries) - -1.0) < 1e-12

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
        data = conjugator_data(cubic_tuple)
        assert not np.array_equal(data.gamma, np.eye(3, dtype=int))
        assert abs(abs(round(float(np.linalg.det(data.gamma.astype(float))))) - 1) == 0
        # the adapted basis spans the same lattice: integer unimodular transform
        _, bnorm = dl.embedding_lattice(cubic_tuple)
        rel = np.linalg.solve(bnorm.matrix.entries, data.basis.matrix.entries)
        assert np.max(np.abs(rel - np.rint(rel))) < 1e-9

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

    def test_non_galois_cubic_raises(self):
        # x^3 - 4x - 1: totally real, discriminant 229 is not a square, so the
        # conjugate roots are not rational in the designated one and no
        # integral basis change can realize the block form
        tup = dl.power_tuple(dl.make_field([-1, -4, 0, 1], 192))
        with pytest.raises(StructureViolation):
            conjugator_data(tup)


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
        # per-point oracle's floats exactly, in the kernel's order
        base = dl.hecke_scaled_lattice(cubic_tuple_1024, 2, k)
        ints, scale = base.exact_mantissa, base.exact_scale
        assert max(abs(x) for row in ints for x in row).bit_length() > 1024
        radii = r * np.exp(-np.array(w + [-sum(w)]))
        got = lattice_points_in_box_exact(ints, scale, radii)
        want = box_points(ints, scale, [m for m, _ in got])
        assert [m for m, _ in got] == [m for m, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()

    def test_empty_box(self):
        assert lattice_points_in_box(np.eye(2), [0.5, 0.5]) == []


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
        assert enumerate_cone(make_basis(np.eye(2)), 0.6) == ((), ())

    def test_rectangular_lattice(self):
        _, points = enumerate_cone(make_basis(np.diag([0.5, 2.0])), 0.6)
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

    def test_cap(self):
        with pytest.raises(TooManyPoints):
            enumerate_cone(make_basis(np.diag([1e-4, 1e4])), 0.9, cap=10)


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
            base = make_basis(mat)
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
