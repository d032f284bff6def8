import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import diophlat as dl
from diophlat import orbitmeasure as om
from diophlat import spheremeasure as sm
from diophlat.errors import DiophlatError, InvalidInput, PrecisionExhausted
from diophlat.latgeo import (
    LatticeBasis,
    SquareMatrix,
    conjugator_data,
    lattice_points_in_box_exact,
)

import conjugator_oracle
from kernel_oracle import enumerate_cone, pow2_box_points
from sphere_oracle import from_atoms


def theta_atoms_flowed(base_ints, base_scale, w, eps, Umat, Uinv_abs):
    """Oracle: directions of the cone points of U exp(diag(w, -sum w)) base
    Z^d for one sample, from its own box enumeration.

    The diagonal scaling lives in the box radii; the residues z are O(1)
    componentwise, so the float application of U is accurate.
    """
    d = len(base_ints)
    diag = np.concatenate([w, [-w.sum()]])
    grow = np.exp(diag)
    target = np.array([eps] * (d - 1) + [1.0])
    reach = Uinv_abs @ target
    radii = reach * np.exp(-diag) * (1.0 + 1e-12)
    dirs = []
    for _, y in lattice_points_in_box_exact(base_ints, base_scale, radii):
        z = grow * y
        v = Umat @ z
        proj = v[: d - 1]
        sup = float(np.max(np.abs(proj)))
        if 0.0 < sup < eps and abs(float(v[d - 1])) <= 1.0:
            dirs.append(proj / np.linalg.norm(proj))
    return dirs


def pushforward_oracle(samples, eps, U):
    """Per-sample pushforward: one enumeration and one loop per sample.
    Returns the merged measure and the hit count."""
    base = samples.base
    n = base.dim - 1
    ints, scale = base.exact_mantissa, base.exact_scale
    Umat = U.entries
    Uinv_abs = np.abs(np.linalg.inv(Umat))
    vecs, wts, hits = [], [], 0
    for w in samples.log_coords:
        dirs = theta_atoms_flowed(ints, scale, w, eps, Umat, Uinv_abs)
        if dirs:
            hits += 1
            vecs.extend(dirs)
            wts.extend([1.0 / len(dirs)] * len(dirs))
    if not vecs:
        return sm.zero_measure(n), 0
    mu = sm.DirectionMeasure(n, np.array(vecs), np.array(wts) / samples.count)
    return sm.merge_atoms(mu), hits


def unique_row_groups(cells):
    """Oracle: the cell grouping pushforward_minvec used before
    orbitmeasure._row_groups, one np.unique pass and a stable argsort."""
    _, cell_of = np.unique(cells, axis=0, return_inverse=True)
    order = np.argsort(cell_of.ravel(), kind="stable")
    splits = np.flatnonzero(np.diff(cell_of.ravel()[order])) + 1
    return np.split(order, splits)


class TestSampleOrbit:
    def test_empty(self):
        out = dl.sample_orbit(LatticeBasis.from_floats(np.eye(2)), 1.0, 0, 3)
        assert out.count == 0 and out.log_coords.shape == (0, 1)

    @pytest.mark.parametrize("N", [0, 1, 3])
    def test_count_is_the_number_of_log_coords(self, N):
        # a count stored beside the samples weighed 3 samples as 5 (mass
        # 0.6) or as 2 ("total mass exceeds one"); it is read off them now
        base = LatticeBasis.from_floats(np.diag([0.5, 2.0]))
        assert dl.sample_orbit(base, 1.0, N, 3).count == N
        samples = om.OrbitSampleSet(base, 1.0, 0, np.zeros((N, 1)))
        assert samples.count == N
        mu = dl.pushforward_minvec(samples, 0.6, SquareMatrix(np.eye(2)))
        assert abs(mu.total_mass - (N > 0)) < 1e-12

    def test_deterministic(self, phi_tuple):
        base = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        a = dl.sample_orbit(base, 5.0, 50, 99)
        b = dl.sample_orbit(base, 5.0, 50, 99)
        assert np.array_equal(a.log_coords, b.log_coords)

    def test_seed_changes_samples(self, phi_tuple):
        base = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        a = dl.sample_orbit(base, 5.0, 50, 99)
        b = dl.sample_orbit(base, 5.0, 50, 100)
        assert not np.array_equal(a.log_coords, b.log_coords)

    def test_precision_warning_at_large_half_width(self, phi_tuple):
        # 192-bit bases cover half widths up to ~(192-40) ln2 / 2 = 52; beyond
        # that the membership arithmetic runs out of certified bits
        import warnings as w

        base = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        U0 = conjugator_data(phi_tuple).U0
        samples = dl.sample_orbit(base, 60.0, 5, 3)
        with pytest.warns(UserWarning, match="precision"):
            dl.pushforward_minvec(samples, 0.45, U0)
        samples_ok = dl.sample_orbit(base, 30.0, 5, 3)
        with w.catch_warnings():
            w.simplefilter("error")
            dl.pushforward_minvec(samples_ok, 0.45, U0)

    def test_unit_log_sampler_hits_exact_fraction(self, phi_tuple):
        # samples drawn uniformly from the fundamental parallelepiped of the
        # stabilizer log-lattice sample the orbit exactly, and the hit
        # fraction converges to the window fraction
        # 2 ln(0.45 sqrt 5) / (2 ln phi)
        data = conjugator_data(phi_tuple)
        base = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        period = 2 * math.log((1 + 5**0.5) / 2)
        assert abs(abs(base.unit_logs[0][0]) - period) < 1e-12
        gen = np.random.Generator(np.random.Philox(key=42))
        X = gen.uniform(-0.5, 0.5, size=(20000, 1)) + 0.5  # uniform in [0, 1)
        samples = om.OrbitSampleSet(base, 1.0, 42, X @ np.asarray(base.unit_logs))
        w = samples.log_coords * math.copysign(1.0, base.unit_logs[0][0])
        assert float(np.max(w)) <= period
        assert float(np.min(w)) >= 0.0
        push = dl.pushforward_minvec(samples, 0.45, data.U0)
        exact = 2 * math.log(0.45 * 5**0.5) / (2 * math.log((1 + 5**0.5) / 2))
        assert abs(push.total_mass - exact) < 0.005


def theta_eps_oracle(lattice, eps):
    """The former theta_eps: the cone points of enumerate_cone, in
    coefficient order, each of weight 1 / (their number), through from_atoms."""
    n = lattice.dim - 1
    _, pts = enumerate_cone(lattice, eps)
    if not pts:
        return sm.zero_measure(n)
    w = 1.0 / len(pts)
    return from_atoms(n, [(v[:n] / np.linalg.norm(v[:n]), w) for v in pts])


@pytest.mark.filterwarnings("error")
class TestThetaEps:
    def test_z2_zero_measure(self):
        mu = dl.theta_eps(LatticeBasis.from_floats(np.eye(2)), 0.6)
        assert mu.is_zero()

    def test_rectangular(self):
        mu = dl.theta_eps(LatticeBasis.from_floats(np.diag([0.5, 2.0])), 0.6)
        masses = {int(v[0]): w for v, w in zip(mu.vectors, mu.weights)}
        assert masses == {1: 0.5, -1: 0.5}

    def test_mass_zero_or_one(self, phi_tuple):
        _, bnorm = dl.embedding_lattice(phi_tuple)
        for eps in (0.3, 0.5, 0.7, 0.9):
            mu = dl.theta_eps(bnorm, eps)
            assert mu.total_mass in (0.0,) or abs(mu.total_mass - 1.0) < 1e-12

    def test_nonpositive_eps_is_invalid_input(self, phi_tuple):
        _, bnorm = dl.embedding_lattice(phi_tuple)
        for eps in (0.0, -0.5):
            with pytest.raises(InvalidInput):
                dl.theta_eps(bnorm, eps)

    @pytest.mark.parametrize("field", ["phi", "cubic", "cyclic_quartic"])
    def test_matches_cone_enumeration_oracle(self, request, field):
        # the one-sample pushforward against enumerate_cone then from_atoms:
        # bitwise on S^0 and S^1; on S^2 the greedy merge keeps input order,
        # which differs (coefficient order against box order), so there the
        # atoms agree as a multiset
        def atoms(m):
            return sorted((v.tobytes(), w.tobytes()) for v, w in zip(m.vectors, m.weights))

        tup = request.getfixturevalue(f"{field}_tuple")
        cases = [(dl.embedding_lattice(tup)[1], eps) for eps in (0.3, 0.45, 0.5, 0.7, 0.9)]
        cases += [(dl.hecke_scaled_lattice(tup, 2, k), eps) for k in (0, 1, 2) for eps in (0.4, 0.7)]
        hits = 0
        for lattice, eps in cases:
            mu, want = dl.theta_eps(lattice, eps), theta_eps_oracle(lattice, eps)
            assert mu.dim == want.dim == tup.n
            hits += not want.is_zero()
            if tup.n < 3:
                assert mu.vectors.tobytes() == want.vectors.tobytes()
                assert mu.weights.tobytes() == want.weights.tobytes()
            else:
                assert atoms(mu) == atoms(want)
        assert hits > 0


class TestPushforward:
    def test_constant_samples(self):
        base = LatticeBasis.from_floats(np.diag([0.5, 2.0]))
        samples = om.OrbitSampleSet(base, 1.0, 0, np.zeros((4, 1)))
        mu = dl.pushforward_minvec(samples, 0.6, SquareMatrix(np.eye(2)))
        masses = {int(v[0]): w for v, w in zip(mu.vectors, mu.weights)}
        assert masses == {1: 0.5, -1: 0.5}
        assert abs(mu.total_mass - 1.0) < 1e-12

    def test_z2_zero(self):
        base = LatticeBasis.from_floats(np.eye(2))
        samples = om.OrbitSampleSet(base, 1.0, 0, np.zeros((3, 1)))
        assert dl.pushforward_minvec(samples, 0.6, SquareMatrix(np.eye(2))).is_zero()

    def test_empty_samples(self, phi_tuple):
        base = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        samples = dl.sample_orbit(base, 1.0, 0, 5)
        assert dl.pushforward_minvec(samples, 0.45, conjugator_data(phi_tuple).U0).is_zero()

    def test_mass_fraction_identity(self, phi_tuple):
        data = conjugator_data(phi_tuple)
        base = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        samples = dl.sample_orbit(base, 10.0, 500, 21)
        mu = dl.pushforward_minvec(samples, 0.45, data.U0)
        hits = 0
        for w in samples.log_coords:
            dirs = theta_atoms_flowed(
                base.exact_mantissa,
                base.exact_scale,
                w,
                0.45,
                data.U0.entries,
                np.abs(np.linalg.inv(data.U0.entries)),
            )
            hits += bool(dirs)
        assert abs(mu.total_mass - hits / 500) < 1e-12

    def test_mass_matches_sweep_cross_oracle(self, phi_tuple):
        # mass-matching half of the time-average vs orbit-average identity
        data = conjugator_data(phi_tuple)
        T = L = 30.0
        recs = dl.scan_records(phi_tuple, 1, 0.45, T)
        wal = dl.sweep_weights(recs, T)
        base = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        samples = dl.sample_orbit(base, L, 20000, 20260809)
        push = dl.pushforward_minvec(samples, 0.45, data.U0)
        assert abs(push.total_mass - (1.0 - wal.empty_fraction)) < 0.05

    def test_diagonal_invariance(self, phi_tuple):
        # replacing the base point by a small diagonal translate moves the
        # box-average measure only a little
        data = conjugator_data(phi_tuple)
        base = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        # carry the exact mantissas through the diagonal multiplication
        e_s = math.exp(0.5)
        shifted = LatticeBasis(tuple(
            tuple(int(round(m * (e_s if i == 0 else 1 / e_s))) for m in row)
            for i, row in enumerate(base.exact_mantissa)
        ), base.exact_scale)
        L, N, seed = 30.0, 10000, 17
        mu_a = dl.pushforward_minvec(dl.sample_orbit(base, L, N, seed), 0.45, data.U0)
        mu_b = dl.pushforward_minvec(dl.sample_orbit(shifted, L, N, seed), 0.45, data.U0)
        assert dl.distance(dl.normalize(mu_a), dl.normalize(mu_b)) <= 0.1

    def test_boundary_mass_negligible(self, phi_tuple):
        # samples with a lattice point within 1e-6 of the cone boundary are
        # rare, which backs the continuity assumptions of the comparison
        data = conjugator_data(phi_tuple)
        base = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        samples = dl.sample_orbit(base, 30.0, 2000, 23)
        eps = 0.45
        tol = 1e-6
        Uinv_abs = np.abs(np.linalg.inv(data.U0.entries))
        near = 0
        for w in samples.log_coords:
            diag = np.concatenate([w, [-w.sum()]])
            grow = np.exp(diag)
            reach = Uinv_abs @ np.array([eps + tol, 1.0 + tol])
            radii = reach * np.exp(-diag) * (1.0 + 1e-12)
            from diophlat.latgeo import lattice_points_in_box_exact

            found = False
            for _, y in lattice_points_in_box_exact(
                base.exact_mantissa, base.exact_scale, radii
            ):
                v = data.U0.entries @ (grow * y)
                proj = float(np.max(np.abs(v[:1])))
                if abs(proj - eps) < tol or abs(abs(v[1]) - 1.0) < tol:
                    found = True
                    break
            near += found
        assert near / 2000 < 1e-3


class TestFoldAndBatch:
    @pytest.mark.parametrize(
        "field, k, L, eps",
        [("phi", 0, 30.0, 0.45), ("phi", 1, 30.0, 0.45), ("phi", 2, 30.0, 0.45),
         ("cubic", 0, 25.0, 0.4), ("cubic", 1, 25.0, 0.4)],
    )
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_matches_per_sample_oracle(self, phi_tuple, cubic_tuple, field, k, L, eps, seed):
        tup = phi_tuple if field == "phi" else cubic_tuple
        U0 = conjugator_data(tup).U0
        base = dl.hecke_scaled_lattice(tup, 2, k)
        assert base.unit_logs is not None
        samples = dl.sample_orbit(base, L, 200, seed)
        mu = dl.pushforward_minvec(samples, eps, U0)
        want, hits = pushforward_oracle(samples, eps, U0)
        assert round(mu.total_mass * samples.count) == hits
        assert mu.n_atoms == want.n_atoms
        if hits:
            assert np.max(np.abs(mu.vectors - want.vectors)) <= 1e-12
            assert np.max(np.abs(mu.weights - want.weights)) <= 1e-12

    @pytest.mark.parametrize(
        "field, k, L, N, eps, seed",
        [("cubic", 2, 25.0, 1000, 0.4, 3), ("cubic", 2, 25.0, 1000, 0.4, 11),
         ("cubic", 2, 25.0, 1000, 0.4, 29), ("cyclic_quartic", 0, 2.0, 20, 0.4, 3)],
    )
    def test_full_cells_match_per_sample_oracle(self, cubic_tuple, cyclic_quartic_tuple,
                                                 field, k, L, N, eps, seed):
        # cells of side 2/n: the cubic at k = 2 puts about 27 samples (up to
        # 62) in each of its 36 or 37 cells here; the quartic's have side 2/3
        tup = cubic_tuple if field == "cubic" else cyclic_quartic_tuple
        U0 = conjugator_data(tup).U0
        base = dl.hecke_scaled_lattice(tup, 2, k)
        assert base.unit_logs is not None
        samples = dl.sample_orbit(base, L, N, seed)
        mu = dl.pushforward_minvec(samples, eps, U0)
        want, hits = pushforward_oracle(samples, eps, U0)
        assert hits > 0
        assert round(mu.total_mass * samples.count) == hits
        assert mu.n_atoms == want.n_atoms
        assert np.max(np.abs(mu.vectors - want.vectors)) <= 1e-12
        assert np.max(np.abs(mu.weights - want.weights)) <= 1e-12

    @given(st.integers(1, 4).flatmap(lambda c: hnp.arrays(
        np.int64, st.tuples(st.integers(1, 60), st.just(c)),
        elements=st.one_of(st.integers(0, 3), st.integers(0, 2**63 - 1)))))
    def test_row_groups_are_the_unique_rows_groups(self, cells):
        got, want = om._row_groups(cells), unique_row_groups(cells)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("k", [6, 7, 8, 11])
    def test_long_periods_match_oracle(self, phi_tuple, k):
        # golden ratio at p = 2: the period is 2m ln(phi) for the least m with
        # 2^k | F_2m, 23.1, 46.2 and 92.4 at k = 6, 7, 8 (none past k = 8); a sample
        # is folded only where that shortens it, so none leaves the box
        # [-L, L] the 192-bit mantissas resolve
        import warnings

        U0 = conjugator_data(phi_tuple).U0
        base = dl.hecke_scaled_lattice(phi_tuple, 2, k)
        assert (base.unit_logs is None) == (k > 8)
        samples = dl.sample_orbit(base, 30.0, 200, 7)
        if base.unit_logs is not None:
            W = om._fold(samples.log_coords, base.unit_logs)
            assert np.all(np.abs(W) <= np.abs(samples.log_coords))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu = dl.pushforward_minvec(samples, 0.45, U0)
        want, hits = pushforward_oracle(samples, 0.45, U0)
        assert hits > 0
        assert round(mu.total_mass * samples.count) == hits
        assert mu.n_atoms == want.n_atoms
        assert np.max(np.abs(mu.vectors - want.vectors)) <= 1e-12
        assert np.max(np.abs(mu.weights - want.weights)) <= 1e-12

    def test_matches_oracle_without_unit_logs(self):
        # a hand-built basis: no unit logs, so the fold is the identity and
        # the cells cover the box of the samples
        mat = np.array([[1.1, 0.3, -0.2], [0.1, 0.9, 0.4], [-0.3, 0.2, 1.2]])
        mat = mat / abs(np.linalg.det(mat)) ** (1 / 3)
        base = LatticeBasis.from_floats(mat)
        U = SquareMatrix(np.array([[1.0, 0.0, 0.0], [0.2, 1.0, 0.0], [0.1, -0.3, 1.0]]))
        samples = dl.sample_orbit(base, 2.0, 300, 5)
        mu = dl.pushforward_minvec(samples, 0.5, U)
        want, hits = pushforward_oracle(samples, 0.5, U)
        assert hits > 0
        assert round(mu.total_mass * samples.count) == hits
        assert mu.n_atoms == want.n_atoms
        assert np.max(np.abs(mu.vectors - want.vectors)) <= 1e-12
        assert np.max(np.abs(mu.weights - want.weights)) <= 1e-12

    @pytest.mark.parametrize("field, k", [("phi", 0), ("phi", 1), ("cubic", 0), ("cubic", 1)])
    def test_unit_translates_have_identical_cone_points(self, phi_tuple, cubic_tuple, field, k):
        tup = phi_tuple if field == "phi" else cubic_tuple
        U0 = conjugator_data(tup).U0
        Uinv_abs = np.abs(np.linalg.inv(U0.entries))
        base = dl.hecke_scaled_lattice(tup, 2, k)
        samples = dl.sample_orbit(base, 6.0, 40, 19)
        for step in base.unit_logs:
            W = samples.log_coords + np.asarray(step)
            for w, w2 in zip(samples.log_coords, W):
                a, b = (
                    sorted(map(tuple, theta_atoms_flowed(
                        base.exact_mantissa, base.exact_scale, x, 0.45, U0.entries, Uinv_abs)))
                    for x in (w, w2)
                )
                assert len(a) == len(b)
                assert all(np.allclose(p, q, rtol=0, atol=1e-12) for p, q in zip(a, b))
            shifted = om.OrbitSampleSet(base, samples.half_width, 0, W)
            mu, nu = (dl.pushforward_minvec(x, 0.45, U0) for x in (samples, shifted))
            assert mu.n_atoms == nu.n_atoms
            assert round(mu.total_mass * 40) == round(nu.total_mass * 40)
            if mu.n_atoms:
                assert np.max(np.abs(mu.vectors - nu.vectors)) <= 1e-12

    @pytest.mark.parametrize("k, N, seed, cap", [(1, 500, 1531591574, 45), (2, 50000, 7, 55)])
    def test_cubic_folds_into_few_cells(self, cubic_tuple, monkeypatch, k, N, seed, cap):
        # the fold rows span the whole stabilizer of M_k (index 7 at k = 1
        # and 2), not the per-generator sublattice (index 49), whose larger
        # domain left 357 and 888 occupied cells here; cells of side 2/n = 1
        # leave 38 and 44
        cells = []

        def counting(*args):
            cells.append(args)
            return lattice_points_in_box_exact(*args)

        monkeypatch.setattr(om, "lattice_points_in_box_exact", counting)
        samples = dl.sample_orbit(dl.hecke_scaled_lattice(cubic_tuple, 2, k), 25.0, N, seed)
        dl.pushforward_minvec(samples, 0.4, conjugator_data(cubic_tuple).U0)
        assert len(cells) <= cap

    def test_quartic_cells_enumerate_fewer_points_than_pow2_boxes(self, monkeypatch):
        # radii rounded up to powers of two enlarged each cell's ball up to
        # 2**4-fold in volume here; the exact row scales find the same atoms
        tup = dl.power_tuple(dl.make_field([1, -4, -4, 1, 1], 192))
        U0 = conjugator_data(tup).U0
        samples = dl.sample_orbit(dl.hecke_scaled_lattice(tup, 2, 1), 6.0, 150, 7)

        def run(box_points):
            points = []

            def counting(*args):
                out = box_points(*args)
                points.append(len(out))
                return out

            monkeypatch.setattr(om, "lattice_points_in_box_exact", counting)
            return dl.pushforward_minvec(samples, 0.4, U0), sum(points)

        (mu, new), (nu, old) = run(lattice_points_in_box_exact), run(pow2_box_points)
        assert 3 * new < old
        assert mu.total_mass == nu.total_mass and mu.n_atoms == nu.n_atoms

    def test_diagonal_past_float_range_raises_before_enumerating(self, monkeypatch):
        # e^800 overflows: a box radius of 0 (or infinity) used to end in an
        # untyped ValueError from the enumeration
        base = LatticeBasis.from_floats(np.eye(3))
        samples = dl.sample_orbit(base, 800.0, 5, 7)
        monkeypatch.setattr(om, "lattice_points_in_box_exact", None)
        with pytest.warns(UserWarning, match="basis precision"):
            with pytest.raises(PrecisionExhausted, match="float range"):
                dl.pushforward_minvec(samples, 0.45, SquareMatrix(np.eye(3)))

    def test_mass_mismatch_raises_typed_error(self, phi_tuple, monkeypatch):
        base = dl.hecke_scaled_lattice(phi_tuple, 2, 1)
        samples = dl.sample_orbit(base, 30.0, 200, 3)
        merge = sm.merge_atoms

        def lossy(mu, *args):
            out = merge(mu, *args)
            return sm.DirectionMeasure(out.dim, out.vectors, out.weights / 2)

        monkeypatch.setattr(om.sm, "merge_atoms", lossy)
        with pytest.raises(DiophlatError, match="hit fraction"):
            dl.pushforward_minvec(samples, 0.45, conjugator_data(phi_tuple).U0)


def in_tuple_order(base):
    """The basis with its rows in the tuple's order (designated embedding
    first), as the former conjugators take it, and its unit log rows to
    match: the designated log is minus the sum of the others."""
    ints = base.exact_mantissa
    logs = None if base.unit_logs is None else tuple(
        (-math.fsum(row),) + tuple(row[:-1]) for row in base.unit_logs)
    return LatticeBasis(ints[-1:] + ints[:-1], base.exact_scale, logs)


class TestRelationOracle:
    """The trace-dual conjugator keeps the orbit measures of Galois fields:
    the former relation conjugator on the tuple-ordered basis, at the same
    samples, gives the same masses and atom counts."""

    @pytest.mark.parametrize("coeffs, k, L, N, eps", [
        ((-1, -1, 1), 0, 25.0, 5000, 0.45), ((-1, -1, 1), 1, 25.0, 5000, 0.45),
        ((-1, -1, 1), 2, 25.0, 5000, 0.45),
        ((-1, -3, 0, 1), 0, 25.0, 3000, 0.4), ((-1, -3, 0, 1), 1, 25.0, 3000, 0.4),
        ((1, -3, 0, 1), 0, 25.0, 3000, 0.4), ((1, -3, 0, 1), 2, 25.0, 3000, 0.4),
        # the second quartic's cell boxes hold about 1700 times the cone's
        # volume, so it takes few samples
        ((1, -4, -4, 1, 1), 0, 6.0, 150, 0.4), ((1, 1, -4, -4, 1), 0, 1.0, 20, 0.4),
    ], ids=str)
    def test_galois_orbit_measures_match(self, coeffs, k, L, N, eps):
        tup = dl.power_tuple(dl.make_field(list(coeffs), 192))
        base = dl.hecke_scaled_lattice(tup, 2, k)
        samples = dl.sample_orbit(base, L, N, 7)
        mu = dl.pushforward_minvec(samples, eps, conjugator_data(tup).U0)
        old = om.OrbitSampleSet(in_tuple_order(base), L, 7, samples.log_coords)
        nu = dl.pushforward_minvec(old, eps, conjugator_oracle.relation_conjugator_data(tup).U0)
        assert mu.n_atoms == nu.n_atoms > 0
        assert round(mu.total_mass * N) == round(nu.total_mass * N)
        assert np.max(np.abs(mu.vectors - nu.vectors)) <= 1e-11
        assert np.max(np.abs(mu.weights - nu.weights)) <= 1e-11


class TestSerialization:
    def test_orbit_csv_header(self, tmp_path, phi_tuple):
        base = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        samples = dl.sample_orbit(base, 5.0, 200, 31)
        mu = dl.pushforward_minvec(samples, 0.45, conjugator_data(phi_tuple).U0)
        path = tmp_path / "orbit.csv"
        om.save_orbit_measure_csv(path, mu, samples, 0.45)
        text = path.read_text().splitlines()
        assert text[0] == "# seed=31 L=5 N=200 eps=0.45000000000000001 conjugator=applied"
        assert text[1] == "x_1,weight"
