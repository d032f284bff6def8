import math

import numpy as np
import pytest

import diophlat as dl
from diophlat import orbitmeasure as om
from diophlat import spheremeasure as sm
from diophlat.errors import DiophlatError, InvalidInput
from diophlat.latgeo import (
    LatticeBasis,
    SquareMatrix,
    _exact_basis,
    conjugator_data,
    lattice_points_in_box_exact,
)

from kernel_oracle import enumerate_cone
from sphere_oracle import from_atoms


def make_basis(mat, unimodular=False):
    smx = SquareMatrix(np.asarray(mat, dtype=float))
    return LatticeBasis(smx, covolume=abs(smx.det()), unimodular=unimodular)


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
    reach = target if Uinv_abs is None else Uinv_abs @ target
    radii = reach * np.exp(-diag) * (1.0 + 1e-12)
    dirs = []
    for _, y in lattice_points_in_box_exact(base_ints, base_scale, radii):
        z = grow * y
        v = Umat @ z if Umat is not None else z
        proj = v[: d - 1]
        sup = float(np.max(np.abs(proj)))
        if 0.0 < sup < eps and abs(float(v[d - 1])) <= 1.0:
            dirs.append(proj / np.linalg.norm(proj))
    return dirs


def pushforward_oracle(samples, eps, U=None):
    """Per-sample pushforward: one enumeration and one loop per sample.
    Returns the merged measure and the hit count."""
    base = samples.base
    n = base.dim - 1
    ints, scale = _exact_basis(base)
    Umat = None if U is None else U.entries
    Uinv_abs = None if U is None else np.abs(np.linalg.inv(Umat))
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


class TestSampleOrbit:
    def test_empty(self):
        out = dl.sample_orbit(make_basis(np.eye(2)), 1.0, 0, 3)
        assert out.count == 0 and out.log_coords.shape == (0, 1)

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
        samples = dl.sample_orbit(base, 60.0, 5, 3)
        with pytest.warns(UserWarning, match="precision"):
            dl.pushforward_minvec(samples, 0.45)
        samples_ok = dl.sample_orbit(base, 30.0, 5, 3)
        with w.catch_warnings():
            w.simplefilter("error")
            dl.pushforward_minvec(samples_ok, 0.45)

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
        samples = om.OrbitSampleSet(base, 1.0, 20000, 42, X @ np.asarray(base.unit_logs))
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
        mu = dl.theta_eps(make_basis(np.eye(2)), 0.6)
        assert mu.is_zero()

    def test_rectangular(self):
        mu = dl.theta_eps(make_basis(np.diag([0.5, 2.0])), 0.6)
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
        base = make_basis(np.diag([0.5, 2.0]))
        samples = om.OrbitSampleSet(base, 1.0, 4, 0, np.zeros((4, 1)))
        mu = dl.pushforward_minvec(samples, 0.6)
        masses = {int(v[0]): w for v, w in zip(mu.vectors, mu.weights)}
        assert masses == {1: 0.5, -1: 0.5}
        assert abs(mu.total_mass - 1.0) < 1e-12

    def test_z2_zero(self):
        base = make_basis(np.eye(2))
        samples = om.OrbitSampleSet(base, 1.0, 3, 0, np.zeros((3, 1)))
        assert dl.pushforward_minvec(samples, 0.6).is_zero()

    def test_empty_samples(self, phi_tuple):
        base = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        samples = dl.sample_orbit(base, 1.0, 0, 5)
        assert dl.pushforward_minvec(samples, 0.45).is_zero()

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
        wal = dl.sweep_weights(recs, T, 0.45)
        base = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        samples = dl.sample_orbit(base, L, 20000, 20260809)
        push = dl.pushforward_minvec(samples, 0.45, data.U0)
        assert abs(push.total_mass - (1.0 - wal.empty_fraction)) < 0.05

    def test_diagonal_invariance(self, phi_tuple):
        # replacing the base point by a small diagonal translate moves the
        # box-average measure only a little
        data = conjugator_data(phi_tuple)
        base = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        s = 0.5
        shifted_mat = dl.diag_flow(s, 2).entries @ base.matrix.entries
        # carry the exact mantissas through the diagonal multiplication
        scale = base.exact_scale
        e_s = math.exp(s)
        shifted_exact = tuple(
            tuple(int(round(m * (e_s if i == 0 else 1 / e_s))) for m in row)
            for i, row in enumerate(base.exact_mantissa)
        )
        shifted = LatticeBasis(
            SquareMatrix(shifted_mat),
            covolume=abs(np.linalg.det(shifted_mat)),
            unimodular=True,
            exact_mantissa=shifted_exact,
            exact_scale=scale,
        )
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
        base = make_basis(mat, unimodular=True)
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
            shifted = om.OrbitSampleSet(base, samples.half_width, samples.count, 0, W)
            mu, nu = (dl.pushforward_minvec(x, 0.45, U0) for x in (samples, shifted))
            assert mu.n_atoms == nu.n_atoms
            assert round(mu.total_mass * 40) == round(nu.total_mass * 40)
            if mu.n_atoms:
                assert np.max(np.abs(mu.vectors - nu.vectors)) <= 1e-12

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


class TestSerialization:
    def test_orbit_csv_header(self, tmp_path, phi_tuple):
        base = dl.hecke_scaled_lattice(phi_tuple, 2, 0)
        samples = dl.sample_orbit(base, 5.0, 200, 31)
        mu = dl.pushforward_minvec(samples, 0.45)
        path = tmp_path / "orbit.csv"
        om.save_orbit_measure_csv(path, mu, samples, 0.45, False)
        text = path.read_text().splitlines()
        assert text[0].startswith("# seed=31 L=5 N=200")
        assert "conjugator=none" in text[0]
        assert text[1] == "x_1,weight"
