import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import linprog

import diophlat as dl
from diophlat import spheremeasure as sm
from diophlat.errors import DimensionMismatch, InvalidInput, UnsupportedDimension, ZeroMass

import sphere_oracle


def circle_measure(pairs):
    atoms = [((math.cos(a), math.sin(a)), w) for a, w in pairs]
    return sphere_oracle.from_atoms(2, atoms)


def sign_measure(plus, minus):
    atoms = []
    if plus:
        atoms.append(((1.0,), plus))
    if minus:
        atoms.append(((-1.0,), minus))
    return sphere_oracle.from_atoms(1, atoms)


def lp_wasserstein_circle(mu1, mu2):
    """Oracle: exact transport LP with arc-length costs."""
    a1, w1 = mu1.angles(), mu1.weights
    a2, w2 = mu2.angles(), mu2.weights
    n1, n2 = len(a1), len(a2)
    cost = np.zeros(n1 * n2)
    for i in range(n1):
        for j in range(n2):
            gap = abs(a1[i] - a2[j])
            cost[i * n2 + j] = min(gap, 2 * math.pi - gap)
    A_eq = []
    b_eq = []
    for i in range(n1):
        row = np.zeros(n1 * n2)
        row[i * n2 : (i + 1) * n2] = 1.0
        A_eq.append(row)
        b_eq.append(w1[i])
    for j in range(n2):
        row = np.zeros(n1 * n2)
        row[j::n2] = 1.0
        A_eq.append(row)
        b_eq.append(w2[j])
    res = linprog(cost, A_eq=np.array(A_eq), b_eq=np.array(b_eq), bounds=(0, None))
    assert res.success
    return res.fun


angles = st.floats(min_value=0.0, max_value=2 * math.pi - 1e-6)
weights = st.floats(min_value=0.01, max_value=1.0)


def atom_lists(max_atoms=5):
    return st.lists(st.tuples(angles, weights), min_size=1, max_size=max_atoms)


def normalized_circle(pairs):
    total = sum(w for _, w in pairs)
    return circle_measure([(a, w / total) for a, w in pairs])


class TestNormalize:
    def test_scales_to_one(self):
        mu = sign_measure(0.2, 0.0)
        out = dl.normalize(mu)
        assert abs(out.total_mass - 1.0) < 1e-15
        assert out.vectors[0][0] == 1.0

    def test_probability_unchanged(self):
        mu = sign_measure(0.25, 0.75)
        out = dl.normalize(mu)
        assert np.allclose(sorted(out.weights), [0.25, 0.75])

    def test_zero_measure_raises(self):
        with pytest.raises(ZeroMass):
            dl.normalize(sm.zero_measure(1))


class TestDistance:
    def test_self_distance_zero(self):
        mu = circle_measure([(0.3, 0.5), (2.0, 0.5)])
        assert dl.distance(mu, mu) < 1e-15

    def test_s0_example(self):
        assert abs(dl.distance(sign_measure(0.5, 0.5), sign_measure(1.0, 0.0)) - 0.5) < 1e-15

    def test_s1_quarter_turn(self):
        mu1 = circle_measure([(0.0, 1.0)])
        mu2 = circle_measure([(math.pi / 2, 1.0)])
        assert abs(dl.distance(mu1, mu2) - math.pi / 2) < 1e-12

    def test_wraparound_shorter_arc(self):
        mu1 = circle_measure([(0.1, 1.0)])
        mu2 = circle_measure([(2 * math.pi - 0.1, 1.0)])
        assert abs(dl.distance(mu1, mu2) - 0.2) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dl.distance(sign_measure(1.0, 0.0), circle_measure([(0.0, 1.0)]))

    def test_higher_dimension_guarded(self):
        mu = sphere_oracle.from_atoms(3, [((1.0, 0.0, 0.0), 1.0)])
        with pytest.raises(UnsupportedDimension):
            dl.distance(mu, mu)

    def test_subprobability_is_typed(self):
        mu = circle_measure([(0.0, 0.5)])
        with pytest.raises(InvalidInput):
            dl.distance(mu, mu)

    @given(atom_lists(), atom_lists())
    def test_matches_lp_oracle(self, p1, p2):
        mu1 = normalized_circle(p1)
        mu2 = normalized_circle(p2)
        got = dl.distance(mu1, mu2)
        want = lp_wasserstein_circle(mu1, mu2)
        assert abs(got - want) < 1e-6

    @given(atom_lists(3), atom_lists(3), atom_lists(3))
    def test_metric_properties(self, p1, p2, p3):
        m1, m2, m3 = (normalized_circle(p) for p in (p1, p2, p3))
        d12 = dl.distance(m1, m2)
        d21 = dl.distance(m2, m1)
        assert abs(d12 - d21) < 1e-9
        d13 = dl.distance(m1, m3)
        d23 = dl.distance(m2, m3)
        assert d13 <= d12 + d23 + 1e-9


class TestMinArcMass:
    def test_uniform_eight(self):
        mu = circle_measure([(i * math.pi / 4, 1 / 8) for i in range(8)])
        got = dl.min_arc_mass(mu, math.pi / 4 + 1e-6)
        assert abs(got - 1 / 8) < 1e-12

    def test_single_atom_half_circle(self):
        mu = circle_measure([(1.0, 1.0)])
        assert dl.min_arc_mass(mu, math.pi) == 0.0

    def test_full_width_is_total(self):
        mu = circle_measure([(0.2, 0.3), (4.0, 0.2)])
        assert abs(dl.min_arc_mass(mu, 2 * math.pi) - 0.5) < 1e-15

    def test_sliding_window_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            k = rng.integers(2, 7)
            angs = rng.uniform(0, 2 * math.pi, size=k)
            wts = rng.uniform(0.05, 0.3, size=k)
            wts = wts / wts.sum()
            mu = circle_measure(list(zip(angs, wts)))
            width = float(rng.uniform(0.2, 2 * math.pi - 0.1))
            grid = np.linspace(0, 2 * math.pi, 5000, endpoint=False)
            a = mu.angles()
            w = mu.weights
            masses = []
            for s in grid:
                rel = np.mod(a - s, 2 * math.pi)
                masses.append(float(w[rel < width].sum()))
            want = min(masses)
            got = dl.min_arc_mass(mu, width)
            assert got <= want + 1e-12
            assert got >= want - float(w.max()) - 1e-12

    def test_monotone_in_width(self):
        mu = circle_measure([(0.5, 0.4), (2.5, 0.3), (4.5, 0.3)])
        widths = np.linspace(0.1, 2 * math.pi, 40)
        vals = [dl.min_arc_mass(mu, float(wd)) for wd in widths]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_s0_unsupported(self):
        with pytest.raises(UnsupportedDimension):
            dl.min_arc_mass(sign_measure(1.0, 0.0), 1.0)

    @pytest.mark.parametrize("width", [0.0, -1.0, 2 * math.pi + 1e-9, math.inf, math.nan])
    def test_bad_width_is_typed(self, width):
        # a NaN width used to slip past the range check and return the whole mass
        with pytest.raises(InvalidInput):
            dl.min_arc_mass(circle_measure([(0.0, 1.0)]), width)


class TestMergeAndSerialize:
    def test_merge_close_atoms(self):
        mu = sm.DirectionMeasure(
            2,
            np.array([[1.0, 0.0], [math.cos(1e-12), math.sin(1e-12)], [0.0, 1.0]]),
            np.array([0.2, 0.3, 0.5]),
        )
        merged = sm.merge_atoms(mu)
        assert merged.n_atoms == 2
        assert abs(merged.total_mass - 1.0) < 1e-12

    def test_merge_on_s2_ignores_atom_order(self):
        # six clusters of five atoms each, spread far below MERGE_TOL: every
        # order of the atoms gives the same merged measure, bit for bit
        rng = np.random.default_rng(3)
        centers = rng.normal(size=(6, 3))
        vecs = np.repeat(centers / np.linalg.norm(centers, axis=1, keepdims=True), 5, axis=0)
        vecs += rng.normal(scale=1e-11, size=vecs.shape)
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        wts = rng.uniform(size=30) / 30
        want = sm.merge_atoms(sm.DirectionMeasure(3, vecs, wts))
        assert want.n_atoms == 6
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(30)
            got = sm.merge_atoms(sm.DirectionMeasure(3, vecs[perm], wts[perm]))
            assert got.vectors.tobytes() == want.vectors.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()

    def test_merge_on_s1_with_ties_ignores_atom_order(self):
        # twelve atoms on three angles, each repeated exactly: an unstable
        # sort by angle alone summed the tied atoms in the order given
        rng = np.random.default_rng(5)
        ang = np.repeat(rng.uniform(0.0, 2 * math.pi, size=3), 4)
        vecs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        wts = rng.uniform(size=12) / 12
        want = sm.merge_atoms(sm.DirectionMeasure(2, vecs, wts))
        assert want.n_atoms == 3
        for seed in range(50):
            perm = np.random.default_rng(seed).permutation(12)
            got = sm.merge_atoms(sm.DirectionMeasure(2, vecs[perm], wts[perm]))
            assert got.vectors.tobytes() == want.vectors.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()

    def test_merge_on_s0_ignores_atom_order(self):
        rng = np.random.default_rng(7)
        vecs = rng.choice([-1.0, 1.0], size=(40, 1))
        wts = rng.uniform(size=40) / 40
        want = sm.merge_atoms(sm.DirectionMeasure(1, vecs, wts))
        assert want.n_atoms == 2
        for seed in range(50):
            perm = np.random.default_rng(seed).permutation(40)
            got = sm.merge_atoms(sm.DirectionMeasure(1, vecs[perm], wts[perm]))
            assert got.vectors.tobytes() == want.vectors.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()

    def test_csv_roundtrip_s1(self, tmp_path):
        mu = circle_measure([(0.7, 0.4), (3.1, 0.6)])
        path = tmp_path / "m.csv"
        sm.save_measure_csv(path, mu)
        back = sm.load_measure_csv(path)
        assert dl.distance(mu, back) < 1e-12

    def test_csv_roundtrip_s0(self, tmp_path):
        mu = sign_measure(0.3, 0.7)
        path = tmp_path / "m.csv"
        sm.save_measure_csv(path, mu)
        back = sm.load_measure_csv(path)
        assert dl.distance(mu, back) < 1e-15

    def test_mass_cap_validation(self):
        with pytest.raises(ValueError):
            sm.DirectionMeasure(1, np.array([[1.0]]), np.array([1.5]))

    def test_unit_vector_validation(self):
        with pytest.raises(ValueError):
            sm.DirectionMeasure(2, np.array([[0.5, 0.0]]), np.array([0.5]))


@st.composite
def overlapping_pairs(draw):
    """Two atom lists, the second reusing some angles of the first."""
    p1 = draw(atom_lists())
    p2 = draw(atom_lists())
    shared = draw(st.lists(weights, max_size=len(p1)))
    return p1, p2 + [(a, w) for (a, _), w in zip(p1, shared)]


@st.composite
def separated_clusters(draw):
    """Atoms in clusters narrower than MERGE_TOL / 2 whose centers lie more
    than 2 * MERGE_TOL apart, one cluster optionally straddling angle 0."""
    tol = sm.MERGE_TOL
    centers = draw(st.lists(st.integers(1, 999), min_size=1, max_size=6, unique=True))
    centers = [c * 2 * math.pi / 1000 for c in centers]
    offsets = st.floats(0.0, 0.49 * tol)
    if draw(st.booleans()):
        centers.append(-0.245 * tol)  # offsets put it on both sides of 0
    pairs = []
    for c in centers:
        for u in draw(st.lists(offsets, min_size=1, max_size=5)):
            pairs.append((c + u, draw(weights)))
    return pairs


class TestArrayPathsMatchLoops:
    """The array versions against the former per-atom loops (sphere_oracle)."""

    @given(overlapping_pairs())
    def test_wasserstein_bitwise(self, pairs):
        mu1, mu2 = (normalized_circle(p) for p in pairs)
        assert sm._wasserstein_circle(mu1, mu2) == sphere_oracle.wasserstein_circle(mu1, mu2)

    def test_wasserstein_breakpoint_chain(self):
        # distinct angles closer than 1e-18 to the one below them: a
        # breakpoint is kept only more than 1e-18 above the last kept one,
        # and the atoms skipped in between count from that breakpoint on
        def raw(angs, wts):
            return sm.DirectionMeasure(
                2, np.array([[math.cos(a), math.sin(a)] for a in angs]), np.array(wts)
            )

        mu1 = raw([0.8e-18, 2.2e-18, 1.0], [0.3, 0.3, 0.4])
        mu2 = raw([1.5e-18, 2.9e-18, 2.0], [0.5, 0.2, 0.3])
        got = sm._wasserstein_circle(mu1, mu2)
        assert got == sphere_oracle.wasserstein_circle(mu1, mu2)
        assert abs(got - lp_wasserstein_circle(mu1, mu2)) < 1e-9

    @given(atom_lists(8), st.floats(0.01, 2 * math.pi - 0.01))
    def test_min_arc_mass_bitwise(self, pairs, width):
        mu = normalized_circle(pairs)
        assert dl.min_arc_mass(mu, width) == sphere_oracle.min_arc_mass(mu, width)

    @given(separated_clusters())
    def test_merge_matches_on_separated_clusters(self, pairs):
        total = sum(w for _, w in pairs)
        raw = sm.DirectionMeasure(
            2,
            np.array([[math.cos(a), math.sin(a)] for a, _ in pairs]),
            np.array([w / total for _, w in pairs]),
        )
        got, want = sm.merge_atoms(raw), sphere_oracle.merge_circle(raw)
        assert got.n_atoms == want.n_atoms
        # the same groups; sums of three or more atoms may round differently
        assert np.allclose(got.weights, want.weights, rtol=1e-14, atol=0.0)
        assert np.allclose(got.vectors, want.vectors, rtol=0.0, atol=1e-15)

    def test_merge_joins_a_chain_longer_than_tol(self):
        # consecutive gaps 0.8 tol, span 3.2 tol: one atom, where the former
        # loop, anchored at each group's first atom, made three
        tol = sm.MERGE_TOL
        angs = [0.1 + 0.8 * tol * i for i in range(5)]
        raw = sm.DirectionMeasure(
            2, np.array([[math.cos(a), math.sin(a)] for a in angs]), np.full(5, 0.2)
        )
        merged = sm.merge_atoms(raw)
        assert merged.n_atoms == 1 and abs(merged.total_mass - 1.0) < 1e-15
        assert abs(merged.angles()[0] - 0.1 - 1.6 * tol) < 1e-12
        assert sphere_oracle.merge_circle(raw).n_atoms == 3
        # a gap just over tol still splits the chain
        angs[3] += 0.3 * tol
        angs[4] += 0.3 * tol
        split = sm.DirectionMeasure(
            2, np.array([[math.cos(a), math.sin(a)] for a in angs]), np.full(5, 0.2)
        )
        assert sm.merge_atoms(split).n_atoms == 2

    def test_merge_chain_across_zero(self):
        tol = sm.MERGE_TOL
        angs = [-1.2 * tol, -0.4 * tol, 0.4 * tol, 1.2 * tol, 1.0]
        raw = sm.DirectionMeasure(
            2, np.array([[math.cos(a), math.sin(a)] for a in angs]), np.full(5, 0.2)
        )
        merged = sm.merge_atoms(raw)
        assert merged.n_atoms == 2
        assert np.allclose(merged.weights, [0.8, 0.2], rtol=1e-15)
        assert np.allclose(merged.vectors[0], [1.0, 0.0], atol=1e-15)
