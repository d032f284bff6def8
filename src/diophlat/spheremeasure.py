"""Finite atomic measures on S^0 and S^1: normalization, distances, support.

Atoms are unit vectors in R^n with nonnegative weights.  The distance is
total variation on S^0 and Wasserstein-1 (arc-length cost) on S^1, computed
from the circular CDF with the optimal rotation of the cut point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnsupportedDimension, ZeroMass

MERGE_TOL = 1e-9

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class DirectionMeasure:
    """Atomic measure on the unit sphere in R^dim with total mass <= 1."""

    dim: int
    vectors: np.ndarray  # shape (k, dim), unit rows
    weights: np.ndarray  # shape (k,)

    def __post_init__(self):
        vec = np.array(self.vectors, dtype=float).reshape(-1, self.dim)
        wts = np.array(self.weights, dtype=float).reshape(-1)
        if vec.shape[0] != wts.shape[0]:
            raise ValueError("vectors and weights disagree in length")
        if np.any(wts < -1e-15):
            raise ValueError("weights must be nonnegative")
        wts = np.clip(wts, 0.0, None)
        if vec.shape[0]:
            norms = np.linalg.norm(vec, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise ValueError("atoms must be unit vectors")
        total = float(wts.sum())
        if total > 1.0 + 1e-9:
            raise ValueError("total mass exceeds one")
        vec.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "vectors", vec)
        object.__setattr__(self, "weights", wts)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def n_atoms(self) -> int:
        return int(self.weights.shape[0])

    def angles(self) -> np.ndarray:
        if self.dim != 2:
            raise UnsupportedDimension("angles only defined on S^1")
        return np.mod(np.arctan2(self.vectors[:, 1], self.vectors[:, 0]), _TWO_PI)

    def is_zero(self) -> bool:
        return self.n_atoms == 0 or self.total_mass == 0.0


def zero_measure(dim: int) -> DirectionMeasure:
    return DirectionMeasure(dim, np.zeros((0, dim)), np.zeros(0))


def from_atoms(dim: int, atoms) -> DirectionMeasure:
    """Build a measure from an iterable of (vector, weight), merging atoms
    closer than MERGE_TOL."""
    vecs, wts = [], []
    for v, w in atoms:
        vecs.append(np.asarray(v, dtype=float))
        wts.append(float(w))
    if not vecs:
        return zero_measure(dim)
    return merge_atoms(DirectionMeasure(dim, np.array(vecs), np.array(wts)))


def merge_atoms(mu: DirectionMeasure, tol: float = MERGE_TOL) -> DirectionMeasure:
    """Coalesce atoms within tol of each other (angle on S^1, sign on S^0)."""
    if mu.is_zero():
        return zero_measure(mu.dim)
    if mu.dim == 1:
        plus = float(mu.weights[mu.vectors[:, 0] > 0].sum())
        minus = float(mu.weights[mu.vectors[:, 0] < 0].sum())
        vecs, wts = [], []
        if plus > 0:
            vecs.append([1.0])
            wts.append(plus)
        if minus > 0:
            vecs.append([-1.0])
            wts.append(minus)
        if not vecs:
            return zero_measure(1)
        return DirectionMeasure(1, np.array(vecs), np.array(wts))
    if mu.dim == 2:
        ang = mu.angles()
        order = np.argsort(ang)
        ang, wts = ang[order], mu.weights[order]
        groups = [[0]]
        for i in range(1, len(ang)):
            if ang[i] - ang[groups[-1][0]] <= tol:
                groups[-1].append(i)
            else:
                groups.append([i])
        # wraparound: last group may touch the first across 2*pi
        if len(groups) > 1 and (_TWO_PI - ang[groups[-1][0]]) + ang[0] <= tol:
            groups[0].extend(groups.pop())
        out_v, out_w = [], []
        for g in groups:
            w = float(wts[g].sum())
            if w <= 0:
                continue
            # weight-averaged direction, re-normalized
            vx = float(np.sum(np.cos(ang[g]) * wts[g]))
            vy = float(np.sum(np.sin(ang[g]) * wts[g]))
            nrm = float(np.hypot(vx, vy))
            if nrm == 0.0:
                vx, vy = np.cos(ang[g[0]]), np.sin(ang[g[0]])
                nrm = 1.0
            out_v.append([vx / nrm, vy / nrm])
            out_w.append(w)
        if not out_v:
            return zero_measure(2)
        return DirectionMeasure(2, np.array(out_v), np.array(out_w))
    # higher dimensions: greedy pairwise merge
    vecs = [v.copy() for v in mu.vectors]
    wts = list(map(float, mu.weights))
    out_v, out_w = [], []
    for v, w in zip(vecs, wts):
        for i, u in enumerate(out_v):
            if np.linalg.norm(u - v) <= tol:
                out_w[i] += w
                break
        else:
            out_v.append(v)
            out_w.append(w)
    return DirectionMeasure(mu.dim, np.array(out_v), np.array(out_w))


def normalize(mu: DirectionMeasure) -> DirectionMeasure:
    """Scale weights so the total mass is one."""
    total = mu.total_mass
    if total <= 0.0:
        raise ZeroMass("cannot normalize the zero measure")
    return DirectionMeasure(mu.dim, mu.vectors, mu.weights / total)


def distance(mu1: DirectionMeasure, mu2: DirectionMeasure) -> float:
    """Distance between probability measures: total variation on S^0,
    Wasserstein-1 with arc-length cost on S^1; higher spheres raise
    UnsupportedDimension.
    """
    if mu1.dim != mu2.dim:
        raise DimensionMismatch(f"dim {mu1.dim} vs {mu2.dim}")
    for m in (mu1, mu2):
        if abs(m.total_mass - 1.0) > 1e-6:
            raise ValueError("distance expects probability measures")
    if mu1.dim == 1:
        a = merge_atoms(mu1)
        b = merge_atoms(mu2)

        def plus_mass(m):
            sel = m.vectors[:, 0] > 0
            return float(m.weights[sel].sum())

        return abs(plus_mass(a) - plus_mass(b))
    if mu1.dim == 2:
        return _wasserstein_circle(mu1, mu2)
    raise UnsupportedDimension("exact distance implemented for S^0 and S^1 only")


def _wasserstein_circle(mu1: DirectionMeasure, mu2: DirectionMeasure) -> float:
    """W1 on the circle of circumference 2*pi via the CDF-shift formula.

    With F, G the circular CDFs, W1 = min_t int |F - G - t|; the optimizer is
    a weighted median of the piecewise-constant difference.
    """
    a1, w1 = mu1.angles(), mu1.weights
    a2, w2 = mu2.angles(), mu2.weights
    pts = np.concatenate([a1, a2])
    deltas = np.concatenate([w1, -w2])
    order = np.argsort(pts, kind="stable")
    pts, deltas = pts[order], deltas[order]

    # breakpoints partition the circle; diff is constant on each piece
    uniq = [0.0]
    for p in pts:
        if p > uniq[-1] + 1e-18:
            uniq.append(float(p))
    uniq.append(_TWO_PI)

    diff_vals, lengths = [], []
    acc = 0.0
    idx = 0
    for seg in range(len(uniq) - 1):
        lo, hi = uniq[seg], uniq[seg + 1]
        while idx < len(pts) and pts[idx] <= lo + 1e-18:
            acc += deltas[idx]
            idx += 1
        if hi - lo > 0:
            diff_vals.append(acc)
            lengths.append(hi - lo)
    diff_vals = np.array(diff_vals)
    lengths = np.array(lengths)

    order = np.argsort(diff_vals)
    diff_vals, lengths = diff_vals[order], lengths[order]
    cum = np.cumsum(lengths)
    half = cum[-1] / 2.0
    med = diff_vals[int(np.searchsorted(cum, half))]
    return float(np.sum(np.abs(diff_vals - med) * lengths))


def min_arc_mass(mu: DirectionMeasure, width: float) -> float:
    """Minimum measure of a closed-start half-open arc [s, s + width).

    Only defined on S^1.  A width of 2*pi or more covers the whole circle.
    """
    if mu.dim != 2:
        raise UnsupportedDimension("arcs are only defined on S^1")
    if width <= 0 or width > _TWO_PI:
        raise ValueError("width must lie in (0, 2*pi]")
    if mu.is_zero():
        return 0.0
    if width >= _TWO_PI:
        return mu.total_mass
    ang = np.sort(mu.angles())
    order = np.argsort(mu.angles())
    wts = mu.weights[order]
    k = len(ang)
    ext_ang = np.concatenate([ang, ang + _TWO_PI])
    ext_w = np.concatenate([wts, wts])
    csum = np.concatenate([[0.0], np.cumsum(ext_w)])

    best = None
    for i in range(k):
        # arc starting at an atom: [a_i, a_i + width)
        s = ang[i]
        jhi = np.searchsorted(ext_ang, s + width, side="left")
        mass_closed = csum[jhi] - csum[i]
        # arc starting just after the atom: (a_i, a_i + width]
        jlo = np.searchsorted(ext_ang, s, side="right")
        jhi2 = np.searchsorted(ext_ang, s + width, side="right")
        mass_open = csum[jhi2] - csum[jlo]
        cand = min(mass_closed, mass_open)
        best = cand if best is None else min(best, cand)
    return float(max(best, 0.0))


def _check_csv_dim(dim: int) -> None:
    """Raise UnsupportedDimension unless save_measure_csv can write a
    measure on the sphere in R^dim."""
    if dim not in (1, 2):
        raise UnsupportedDimension("csv output covers S^0 and S^1")


def save_measure_csv(path, mu: DirectionMeasure) -> None:
    """CSV rows: sign,weight on S^0 or angle,weight on S^1."""
    _check_csv_dim(mu.dim)
    with open(path, "w") as fh:
        if mu.dim == 1:
            fh.write("sign,weight\n")
            for v, w in zip(mu.vectors, mu.weights):
                fh.write(f"{int(np.sign(v[0]))},{w:.17g}\n")
        elif mu.dim == 2:
            fh.write("angle,weight\n")
            for a, w in zip(mu.angles(), mu.weights):
                fh.write(f"{a:.17g},{w:.17g}\n")


def load_measure_csv(path) -> DirectionMeasure:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if header[0] == "sign":
        atoms = [((float(r[0]),), float(r[1])) for r in rows]
        return from_atoms(1, atoms)
    atoms = [((np.cos(float(r[0])), np.sin(float(r[0]))), float(r[1])) for r in rows]
    return from_atoms(2, atoms)
