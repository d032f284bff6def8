"""Finite atomic measures on S^0 and S^1: normalization, distances, support.

Atoms are unit vectors in R^n with nonnegative weights.  The distance is
total variation on S^0 and Wasserstein-1 (arc-length cost) on S^1, computed
from the circular CDF with the optimal rotation of the cut point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, UnsupportedDimension, ZeroMass

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


def merge_atoms(mu: DirectionMeasure) -> DirectionMeasure:
    """Coalesce atoms within MERGE_TOL of each other: by sign on S^0, on S^1
    every run of atoms whose consecutive angle gaps are at most MERGE_TOL
    (across 2*pi too), and on higher spheres greedily in pairs.  Atoms are
    taken in the lexicographic order of (angle or vector, weight), and each
    sign's weights in ascending order, so that the result, bit for bit, does
    not depend on the order of the atoms."""
    if mu.is_zero():
        return zero_measure(mu.dim)
    if mu.dim == 1:
        plus = float(np.sort(mu.weights[mu.vectors[:, 0] > 0]).sum())
        minus = float(np.sort(mu.weights[mu.vectors[:, 0] < 0]).sum())
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
        order = np.lexsort((mu.weights, ang))
        ang, wts = ang[order], mu.weights[order]
        starts = np.flatnonzero(np.diff(ang) > MERGE_TOL) + 1
        if starts.size and (_TWO_PI - ang[-1]) + ang[0] <= MERGE_TOL:
            # the last group touches the first across 2*pi: move it behind
            # the first, into the first group
            s0, sl = starts[0], starts[-1]
            wrap = np.r_[0:s0, sl : len(ang), s0:sl]
            ang, wts = ang[wrap], wts[wrap]
            starts = starts[:-1] + (len(ang) - sl)
        starts = np.r_[0, starts]
        w = np.add.reduceat(wts, starts)
        # weight-averaged direction, re-normalized
        vx = np.add.reduceat(np.cos(ang) * wts, starts)
        vy = np.add.reduceat(np.sin(ang) * wts, starts)
        nrm = np.hypot(vx, vy)
        flat = nrm == 0.0
        vx = np.where(flat, np.cos(ang[starts]), vx)
        vy = np.where(flat, np.sin(ang[starts]), vy)
        nrm = np.where(flat, 1.0, nrm)
        keep = w > 0
        return DirectionMeasure(2, np.stack([vx / nrm, vy / nrm], axis=1)[keep], w[keep])
    # higher dimensions: greedy pairwise merge
    order = np.lexsort((mu.weights, *mu.vectors.T[::-1]))
    out_v, out_w = [], []
    for v, w in zip(mu.vectors[order], mu.weights[order].tolist()):
        for i, u in enumerate(out_v):
            if np.linalg.norm(u - v) <= MERGE_TOL:
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
            raise InvalidInput("distance expects probability measures")
    if mu1.dim == 1:

        def plus_mass(m):
            return float(m.weights[m.vectors[:, 0] > 0].sum())

        return abs(plus_mass(mu1) - plus_mass(mu2))
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

    # breakpoints partition the circle: 0, every angle more than 1e-18 above
    # the breakpoint below it, and 2*pi; F - G is constant on each piece.
    # Starting from every distinct angle, each pass settles at least the
    # next angle in order; only runs of distinct angles less than 1e-18
    # apart, all below 2^-6, ever take more than one pass.
    uniq = np.unique(pts)
    above = np.ones(uniq.shape, dtype=bool)
    while True:
        below = np.r_[0.0, np.maximum.accumulate(np.where(above, uniq, 0.0))[:-1]]
        settled = uniq > below + 1e-18
        if np.array_equal(settled, above):
            break
        above = settled
    cuts = np.r_[0.0, uniq[above], _TWO_PI]
    lo, lengths = cuts[:-1], np.diff(cuts)
    # on [lo, hi) the difference sums the deltas of the atoms at or below lo
    cdf = np.r_[0.0, np.cumsum(deltas)]
    diff_vals = cdf[np.searchsorted(pts, lo + 1e-18, side="right")]
    keep = lengths > 0
    diff_vals, lengths = diff_vals[keep], lengths[keep]

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
    if not 0 < width <= _TWO_PI:
        raise InvalidInput("width must lie in (0, 2*pi]")
    if mu.is_zero():
        return 0.0
    if width >= _TWO_PI:
        return mu.total_mass
    ang = mu.angles()
    order = np.argsort(ang)
    ang, wts = ang[order], mu.weights[order]
    ext_ang = np.r_[ang, ang + _TWO_PI]
    csum = np.r_[0.0, np.cumsum(np.r_[wts, wts])]
    end = ang + width
    # arcs starting at each atom, [a_i, a_i + width), and just after it,
    # (a_i, a_i + width]
    closed = csum[np.searchsorted(ext_ang, end, side="left")] - csum[: len(ang)]
    opened = (csum[np.searchsorted(ext_ang, end, side="right")]
              - csum[np.searchsorted(ext_ang, ang, side="right")])
    return float(max(np.minimum(closed, opened).min(), 0.0))


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
        dim, vecs = 1, [[float(r[0])] for r in rows]
    else:
        dim, vecs = 2, [[np.cos(float(r[0])), np.sin(float(r[0]))] for r in rows]
    return merge_atoms(DirectionMeasure(dim, vecs, [float(r[1]) for r in rows]))
