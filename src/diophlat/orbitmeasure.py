"""Box averages over the diagonal group and the cone-direction pushforward.

Haar measure on a compact diagonal orbit is approximated by sampling the
Lie-algebra box [-L, L]^n with a counter-based generator, so sample i is a
pure function of (seed, i) and runs reproduce exactly.

Cone points of U exp(diag(w)) base Z^d are found without ever forming that
product in floats: the diagonal scaling moves into per-axis box radii on the
fixed base (enumerated exactly), and the skew-free residue z = exp(diag(w)) y
is O(1) componentwise, so U z is accurate.  Forming the product matrix first
would lose the points to cancellation once |w| is large.

The orbit is periodic: when the base carries unit_logs, w and w + unit_logs[j]
give the same lattice, so each sample is first moved to its nearest translate
where that shortens it.  Folded samples are bucketed on a grid of side 2/n,
so that each cell's box is under e^4 times any of its samples' in volume;
each occupied cell is enumerated once, and its samples are tested against
the candidates as one array operation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import spheremeasure as sm
from .errors import DiophlatError, InvalidInput, PrecisionExhausted
from .latgeo import (
    LatticeBasis,
    SquareMatrix,
    in_cone,
    lattice_points_in_box_exact,
)

_MARGIN = 1e-9  # relative radius margin, far above the fold's rounding
_CHUNK_BYTES = 1 << 20  # cap on each (samples x candidates) temporary


@dataclass(frozen=True)
class OrbitSampleSet:
    base: LatticeBasis
    half_width: float
    seed: int
    log_coords: np.ndarray  # shape (count, d-1): sample i is exp(diag(w_i, -sum w_i)) base

    @property
    def count(self) -> int:
        return len(self.log_coords)


def sample_orbit(base: LatticeBasis, L: float, N: int, seed: int) -> OrbitSampleSet:
    """N samples exp(diag(v, -sum v)) base with v uniform in [-L, L]^(d-1)."""
    if not (0 < L < math.inf):
        raise InvalidInput("half width must be positive and finite")
    if N < 0:
        raise InvalidInput("sample count must be nonnegative")
    if not 0 <= seed < 2**128:  # the generator's key range
        raise InvalidInput("seed must be in [0, 2**128)")
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    V = gen.uniform(-float(L), float(L), size=(N, base.dim - 1))
    V.setflags(write=False)
    return OrbitSampleSet(base, float(L), int(seed), V)


def theta_eps(lattice: LatticeBasis, eps: float) -> sm.DirectionMeasure:
    """Uniform probability on directions of the cone points of a lattice in
    the cone's frame, or zero measure: the one sample w = 0, with U = 1."""
    w = np.zeros((1, lattice.dim - 1))
    w.setflags(write=False)
    return pushforward_minvec(OrbitSampleSet(lattice, 0.0, 0, w), eps,
                              SquareMatrix(np.eye(lattice.dim)))


def _full_diag(W: np.ndarray) -> np.ndarray:
    return np.concatenate([W, -W.sum(axis=1, keepdims=True)], axis=1)


def _fold(W: np.ndarray, unit_logs) -> np.ndarray:
    """Rows of W moved to their nearest translate by an integer combination
    of the unit log rows, only where that shrinks the full diagonal
    (w, -sum w) in sup norm: folding never asks the exact mantissas for more
    skew than the sample itself.  W itself without unit logs."""
    if unit_logs is None:
        return W
    logs = np.asarray(unit_logs, dtype=float)
    t = np.linalg.solve(logs.T, W.T).T
    F = W - np.rint(t) @ logs
    shorter = np.abs(_full_diag(F)).max(axis=1) < np.abs(_full_diag(W)).max(axis=1)
    return np.where(shorter[:, None], F, W)


def _row_groups(cells: np.ndarray) -> list:
    """Indices of the equal rows of cells, in lexicographic order of the rows."""
    order = np.lexsort(cells.T[::-1])
    return np.split(order, np.flatnonzero(np.diff(cells[order], axis=0).any(axis=1)) + 1)


def _cone_hits(grow: np.ndarray, Y: np.ndarray, eps: float, Umat: np.ndarray):
    """(sample, candidate) index pairs and projections of the cone points
    v = U diag(grow_s) y, over the rows grow_s and the candidates y in Y.
    Row k of v for all pairs is one product (grow * U[k]) @ Y.T."""
    n = Y.shape[1] - 1
    V = [(grow * Umat[k]) @ Y.T for k in range(n + 1)]
    s, c = np.nonzero(in_cone(V, eps))
    return s, np.stack([V[k][s, c] for k in range(n)], axis=1)


def pushforward_minvec(samples: OrbitSampleSet, eps: float, U: SquareMatrix) -> sm.DirectionMeasure:
    """Average over the samples of the uniform probability on the directions
    of each sample lattice's cone points (latgeo.in_cone), after the
    translation by U (an orbit's conjugator U0).  theta_eps is the one-sample case.

    Total mass equals the fraction of samples whose translate meets the cone.
    PrecisionExhausted is raised before any enumeration when a sample's
    diagonal exp(w) leaves the float range (a box radius is 0 or infinite).
    """
    if not (0 < eps < math.inf):
        raise InvalidInput("eps must be positive and finite")
    N = samples.count
    n = samples.base.dim - 1
    if N == 0:
        return sm.zero_measure(n)
    base = samples.base
    base_ints, base_scale = base.exact_mantissa, base.exact_scale
    W = _fold(samples.log_coords, base.unit_logs)
    # cone membership at half width L probes coefficients near e^L, so the
    # basis must carry roughly 2L/ln2 extra bits beyond the answer precision;
    # folded samples count at their own size
    L = max(samples.half_width, float(np.abs(W).max()))
    needed = int(2.0 * L / math.log(2.0)) + 40
    if base_scale < needed:
        warnings.warn(
            f"basis precision {base_scale} bits is below the ~{needed} needed "
            f"at half width {L}; cone hits can be "
            "misclassified (rebuild the field with more precision bits)",
            stacklevel=2,
        )
    Umat = U.entries
    reach = np.abs(np.linalg.inv(Umat)) @ np.array([eps] * n + [1.0])
    with np.errstate(over="ignore", divide="ignore"):
        grow = np.exp(_full_diag(W))
        # each sample needs the base points y with |y_i| <= reach_i / grow_i
        radii = reach / grow
    if not np.all((radii > 0) & np.isfinite(radii)):
        raise PrecisionExhausted(f"at half width {L} a sample's diagonal leaves the float range")
    cells = np.floor((W - W.min(axis=0)) * (n / 2)).astype(np.int64)
    owners, vecs = [], []
    for members in _row_groups(cells):
        box = radii[members].max(axis=0) * (1.0 + _MARGIN)
        pts = lattice_points_in_box_exact(base_ints, base_scale, box)
        if not pts:
            continue
        Y = np.array([y for _, y in pts])
        step = max(1, _CHUNK_BYTES // (8 * len(Y)))
        for lo in range(0, len(members), step):
            rows = members[lo : lo + step]
            s, proj = _cone_hits(grow[rows], Y, eps, Umat)
            if s.size:
                owners.append(rows[s])
                vecs.append(proj / np.linalg.norm(proj, axis=1, keepdims=True))
    if not owners:
        return sm.zero_measure(n)
    owners = np.concatenate(owners)
    per_sample = np.bincount(owners, minlength=N)
    hits = int(np.count_nonzero(per_sample))
    wts = 1.0 / per_sample[owners] / N
    mu = sm.merge_atoms(sm.DirectionMeasure(n, np.vstack(vecs), wts))
    if abs(mu.total_mass - hits / N) >= 1e-9:
        raise DiophlatError(
            f"orbit mass {mu.total_mass!r} differs from the hit fraction {hits}/{N}"
        )
    return mu


def save_orbit_measure_csv(path, mu: sm.DirectionMeasure, samples: OrbitSampleSet, eps: float) -> None:
    with open(path, "w") as fh:
        fh.write(
            f"# seed={samples.seed} L={samples.half_width:.17g} N={samples.count} "
            f"eps={eps:.17g} conjugator=applied\n"
        )
        cols = [f"x_{i+1}" for i in range(mu.dim)] + ["weight"]
        fh.write(",".join(cols) + "\n")
        for v, w in zip(mu.vectors, mu.weights):
            fh.write(",".join(f"{x:.17g}" for x in v) + f",{w:.17g}\n")
