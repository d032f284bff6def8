"""The former per-atom loops of spheremeasure on S^1, kept as oracles for
its array versions: the anchored merge, the circle W1 with its breakpoint
loop, and the arc-mass scan over every start.  Also the former per-atom
constructor (from_atoms) and the former measure writers, which formatted
numpy scalars one at a time (save_measure_csv_scalars,
save_orbit_measure_csv_scalars)."""

import numpy as np

from diophlat.spheremeasure import MERGE_TOL, DirectionMeasure, merge_atoms, zero_measure

_TWO_PI = 2.0 * np.pi


def from_atoms(dim: int, atoms) -> DirectionMeasure:
    """A measure from an iterable of (vector, weight), merging atoms closer
    than MERGE_TOL."""
    vecs, wts = [], []
    for v, w in atoms:
        vecs.append(np.asarray(v, dtype=float))
        wts.append(float(w))
    if not vecs:
        return zero_measure(dim)
    return merge_atoms(DirectionMeasure(dim, np.array(vecs), np.array(wts)))


def merge_circle(mu: DirectionMeasure, tol: float = MERGE_TOL) -> DirectionMeasure:
    """Groups anchored at their smallest angle: an atom joins the open group
    when it lies within tol of the group's first atom."""
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


def wasserstein_circle(mu1: DirectionMeasure, mu2: DirectionMeasure) -> float:
    a1, w1 = mu1.angles(), mu1.weights
    a2, w2 = mu2.angles(), mu2.weights
    pts = np.concatenate([a1, a2])
    deltas = np.concatenate([w1, -w2])
    order = np.argsort(pts, kind="stable")
    pts, deltas = pts[order], deltas[order]

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
    """For a nonzero measure and 0 < width < 2*pi."""
    ang = np.sort(mu.angles())
    order = np.argsort(mu.angles())
    wts = mu.weights[order]
    k = len(ang)
    ext_ang = np.concatenate([ang, ang + _TWO_PI])
    ext_w = np.concatenate([wts, wts])
    csum = np.concatenate([[0.0], np.cumsum(ext_w)])

    best = None
    for i in range(k):
        s = ang[i]
        jhi = np.searchsorted(ext_ang, s + width, side="left")
        mass_closed = csum[jhi] - csum[i]
        jlo = np.searchsorted(ext_ang, s, side="right")
        jhi2 = np.searchsorted(ext_ang, s + width, side="right")
        mass_open = csum[jhi2] - csum[jlo]
        cand = min(mass_closed, mass_open)
        best = cand if best is None else min(best, cand)
    return float(max(best, 0.0))


def save_measure_csv_scalars(path, mu: DirectionMeasure) -> None:
    """The former spheremeasure.save_measure_csv."""
    with open(path, "w") as fh:
        if mu.dim == 1:
            fh.write("sign,weight\n")
            for v, w in zip(mu.vectors, mu.weights):
                fh.write(f"{int(np.sign(v[0]))},{w:.17g}\n")
        elif mu.dim == 2:
            fh.write("angle,weight\n")
            for a, w in zip(mu.angles(), mu.weights):
                fh.write(f"{a:.17g},{w:.17g}\n")


def save_orbit_measure_csv_scalars(path, mu: DirectionMeasure, samples, eps: float) -> None:
    """The former orbitmeasure.save_orbit_measure_csv."""
    with open(path, "w") as fh:
        fh.write(
            f"# seed={samples.seed} L={samples.half_width:.17g} N={samples.count} "
            f"eps={eps:.17g} conjugator=applied\n"
        )
        cols = [f"x_{i+1}" for i in range(mu.dim)] + ["weight"]
        fh.write(",".join(cols) + "\n")
        for v, w in zip(mu.vectors, mu.weights):
            fh.write(",".join(f"{x:.17g}" for x in v) + f",{w:.17g}\n")
