"""The former enumeration kernel, kept as an oracle for latgeo's LLL kernel:
pairwise Lagrange reduction of the integer columns, then a branch and bound
on the float QR factor of the reduced basis.  Also the former per-point
evaluation of the box points (box_points) and the former cone enumeration of
one lattice (enumerate_cone), the first step of the former theta_eps."""

import math

import numpy as np

from diophlat.errors import TooManyPoints
from diophlat.latgeo import (
    POINT_CAP,
    _exact_basis,
    _int_to_float_scaled,
    _nearest_int_ratio,
    in_cone,
    lattice_points_in_box_exact,
)


def lagrange_reduce(cols):
    """Pairwise size reduction of integer columns.  Returns (T, reduced) with
    reduced[j] = sum_i T[j][i] * original[i]; T is unimodular.

    Sweeps run until one changes nothing.  No step grows a squared norm, and
    a step that keeps it (an exact half, rounded up) leaves the pair at minus
    one half, which rounds to zero.  Dependent columns can still trade such
    steps in a cycle (three vectors summing to zero do), so a sweep that
    returns to a state already seen at the same total norm also ends the
    loop; the total is a nonnegative integer, so the loop always ends.
    """
    d = len(cols)
    T = [[1 if i == j else 0 for i in range(d)] for j in range(d)]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    last_total = None
    seen = set()
    while True:
        norms = [dot(c, c) for c in cols]
        total = sum(norms)
        if total != last_total:
            last_total, seen = total, set()
        else:
            state = tuple(map(tuple, cols))
            if state in seen:
                break
            seen.add(state)
        changed = False
        order = sorted(range(d), key=norms.__getitem__)
        cols = [cols[j] for j in order]
        T = [T[j] for j in order]
        for i in range(d):
            ni = dot(cols[i], cols[i])
            if ni == 0:
                continue
            for j in range(d):
                if i == j:
                    continue
                k = _nearest_int_ratio(dot(cols[i], cols[j]), ni)
                if k:
                    cols[j] = [a - k * b for a, b in zip(cols[j], cols[i])]
                    T[j] = [a - k * b for a, b in zip(T[j], T[i])]
                    changed = True
        if not changed:
            break
    return T, cols


def lagrange_enumerate(int_cols, scale_bits, cap=POINT_CAP):
    """Coefficient vectors on int_cols with |B m|_2 <= sqrt(d)(1 + margin),
    for the basis B given by exact integer columns at 2**-scale_bits."""
    d = len(int_cols)
    T, red = lagrange_reduce([list(c) for c in int_cols])
    B = np.array(
        [[_int_to_float_scaled(red[j][i], scale_bits) for j in range(d)] for i in range(d)]
    )
    _, r = np.linalg.qr(B)
    for i in range(d):
        if r[i, i] == 0:
            raise ValueError("degenerate basis")
        if r[i, i] < 0:
            r[i, :] *= -1.0
    radius2 = d * (1.0 + 1e-9) ** 2 + 1e-12

    out = []
    m = [0] * d
    partial = [0.0] * (d + 1)
    nodes = [0]

    def descend(level):
        nodes[0] += 1
        if nodes[0] > 60 * cap or len(out) > cap:
            raise TooManyPoints("enumeration exceeded the point cap")
        rem = radius2 - partial[level + 1]
        if rem < 0:
            return
        c = -sum(r[level, j] * m[j] for j in range(level + 1, d)) / r[level, level]
        s = math.sqrt(rem) / r[level, level]
        lo = math.ceil(c - s - 1e-12)
        hi = math.floor(c + s + 1e-12)
        for v in range(lo, hi + 1):
            m[level] = v
            dv = r[level, level] * (v - c)
            partial[level] = partial[level + 1] + dv * dv
            if partial[level] > radius2:
                continue
            if level == 0:
                mm = tuple(sum(T[j][i] * m[j] for j in range(d)) for i in range(d))
                if any(mm):
                    out.append(mm)
                    if len(out) > cap:
                        raise TooManyPoints("enumeration exceeded the point cap")
            else:
                descend(level - 1)
        m[level] = 0

    descend(d - 1)
    return out


def box_points(ints, scale: int, coeffs):
    """The former point evaluation of lattice_points_in_box_exact: one exact
    integer sum per coordinate of each coefficient vector, then truncated to
    a float."""
    d = len(ints)
    out = []
    for m in coeffs:
        exact = [sum(ints[i][j] * m[j] for j in range(d)) for i in range(d)]
        out.append((m, np.array([_int_to_float_scaled(x, scale) for x in exact])))
    return out


def enumerate_cone(basis, eps, cap=POINT_CAP):
    """(coefficient vectors, points) of the lattice points in the cone of
    in_cone, ordered by coefficient vector."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = basis.dim
    ints, scale = _exact_basis(basis)
    pairs = lattice_points_in_box_exact(ints, scale, [eps] * (d - 1) + [1.0], cap)
    pts = np.array([v for _, v in pairs]).reshape(-1, d)
    kept = sorted((pairs[i] for i in np.flatnonzero(in_cone(pts.T, eps))), key=lambda mv: mv[0])
    return tuple(m for m, _ in kept), tuple(v for _, v in kept)
