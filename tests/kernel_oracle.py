"""The former enumeration kernel, kept as an oracle for latgeo's LLL kernel:
pairwise Lagrange reduction of the integer columns, then a branch and bound
on the float QR factor of the reduced basis.  Also the former per-point
evaluation of the box points (box_points), the former per-point leaf level of
the LLL kernel's branch and bound (per_point_enumerate) and the former cone
enumeration of one lattice (enumerate_cone), the first step of the former
theta_eps, the scalar truncation of one integer to a float
(_int_to_float_scaled) that exact._ints_to_floats_scaled does on arrays, and
the former box front end, which rounded each radius up to a power of two
(_box_columns, pow2_box_coeffs, pow2_box_points)."""

import math

import numpy as np

from diophlat.errors import TooManyPoints
from diophlat.exact import _ints_to_floats_scaled, _lll_reduce, _nearest_int_ratio, _scaled_ratio
from diophlat.latgeo import (POINT_CAP, _enumerate_scaled_ball, in_cone,
                             lattice_points_in_box_exact)


def _int_to_float_scaled(v: int, scale_bits: int) -> float:
    if v == 0:
        return 0.0
    sign = -1.0 if v < 0 else 1.0
    a = abs(v)
    nb = a.bit_length()
    if nb <= 53:
        return sign * math.ldexp(a, -scale_bits)
    return sign * math.ldexp(a >> (nb - 53), nb - 53 - scale_bits)


def _box_columns(ints, exps):
    """Integer columns of the basis ints with row i divided by 2**exps[i],
    and emax: at scale 2**-(scale + emax) for ints at 2**-scale, exactly."""
    d = len(ints)
    emax = max(exps)
    return [[ints[i][j] << (emax - exps[i]) for i in range(d)] for j in range(d)], emax


def pow2_box_coeffs(ints, scale, radii, cap=POINT_CAP):
    """Coefficient vectors of the kernel's ball around the box |x_i| <=
    radii_i, each radius first rounded up to a power of two: up to 2**d
    times the volume of latgeo._box_coeffs's ball."""
    exps = []
    for r in radii:
        e = math.ceil(math.log2(r))
        if 2.0**e < r:  # guard against log2 rounding
            e += 1
        exps.append(e)
    cols, emax = _box_columns(ints, exps)
    return _enumerate_scaled_ball(cols, scale + emax, cap)[1]


def pow2_box_points(ints, scale, radii, cap=POINT_CAP):
    """The former lattice_points_in_box_exact: the pairs (m, point) of
    pow2_box_coeffs, each point evaluated exactly, then truncated."""
    coeffs = pow2_box_coeffs(ints, scale, radii, cap)
    exact = np.array(coeffs, dtype=object).reshape(-1, len(ints)) @ np.array(ints, dtype=object).T
    return list(zip(coeffs, _ints_to_floats_scaled(exact, scale)))


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


def per_point_enumerate(int_cols, scale_bits: int, cap: int):
    """The former branch and bound of _enumerate_scaled_ball, on the same
    exact LLL data, whose leaf level tests each integer on its own and maps
    each coefficient vector through T by itself."""
    d = len(int_cols)
    T, _, D, lam = _lll_reduce(int_cols)
    B = [_scaled_ratio(D[i + 1], D[i], 2 * scale_bits) for i in range(d)]
    mu = [[lam[k][j] / D[j + 1] for j in range(k)] for k in range(d)]
    radius2 = d * (1.0 + 1e-9) ** 2 + 1e-12

    out = []
    c = [0] * d
    partial = [0.0] * (d + 1)
    nodes = [0]

    def descend(level: int):
        nodes[0] += 1
        if nodes[0] > 60 * cap or len(out) > cap:
            raise TooManyPoints("enumeration exceeded the point cap")
        rem = radius2 - partial[level + 1]
        if rem < 0:
            return
        center = -sum(mu[k][level] * c[k] for k in range(level + 1, d))
        s = math.sqrt(rem / B[level])
        for v in range(math.ceil(center - s - 1e-12), math.floor(center + s + 1e-12) + 1):
            c[level] = v
            dv = v - center
            partial[level] = partial[level + 1] + B[level] * dv * dv
            if partial[level] > radius2:
                continue
            if level == 0:
                m = tuple(sum(T[j][i] * c[j] for j in range(d)) for i in range(d))
                if any(m):
                    out.append(m)
                    if len(out) > cap:
                        raise TooManyPoints("enumeration exceeded the point cap")
            else:
                descend(level - 1)
        c[level] = 0

    descend(d - 1)
    return T, out


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


def enumerate_cone(basis, eps):
    """(coefficient vectors, points) of the lattice points in the cone of
    in_cone, ordered by coefficient vector."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = basis.dim
    ints, scale = basis.exact_mantissa, basis.exact_scale
    pairs = lattice_points_in_box_exact(ints, scale, [eps] * (d - 1) + [1.0])
    pts = np.array([v for _, v in pairs]).reshape(-1, d)
    kept = sorted((pairs[i] for i in np.flatnonzero(in_cone(pts.T, eps))), key=lambda mv: mv[0])
    return tuple(m for m, _ in kept), tuple(v for _, v in kept)
