"""The former enumeration kernel, kept as an oracle for latgeo's LLL kernel:
pairwise Lagrange reduction of the integer columns, then a branch and bound
on the float QR factor of the reduced basis (lagrange_enumerate, and
lagrange_box_coeffs behind the box front end's row scales).  Also the
former depth-first branch and bound of the LLL kernel on one box of
latgeo._reduce_box (depth_first), which the breadth-first batch kernel
replaced, the former per-point evaluation of the box points (box_points),
the former per-point leaf level of the depth-first search
(per_point_enumerate) and the former cone enumeration of one lattice
(enumerate_cone), the first step of the former theta_eps, the scalar
truncation of one integer to a float (_int_to_float_scaled) that
exact._ints_to_floats_scaled does on arrays, and the former box front end,
which rounded each radius up to a power of two (_box_columns,
pow2_radii, pow2_box_coeffs).  ball_coeffs runs the kernel on integer
columns.  The kernel returns one of each +-m pair; signed and box_pairs
restore both signs."""

import math

import numpy as np

from diophlat.errors import TooManyPoints
from diophlat.exact import _lll_reduce, _nearest_int_ratio, _scaled_ratio
from diophlat.latgeo import (POINT_CAP, _box_coeffs, _enumerate_scaled_ball, _reduce_box, in_cone,
                             lattice_points_in_box_exact)


def signed(coeffs):
    """Both signs of the kernel's coefficient vectors: coeffs, then each
    negated, the row order of lattice_points_in_box_exact."""
    return list(coeffs) + [tuple(-x for x in m) for m in coeffs]


def box_pairs(ints, scale, radii):
    """The pairs (m, point) of lattice_points_in_box_exact, both signs of
    each m of _box_coeffs against the rows of its points."""
    return list(zip(signed(_box_coeffs(ints, scale, radii)[1]),
                    lattice_points_in_box_exact(ints, scale, radii)))


def ball_coeffs(int_cols, scale_bits, cap):
    """(T, coefficient vectors m on int_cols) with |B m|_2 <= sqrt(d)(1 +
    margin), for the basis B given by exact integer columns at
    2**-scale_bits: the kernel on the box of unit radii, whose row scales are
    one power of two."""
    box = _reduce_box([list(r) for r in zip(*int_cols)], scale_bits, [1] * len(int_cols))
    C = _enumerate_scaled_ball([box], cap)[1]
    return box[0], list(map(tuple, (C.astype(object) @ np.array(box[0], dtype=object)).tolist()))


def depth_first(box, cap):
    """The former branch and bound of latgeo._enumerate_scaled_ball on one
    box (T, R, B, mu) of latgeo._reduce_box, depth first: its coefficient
    vectors c on the reduced columns, in the order of the search, with its
    point-cap checks; the all-zero leaf's precheck counts the one sign
    emitted, as the batch kernel's does."""
    _, _, B, mu = box
    d = len(B)
    radius2 = d * (1.0 + 1e-9) ** 2 + 1e-12
    if B[0] * (cap + 3) ** 2 < radius2:
        raise TooManyPoints("enumeration exceeded the point cap")

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
        lo, hi = math.ceil(center - s - 1e-12), math.floor(center + s + 1e-12)
        if not any(c[level + 1:]):  # the first nonzero coefficient is positive
            lo = max(lo, 0 if level else 1)

        def inside(v):
            dv = v - center
            partial[level] = partial[level + 1] + B[level] * dv * dv
            return partial[level] <= radius2

        if level == 0:
            if hi - lo - 2 > cap - len(out):
                raise TooManyPoints("enumeration exceeded the point cap")
            while lo <= hi and not inside(lo):
                lo += 1
            while hi >= lo and not inside(hi):
                hi -= 1
            out.extend((v, *c[1:]) for v in range(lo, hi + 1))
            if len(out) > cap:
                raise TooManyPoints("enumeration exceeded the point cap")
            return
        for v in range(lo, hi + 1):
            if inside(v):
                c[level] = v
                descend(level - 1)
        c[level] = 0

    descend(d - 1)
    return out


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


def pow2_radii(radii):
    """Each radius rounded up to a power of two, as the former front end did."""
    out = []
    for r in radii:
        e = math.ceil(math.log2(r))
        if 2.0**e < r:  # guard against log2 rounding
            e += 1
        out.append(2.0**e)
    return out


def pow2_box_coeffs(ints, scale, radii, cap=POINT_CAP):
    """Coefficient vectors of the kernel's ball around the box |x_i| <=
    radii_i, each radius first rounded up to a power of two: up to 2**d
    times the volume of latgeo._box_coeffs's ball."""
    cols, emax = _box_columns(ints, [round(math.log2(r)) for r in pow2_radii(radii)])
    return ball_coeffs(cols, scale + emax, cap)[1]


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


def lagrange_box_coeffs(ints, scale, radii, cap=POINT_CAP):
    """lagrange_enumerate on the columns of the basis ints at 2**-scale with
    the row scales of latgeo._reduce_box: s_i = floor(2**G / radii_i), G the
    least exponent that leaves every s_i at least 2**16."""
    d = len(ints)
    ratios = [r.as_integer_ratio() for r in radii]
    G = 16 + max((num - 1).bit_length() - den.bit_length() + 1 for num, den in ratios)
    s = [(den << G) // num if G >= 0 else den // (num << -G) for num, den in ratios]
    return lagrange_enumerate([[s[i] * ints[i][j] for i in range(d)] for j in range(d)], scale + G, cap)


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


def per_point_enumerate(int_cols, scale_bits: int, cap: int, both_signs=False):
    """The former branch and bound of _enumerate_scaled_ball, on the same
    exact LLL data, whose leaf level tests each integer on its own and maps
    each coefficient vector through T by itself.  It takes the kernel's one
    sign of each +-m pair, or both, as the kernel did before, if both_signs."""
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
        lo = math.ceil(center - s - 1e-12)
        if not both_signs and not any(c[level + 1:]):
            lo = max(lo, 0 if level else 1)
        for v in range(lo, math.floor(center + s + 1e-12) + 1):
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
    pairs = box_pairs(ints, scale, [eps] * (d - 1) + [1.0])
    pts = np.array([v for _, v in pairs]).reshape(-1, d)
    kept = sorted((pairs[i] for i in np.flatnonzero(in_cone(pts.T, eps))), key=lambda mv: mv[0])
    return tuple(m for m, _ in kept), tuple(v for _, v in kept)
