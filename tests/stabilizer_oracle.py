"""The former fold rows: the least stabilizing power of each short unit.

Each unit u_i of latgeo._short_units has finite order mod pk, so some power
stabilizes M = Z + Z theta + ... + Z pk theta**n; on the basis of M the
matrix of u_i**m is D^-1 A**m D, D = diag(1, ..., 1, pk), integral iff
stabilizes(A**m).  The rows m_i log u_i span a sublattice of the
stabilizer, of index prod m_i over its own index.
"""

from diophlat.exact import _int_det, _int_mat_mul
from diophlat.latgeo import _FOLD_REACH, _short_units


def stabilizes(A, pk: int) -> bool:
    """Whether the map with power-basis matrix A is integral on the basis
    (1, theta, ..., theta**(n-1), pk theta**n): only the last row is divided
    by pk, and off the corner its entries must vanish mod pk."""
    return not any(x % pk for x in A[-1][:-1])


def unit_orders(units, pk: int, reach: float = _FOLD_REACH):
    """Least m_i >= 1 with u_i**m_i M = M for each unit, or None once a
    power m_i would step its unit past reach."""
    orders = []
    for A, logs in units:
        P, m = A, 1
        while not stabilizes(P, pk):
            m += 1
            if m * max(map(abs, logs)) > reach:
                return None
            P = _int_mat_mul(P, A)
        assert _int_det(P) == 1
        orders.append(m)
    return orders


def per_generator_unit_logs(tup, pk: int):
    """The rows m_i (log u_i) over the first d-1 embeddings, or None."""
    units = _short_units(tup)
    orders = None if units is None else unit_orders(units, pk)
    if orders is None:
        return None
    d = tup.dim
    return tuple(tuple(m * x for x in logs[: d - 1]) for m, (_, logs) in zip(orders, units))
