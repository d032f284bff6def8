"""diophlat.exact is the one home of the exact integer, Z[theta] and
integer-polynomial helpers."""

import ast
import importlib
import math
import pkgutil

import pytest
from hypothesis import example, given, strategies as st

import diophlat
from diophlat import exact

HELPERS = (
    "_int_det", "_int_inverse", "_int_mat_mul", "_lll_reduce", "_nearest_int_ratio", "_xgcd",
    "_iroot",
    "_companion", "_ring_matrix",
    "_dyadic_from_float", "_integerize", "_scaled_ratio", "_ints_to_floats_scaled",
    "_poly_derivative", "_scaled_eval", "_sign_at", "_sturm_chain",
    "_variations", "_variations_at", "_variations_at_inf", "_divisors",
)


@pytest.mark.parametrize("name", HELPERS)
def test_helper_has_one_definition(name):
    modules = [diophlat] + [importlib.import_module(f"diophlat.{m.name}")
                            for m in pkgutil.iter_modules(diophlat.__path__)]
    fn = getattr(exact, name)
    assert fn.__module__ == "diophlat.exact"
    for mod in modules:
        assert vars(mod).get(name, fn) is fn, f"{mod.__name__} binds its own {name}"


def test_exact_imports_nothing_from_the_package():
    with open(exact.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("diophlat")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("diophlat") for a in node.names)


def root_args(d):
    """(d, y) with y up to 2**8192: drawn whole, drawn by bit length, or a
    perfect d-th power and its neighbours."""
    powers = st.builds(lambda r, e: max(r**d + e, 0), st.integers(0, 2 ** (8192 // d)),
                       st.integers(-1, 1))
    sized = st.integers(0, 8192).flatmap(lambda b: st.integers(0, 2**b))
    return st.tuples(st.just(d), st.one_of(st.integers(0, 2**8192), sized, powers))


@given(st.integers(min_value=2, max_value=5).flatmap(root_args))
@example((2, 0))
@example((3, 1))
@example((2, 2**64 - 1))
@example((3, 2**6000))
@example((4, (2**1500 - 1) ** 4 - 1))
@example((5, 2**388 - 1))  # the largest start from a float root
@example((5, 2**388))
@example((5, (2**1638 + 1) ** 5 - 1))
def test_iroot_is_the_floor_of_the_root(args):
    d, y = args
    r = exact._iroot(y, d)
    assert r**d <= y < (r + 1) ** d


@given(root_args(2))
@example((2, 2**256))
@example((2, 2**256 + 1))
@example((2, (2**4096 - 1) ** 2))
def test_iroot_of_a_square_is_isqrt(args):
    _, y = args
    assert exact._iroot(y, 2) == math.isqrt(y)
