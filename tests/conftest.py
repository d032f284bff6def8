import pytest
from hypothesis import settings

import diophlat as dl

settings.register_profile("suite", max_examples=40, deadline=None)
settings.load_profile("suite")

PHI_COEFFS = [-1, -1, 1]
CUBIC_COEFFS = [-1, -3, 0, 1]
QUARTIC_COEFFS = [1, -4, -1, 4, 1]
# x^4 - 4x^3 - 4x^2 + x + 1, the reciprocal of x^4 + x^3 - 4x^2 - 4x + 1
# (the minimal polynomial of 2cos(2pi/15)): a cyclic quartic field
CYCLIC_QUARTIC_COEFFS = [1, 1, -4, -4, 1]


@pytest.fixture(scope="session")
def phi_field():
    return dl.make_field(PHI_COEFFS, 192)


@pytest.fixture(scope="session")
def phi_tuple(phi_field):
    return dl.power_tuple(phi_field)


@pytest.fixture(scope="session")
def cubic_field():
    return dl.make_field(CUBIC_COEFFS, 192)


@pytest.fixture(scope="session")
def cubic_tuple(cubic_field):
    return dl.power_tuple(cubic_field)


@pytest.fixture(scope="session")
def quartic_tuple():
    return dl.power_tuple(dl.make_field(QUARTIC_COEFFS, 192))


@pytest.fixture(scope="session")
def cyclic_quartic_tuple():
    return dl.power_tuple(dl.make_field(CYCLIC_QUARTIC_COEFFS, 192))


@pytest.fixture(scope="session")
def phi_tuple_hi():
    # doubled precision twin used as the certified-arithmetic oracle
    return dl.power_tuple(dl.make_field(PHI_COEFFS, 384))


@pytest.fixture(scope="session")
def cubic_tuple_hi():
    return dl.power_tuple(dl.make_field(CUBIC_COEFFS, 384))


@pytest.fixture(scope="session")
def cubic_tuple_1024():
    # certifies record scans of 2^8 * alpha out to the 2^512 horizon cap
    return dl.power_tuple(dl.make_field(CUBIC_COEFFS, 1024))
