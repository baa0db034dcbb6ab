import numpy as np
import pytest

from tevp.profiles import get_profile, liouville_transform
from tevp.zeros import find_zeros


@pytest.fixture(scope="session")
def colton():
    return get_profile("colton_example")


@pytest.fixture(scope="session")
def colton_lv(colton):
    return liouville_transform(colton)


@pytest.fixture(scope="session")
def const4():
    return get_profile("constant", [4.0])


@pytest.fixture(scope="session")
def colton_spectrum_40(colton):
    """Zeros of the example profile up to Re k = 40 (moderate cost)."""
    return find_zeros(colton, (0.3, 40.0, 0.0, 6.0))


@pytest.fixture(scope="session")
def colton_spectrum_150(colton):
    """Zeros of the example profile covering |k| <= 150 (expensive; shared
    by the asymptotic-matching and counting-law acceptance tests)."""
    return find_zeros(colton, (0.3, 150.5, 0.0, 8.0))


@pytest.fixture(scope="session")
def colton_band_150(colton):
    """Zeros of the example profile in the top strip of the |k| <= 150 search."""
    return find_zeros(colton, (145.0, 150.5, 0.0, 8.0))


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
