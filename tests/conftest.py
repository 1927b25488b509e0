import pytest

from swl import AlphaMatrix, EXPONENTIAL, HAAR, Window

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # same examples on every run, no example database, no timing flakes
    settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
    settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def A_haar():
    return AlphaMatrix(HAAR)


@pytest.fixture(scope="session")
def A_exp():
    return AlphaMatrix(EXPONENTIAL)


@pytest.fixture(scope="session")
def w_haar():
    # deep scale ladder so truncation dust stays far below the tolerances
    return Window.symmetric(HAAR, 8, 10, 60)


@pytest.fixture(scope="session")
def w_exp():
    return Window.symmetric(EXPONENTIAL, 8, 6, 12)
