import pytest

from rabictl.integrate import TimeGrid
from rabictl.model import DEFAULT_SEEDING, seeded_state
from rabictl.params import TABLE2_BASELINE, TABLE2_ESTIMATED


@pytest.fixture(scope="session")
def p_est():
    return TABLE2_ESTIMATED


@pytest.fixture(scope="session")
def p_base():
    return TABLE2_BASELINE


@pytest.fixture(scope="session")
def default_state(p_est):
    return seeded_state(p_est, *DEFAULT_SEEDING)


@pytest.fixture(scope="session")
def grid_20y():
    return TimeGrid(0.0, 20.0, 2000)
