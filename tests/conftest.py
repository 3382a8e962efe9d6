import threading

import numpy as np
import pytest

from lplab import (
    Grid,
    build_partition,
    find_intervals,
    make_builtin,
)


@pytest.fixture(scope="session")
def grid1d():
    return Grid(1, 4096, 16.0)


@pytest.fixture(scope="session")
def grid1d_small():
    return Grid(1, 1024, 16.0)


@pytest.fixture(scope="session")
def poissonq():
    return make_builtin("poissonQ")


@pytest.fixture(scope="session")
def annulus():
    return make_builtin("annulus_bump")


@pytest.fixture(scope="session")
def gaussian():
    return make_builtin("gaussian")


@pytest.fixture(scope="session")
def q_cover(poissonq):
    return find_intervals(poissonq)


@pytest.fixture(scope="session")
def q_partition(poissonq, q_cover):
    return build_partition(poissonq, 0.5, q_cover)


@pytest.fixture(scope="session")
def annulus_cover(annulus):
    return find_intervals(annulus)


@pytest.fixture(scope="session")
def annulus_partition(annulus, annulus_cover):
    return build_partition(annulus, 0.5, annulus_cover)


@pytest.fixture(scope="session")
def constants_grid():
    return Grid(1, 8192, 256.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240117)


@pytest.fixture(scope="session", autouse=True)
def no_member_thread_outlives_the_run():
    """Each run on a large grid joins its member pool's threads before it
    returns, so none may be left once the last test has run."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("lplab-member")]
    assert not left, f"member pool threads outlived the run: {left}"
