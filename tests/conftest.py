import os
import tracemalloc

import numpy as np
import pytest

from hwl.numerics import Grid

STEP = 2.0 ** -8


def make_grid(x_min: float, x_max: float, step: float = STEP) -> Grid:
    return Grid(x_min, step, int(round((x_max - x_min) / step)) + 1)


@pytest.fixture(scope="session")
def grid_8():
    return make_grid(-8.0, 8.0)


@pytest.fixture(scope="session")
def grid_16():
    return make_grid(-16.0, 16.0)


@pytest.fixture(scope="session")
def grid_32():
    return make_grid(-32.0, 32.0)


@pytest.fixture(scope="session")
def grid_64():
    return make_grid(-64.0, 64.0)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped: a running child or
    an unreaped zombie would outlive the command that made it."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped (pid {pid or 'still running'})")


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def traced_peak_mib(fn) -> float:
    """Peak of the memory ``fn()`` allocates, above what was live before it, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
