import os

import pytest
from hypothesis import settings

from ipdyn import dynamics

# CI (GitHub Actions sets CI) draws the same examples on every run, so a
# failing @given test fails again on a rerun
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def chacon():
    return dynamics.chacon()


@pytest.fixture(scope="session")
def fib():
    return dynamics.fibonacci()
